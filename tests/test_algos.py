import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geolearn import wansim
from geolearn.algos import (WARMUP_SCHEDULE, ArrayBatches, DgcNode,
                            FedAvgNode, GaiaNode, dgc_select, warmup_sparsity)
from geolearn.data import (MinibatchStream, SkewSpec, gen_cluster_data,
                           partition_label_skew)
from geolearn.harness import AlgoCfg, config_from_dict, run_experiment
from geolearn.numerics import StepDecay
from geolearn.psync import BarrierMsg, apply_barrier
from geolearn.rng import seed_stream
from geolearn.models import SoftmaxModel, TinyMLP


# ---------------------------------------------------------------------------
# warm-up ramp and top-k selection


def test_warmup_ladder_oracle():
    assert [warmup_sparsity(e, 1) for e in range(1, 7)] == [
        75.0, 93.75, 98.4375, 99.6, 99.9, 99.9]
    # e_warm=4 holds each stage for four epochs
    assert warmup_sparsity(4, 4) == 75.0
    assert warmup_sparsity(5, 4) == 93.75
    assert warmup_sparsity(17, 4) == 99.9


def test_warmup_validates_inputs():
    with pytest.raises(ValueError):
        warmup_sparsity(0, 1)
    with pytest.raises(ValueError):
        warmup_sparsity(1, 0)


def test_dgc_select_oracle():
    v = np.array([3.0, -5.0, 0.5, 5.0, -3.0])
    # 60% sparsity over 5 coords: k = ceil(0.4 * 5) = 2; |v| ties at 5.0
    # resolve to the lower index first, so both survive here
    assert dgc_select(v, 60.0).tolist() == [1, 3]
    # k = ceil(0.001 * 5) = 1: the tie between 1 and 3 goes to index 1
    assert dgc_select(v, 99.9).tolist() == [1]
    assert dgc_select(v, 0.0).tolist() == [0, 1, 2, 3, 4]


def test_dgc_select_tie_break_is_positional_not_signed():
    v = np.array([-2.0, 2.0, -2.0, 1.0])
    assert dgc_select(v, 50.0).tolist() == [0, 1]


def test_dgc_select_empty_selection():
    idx = dgc_select(np.array([1.0, 2.0]), 100.0)
    assert idx.size == 0
    assert idx.dtype == np.intp


def _dgc_select_by_lexsort(v, sparsity_pct):
    """Full-sort reference: -|v| ascending (NaN last), then index."""
    k = math.ceil((1.0 - sparsity_pct / 100.0) * v.size)
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    order = np.lexsort((np.arange(v.size), -np.abs(v)))
    return np.sort(order[:k])


# a few repeated magnitudes of both signs force ties at the k-th place
_TIE_PRONE = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, math.inf, -math.inf, math.nan])


@given(st.lists(st.one_of(_TIE_PRONE, st.floats()), min_size=1, max_size=40),
       st.one_of(st.sampled_from((0.0, 50.0, 100.0) + WARMUP_SCHEDULE),
                 st.floats(0.0, 100.0)))
@settings(max_examples=400)
def test_dgc_select_matches_full_sort(vals, sparsity):
    v = np.array(vals, dtype=np.float64)
    v0 = v.tobytes()
    want = _dgc_select_by_lexsort(v, sparsity)
    # ranked in a new array, or in a scratch array the caller hands over
    for scratch in (None, np.full(v.size, 3.0)):
        got = dgc_select(v, sparsity, scratch)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert v.tobytes() == v0


def test_dgc_select_nan_ranks_last_and_inf_first():
    v = np.array([np.nan, 1.0, -np.inf, np.nan, 0.0])
    assert dgc_select(v, 60.0).tolist() == [1, 2]
    # past the numbers, NaNs fill in by index
    assert dgc_select(v, 20.0).tolist() == [0, 1, 2, 4]


# ---------------------------------------------------------------------------
# node integration on the live simulator


def _mesh_sim(names, trace=True):
    links = {}
    for s in names:
        for d in names:
            if s != d:
                links[(s, d)] = wansim.LinkSpec(s, d, 1e7, 0.001)
    return wansim.Simulator(wansim.Topology(dcs=list(names), links=links),
                            trace=trace)


def _spawn(algo, names, budget, seed=5, batch=10, per_class=30, features=3,
           classes=2, eta=0.05, participants_fn=None, model=None):
    """Classifier nodes of the class algo.kind runs over a balanced split,
    registered and woken. budget is max_rounds for FedAvg, else max_iters.
    Each node clones model, which starts at its init_params; without one,
    a softmax model started at zero."""
    sim = _mesh_sim(names)
    data = gen_cluster_data(classes, features, per_class, spread=1.0, seed=seed)
    parts = partition_label_skew(data, SkewSpec(len(names), alpha=0.0, seed=seed))
    if model is None:
        model = SoftmaxModel(features, classes)
        w0 = np.zeros(model.n_params)
    else:
        w0 = model.init_params(seed_stream(seed, "init"))
    nodes = []
    for i, name in enumerate(names):
        stream = MinibatchStream(parts[i], batch, seed_stream(seed, "stream", name))
        common = dict(
            name=name, index=i, model=model.clone(),
            batch_view=ArrayBatches(data.X, data.y), stream=stream,
            lr_schedule=StepDecay(eta0=eta), compute_s=0.001,
            w0=w0, algo=algo, peers=[p for p in names if p != name])
        if algo.kind == "fedavg":
            node = FedAvgNode(**common, max_rounds=budget,
                              participants_fn=participants_fn)
        else:
            node_cls = DgcNode if algo.kind == "dgc" else GaiaNode
            node = node_cls(**common, max_iters=budget)
        nodes.append(node)
        sim.register(name, node)
    for name in names:
        sim.wake_at(0.0, name)
    return sim, nodes


def test_bsp_nodes_stay_in_lockstep():
    sim, (a, b) = _spawn(AlgoCfg(kind="bsp"), ["a", "b"], 6)
    gaps = []
    a.iter_hook = lambda n, s: gaps.append(abs(n.iters_done - b.iters_done))
    sim.run()
    assert a.iters_done == 6 and b.iters_done == 6
    # zero-staleness gate: nobody runs ahead by more than the step in flight
    assert max(gaps) <= 1
    blocked = [row for row in sim.gate_trace if row[2] == "ssp" and not row[6]]
    assert blocked
    # a stopped node leaves the last peer update parked in its inbox; after
    # draining, both hold w0 plus all twelve updates, same set, either order
    a._drain_inbox(sim)
    b._drain_inbox(sim)
    np.testing.assert_allclose(a.w, b.w, rtol=1e-9)
    assert sim.ledger.conservation_ok()


def _race_topology():
    # s's updates reach t half a second late, so p's clock-(c+1) update
    # lands at t before s's clock-c one (at 0.022 s for c = 1)
    names = ["t", "p", "s"]
    links = {(a, b): wansim.LinkSpec(a, b, 1e9,
                                     0.5 if (a, b) == ("s", "t") else 0.001)
             for a in names for b in names}
    return wansim.Topology(dcs=names, links=links,
                           compute_s=dict.fromkeys(names, 0.01))


def _race_run(model, lockstep=True):
    """A 3-DC BSP run with one batch per epoch, so that every step is a
    boundary. Each row logs the trigger's clock, the (clock, origin) records
    it has applied (received and no longer in its inbox) and those it holds.
    lockstep=False takes each row right after the step, with nothing held."""
    cfg = config_from_dict({
        "model": model, "data": {"per_class": 15, "test_per_class": 5},
        "partition": {"nodes": 3, "alpha": 0.0},
        "algorithm": {"kind": "bsp", "epochs": 4, "batch_size": 20},
        "convergence": {"mode": "none"}})
    rows = []

    def on_nodes(nodes, sim):
        trigger, received = nodes[0], []
        receive, evaluate = trigger._receive, trigger.epoch_hook
        trigger._lockstep = lockstep

        def logged_receive(sim_, msg):
            received.append((msg.payload["clock"], msg.origin))
            receive(sim_, msg)

        def logged_evaluate(node, sim_):
            held = {(clock, origin) for clock, origin, _, _ in node.inbox}
            rows.append((node.iters_done, set(received) - held, held))
            evaluate(node, sim_)

        trigger._receive, trigger.epoch_hook = logged_receive, logged_evaluate

    result = run_experiment(cfg, topology=_race_topology(), on_nodes=on_nodes)
    assert [n.stream.batches_per_epoch for n in result.nodes] == [1, 1, 1]
    return result, rows


@pytest.mark.parametrize("model", [
    {"kind": "softmax", "features": 3, "classes": 4},
    {"kind": "mlp", "features": 3, "classes": 4, "hidden": [5]},
])
def test_bsp_row_holds_exactly_the_updates_of_its_clock(model):
    result, rows = _race_run(model)
    assert [t for t, _, _ in rows] == [1, 2, 3, 4]
    for t, applied, _ in rows:
        assert applied == {(c, o) for c in range(1, t + 1) for o in "ps"}
    # the race happened: p's next update waited in the inbox for the row
    assert rows[0][2] == {(2, "p")}
    # taking each row right after the step mixes clocks: row 1 holds no
    # peer update, row 2 already holds p's clock-2 update but not s's
    unheld, step_rows = _race_run(model, lockstep=False)
    assert step_rows[0][1] == set()
    assert step_rows[1][1] == {(1, "p"), (1, "s"), (2, "p")}
    # Holding p's clock-2 update back adds it to t's w after s's clock-1
    # update instead of before, and float addition does not associate: the
    # trajectory is a rounding apart from the unheld order's, not the same
    # bits (peer s's final weights, for both models)
    a, b = result.nodes[2].w, unheld.nodes[2].w
    np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)
    assert a.tobytes() != b.tobytes()


def test_asp_huge_threshold_sends_clocks_only():
    sim, nodes = _spawn(AlgoCfg(kind="gaia", t0=1e9, ds=1000), ["a", "b"], 4)
    sim.run()
    assert all(n.iters_done == 4 for n in nodes)
    assert sim.ledger.sent_bytes(wansim.KIND_UPDATE) == 0
    # the clock still moves on every empty flush
    assert sim.ledger.sent_bytes(wansim.KIND_CLOCK) == 4 * 2 * wansim.CLOCK_BYTES
    for n in nodes:
        emitted = sum(c[0] for c in n.sig_counts.values())
        scored = sum(c[1] for c in n.sig_counts.values())
        assert emitted == 0
        assert scored == 4 * n.w.size


def test_asp_tiny_threshold_emits_nearly_everything():
    sim, nodes = _spawn(AlgoCfg(kind="gaia", t0=1e-12, ds=1000), ["a", "b"], 4)
    sim.run()
    for n in nodes:
        emitted = sum(c[0] for c in n.sig_counts.values())
        scored = sum(c[1] for c in n.sig_counts.values())
        # only exact-zero residuals stay back (a class-balanced minibatch
        # zeroes a bias gradient); everything else clears a 1e-12 bar
        assert emitted / scored >= 0.9


def test_dgc_replicas_are_bit_identical():
    frames = {"a": [], "b": []}
    sizes = {"a": [], "b": []}

    def hook(n, s):
        frames[n.name].append(n.w.copy())
        sizes[n.name].append(n.last_emitted[0].size)

    sim, nodes = _spawn(AlgoCfg(kind="dgc", e_warm=1), ["a", "b"], 4,
                        per_class=20)
    for n in nodes:
        n.iter_hook = hook
    sim.run()
    assert [len(frames[k]) for k in ("a", "b")] == [4, 4]
    for fa, fb in zip(frames["a"], frames["b"]):
        assert fa.tobytes() == fb.tobytes()
    # M=8: epoch 1 at 75% keeps ceil(0.25*8)=2, epoch 2 at 93.75% keeps 1
    assert sizes["a"] == [2, 2, 1, 1]
    assert sizes["b"] == [2, 2, 1, 1]


def test_fedavg_sitting_out_adopts_the_round_average():
    rounds_log = {"a": [], "b": []}

    def hook(n, s):
        rounds_log[n.name].append((n.round, n.w.copy()))

    sim, (a, b) = _spawn(AlgoCfg(kind="fedavg", iter_local=2), ["a", "b"], 3,
                         participants_fn=lambda r: ["a"] if r == 0 else ["a", "b"])
    a.round_hook = hook
    b.round_hook = hook
    sim.run()
    assert a.round == 3 and b.round == 3
    assert a.stopped and b.stopped
    # b sat round 0 out: zero local steps for it, then a's model verbatim
    assert a.iters_done == 6 and b.iters_done == 4
    (ra, wa), (rb, wb) = rounds_log["a"][0], rounds_log["b"][0]
    assert ra == 1 and rb == 1
    assert wa.tobytes() == wb.tobytes()


def test_fedavg_picks_its_participants_once_per_node_per_round():
    calls = Counter()
    sim, nodes = _spawn(AlgoCfg(kind="fedavg", iter_local=2),
                        ["a", "b", "c"], 4)
    for node in nodes:
        def pick(rnd, name=node.name):
            calls[name, rnd] += 1
            return ["c", "a"] if rnd % 2 else ["b", "a"]
        node.participants_fn = pick
    sim.run()
    assert all(n.round == 4 and n.stopped for n in nodes)
    assert calls == {(n, r): 1 for n in "abc" for r in range(4)}
    # b sat out rounds 1 and 3, c rounds 0 and 2
    assert [n.iters_done for n in nodes] == [8, 4, 4]


def test_fedavg_single_node_rounds_without_traffic():
    sim, (a,) = _spawn(AlgoCfg(kind="fedavg", iter_local=3), ["a"], 2)
    sim.run()
    assert a.round == 2 and a.stopped
    assert a.iters_done == 6
    assert sim.ledger.sent_bytes() == 0
    # DGC and BSP on a lone DC take their general exchange path too: no
    # hop, and the full budget
    for kind in ("dgc", "bsp"):
        sim, (a,) = _spawn(AlgoCfg(kind=kind), ["a"], 6)
        sim.run()
        assert a.stopped and not a.diverged, kind
        assert a.iters_done == 6, kind
        assert sim.ledger.sent_bytes() == 0, kind


# ---------------------------------------------------------------------------
# the replica is updated in place: what is sent is a copy, and a step
# allocates little


def _record_sends(sim, sender, key):
    """Each payload[key] that sender sends, once per copy, as (array, its
    bytes when sent, whether it shared memory with the sender's w or u
    then)."""
    sent = []
    send, node = sim.send, sim.nodes[sender]

    def recording(msg, hops=None):
        if msg.src == sender and msg.payload and msg.payload.get(key) is not None:
            arr = msg.payload[key]
            aliased = np.shares_memory(arr, node.w) or np.shares_memory(arr, node.u)
            sent.extend([(arr, arr.tobytes(), aliased)] * len(hops or [msg]))
        return send(msg, hops)

    sim.send = recording
    return sent


@pytest.mark.parametrize("algo,key", [
    (AlgoCfg(kind="bsp"), "vals"),
    (AlgoCfg(kind="fedavg", iter_local=1), "share"),
])
def test_sent_dense_updates_and_shares_are_copies(algo, key):
    # peers read a dense update or a FedAvg share after the sender's later
    # steps have rewritten its w and u in place
    sim, (a, _b) = _spawn(algo, ["a", "b"], 6)
    sent = _record_sends(sim, "a", key)
    sim.run()
    assert a.iters_done == 6 and len(sent) >= 5
    for arr, raw, aliased in sent:
        assert not aliased
        assert arr.tobytes() == raw


def _step_peaks(kind, steps=8):
    """tracemalloc peak of each of node a's steps, in model vectors (M),
    two DCs training mlp-5dc's MLP (32-256-256-11, M = 77,067) at batch 4."""
    sim, (a, _b) = _spawn(AlgoCfg(kind=kind, iter_local=2), ["a", "b"], steps,
                          batch=4, per_class=10, features=32, classes=11,
                          model=TinyMLP([32, 256, 256, 11]))
    nbytes = 8 * a.w.size
    peaks = []
    finish = a._finish_iteration

    def measured(sim_):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        finish(sim_)
        peaks.append((tracemalloc.get_traced_memory()[1] - before) / nbytes)

    a._finish_iteration = measured
    tracemalloc.start()
    try:
        sim.run()
    finally:
        tracemalloc.stop()
    return peaks


@pytest.mark.parametrize("kind,bound", [
    ("bsp", 2.2),      # the gradient, the dense payload copy and the
                       # divergence check's bool array (M / 8)
    ("fedavg", 2.1),   # the gradient and, once a round, the share copy
    ("gaia", 2.1),     # the gradient, which the filter scores in, and the
                       # flush's indexes and values
    ("dgc", 1.6),      # the gradient, which dgc_select ranks in, and the
                       # top quarter's indexes and values (M / 2)
])
def test_steady_step_peak_memory(kind, bound):
    peaks = _step_peaks(kind)
    assert len(peaks) >= 8
    assert max(peaks[2:]) <= bound, peaks


@pytest.mark.filterwarnings("ignore::RuntimeWarning")    # inf - inf
@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 12), size=st.integers(2, 40),
       seed=st.integers(0, 2**16))
def test_fedavg_round_average_is_the_stacked_sum_bit_for_bit(k, size, seed):
    # shares over 32 decades, so the order of the additions shows in the
    # rounding, with signed zeros, +-inf and NaN; size starts at 2 because
    # numpy sums a one-coordinate stack pairwise, and no model has one
    rng = np.random.default_rng(seed)
    shares = []
    for _ in range(k):
        share = rng.normal(size=size) * 10.0 ** rng.integers(-16, 16, size)
        special = rng.random(size) < 0.2
        share[special] = rng.choice(
            [0.0, -0.0, math.inf, -math.inf, math.nan], size=special.sum())
        shares.append(share)
    names = [f"n{i:02d}" for i in range(k)]
    node = FedAvgNode(names[0], 0, None, None, None, None, 0.0, max_rounds=1,
                      w0=np.zeros(size), algo=AlgoCfg(kind="fedavg"),
                      peers=names[1:])
    node._gathered[0] = dict(zip(names, shares))
    node._try_complete(None)          # the last round: nothing starts
    assert node.round == 1 and node.stopped
    want = np.stack(shares).sum(axis=0) / k
    assert node.w.tobytes() == want.tobytes()


def test_fedavg_round_peak_memory():
    # five DCs on mlp-5dc's MLP: a round's average is one new model vector
    # (stacking the k shares to sum them held k + 1)
    sim, nodes = _spawn(AlgoCfg(kind="fedavg", iter_local=2),
                        ["a", "b", "c", "d", "e"], 3, batch=4, per_class=10,
                        features=32, classes=11,
                        model=TinyMLP([32, 256, 256, 11]))
    a = nodes[0]
    nbytes = 8 * a.w.size
    peaks = []
    complete = a._try_complete

    def measured(sim_):
        before, rnd = tracemalloc.get_traced_memory()[0], a.round
        tracemalloc.reset_peak()
        complete(sim_)
        if a.round != rnd:
            peaks.append((tracemalloc.get_traced_memory()[1] - before) / nbytes)

    a._try_complete = measured
    tracemalloc.start()
    try:
        sim.run()
    finally:
        tracemalloc.stop()
    assert len(peaks) == 3
    assert max(peaks) <= 1.05, peaks


@pytest.mark.parametrize("kind", ["gaia", "bsp", "ssp", "fedavg", "dgc"])
def test_the_algorithm_section_reaches_every_node_class(kind):
    clip_norm = 1e-6
    cfg = config_from_dict({
        "model": {"kind": "softmax", "features": 3, "classes": 2},
        "data": {"per_class": 20, "test_per_class": 5},
        "partition": {"nodes": 3, "alpha": 0.5},
        "algorithm": {"kind": kind, "epochs": 2, "batch_size": 10,
                      "momentum": 0.5, "iter_local": 3, "e_warm": 2,
                      "clip_norm": clip_norm}})
    node_cls = {"fedavg": FedAvgNode, "dgc": DgcNode}.get(kind, GaiaNode)
    first_slices = []

    def keep_first_slice(node, sim):
        if node.iters_done == 1:
            first_slices.append(node.last_emitted[1])

    def check(nodes, sim):
        for n in nodes:
            assert type(n) is node_cls
            assert n.m == 0.5
            if kind == "fedavg":
                assert n.iter_local == 3
            if kind == "dgc":
                assert n.e_warm == 2
                assert n.iter_hook is None
                n.iter_hook = keep_first_slice

    run_experiment(cfg, on_nodes=check)
    if kind == "dgc":
        # the first slice is part of one step, clipped to clip_norm
        assert len(first_slices) == 3
        for vals in first_slices:
            assert vals.size and np.linalg.norm(vals) <= clip_norm


def test_scout_spacing_is_a_local_epoch_of_boundaries():
    # a boundary is a step, or a FedAvg round of iter_local steps
    assert GaiaNode._spacing(AlgoCfg(kind="gaia"), 12) == 12
    assert DgcNode._spacing(AlgoCfg(kind="dgc"), 12) == 12
    assert FedAvgNode._spacing(AlgoCfg(kind="fedavg", iter_local=5), 12) == 2
    assert FedAvgNode._spacing(AlgoCfg(kind="fedavg", iter_local=30), 12) == 1


# ---------------------------------------------------------------------------
# a blocked Gaia-family node re-checks only when what it waits for moves


def _blocked_node(algo, local, trace, barrier=None):
    """Node "a" of a 3-DC mesh whose peers b and c are still at clock 0,
    set `local` clocks ahead (optionally under a barrier from b) and offered
    its first start. Returns (sim, node, gate checks so far)."""
    sim = _mesh_sim(["a", "b", "c"], trace=trace)
    data = gen_cluster_data(2, 3, 30, spread=1.0, seed=5)
    node = GaiaNode(
        name="a", index=0, model=SoftmaxModel(3, 2),
        batch_view=ArrayBatches(data.X, data.y),
        stream=MinibatchStream(np.arange(60), 10, seed_stream(5, "stream", "a")),
        lr_schedule=StepDecay(eta0=0.05), compute_s=0.001, max_iters=100,
        w0=np.zeros(8), algo=algo, peers=["b", "c"])
    sim.register("a", node)
    node.iters_done = local
    if barrier is not None:
        apply_barrier(node.shard, barrier)
    checks = []
    gates_allow = node._gates_allow

    def counted(sim_):
        checks.append(sim_.now)
        return gates_allow(sim_)

    node._gates_allow = counted
    node.try_start(sim)
    return sim, node, checks


def _to_a(src, clock, origin=None, idx=None):
    """A clock-only message to "a", or a sparse flush of idx when given."""
    if idx is None:
        return wansim.Message(
            wansim.KIND_CLOCK, src, "a", {wansim.KIND_CLOCK: wansim.CLOCK_BYTES},
            {"clock": clock}, origin)
    idx = np.asarray(idx, dtype=np.intp)
    return wansim.Message(
        wansim.KIND_UPDATE, src, "a",
        {wansim.KIND_UPDATE: wansim.sparse_update_bytes(idx.size),
         wansim.KIND_CLOCK: wansim.CLOCK_BYTES},
        {"clock": clock, "idx": idx, "vals": np.full(idx.size, 0.01)},
        origin)


@pytest.mark.parametrize("policy,slack", [
    (AlgoCfg(kind="bsp"), 0),
    (AlgoCfg(kind="ssp", staleness=2), 2),
    (AlgoCfg(kind="gaia", ds=0, barrier=False), 0),
    (AlgoCfg(kind="gaia", ds=2, barrier=False), 2),
])
def test_clock_wait_rechecks_only_when_the_last_peer_crosses(policy, slack):
    local = 5
    need = local - slack
    deliveries = [
        # (message, the gate is re-run untraced, the node starts)
        (_to_a("b", need - 1), False, False),      # below need
        (_to_a("b", need), False, False),          # b crosses; c still short
        (_to_a("b", need + 1), False, False),      # b already at need
        (_to_a("b", need), False, False),          # stale duplicate
        (_to_a("c", need + 3, origin="b"), False, False),  # forwarded b
        (_to_a("c", need - 1), False, False),      # c still below need
        (_to_a("b", need, origin="c"), True, True),        # forwarded c
    ]
    sim, node, checks = _blocked_node(policy, local, trace=False)
    assert checks and not node._computing
    assert (node._need, node._short) == (need, 2)
    started = []
    for msg, rechecks, starts in deliveries:
        before = len(checks)
        node.on_message(sim, msg)
        assert (len(checks) > before) == rechecks, msg
        assert node._computing == starts, msg
        started.append(node._computing)
    # a traced node checks on every delivery and starts at the same one
    sim, node, checks = _blocked_node(policy, local, trace=True)
    traced = []
    for msg, _rechecks, _starts in deliveries:
        node.on_message(sim, msg)
        traced.append(node._computing)
    assert traced == started
    assert len(checks) == 1 + len(deliveries)
    assert len(sim.gate_trace) == len(checks)


def test_barrier_wait_rechecks_only_after_its_entries_clear():
    barrier = BarrierMsg(source="b", clock=1, indexes=np.array([0, 3]))
    algo = AlgoCfg(kind="gaia", ds=100)
    deliveries = [
        (_to_a("c", 1), False, False),                # clock only
        (_to_a("c", 1, idx=[0]), False, False),       # c holds no barrier
        (_to_a("b", 0, idx=[0, 3]), True, False),     # older flush from b
        (_to_a("b", 1, idx=[0, 3]), True, True),      # the awaited flush
    ]
    sim, node, checks = _blocked_node(algo, 1, trace=False, barrier=barrier)
    assert len(checks) == 1 and not node._computing
    started = []
    for msg, rechecks, starts in deliveries:
        before = len(checks)
        node.on_message(sim, msg)
        assert (len(checks) > before) == rechecks, msg
        assert node._computing == starts, msg
        started.append(node._computing)
    sim, node, checks = _blocked_node(algo, 1, trace=True, barrier=barrier)
    traced = []
    for msg, _rechecks, _starts in deliveries:
        node.on_message(sim, msg)
        traced.append(node._computing)
    assert traced == started
    assert len(checks) == 1 + len(deliveries)
    # the dense read is blocked on both coordinates b's barrier names until
    # the awaited flush clears them; with nothing outstanding the barrier
    # gate is not consulted, so the last check leaves no barrier row
    assert [row[4] for row in sim.gate_trace if row[2] == "barrier"] == [
        2, 2, 2, 2]
    assert node.shard.barrier_waits == {}
