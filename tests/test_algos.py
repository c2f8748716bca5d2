import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geolearn import wansim
from geolearn.algos import (WARMUP_SCHEDULE, DgcNode, FedAvgNode, GaiaNode,
                            RoundModel, StepModels, dgc_select,
                            warmup_sparsity)
from geolearn.data import (MinibatchStream, gen_cluster_data,
                           partition_label_skew)
from geolearn.harness import AlgoCfg, config_from_dict, run_experiment
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
           classes=2, participants_fn=None, model=None,
           dgc_cls=DgcNode, fedavg_cls=FedAvgNode):
    """Classifier nodes of the class algo.kind runs over a balanced split,
    registered and woken. budget is max_rounds for FedAvg, else max_iters.
    Each node clones model, which starts at its init_params; without one,
    a softmax model started at zero. DGC nodes share one StepModels, and
    FedAvg nodes one RoundModel."""
    sim = _mesh_sim(names)
    data = gen_cluster_data(classes, features, per_class, spread=1.0, seed=seed)
    parts = partition_label_skew(data, len(names), alpha=0.0, seed=seed)
    if model is None:
        model = SoftmaxModel(features, classes)
        w0 = np.zeros(model.n_params)
    else:
        w0 = model.init_params(seed_stream(seed, "init"))
    nodes, steps, rounds = [], StepModels(w0), RoundModel()
    for i, name in enumerate(names):
        stream = MinibatchStream(parts[i], batch, seed_stream(seed, "stream", name))
        common = dict(
            name=name, index=i, model=model.clone(),
            batch=lambda idx: (data.X[idx], data.y[idx]), stream=stream,
            compute_s=0.001, w0=w0, algo=algo,
            peers=[p for p in names if p != name])
        if algo.kind == "fedavg":
            node = fedavg_cls(**common, max_rounds=budget, rounds=rounds,
                              participants_fn=participants_fn)
        elif algo.kind == "dgc":
            node = dgc_cls(**common, max_iters=budget, steps=steps)
        else:
            node = GaiaNode(**common, max_iters=budget)
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


def _race_run(model, tmp_path, lockstep=True):
    """A 3-DC BSP run with one batch per epoch, so that every step is a
    boundary, on 8000 Mb/s links (tables written to tmp_path). Each row logs
    the trigger's clock, the (clock, origin) records it has applied (received
    and no longer in its inbox) and those it holds. lockstep=False takes
    each row right after the step, with nothing held."""
    names = ["t", "p", "s"]
    bandwidth, costs = tmp_path / "bandwidth.csv", tmp_path / "costs.csv"
    bandwidth.write_text("".join(
        [",".join(["region"] + names) + "\n"]
        + [",".join([a] + ["" if a == b else "8000" for b in names]) + "\n"
           for a in names]))
    costs.write_text("region,machine_rate_usd_per_hr,send_usd_per_gb,"
                     "recv_usd_per_gb\n"
                     + "".join(f"{a},1.0,0.02,0.01\n" for a in names))
    cfg = config_from_dict({
        "model": model, "data": {"per_class": 15, "test_per_class": 5},
        "partition": {"nodes": 3, "alpha": 0.0},
        "algorithm": {"kind": "bsp", "epochs": 4, "batch_size": 20},
        "topology": {"dcs": names, "bandwidth_file": str(bandwidth),
                     "cost_file": str(costs), "latency_s": 0.001,
                     "compute_s": 0.01},
        "convergence": {"mode": "none"}})
    rows = []

    def on_nodes(nodes, sim):
        # s's updates reach t half a second late, so p's clock-(c+1) update
        # lands at t before s's clock-c one (at 0.022 s for c = 1)
        sim.channels[("s", "t")].latency = 0.5
        trigger, received = nodes[0], []
        receive, evaluate = trigger._receive, trigger.epoch_hook
        trigger._lockstep = lockstep

        def logged_receive(sim_, msg):
            received.append((msg.payload[0], msg.origin))
            receive(sim_, msg)

        def logged_evaluate(node, sim_):
            held = {(clock, origin) for clock, origin, _, _ in node.inbox}
            rows.append((node.iters_done, set(received) - held, held))
            evaluate(node, sim_)

        trigger._receive, trigger.epoch_hook = logged_receive, logged_evaluate

    result = run_experiment(cfg, on_nodes=on_nodes)
    assert [n.stream.batches_per_epoch for n in result.nodes] == [1, 1, 1]
    return result, rows


@pytest.mark.parametrize("model", [
    {"kind": "softmax", "features": 3, "classes": 4},
    {"kind": "mlp", "features": 3, "classes": 4, "hidden": [5]},
])
def test_bsp_row_holds_exactly_the_updates_of_its_clock(model, tmp_path):
    result, rows = _race_run(model, tmp_path)
    assert [t for t, _, _ in rows] == [1, 2, 3, 4]
    for t, applied, _ in rows:
        assert applied == {(c, o) for c in range(1, t + 1) for o in "ps"}
    # the race happened: p's next update waited in the inbox for the row
    assert rows[0][2] == {(2, "p")}
    # taking each row right after the step mixes clocks: row 1 holds no
    # peer update, row 2 already holds p's clock-2 update but not s's
    unheld, step_rows = _race_run(model, tmp_path, lockstep=False)
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


def _sends_of(sim, sender):
    """(time, message, receiving DCs) of every send sender makes."""
    sent = []
    send = sim.send

    def recording(msg, hops=None):
        if msg.src == sender:
            dsts = [msg.dst] if hops is None else [c.key[1] for c, _ in hops]
            sent.append((sim.now, msg, dsts))
        return send(msg, hops)

    sim.send = recording
    return sent


def test_gaia_flush_announces_its_own_indexes_on_saturated_hops():
    algo = AlgoCfg(kind="gaia", t0=1e-3, ds=1000)
    sim, _nodes = _spawn(algo, ["a", "b", "c"], 6)
    # a flushes tens of kB/s: far above a 1 kB/s link, far below 10 MB/s
    sim.channels["a", "c"].bandwidth = 1e3
    sent = _sends_of(sim, "a")
    sim.run()
    barriers = [i for i, (_t, msg, _d) in enumerate(sent)
                if msg.kind == wansim.KIND_BARRIER]
    assert barriers
    for i in barriers:
        _t, msg, dsts = sent[i]
        _t, flush, _d = sent[i + 1]
        barrier, (clock, idx, _vals) = msg.payload, flush.payload
        assert dsts == ["c"]                  # the saturated first hop only
        assert (barrier.source, barrier.clock) == ("a", clock)
        # the flush's own array, which clear_barrier_on_update recognises
        # by identity when the flush lands
        assert barrier.indexes is idx
        assert barrier.indexes.size > 0
        assert msg.nbytes == wansim.barrier_bytes(barrier.indexes.size)
    # an empty flush announces nothing, however slow the link
    sim, _nodes = _spawn(AlgoCfg(kind="gaia", t0=1e9, ds=1000), ["a", "c"], 6)
    sim.channels["a", "c"].bandwidth = 1e3
    sim.run()
    assert sim.ledger.sent_bytes(wansim.KIND_BARRIER) == 0


def test_gaia_rate_smooths_each_flush_with_weight_one_half():
    sim, (a, _b) = _spawn(AlgoCfg(kind="gaia", t0=0.05, ds=1000),
                          ["a", "b"], 8)
    assert a._rate is None
    sent = _sends_of(sim, "a")
    sim.run()
    # a flush's bytes (its payload and clock) over the time since the last
    rate, last = None, 0.0
    for t, msg, _dsts in sent:
        if t > last:
            inst = msg.nbytes / (t - last)
            rate = inst if rate is None else 0.5 * rate + 0.5 * inst
        last = t
    assert len({msg.nbytes for _t, msg, _d in sent}) > 1
    assert a._rate == rate


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


class _PerReplicaDgc(DgcNode):
    """The loop reference: DGC with a private replica per node, to which
    each node applies every slice of a step in member order."""

    def _replica(self, w0):
        return np.array(w0, dtype=np.float64)

    def _try_complete(self, sim):
        slices = self._gather(self.iters_done, self.members)
        if slices is None:
            return
        for idx, vals in slices:
            self.w[idx] += vals
        self.iters_done += 1
        self._after_iteration(sim)
        self.try_start(sim)


def _dgc_on_a_slow_link(dgc_cls, reads):
    """A 4-DC DGC run in which c's shares reach a after ~20 compute times,
    so a completes each step well after its peers, which meanwhile share
    the next one. reads(node, when) is called at every node's iter_hook and
    before and after every delivery to a node held at its step."""
    sim, nodes = _spawn(AlgoCfg(kind="dgc", e_warm=1), ["a", "b", "c", "d"],
                        8, per_class=20, features=4, classes=3,
                        dgc_cls=dgc_cls)
    sim.channels["c", "a"].bandwidth = 2e3
    for node in nodes:
        node.iter_hook = lambda n, s: reads(n, "step")
        on_message = node.on_message

        def delivered(sim_, msg, node=node, on_message=on_message):
            held = node.state == "round-wait"
            if held:
                reads(node, "held")
            on_message(sim_, msg)
            if held:
                reads(node, "delivered")

        node.on_message = delivered
    sim.run()
    assert all(n.stopped and n.iters_done == 8 for n in nodes)
    return nodes


def test_dgc_shared_models_match_the_per_replica_reference():
    # the reference: every replica's weights at each of its steps
    ref = {}

    def record(node, when):
        ref.setdefault(node.iters_done, set()).add(node.w.tobytes())

    _dgc_on_a_slow_link(_PerReplicaDgc, record)
    assert sorted(ref) == list(range(9))
    assert all(len(seen) == 1 for seen in ref.values())   # bit-identical
    # the shared buffers: what every node reads at its own step, also while
    # a peer has already written the next one
    reads, ahead = Counter(), Counter()

    def check(node, when):
        assert {node.w.tobytes()} == ref[node.iters_done], (node.name, when)
        reads[when] += 1
        ahead[when] += node._steps.newest > node.iters_done

    steps = _dgc_on_a_slow_link(DgcNode, check)[0]._steps
    assert steps.newest == 8
    assert reads["step"] == 4 * 8 and reads["held"] == reads["delivered"]
    # some reads fell while a peer had already written the next step
    assert ahead["held"] > 0 and ahead["delivered"] > 0


def test_dgc_checks_each_step_model_for_divergence_once(monkeypatch):
    isfinite, calls = np.isfinite, Counter()

    def counted(*args, **kwargs):
        calls["isfinite"] += 1
        return isfinite(*args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counted)
    for cls, per_step in ((_PerReplicaDgc, 4), (DgcNode, 1)):
        calls.clear()
        _dgc_on_a_slow_link(cls, lambda node, when: None)
        # 4 nodes, 8 global steps: the reference scans each step model
        # once per node, the shared check once
        assert calls["isfinite"] == per_step * 8, cls


def _poisoned_dgc(dgc_cls, step):
    """A 3-DC DGC run in which b's share of the given step carries an inf,
    so every step model from the next one on is not finite."""
    sim, nodes = _spawn(AlgoCfg(kind="dgc", e_warm=1), ["a", "b", "c"], 8,
                        per_class=20, dgc_cls=dgc_cls)
    b = nodes[1]
    share = b._share

    def poisoned(sim_, rnd, byte_split, emitted):
        if rnd == step:
            emitted[1][0] = np.inf
        share(sim_, rnd, byte_split, emitted)

    b._share = poisoned
    sim.run()
    return [(n.diverged, n.stopped, n.iters_done) for n in nodes]


def test_a_non_finite_dgc_step_model_stops_every_node_at_that_step():
    # the per-node check of the per-replica reference, and the one check of
    # the shared step model that every node reads
    want = _poisoned_dgc(_PerReplicaDgc, 3)
    assert want == [(True, True, 4)] * 3
    assert _poisoned_dgc(DgcNode, 3) == want


@pytest.mark.parametrize("k", [1, 2, 5])
def test_dgc_run_holds_two_weight_arrays_for_any_k(k):
    cfg = config_from_dict({
        "model": {"kind": "softmax", "features": 3, "classes": 2},
        "data": {"per_class": 20, "test_per_class": 5},
        "partition": {"nodes": k, "alpha": 0.0},
        "algorithm": {"kind": "dgc", "epochs": 2, "batch_size": 10},
        "convergence": {"mode": "none"}})
    arrays = {}

    def held(nodes):
        arrays.update((id(n.w), n.w) for n in nodes)

    def wire(nodes, sim):
        held(nodes)
        assert len(arrays) == 1
        for n in nodes:
            n.iter_hook = lambda n_, s_: held(nodes)

    result = run_experiment(cfg, on_nodes=wire)
    steps = result.nodes[0]._steps
    assert all(n._steps is steps and n.stopped for n in result.nodes)
    assert len(arrays) == 2
    assert all(any(a is b for b in steps.bufs) for a in arrays.values())


def _share_msg(origin, rnd, share):
    return wansim.Message(wansim.KIND_UPDATE, origin, None,
                          {wansim.KIND_UPDATE: 8}, (rnd, share))


@pytest.mark.parametrize("kind", ["dgc", "fedavg"])
def test_a_round_completes_on_its_last_share_in_any_order(kind):
    names = ["a", "b", "c", "d", "e"]
    algo = AlgoCfg(kind=kind, client_fraction=0.6)
    sim, nodes = _spawn(algo, names, 4)
    node, rnd = nodes[0], 3
    if kind == "fedavg":
        # the run's seeded pick, 3 of the 5 DCs, in a round a sits out
        fn = FedAvgNode._budgets(algo, [n.stream for n in nodes], names, 5,
                                 False, node.w)[0]["participants_fn"]
        rnd = next(r for r in range(rnd, 100) if "a" not in fn(r))
        node.participants_fn, node.round = fn, rnd
        members = node._members_this_round()
        assert len(members) == 3
    else:
        members = node.members
    shares = {m: object() for m in members}
    for order in itertools.permutations(members):
        node._gathered = {}
        # the next round's shares land first and count for nothing here
        for m in members:
            node._receive(sim, _share_msg(m, rnd + 1, None))
        for i, m in enumerate(order, 1):
            node.state = "idle"         # the delivery only stores the share
            node._receive(sim, _share_msg(m, rnd, shares[m]))
            node.state = "round-wait"
            got = node._gather(rnd, members)
            if i < len(order):
                assert got is None and node.state == "round-wait"
            else:
                assert got == [shares[m] for m in members]
                assert node.state == "idle"
                assert list(node._gathered) == [rnd + 1]


def _scouted_fedavg(client_fraction, wired):
    """A scouted FedAvg run whose trigger's round_hook is kept or dropped;
    a run past 200 rounds fails instead of running on."""
    cfg = config_from_dict({
        "seed": 11,
        "model": {"kind": "mlp", "features": 6, "classes": 6,
                  "hidden": [12, 12], "norm": "batch"},
        "data": {"per_class": 40, "spread": 1.0, "test_per_class": 20},
        "partition": {"nodes": 3, "alpha": 1.0},
        "algorithm": {"kind": "fedavg", "epochs": 2, "iter_local": 2,
                      "client_fraction": client_fraction},
        "convergence": {"mode": "none"},
        "scout": {"enabled": True}})

    def bounded(node, sim):
        assert node.round <= 200, "the run does not end"

    def wire(nodes, sim):
        for n in nodes:
            n.iter_hook = bounded
        if not wired:
            nodes[0].round_hook = None

    return run_experiment(cfg, on_nodes=wire)


@pytest.mark.parametrize("client_fraction", [1.0, 0.7])
def test_scouted_fedavg_ends_without_its_round_hook(client_fraction):
    result = _scouted_fedavg(client_fraction, wired=False)
    trigger = result.nodes[0]
    cap = trigger.max_rounds
    if client_fraction == 1.0:
        assert cap == 2 * trigger.batches_per_epoch + 1
    assert all(n.stopped and n.round == cap for n in result.nodes)
    assert result.rows == []
    # the hook ends a wired run before any node reaches the cap
    result = _scouted_fedavg(client_fraction, wired=True)
    assert result.rows and result.nodes[0].epochs_done >= 2
    assert all(n.stopped and n.round < n.max_rounds for n in result.nodes)


class _PerReplicaFedAvg(FedAvgNode):
    """The loop reference: FedAvg with a private replica per node, which
    averages every round it completes by the stacked sum and steps in
    place."""

    def _try_complete(self, sim):
        models = self._gather(self.round, self._members_this_round())
        if models is None:
            return
        self.w = np.stack(models).sum(axis=0) / len(models)
        self.round += 1
        if self.round_hook:
            self.round_hook(self, sim)
        if self.round >= self.max_rounds:
            self.state = "done"
        self.try_start(sim)


def _fedavg_on_a_slow_link(fedavg_cls, client_fraction, reads):
    """A 5-DC FedAvg run of 8 rounds in which every share reaches a after
    ~60 compute times, so a completes each round well after its peers; at
    client_fraction 0.6 (the run's seeded pick of 3), they complete the
    rounds a sits out without it. reads(nodes, node, when) is called at
    every node's round_hook and iter_hook."""
    names = ["a", "b", "c", "d", "e"]
    algo = AlgoCfg(kind="fedavg", iter_local=2,
                   client_fraction=client_fraction)
    sim, nodes = _spawn(algo, names, 8, per_class=20, features=4, classes=3,
                        fedavg_cls=fedavg_cls)
    if client_fraction < 1.0:
        fn = FedAvgNode._budgets(algo, [n.stream for n in nodes], names, 5,
                                 False, None)[0]["participants_fn"]
        for node in nodes:
            node.participants_fn = fn
    for src in names[1:]:
        sim.channels[src, "a"].bandwidth = 2e3
    for node in nodes:
        node.round_hook = lambda n, s: reads(nodes, n, "round")
        node.iter_hook = lambda n, s: reads(nodes, n, "step")
    sim.run()
    assert all(n.stopped and n.round == 8 for n in nodes)
    return nodes


@pytest.mark.parametrize("client_fraction", [1.0, 0.6])
def test_fedavg_shared_round_models_match_the_per_replica_reference(
        client_fraction):
    # the reference: every replica's weights in each (round, steps) state
    # it is in at any node's hook
    ref = {}

    def record(nodes, node, when):
        for n in nodes:
            got = n.w.tobytes()
            assert ref.setdefault((n.name, n.round, n.iters_done), got) == got

    _fedavg_on_a_slow_link(_PerReplicaFedAvg, client_fraction, record)
    # the shared averages: at every hook, every node holds the reference's
    # bytes, also while a peer that bound the same average has stepped off
    # it or a later round's average has replaced it in the RoundModel
    seen = Counter()

    def check(nodes, node, when):
        for n in nodes:
            assert n.w.tobytes() == ref[n.name, n.round, n.iters_done], (
                n.name, node.name, when)
        seen[when] += 1
        seen["shared"] += len({id(n.w) for n in nodes}) < len(nodes)
        # a node that completed an older round averaged it itself
        seen["own"] += when == "round" and node.w is not node._rounds.w

    nodes = _fedavg_on_a_slow_link(FedAvgNode, client_fraction, check)
    assert seen["round"] == 5 * 8 and seen["step"] == sum(
        n.iters_done for n in nodes)
    assert seen["shared"] > 0
    assert (seen["own"] > 0) == (client_fraction < 1.0)


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


def _record_sends(sim, sender, field):
    """Each payload field ("vals" of a flush, "share" of a share) that
    sender sends, once per copy, as (array, its bytes when sent, whether it
    was the sender's w then, whether it shared memory with the sender's w or
    u then)."""
    sent = []
    send, node = sim.send, sim.nodes[sender]
    pos = {"vals": 2, "share": 1}[field]     # (clock, idx, vals), (round, share)

    def recording(msg, hops=None):
        if msg.src == sender and msg.payload[pos] is not None:
            arr = msg.payload[pos]
            aliased = np.shares_memory(arr, node.w) or np.shares_memory(arr, node.u)
            sent.extend([(arr, arr.tobytes(), arr is node.w, aliased)]
                        * len(hops or [msg]))
        return send(msg, hops)

    sim.send = recording
    return sent


@pytest.mark.parametrize("algo,field", [
    (AlgoCfg(kind="bsp"), "vals"),
    (AlgoCfg(kind="fedavg", iter_local=1), "share"),
])
def test_sent_dense_updates_and_shares_are_copies(algo, field):
    # peers read a dense update or a FedAvg share after the sender's later
    # steps: a dense update is a copy, for they rewrite u in place; a FedAvg
    # share is the sender's w, which its next step writes elsewhere
    sim, (a, _b) = _spawn(algo, ["a", "b"], 6)
    sent = _record_sends(sim, "a", field)
    sim.run()
    assert a.iters_done == 6 and len(sent) >= 5
    for arr, raw, is_w, aliased in sent:
        if algo.kind == "fedavg":
            assert is_w
        else:
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
    ("bsp", 1.2),      # the gradient, which carries the dense payload, and
    ("ssp", 1.2),      # the divergence check's bool array (M / 8)
    ("fedavg", 2.1),   # the gradient, its new w, and once a round the average
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
    node = FedAvgNode(names[0], 0, None, None, None, 0.0, max_rounds=1,
                      rounds=RoundModel(), w0=np.zeros(size),
                      algo=AlgoCfg(kind="fedavg"), peers=names[1:])
    node._gathered[0] = dict(zip(names, shares))
    node._try_complete(None)          # the last round: nothing starts
    assert node.round == 1 and node.stopped
    want = np.stack(shares).sum(axis=0) / k
    assert node.w.tobytes() == want.tobytes()


def _completion_peaks(algo, budget, progress):
    """tracemalloc peak of each of node a's round or step completions, in
    model vectors (M), five DCs training mlp-5dc's MLP at batch 4;
    progress(node) tells a completion from a call that waits on."""
    sim, nodes = _spawn(algo, ["a", "b", "c", "d", "e"], budget, batch=4,
                        per_class=10, features=32, classes=11,
                        model=TinyMLP([32, 256, 256, 11]))
    a = nodes[0]
    nbytes = 8 * a.w.size
    peaks = []
    complete = a._try_complete

    def measured(sim_):
        before, done = tracemalloc.get_traced_memory()[0], progress(a)
        tracemalloc.reset_peak()
        complete(sim_)
        if progress(a) != done:
            peaks.append((tracemalloc.get_traced_memory()[1] - before) / nbytes)

    a._try_complete = measured
    tracemalloc.start()
    try:
        sim.run()
    finally:
        tracemalloc.stop()
    return peaks


def test_fedavg_round_peak_memory():
    # a round's average is one new model vector (stacking the k shares to
    # sum them held k + 1)
    peaks = _completion_peaks(AlgoCfg(kind="fedavg", iter_local=2), 3,
                              lambda n: n.round)
    assert len(peaks) == 3
    assert max(peaks) <= 1.05, peaks


def test_dgc_step_completion_allocates_no_model_vector():
    # the first node to complete a step writes it into the shared buffer
    # it no longer needs, and the others bind to it: what is left is the
    # first node's divergence check, a bool array (M / 8)
    peaks = _completion_peaks(AlgoCfg(kind="dgc"), 6, lambda n: n.iters_done)
    assert len(peaks) == 6
    assert max(peaks) <= 0.2, peaks


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
        batch=lambda idx: (data.X[idx], data.y[idx]),
        stream=MinibatchStream(np.arange(60), 10, seed_stream(5, "stream", "a")),
        compute_s=0.001, max_iters=100, w0=np.zeros(8), algo=algo,
        peers=["b", "c"])
    sim.register("a", node)
    node.iters_done = local
    if barrier is not None:
        apply_barrier(node.shard, barrier)
    checks = []
    shut_gate = node._shut_gate

    def counted(sim_):
        checks.append(sim_.now)
        return shut_gate(sim_)

    node._shut_gate = counted
    node.try_start(sim)
    return sim, node, checks


def _to_a(src, clock, origin=None, idx=()):
    """A clock-only flush to "a", or a sparse flush of idx when given."""
    idx = np.asarray(idx, dtype=np.intp)
    split = {wansim.KIND_CLOCK: wansim.CLOCK_BYTES}
    if idx.size:
        split = {wansim.KIND_UPDATE: wansim.sparse_update_bytes(idx.size),
                 **split}
    return wansim.Message(
        wansim.KIND_UPDATE if idx.size else wansim.KIND_CLOCK, src, "a",
        split, (clock, idx, np.full(idx.size, 0.01)), origin)


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
    blocked = "blocked-mirror" if policy.kind == "gaia" else "blocked-ssp"
    # tracing takes no decision: a traced node re-checks at the same
    # deliveries, and writes one row per check
    for trace in (False, True):
        sim, node, checks = _blocked_node(policy, local, trace=trace)
        assert checks and node.state == blocked
        assert (node._need, node._short) == (need, 2)
        for msg, rechecks, starts in deliveries:
            before = len(checks)
            node.on_message(sim, msg)
            assert (len(checks) > before) == rechecks, (trace, msg)
            assert (node.state == "computing") == starts, (trace, msg)
        assert len(checks) == 2
        assert len(sim.gate_trace) == (len(checks) if trace else 0)


def _calls(node, attr):
    """A list that gains one entry per call of node's method attr."""
    calls, method = [], getattr(node, attr)

    def counted(*args):
        calls.append(args)
        return method(*args)

    setattr(node, attr, counted)
    return calls


def test_untraced_deliveries_skip_the_gate_check_unless_they_can_open_it():
    bsp = AlgoCfg(kind="bsp")
    barrier = BarrierMsg(source="b", clock=1, indexes=np.array([0, 3]))
    # traced deliveries skip it by the same rule
    for trace in (False, True):
        # computing: the update waits in the inbox for the step's end
        sim, node, _ = _blocked_node(bsp, 0, trace=trace)
        ready = _calls(node, "_ready")
        node.on_message(sim, _to_a("b", 1, idx=[0]))
        assert node.state == "computing" and node.inbox and ready == []
        # clock-short with an empty inbox: an update lands at once, and only
        # the delivery that drops the shortfall to 0 checks, once
        sim, node, _ = _blocked_node(bsp, 5, trace=trace)
        ready = _calls(node, "_ready")
        for msg in (_to_a("b", 3, idx=[0]), _to_a("b", 5), _to_a("c", 4)):
            node.on_message(sim, msg)
            assert node._short and not node.inbox and ready == [], msg
        node.on_message(sim, _to_a("c", 5))
        assert node._short == 0 and len(ready) == 1
        assert node.state == "computing"
        # barrier-blocked: updates from a peer that holds no barrier clear
        # nothing, and land at once
        sim, node, _ = _blocked_node(
            AlgoCfg(kind="gaia", ds=100), 1, trace=trace, barrier=barrier)
        ready = _calls(node, "_ready")
        for msg in (_to_a("c", 1), _to_a("c", 1, idx=[0, 3])):
            node.on_message(sim, msg)
            assert node.state == "blocked-barrier" and not node.inbox, msg
        assert ready == []
        # done: not even the delivery that drops the shortfall to 0 checks
        sim, node, _ = _blocked_node(bsp, 5, trace=trace)
        node.state = "done"
        ready = _calls(node, "_ready")
        for msg in (_to_a("b", 5), _to_a("c", 5, idx=[0])):
            node.on_message(sim, msg)
        assert node._short == 0 and node.state == "done" and ready == []


@pytest.mark.parametrize("kind", ["dgc", "fedavg"])
def test_only_the_share_that_completes_a_held_round_tries_it(kind):
    sim, (a, _b, _c) = _spawn(AlgoCfg(kind=kind), ["a", "b", "c"], 4)
    share = ((np.array([0]), np.array([0.5])) if kind == "dgc"
             else np.zeros(a.w.size))
    a._share(sim, 0, {wansim.KIND_UPDATE: 8}, share)
    assert a.state == "round-wait"
    tries = _calls(a, "_try_complete")
    # the next round's shares, then all but the last of this round's
    for origin, rnd in (("b", 1), ("c", 1), ("b", 0)):
        a.on_message(sim, _share_msg(origin, rnd, share))
        assert a.state == "round-wait" and tries == [], (origin, rnd)
    a.on_message(sim, _share_msg("c", 0, share))
    assert len(tries) == 1 and a.state == "computing"


def test_barrier_wait_rechecks_only_after_its_entries_clear():
    barrier = BarrierMsg(source="b", clock=1, indexes=np.array([0, 3]))
    algo = AlgoCfg(kind="gaia", ds=100)
    deliveries = [
        (_to_a("c", 1), False, False),                # clock only
        (_to_a("c", 1, idx=[0]), False, False),       # c holds no barrier
        (_to_a("b", 0, idx=[0, 3]), True, False),     # older flush from b
        (_to_a("b", 1, idx=[0, 3]), True, True),      # the awaited flush
    ]
    for trace in (False, True):
        sim, node, checks = _blocked_node(algo, 1, trace=trace,
                                          barrier=barrier)
        assert len(checks) == 1 and node.state == "blocked-barrier"
        for msg, rechecks, starts in deliveries:
            before = len(checks)
            node.on_message(sim, msg)
            assert (len(checks) > before) == rechecks, (trace, msg)
            assert (node.state == "computing") == starts, (trace, msg)
        assert len(checks) == 3 and node.shard.barrier_waits == {}
    # each check passes the mirror gate (b's known clock is the slowest),
    # then meets the dense read's two blocked coordinates until the awaited
    # flush clears them; with nothing outstanding the barrier gate is not
    # consulted, so the last check leaves no barrier row
    assert [(row[2], row[4]) for row in sim.gate_trace] == [
        ("mirror", 0), ("barrier", 2), ("mirror", 0), ("barrier", 2),
        ("mirror", 1)]


def test_a_clock_only_flush_that_overtakes_an_announced_one_releases_nothing():
    # a clock-only flush is a control message, so it may pass b's clock-1
    # flush queued on the link: it moves b's mirror clock and nothing else
    barrier = BarrierMsg(source="b", clock=1, indexes=np.array([0, 3]))
    sim, node, _checks = _blocked_node(AlgoCfg(kind="gaia", ds=100), 1,
                                       trace=False, barrier=barrier)
    node.on_message(sim, _to_a("b", 2))
    assert node.shard.mirror_clocks["b"] == 2 and not node.inbox
    assert node.state == "blocked-barrier" and "b" in node.shard.barrier_waits
    node.on_message(sim, _to_a("b", 1, idx=[0, 3]))
    assert node.shard.barrier_waits == {} and node.state == "computing"
