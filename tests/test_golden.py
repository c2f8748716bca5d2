"""Golden replay corpus: run outputs pinned across commits.

Each config below is small (well under a second) and its sha256 digest of
``metrics.csv`` + NUL + ``summary.txt`` bytes lives in
``tests/golden/digests.json``; the sha256 of its gate trace (every gate
check's row, as ``repr`` of a list of tuples, from a run with
``output: {trace: true}``) lives in ``tests/golden/gate_traces.json``. The
metrics and summary must not depend on tracing, so both runs of a config
must match its digest. A refactor or optimisation that claims
to change nothing must leave every pin as it is; a deliberate change of
behaviour regenerates the files in the same change and says which pins
moved and why. Regenerate both with::

    PYTHONPATH=src python tests/test_golden.py --write

which prints each pin it moves (config name, then ``digest`` or ``gate
trace`` and the new value, or ``removed``), or ``no pin moved``.
"""

import functools
import gc
import hashlib
import os
import weakref

import pytest

import pins
from geolearn.harness import (config_from_dict, metrics_csv_text,
                              run_experiment, summary_text)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
DIGESTS_PATH = os.path.join(GOLDEN_DIR, "digests.json")
GATE_TRACES_PATH = os.path.join(GOLDEN_DIR, "gate_traces.json")

SOFTMAX = {"kind": "softmax", "features": 6, "classes": 4}
BLOBS = {"per_class": 40, "spread": 1.0, "test_per_class": 20}
MLP = {"kind": "mlp", "features": 16, "classes": 4, "hidden": [64]}
MLP_BN = {"kind": "mlp", "features": 6, "classes": 6, "hidden": [12, 12],
          "norm": "batch"}
MF = {"kind": "mf", "rows": 12, "cols": 10, "rank": 3}
MF_DATA = {"kind": "mf", "density": 0.5, "noise_sigma": 0.05}
# the five regions whose links in the packaged bandwidth table are slowest:
# Gaia's selective barrier fires on them
SLOW_DCS = ["mumbai", "saopaulo", "sydney", "seoul", "singapore"]
OVERLAY = {"dcs": ["virginia", "california", "ireland", "frankfurt"],
           "groups": [["virginia", "california"], ["ireland", "frankfurt"]],
           "hubs": [[0, 1, "ireland"], [1, 0, "virginia"]]}


def _cfg(name, model, data, nodes, alpha, algorithm, topology=None,
         scout=None, convergence="none"):
    raw = {
        "name": name,
        "seed": 11,
        "model": dict(model),
        "data": dict(data),
        "partition": {"nodes": nodes, "alpha": alpha},
        "algorithm": dict(algorithm),
        "convergence": {"mode": convergence},
    }
    if topology:
        raw["topology"] = dict(topology)
    if scout:
        raw["scout"] = dict(scout)
    return raw


CONFIGS = {
    "gaia-softmax": _cfg(
        "gaia-softmax", SOFTMAX, BLOBS, 3, 0.5,
        {"kind": "gaia", "epochs": 4, "t0": 0.01}),
    "gaia-mlp-barrier": _cfg(
        "gaia-mlp-barrier", MLP, BLOBS, 5, 0.5,
        {"kind": "gaia", "epochs": 3, "t0": 0.001},
        topology={"dcs": SLOW_DCS}),
    "gaia-mlp-overlay": _cfg(
        "gaia-mlp-overlay", MLP, BLOBS, 4, 0.3,
        {"kind": "gaia", "epochs": 3, "t0": 0.005, "decay": "invsqrt",
         "soft": {"target": 0.8}},
        topology=OVERLAY),
    # 7 classes over 3 DCs at full skew: one node holds half as many
    # batches again as its peers and blocks on the mirror clock once they
    # stop, so the queue drains early (the known budget stall)
    "gaia-softmax-stall": _cfg(
        "gaia-softmax-stall", {"kind": "softmax", "features": 6,
                               "classes": 7}, BLOBS, 3, 1.0,
        {"kind": "gaia", "epochs": 3, "batch_size": 10}),
    # two lr drops: the threshold follows them, 0.01 -> 0.000625
    "gaia-mlp-lr-drop": _cfg(
        "gaia-mlp-lr-drop", MLP, BLOBS, 4, 0.5,
        {"kind": "gaia", "epochs": 4, "t0": 0.01,
         "lr": {"eta0": 0.05, "milestones": [1, 2], "factor": 4}}),
    "gaia-mf": _cfg(
        "gaia-mf", MF, MF_DATA, 3, 0.0,
        {"kind": "gaia", "epochs": 4, "t0": 0.02, "lr": {"eta0": 0.05}}),
    # SkewScout on a factorization model: the objective probe metric and
    # the relative-gap accuracy loss
    "gaia-mf-scout": _cfg(
        "gaia-mf-scout", MF, MF_DATA, 3, 0.0,
        {"kind": "gaia", "epochs": 4, "t0": 0.02, "lr": {"eta0": 0.05}},
        scout={"enabled": True, "tuner": "hill"}),
    "gaia-scout": _cfg(
        "gaia-scout", MLP_BN, BLOBS, 3, 1.0,
        {"kind": "gaia", "epochs": 3},
        scout={"enabled": True, "tuner": "hill"}),
    "bsp-mlp": _cfg(
        "bsp-mlp", MLP, BLOBS, 4, 0.5, {"kind": "bsp", "epochs": 4}),
    "bsp-softmax-overlay": _cfg(
        "bsp-softmax-overlay", SOFTMAX, BLOBS, 4, 0.5,
        {"kind": "bsp", "epochs": 4}, topology=OVERLAY),
    "ssp-mf": _cfg(
        "ssp-mf", MF, MF_DATA, 3, 0.0,
        {"kind": "ssp", "epochs": 4, "staleness": 2}),
    "fedavg-softmax": _cfg(
        "fedavg-softmax", SOFTMAX, BLOBS, 4, 0.5,
        {"kind": "fedavg", "epochs": 6, "iter_local": 3,
         "client_fraction": 0.5}),
    "fedavg-scout": _cfg(
        "fedavg-scout", MLP_BN, BLOBS, 3, 1.0,
        {"kind": "fedavg", "epochs": 4, "iter_local": 2},
        scout={"enabled": True, "tuner": "anneal"}),
    "fedavg-softmax-overlay": _cfg(
        "fedavg-softmax-overlay", SOFTMAX, BLOBS, 4, 0.5,
        {"kind": "fedavg", "epochs": 4, "iter_local": 3}, topology=OVERLAY),
    "dgc-mlp": _cfg(
        "dgc-mlp", MLP, BLOBS, 4, 0.5,
        {"kind": "dgc", "epochs": 4, "e_warm": 1}),
    "dgc-scout": _cfg(
        "dgc-scout", MLP_BN, BLOBS, 3, 1.0,
        {"kind": "dgc", "epochs": 3},
        scout={"enabled": True, "tuner": "stochastic"}),
    "dgc-softmax-window": _cfg(
        "dgc-softmax-window", SOFTMAX, BLOBS, 3, 0.0,
        {"kind": "dgc", "epochs": 6, "e_warm": 2}, convergence="window"),
    "dgc-softmax-overlay": _cfg(
        "dgc-softmax-overlay", SOFTMAX, BLOBS, 4, 0.5,
        {"kind": "dgc", "epochs": 4, "e_warm": 1}, topology=OVERLAY),
}


def run_digest(raw, trace=False):
    """(digest, result) for one config: sha256 of metrics.csv NUL summary.txt."""
    result = run_experiment(config_from_dict(dict(raw, output={"trace": trace})))
    text = metrics_csv_text(result.rows) + "\0" + summary_text(result.summary)
    return hashlib.sha256(text.encode()).hexdigest(), result


def gate_trace_digest(result):
    """sha256 of the gate trace; rows as plain tuples, so the pin does not
    depend on the row type."""
    rows = [tuple(row) for row in result.sim.gate_trace]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _golden(path=DIGESTS_PATH):
    return pins.load(path)


def test_corpus_covers_every_config():
    assert sorted(_golden()) == sorted(CONFIGS)
    assert sorted(_golden(GATE_TRACES_PATH)) == sorted(CONFIGS)


@functools.lru_cache(maxsize=None)
def _run(name, trace=False):
    return run_digest(CONFIGS[name], trace)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_digest(name):
    digest, result = _run(name)
    assert digest == _golden()[name]
    assert result.sim.gate_trace == []


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_gate_trace(name):
    digest, result = _run(name, trace=True)
    assert gate_trace_digest(result) == _golden(GATE_TRACES_PATH)[name]
    assert digest == _golden()[name]


def test_barrier_config_sends_barriers_that_block_reads():
    _, result = _run("gaia-mlp-barrier", trace=True)
    assert sum(row["barrier_bytes"] for row in result.rows) > 0
    # (time, node, gate, local clock, blocked count, true min clock, allow)
    assert any(rec[2] == "barrier" and not rec[6]
               for rec in result.sim.gate_trace)


def test_each_step_builds_one_minibatch():
    # the barrier gate reads the stream's next indexes, not a minibatch, so
    # however often a blocked node re-checks it, a step builds one batch
    built = []

    def count_batches(nodes, sim):
        for node in nodes:
            def batch(idx, name=node.name, build=node.batch):
                built.append(name)
                return build(idx)
            node.batch = batch

    result = run_experiment(config_from_dict(dict(
        CONFIGS["gaia-mlp-barrier"], output={"trace": True})),
        on_nodes=count_batches)
    assert any(rec[2] == "barrier" and not rec[6]
               for rec in result.sim.gate_trace)
    for node in result.nodes:
        assert built.count(node.name) == node.iters_done > 0, node.name


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_dropped_result_frees_its_run(name):
    # nothing in a run points back at its nodes, so dropping the result
    # frees every replica at once, without a cyclic collection
    gc.disable()
    try:
        result = run_experiment(config_from_dict(CONFIGS[name]))
        refs = [weakref.ref(obj) for n in result.nodes for obj in (n, n.w)]
        del result
        assert [ref for ref in refs if ref() is not None] == []
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["fedavg-softmax-overlay",
                                  "dgc-softmax-overlay"])
def test_overlay_runs_finish_every_budget(name):
    # a hub must re-broadcast inter-group copies, or the round never
    # completes for the rest of its group and the queue drains early
    _, result = run_digest(CONFIGS[name])
    for node in result.nodes:
        assert node.stopped, node.name
        if node.max_iters is None:
            assert node.round == node.max_rounds, node.name
        else:
            assert node.iters_done == node.max_iters, node.name


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_node_ends_done_but_the_stalled_one(name):
    _, result = _run(name)
    for node in result.nodes:
        if (name, node.name) == ("gaia-softmax-stall", "virginia"):
            # the known budget stall: both peers stopped at their budget of
            # 24, short of the 25 its mirror clock gate needs
            assert node.state == "blocked-mirror"
            assert (node.iters_done, node.max_iters) == (26, 36)
            assert (node._short, node._need) == (2, 25)
        else:
            assert node.state == "done", node.name


def _watched_run(name, trace, watch):
    """A run of config name whose on_nodes(nodes, sim) is watch."""
    return run_experiment(config_from_dict(
        dict(CONFIGS[name], output={"trace": trace})), on_nodes=watch)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_done_is_final(name):
    # each node's round, clock and weights when an event first leaves it
    # done, and when the run ends
    at_done = {}

    def progress(node):
        return getattr(node, "round", None), node.iters_done, node.w

    def watch(nodes, sim):
        def handled(handler):
            def after(*args):
                handler(*args)
                for n in nodes:
                    if n.stopped and n.name not in at_done:
                        at_done[n.name] = progress(n)
            return after

        for node in nodes:
            node.on_message = handled(node.on_message)
            node.on_wake = handled(node.on_wake)

    result = _watched_run(name, False, watch)
    for node in result.nodes:
        if node.stopped:
            rnd, clock, w = at_done[node.name]
            now_rnd, now_clock, now_w = progress(node)
            assert (now_rnd, now_clock) == (rnd, clock), node.name
            assert now_w is w, node.name


def test_a_lockstep_trigger_takes_its_last_row_in_settle():
    # a row waits for every peer's update of its clock, so the trigger is
    # blocked-ssp meanwhile; the last row waits with the trigger done at
    # its budget, and only settle takes it
    taken = []

    def watch(nodes, sim):
        trigger = nodes[0]
        evaluate, settle = trigger.epoch_hook, trigger.settle

        def row(node, sim_):
            taken.append((node.iters_done, node.state))
            evaluate(node, sim_)

        def settled(sim_):
            taken.append("settle")
            settle(sim_)

        trigger.epoch_hook, trigger.settle = row, settled

    result = _watched_run("bsp-mlp", False, watch)
    trigger = result.nodes[0]
    assert trigger._lockstep and len(result.rows) == 4
    assert taken[-2:] == ["settle", (trigger.max_iters, "done")]
    assert {state for _, state in taken[:-2]} <= {"idle", "blocked-ssp"}
    assert not trigger._row_pending


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_traced_gate_checks_leave_their_node_blocked_or_computing(name):
    # (the node's gate-trace rows of one try_start, its state after it)
    checks = []

    def watch(nodes, sim):
        for node in nodes:
            def try_start(sim_, node=node, try_start=node.try_start):
                first = len(sim_.gate_trace)
                try_start(sim_)
                rows = sim_.gate_trace[first:]
                if rows:
                    checks.append((rows, node.state))
                    assert {row[1] for row in rows} == {node.name}

            node.try_start = try_start

    result = _watched_run(name, True, watch)
    assert sum(len(rows) for rows, _ in checks) == len(result.sim.gate_trace)
    for rows, state in checks:
        *passed, last = rows
        assert all(row[6] for row in passed)
        assert state == ("computing" if last[6] else f"blocked-{last[2]}")


def _node_calls(name, trace, method):
    """(node, clock, simulated time) of each call of a node method(sim) in
    a run, on the nodes that have it."""
    calls = []

    def watch(nodes, sim):
        for node in nodes:
            if hasattr(node, method):
                def called(sim_, node=node, call=getattr(node, method)):
                    calls.append((node.name, node.iters_done, sim_.now))
                    return call(sim_)

                setattr(node, method, called)

    _watched_run(name, trace, watch)
    return calls


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_untraced_steps_start_where_traced_ones_do(name):
    # tracing only appends rows, so traced and untraced runs start the same
    # steps at the same clocks and times
    traced = _node_calls(name, True, "_begin_compute")
    assert traced and _node_calls(name, False, "_begin_compute") == traced


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_traced_runs_check_the_gates_untraced_runs_check(name):
    # one control path: a traced run checks its gates exactly where an
    # untraced one does, and only adds the rows
    traced = _node_calls(name, True, "_shut_gate")
    assert _node_calls(name, False, "_shut_gate") == traced


def _pin_files():
    digests, gate_traces = {}, {}
    for name, raw in sorted(CONFIGS.items()):
        digests[name], result = run_digest(raw, trace=True)
        gate_traces[name] = gate_trace_digest(result)
    return [(DIGESTS_PATH, digests, "digest"),
            (GATE_TRACES_PATH, gate_traces, "gate trace")]


if __name__ == "__main__":
    pins.write_main(__file__, _pin_files)
