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
import hashlib
import json
import os
import sys

import pytest

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
    with open(path) as fh:
        return json.load(fh)


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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    digests, gate_traces = {}, {}
    for name, raw in sorted(CONFIGS.items()):
        digests[name], result = run_digest(raw, trace=True)
        gate_traces[name] = gate_trace_digest(result)
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    moved = []
    for path, label, pins in ((DIGESTS_PATH, "digest", digests),
                              (GATE_TRACES_PATH, "gate trace", gate_traces)):
        before = _golden(path) if os.path.exists(path) else {}
        moved += [f"{name} {label} {pins.get(name, 'removed')}"
                  for name in sorted(set(before) | set(pins))
                  if before.get(name) != pins.get(name)]
        with open(path, "w") as fh:
            json.dump(pins, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print("\n".join(moved) or "no pin moved")
