"""The benchmark's runs pinned across commits.

Every experiment of every workload in ``bench/workloads.py`` is run at seeds
7 and 101 through ``bench/lab.py``'s ``run_once``, and its
``lab.run_digest`` (sha256 of ``metrics.csv`` + NUL + ``summary.txt``) and
its failure (why ``lab.classify_failure`` counts it failed, or null) live in
``tests/golden/bench_digests.json``. A performance change that claims to
change nothing must leave every pin as it is, the failed runs included; a
deliberate change of behaviour regenerates the file in the same change and
says which pins moved and why. Regenerate it with::

    PYTHONPATH=src python tests/test_bench_digests.py --write

which prints each pin it moves (workload/seed/label, then ``digest`` or
``failure`` and the new value, or ``removed``), or ``no pin moved``.
"""

import os
import sys

import pytest

import pins

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import lab  # noqa: E402
import workloads  # noqa: E402

PINS_PATH = os.path.join(os.path.dirname(__file__), "golden",
                         "bench_digests.json")
SEEDS = (7, 101)


def bench_pins(workload, seed):
    """{"workload/seed/label": {"digest", "failure"}} of one workload's
    experiments at one seed."""
    found = {}
    for label, raw in workloads.WORKLOADS[workload](seed):
        outcome = lab.run_once(label, raw)
        found[f"{workload}/{seed}/{label}"] = {"digest": outcome.digest,
                                               "failure": outcome.failure}
    return found


def _pinned():
    return pins.load(PINS_PATH)


def test_pins_cover_every_bench_experiment():
    want = {f"{w}/{seed}/{label}" for w, make in workloads.WORKLOADS.items()
            for seed in SEEDS for label, _ in make(seed)}
    assert set(_pinned()) == want


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_bench_digests(workload, seed):
    pinned = _pinned()
    for key, pin in bench_pins(workload, seed).items():
        assert pin == pinned[key], key


def _pin_files():
    found = {}
    for workload in sorted(workloads.WORKLOADS):
        for seed in SEEDS:
            found.update(bench_pins(workload, seed))
    return [(PINS_PATH, found, None)]


if __name__ == "__main__":
    pins.write_main(__file__, _pin_files)
