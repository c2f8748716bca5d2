"""The names the benchmark's tracer probes, checked against the package.

``bench/lab.py``'s ``PROBES`` keys and ``PSYNC_GROUPS`` names are strings: a
rename in ``src/geolearn`` leaves them matching nothing, and the traced
sums they feed read 0 without an error. These tests resolve every name, and
run a traced experiment on which a selective barrier fires, so a probe that
reads its arguments (``apply_barrier``'s message) is exercised too.
"""

import importlib
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import lab  # noqa: E402
import spans  # noqa: E402
from test_golden import CONFIGS  # noqa: E402

# probed names whose functions are gone from the package; bench/lab.py
# still lists them (see ROADMAP item 7), and they may only be removed
STALE = {"maybe_emit_barrier", "mirror_clock_gate", "significance"}


def _resolves(dotted):
    """Whether "layer.name[.attr]" names an object of geolearn.layer."""
    layer, *path = dotted.split(".")
    obj = importlib.import_module(f"{spans.PACKAGE}.{layer}")
    for attr in path:
        obj = getattr(obj, attr, None)
    return obj is not None


def test_every_probed_name_resolves_but_the_known_stale_ones():
    names = set(lab.PROBES) | {f"psync.{leaf}" for leaf in lab.PSYNC_GROUPS}
    unresolved = {name.rsplit(".", 1)[1] for name in names
                  if not _resolves(name)}
    assert unresolved <= STALE, sorted(unresolved - STALE)
    assert _resolves("wansim.Simulator.run")


@pytest.fixture(scope="module")
def barrier_spans():
    tracer = spans.Tracer(probes=lab.PROBES)
    tracer.install()
    try:
        outcome = lab.run_once("gaia", CONFIGS["gaia-mlp-barrier"], tracer)
    finally:
        tracer.uninstall()
    assert spans.find_wrappers() == []
    assert outcome.digest is not None, outcome.failure
    return tracer.spans


def test_a_traced_barrier_run_probes_each_barrier_and_flush(barrier_spans):
    def values(name):
        return [s.value for s in barrier_spans if s.name == name]

    barriers = values("psync.apply_barrier")
    assert barriers and all(n > 0 for n in barriers)
    flushes = values("psync.accumulate_and_flush")
    assert flushes and all(0 <= emitted <= scored
                           for emitted, scored in flushes)
    assert any(emitted for emitted, _scored in flushes)
