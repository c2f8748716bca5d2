"""Tests of the benchmark itself: span arithmetic, wrapper install and
removal, and failure accounting."""

import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from geolearn import algos, harness, psync, wansim  # noqa: E402

import lab  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, categories, find_wrappers, self_times  # noqa: E402


def _span(name, start, end, parent, layer=None):
    return Span(name, layer or name.split(".")[0], start, end, parent, "x",
                None)


def test_self_times_of_synthetic_nesting():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]
    tree = [
        _span("harness.a", 0.0, 10.0, -1),
        _span("wansim.b", 1.0, 4.0, 0),
        _span("algos.c", 5.0, 9.0, 0),
        _span("models.d", 6.0, 7.0, 2),
    ]
    assert self_times(tree) == [3.0, 3.0, 3.0, 1.0]
    assert sum(self_times(tree)) == tree[0].end - tree[0].start


def test_self_times_of_wrapped_calls_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    wrapped = {}

    def leaf():
        return 1

    def inner():
        return wrapped["leaf"]()

    def outer():
        return wrapped["inner"]() + wrapped["inner"]()

    wrapped["leaf"] = tracer.wrap(leaf, "models.leaf", "models")
    wrapped["inner"] = tracer.wrap(inner, "psync.inner", "psync")
    assert tracer.wrap(outer, "algos.outer", "algos")() == 2
    # spans are indexed in call order, each with its parent's index
    names = [s.name for s in tracer.spans]
    assert names == ["algos.outer", "psync.inner", "models.leaf",
                     "psync.inner", "models.leaf"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0, 3]
    own = self_times(tracer.spans)
    # every clock read is one tick: each leaf lasts 1, each inner 3 with 2
    # of its own, and the outer 9 with 3 of its own
    assert own == [3.0, 2.0, 1.0, 2.0, 1.0]
    assert sum(own) == tracer.spans[0].end - tracer.spans[0].start


def test_nested_same_layer_calls_inherit_the_entry_category():
    tree = [
        _span("harness.hook.evaluate", 0.0, 10.0, -1),
        _span("models.SoftmaxModel.objective", 1.0, 5.0, 0),
        _span("models.SoftmaxModel.loss_and_grad", 2.0, 4.0, 1),
        _span("models.SoftmaxModel.loss_and_grad", 6.0, 8.0, 0),
        _span("algos._NodeBase.on_wake", 8.0, 10.0, -1),
        _span("algos.dgc_select", 8.5, 9.0, 4),
    ]
    # a same-layer caller with a kind passes it on; one without does not
    assert categories(tree, lab.classify) == ["eval", "eval", "eval",
                                              "train", None, "dgc_select"]


def _tiny(kind="gaia", alpha=0.0, nodes=3, classes=7, epochs=3):
    return {
        "seed": 5,
        "model": {"kind": "softmax", "features": 4, "classes": classes},
        "data": {"per_class": 30, "test_per_class": 10},
        "partition": {"nodes": nodes, "alpha": alpha},
        "algorithm": {"kind": kind, "epochs": epochs, "batch_size": 10},
        "convergence": {"mode": "none"},
    }


def test_install_wraps_where_callers_look_and_uninstall_restores():
    originals = {
        "algos.apply_barrier": algos.apply_barrier,
        "psync.apply_barrier": psync.apply_barrier,
        "fresh": vars(psync.WeightShard)["fresh"],
        "send": vars(wansim.Simulator)["send"],
        "run_experiment": harness.run_experiment,
    }
    tracer = Tracer(probes=lab.PROBES)
    tracer.install()
    try:
        assert spans.is_traced(algos.apply_barrier)
        assert spans.is_traced(psync.apply_barrier)
        assert spans.is_traced(vars(psync.WeightShard)["fresh"])
        assert spans.is_traced(vars(wansim.Simulator)["send"])
        assert spans.is_traced(harness.run_experiment)
        assert set(find_wrappers()) >= {"algos.apply_barrier",
                                        "wansim.Simulator.send"}
        tracer.experiment = "tiny"
        traced = lab.run_once("gaia", _tiny(), tracer)
        recorded = list(tracer.spans)
    finally:
        tracer.uninstall()
    assert find_wrappers() == []
    assert algos.apply_barrier is originals["algos.apply_barrier"]
    assert psync.apply_barrier is originals["psync.apply_barrier"]
    assert vars(psync.WeightShard)["fresh"] is originals["fresh"]
    assert vars(wansim.Simulator)["send"] is originals["send"]
    assert harness.run_experiment is originals["run_experiment"]

    roots = [s for s in recorded if s.parent < 0]
    assert [s.name for s in roots] == ["harness.run_experiment"]
    assert {s.layer for s in recorded} >= {"harness", "algos", "psync",
                                           "wansim", "models", "data",
                                           "numerics"}
    assert any(s.name == "harness.hook.evaluate" for s in recorded)
    assert abs(sum(self_times(recorded)) - (roots[0].end - roots[0].start)) \
        < 1e-9
    sums = lab.trace_sums(recorded, traced)
    assert sums["models.train_calls"] == traced.iters
    assert sums["wansim.events"] > 0

    plain = lab.run_once("gaia", _tiny())
    assert plain.digest == traced.digest


def test_hooks_and_scout_callbacks_are_traced_and_restored():
    raw = _tiny("fedavg", alpha=0.5)
    raw["scout"] = {"enabled": True}
    tracer = Tracer(probes=lab.PROBES)
    tracer.install()
    try:
        outcome = lab.run_once("fedavg", raw, tracer)
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    assert {"harness.hook.round_hook", "harness.hook.probe_metric",
            "skewscout.hook._on_travel"} <= names
    assert not tracer._patches
    sums = lab.trace_sums(tracer.spans, outcome)
    assert sums["skewscout.travels"] == outcome.travels > 0
    assert sums["harness.eval_calls"] > 0


def test_stalling_config_counts_as_failed():
    # 7 classes over 3 DCs at full skew: partitions of 90/60/60 samples, so
    # node 0 still has iterations to do when its peers stop
    for kind in ("gaia", "bsp", "ssp", "dgc"):
        outcome = lab.run_once(kind, _tiny(kind, alpha=1.0))
        assert outcome.failure is not None, kind
        assert outcome.failure.startswith("short of budget"), outcome.failure
        assert "/27" in outcome.failure
        assert 0 < outcome.iters < 3 * 27
        assert outcome.iter_us > 0


def test_balanced_config_and_raising_config():
    assert lab.run_once("bsp", _tiny("bsp", alpha=0.0, classes=6)).failure \
        is None
    bad = _tiny("bsp")
    bad["algorithm"]["epochs"] = 0
    outcome = lab.run_once("bsp", bad)
    assert outcome.failure.startswith("raised ValueError")
    assert outcome.iter_us is None


def test_digest_mismatch_marks_the_odd_run():
    passes = [[lab.Outcome("a", digest="x")], [lab.Outcome("a", digest="x")],
              [lab.Outcome("a", digest="y")]]
    assert lab.mark_mismatches(passes) == 1
    assert passes[2][0].failure == "digest differs from other runs"
    assert passes[0][0].failure is None


def test_workloads_report_every_label_and_follow_the_seed():
    for make in workloads.WORKLOADS.values():
        exps = make(3)
        assert [label for label, _ in exps] == list(workloads.LABELS)
        assert make(3) == exps
        assert all(raw["seed"] == 3 for _, raw in exps)
        for _, raw in exps:
            assert harness.validate_config(harness.config_from_dict(raw)) \
                == []


def test_reported_metric_names_are_the_declared_ones():
    import json

    declared = json.loads(
        (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    exps = [("bsp", _tiny("bsp")), ("gaia", _tiny("gaia"))]
    pairs = [lab.traced_pair(exps, Tracer(probes=lab.PROBES))]
    assert set(lab.traced_metrics(pairs)) == \
        {m["name"] for m in declared["per_layer"]}
    e2e = set(lab.end_to_end([pairs[0][0]], ["bsp", "gaia"])) | \
        {"peak_rss_mb"}
    assert {"setup_s", "peak_rss_mb", "bsp_iter_us", "gaia_iter_us"} <= e2e
    assert {m["name"] for m in declared["end_to_end"]} == \
        e2e | {f"{label}_iter_us" for label in workloads.LABELS}
