"""Run a workload's experiments and turn them into the benchmark's metrics.

One *operation* is one run_experiment call. A pass runs every experiment of
a workload once, in a fixed order; a benchmark run repeats passes and
reports medians. Timing uses run_experiment's public ``on_nodes`` callback,
which fires after data, partitions, model and topology are built and before
the first simulated event:

* set-up time: from the call to ``on_nodes``;
* per-iteration time: from ``on_nodes`` to the return, divided by the
  local training iterations done (the sum of ``iters_done`` over nodes).

The package's functions are looked up through their modules (``harness.
run_experiment``), so a traced pass sees the tracer's wrappers.
"""

import gc
import hashlib
import statistics
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from geolearn import harness
from geolearn.harness import config_from_dict, metrics_csv_text, summary_text

from spans import LAYERS, categories, self_times


# Seconds the calibration below takes on the reference host (a 2-vCPU x86
# VM in its fast phase). Timings are reported at that host speed.
CALIBRATION_REF_S = 0.004


def calibrate():
    """Seconds this host takes for a fixed mix of interpreter dict work,
    small numpy calls and passes over an 80k-element vector, the three kinds
    of work geolearn does per iteration."""
    start = time.perf_counter()
    table = {}
    for i in range(15000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    small = np.zeros(512)
    for _ in range(400):
        small = small * 0.5 + 1.0
    big = np.zeros(80000)
    for _ in range(40):
        big = big * 0.5 + 1.0
    return time.perf_counter() - start


@dataclass
class Outcome:
    """What one operation produced; timings are None when it raised."""

    label: str
    failure: str = None
    t_call: float = None       # run_experiment called
    t_nodes: float = None      # on_nodes fired: set-up done
    t_return: float = None     # run_experiment returned
    iters: int = 0
    digest: str = None
    objective: float = None
    total_bytes: int = 0
    boundaries: int = 0
    travels: int = 0
    scale: float = 1.0         # reference host speed / host speed nearby

    @property
    def setup_s(self):
        return None if self.t_return is None else self.t_nodes - self.t_call

    @property
    def iter_us(self):
        if self.t_return is None or self.iters == 0:
            return None
        return (self.t_return - self.t_nodes) / self.iters * 1e6


def run_digest(result):
    """sha256 of the run's metrics.csv and summary.txt bytes."""
    text = metrics_csv_text(result.rows) + "\0" + summary_text(result.summary)
    return hashlib.sha256(text.encode()).hexdigest()


def classify_failure(result):
    """Why a finished run counts as failed, or None.

    A run fails when it diverged or when the event queue drained while a
    node was still short of its own budget (the node never stopped).
    """
    if result.summary["diverged"]:
        return "diverged"
    short = [
        f"{node.name} {node.iters_done}/{node.max_iters}"
        if node.max_iters is not None else f"{node.name} round {node.round}"
        for node in result.nodes if not node.stopped
    ]
    if short:
        return "short of budget: " + ", ".join(short)
    return None


def run_once(label, raw, tracer=None):
    """Run one experiment from a config dict and time it."""
    cfg = config_from_dict(raw)
    seen = {}

    def on_nodes(nodes, sim):
        seen["t_nodes"] = time.perf_counter()
        if tracer is not None:
            tracer.wrap_hooks(nodes)

    t_call = time.perf_counter()
    try:
        result = harness.run_experiment(cfg, on_nodes=on_nodes)
    except Exception as exc:  # a raising experiment is a failed operation
        return Outcome(label, failure=f"raised {type(exc).__name__}: {exc}")
    t_return = time.perf_counter()
    scout = result.scout
    return Outcome(
        label,
        failure=classify_failure(result),
        t_call=t_call, t_nodes=seen["t_nodes"], t_return=t_return,
        iters=sum(node.iters_done for node in result.nodes),
        digest=run_digest(result),
        objective=result.summary["final_objective"],
        total_bytes=result.summary["total_bytes"],
        boundaries=scout.boundary if scout is not None else 0,
        travels=scout.n_travels if scout is not None else 0,
    )


def run_pass(experiments, tracer=None, sink=None):
    """Run each (label, raw config) once; sink(outcome, tracer) sees each
    traced experiment's spans before they are dropped."""
    outcomes = []
    for label, raw in experiments:
        if tracer is not None:
            tracer.experiment = label
        gc.collect()
        before = calibrate()
        outcome = run_once(label, raw, tracer)
        after = calibrate()
        outcome.scale = CALIBRATION_REF_S / ((before + after) / 2)
        if tracer is not None:
            if sink is not None:
                sink(outcome, tracer)
            del tracer.spans[:]
        outcomes.append(outcome)
    return outcomes


def mark_mismatches(passes):
    """Mark as failed every run whose digest differs from the digest most
    runs of the same experiment produced; returns how many were marked."""
    by_label = {}
    for outcomes in passes:
        for o in outcomes:
            if o.digest is not None:
                by_label.setdefault(o.label, []).append(o)
    marked = 0
    for runs in by_label.values():
        usual = Counter(o.digest for o in runs).most_common(1)[0][0]
        for o in runs:
            if o.digest != usual:
                _add_failure(o, "digest differs from other runs")
                marked += 1
    return marked


def _add_failure(outcome, why):
    outcome.failure = f"{outcome.failure}; {why}" if outcome.failure else why


def end_to_end(passes, labels):
    """End-to-end metrics (except peak_rss_mb) from untraced passes."""
    metrics = {}
    setup = 0.0
    for label in labels:
        runs = [o for outcomes in passes for o in outcomes if o.label == label]
        setups = [o.setup_s * o.scale for o in runs if o.setup_s is not None]
        iters = [o.iter_us * o.scale for o in runs if o.iter_us is not None]
        if not setups or not iters:
            raise RuntimeError(f"no timed run of {label}")
        setup += statistics.median(setups)
        metrics[f"{label}_iter_us"] = (statistics.median(iters), "us")
    metrics["setup_s"] = (setup, "s")
    return metrics


def final_objective(outcomes):
    """Mean over experiments of the last metrics.csv objective."""
    vals = [o.objective for o in outcomes if o.objective is not None]
    return statistics.fmean(vals) if vals else float("nan")


# ---------------------------------------------------------------------------
# traced passes


MODEL_EVAL = ("objective", "accuracy", "predict", "logits")
PSYNC_GROUPS = {
    "apply_barrier": "barrier", "clear_barrier_on_update": "barrier",
    "maybe_emit_barrier": "barrier",
    "gate_read": "gate", "mirror_clock_gate": "gate", "ssp_gate": "gate",
    "accumulate_and_flush": "filter", "significance_scores": "filter",
    "significance": "filter",
}
HARNESS_EVAL = ("harness.hook.evaluate", "harness.hook.round_hook",
                "harness.hook.probe_metric")


def classify(span):
    """Kind of work a span does, from its name; None when the name alone
    does not say (the span is then counted as its layer's "other")."""
    leaf = span.name.rsplit(".", 1)[1]
    if span.layer == "models":
        if leaf == "loss_and_grad":
            return "train"
        return "eval" if leaf in MODEL_EVAL else None
    if span.layer == "data":
        return "batch" if leaf in ("peek", "next_batch") else "setup"
    if span.layer == "psync":
        return PSYNC_GROUPS.get(leaf)
    if span.layer == "algos":
        return "dgc_select" if leaf == "dgc_select" else None
    if span.layer == "wansim":
        if span.name.startswith("wansim.Simulator."):
            return "send" if leaf == "send" else "loop"
        if leaf == "account_cost" or span.name.startswith("wansim.CostLedger."):
            return "cost"
        return None
    if span.layer == "harness":
        if span.name == "harness.run_experiment":
            return "experiment"
        return "eval" if span.name in HARNESS_EVAL else None
    return None


def _probe_len(pos):
    return lambda args, kwargs, out: len(args[pos])


PROBES = {
    # indexes each barrier call walks
    "psync.apply_barrier": lambda args, kwargs, out: len(args[1].indexes),
    "psync.clear_barrier_on_update": _probe_len(3),
    "psync.maybe_emit_barrier": _probe_len(2),
    # (coordinates emitted, coordinates scored)
    "psync.accumulate_and_flush":
        lambda args, kwargs, out: (int(out[0].size), int(args[0].v.size)),
    # 1 when the gate blocks
    "psync.gate_read": lambda args, kwargs, out: int(out.size > 0),
    "psync.mirror_clock_gate": lambda args, kwargs, out: int(not out),
    "psync.ssp_gate": lambda args, kwargs, out: int(not out),
    # events processed
    "wansim.Simulator.run": lambda args, kwargs, out: out,
}


def trace_sums(spans, outcome):
    """Additive per-layer sums for one traced experiment."""
    sums = Counter()
    own = self_times(spans)
    kinds = categories(spans, classify)
    root = run_end = None
    for i, span in enumerate(spans):
        if span.name == "harness.run_experiment" and span.parent < 0:
            root = i
        elif span.name == "wansim.Simulator.run" and root is not None \
                and span.parent == root:
            run_end = span.end
    for i, (span, t, kind) in enumerate(zip(spans, own, kinds)):
        # an entry is a call into the layer; a kind starts at an entry or
        # where a same-layer caller of another kind calls it
        entry = span.parent < 0 or spans[span.parent].layer != span.layer
        starts = entry or kinds[span.parent] != kind
        kind = kind or "other"
        if span.layer in LAYERS:
            sums[f"{span.layer}.self_s"] += t
            sums["attributed_s"] += t
        sums[f"{span.layer}.{kind}_s"] += t
        if starts:
            sums[f"{span.layer}.{kind}_calls"] += 1
        if entry:
            sums[f"{span.layer}.calls"] += 1
        leaf = span.name.rsplit(".", 1)[1]
        if span.layer == "psync" and starts and kind in ("barrier", "gate"):
            sums[f"psync.{kind}_value"] += span.value or 0
        if span.name == "psync.accumulate_and_flush" and span.value:
            sums["psync.filter_emitted"] += span.value[0]
            sums["psync.filter_scored"] += span.value[1]
        if span.layer == "algos" and leaf in ("on_wake", "on_message"):
            sums[f"algos.{leaf}_calls"] += 1
        if span.name == "wansim.Simulator.run":
            sums["wansim.events"] += span.value or 0
            sums["wansim.run_s"] += span.end - span.start
        if span.layer == "harness" and kind == "experiment" \
                and outcome.t_return is not None:
            sums.update(_harness_phases(spans, i, t, outcome.t_nodes,
                                        run_end))
    if outcome.t_return is not None:
        sums["wall_s"] += outcome.t_return - outcome.t_call
        sums["scaled_wall_s"] += \
            (outcome.t_return - outcome.t_call) * outcome.scale
    sums["wansim.bytes_sent"] += outcome.total_bytes
    sums["skewscout.boundaries"] += outcome.boundaries
    sums["skewscout.travels"] += outcome.travels
    return sums


def _harness_phases(spans, i, own, t_nodes, run_end):
    """Split run_experiment's own code into set-up and settlement time.

    Set-up is before on_nodes fired, settlement after the simulator loop
    returned; span i is the root or a harness call nested in it.
    """
    span = spans[i]
    if span.parent >= 0:
        if span.start < t_nodes:
            return {"harness.setup_self_s": own}
        if run_end is not None and span.start >= run_end:
            return {"harness.settle_s": own}
        return {}
    children = [c for c in spans if c.parent == i]
    setup = (t_nodes - span.start) - sum(
        c.end - c.start for c in children if c.end <= t_nodes)
    out = {"harness.setup_self_s": setup}
    if run_end is not None:
        out["harness.settle_s"] = (span.end - run_end) - sum(
            c.end - c.start for c in children if c.start >= run_end)
    return out


def per_layer(sums, untraced_wall_s):
    """Per-layer metrics of one traced pass from its summed experiments."""
    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "models.train_calls": (sums["models.train_calls"], "count"),
        "models.train_s": (sums["models.train_s"], "s"),
        "models.eval_calls": (sums["models.eval_calls"], "count"),
        "models.eval_s": (sums["models.eval_s"], "s"),
        "numerics.calls": (sums["numerics.calls"], "count"),
        "numerics.s": (sums["numerics.self_s"], "s"),
        "data.setup_s": (sums["data.setup_s"], "s"),
        "data.batch_s": (sums["data.batch_s"], "s"),
        "harness.eval_calls": (sums["harness.eval_calls"], "count"),
        "harness.eval_s": (sums["harness.eval_s"], "s"),
        "harness.setup_self_s": (sums["harness.setup_self_s"], "s"),
        "harness.settle_s": (sums["harness.settle_s"], "s"),
        "skewscout.boundaries": (sums["skewscout.boundaries"], "count"),
        "skewscout.travels": (sums["skewscout.travels"], "count"),
        "skewscout.s": (sums["skewscout.self_s"], "s"),
        "psync.barrier_calls": (sums["psync.barrier_calls"], "count"),
        "psync.barrier_indexes": (sums["psync.barrier_value"], "count"),
        "psync.barrier_s": (sums["psync.barrier_s"], "s"),
        "psync.filter_calls": (sums["psync.filter_calls"], "count"),
        "psync.filter_s": (sums["psync.filter_s"], "s"),
        "psync.filter_emit_ratio": (ratio(sums["psync.filter_emitted"],
                                          sums["psync.filter_scored"]),
                                    "ratio"),
        "psync.gate_calls": (sums["psync.gate_calls"], "count"),
        "psync.gate_s": (sums["psync.gate_s"], "s"),
        "psync.gate_block_ratio": (ratio(sums["psync.gate_value"],
                                         sums["psync.gate_calls"]), "ratio"),
        "algos.wake_calls": (sums["algos.on_wake_calls"], "count"),
        "algos.message_calls": (sums["algos.on_message_calls"], "count"),
        "algos.node_s": (sums["algos.other_s"], "s"),
        "algos.dgc_select_calls": (sums["algos.dgc_select_calls"], "count"),
        "algos.dgc_select_s": (sums["algos.dgc_select_s"], "s"),
        "wansim.events": (sums["wansim.events"], "count"),
        "wansim.events_per_s": (ratio(sums["wansim.events"],
                                      sums["wansim.run_s"]), "1/s"),
        "wansim.loop_s": (sums["wansim.loop_s"], "s"),
        "wansim.send_calls": (sums["wansim.send_calls"], "count"),
        "wansim.send_s": (sums["wansim.send_s"], "s"),
        "wansim.cost_s": (sums["wansim.cost_s"], "s"),
        "wansim.bytes_sent": (sums["wansim.bytes_sent"], "B"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sums[f"{layer}.self_s"], "s")
    step = sums["models.train_s"] + sums["numerics.self_s"]
    sync = sums["psync.self_s"] + sums["algos.self_s"] + sums["wansim.self_s"]
    m["sync_to_step_ratio"] = (ratio(sync, step), "ratio")
    m["trace.wall_s"] = (sums["wall_s"], "s")
    m["trace.unattributed_s"] = (sums["wall_s"] - sums["attributed_s"], "s")
    m["trace_overhead_ratio"] = (ratio(sums["scaled_wall_s"],
                                       untraced_wall_s), "ratio")
    return m


def pass_wall_s(outcomes):
    """Host time inside run_experiment over one pass, at reference speed."""
    return sum((o.t_return - o.t_call) * o.scale for o in outcomes
               if o.t_return is not None)


def traced_pair(experiments, tracer):
    """An untraced pass, then a traced one; returns (untraced outcomes,
    traced outcomes, per-experiment span sums of the traced pass)."""
    plain = run_pass(experiments)
    sums = []
    tracer.install()
    try:
        traced = run_pass(experiments, tracer,
                          lambda o, t: sums.append(trace_sums(t.spans, o)))
    finally:
        tracer.uninstall()
    return plain, traced, sums


def mark_traced_mismatches(pairs):
    """Mark traced runs whose digest differs from the untraced run of the
    same experiment in the same pair; returns how many were marked."""
    marked = 0
    for plain, traced, _ in pairs:
        for a, b in zip(plain, traced):
            if a.digest != b.digest:
                _add_failure(b, "traced digest differs from untraced")
                marked += 1
    return marked


def traced_metrics(pairs):
    """Per-layer metrics: per-key medians over the traced passes, plus the
    deterministic final objective."""
    per_pass = []
    for plain, _, sums in pairs:
        total = Counter()
        for s in sums:
            total.update(s)
        per_pass.append(per_layer(total, pass_wall_s(plain)))
    metrics = {k: (statistics.median(p[k][0] for p in per_pass),
                   per_pass[0][k][1]) for k in per_pass[0]}
    metrics["final_objective"] = (final_objective(pairs[0][0]), "objective")
    return metrics
