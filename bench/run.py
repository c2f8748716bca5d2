"""geolearn benchmark: host time per training iteration, set-up time and
peak memory for each algorithm on the workloads in workloads.py.

Run from the repository root:

    python3 bench/run.py --workload mlp-5dc --seed 7 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 7 --seconds 30

With --trace 0 it reports the end-to-end metrics of untraced passes; with
--trace 1 it alternates untraced and traced passes and reports the per-layer
metrics. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are a readable
report: the environment, per-experiment timings and every failure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MIN_PASSES = 3            # per run, whatever --seconds says
MIN_TRACED_PAIRS = 2

# geolearn is a one-process, one-thread program. Multi-threaded BLAS brings
# no speed at its matrix sizes and adds a second core's scheduling noise to
# every MLP matmul, so the benchmark pins it to one thread.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def _import_package():
    """Import geolearn from the checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    import geolearn
    if Path(geolearn.__file__).resolve().parent != SRC / "geolearn":
        sys.exit(f"error: imported geolearn from {geolearn.__file__}, "
                 f"not from {SRC}")


def _environment(workload, seed):
    """What a result depends on besides the code: versions, cores, commit."""
    import hashlib

    import numpy
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
            text=True, timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "geolearn").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".csv"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "workload": workload, "seed": seed,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _peak_rss_mb(workload, seed):
    """ru_maxrss of a fresh process that runs one pass of the workload.

    Called before this process imports numpy: on Linux a child's ru_maxrss
    also covers the memory it shared with this process before exec, so this
    process must be smaller than the child will grow.
    """
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--rss-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: memory probe for {workload} exited "
                 f"{proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])["peak_rss_kb"] / 1024


def _rss_probe(workload, seed):
    import resource

    import lab
    import workloads
    lab.run_pass(workloads.WORKLOADS[workload](seed))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_kb": peak}))


def _repeat(seconds, minimum, one):
    """Call one() at least `minimum` times, then until the next call would
    end after `seconds`; returns the results."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(one())
        elapsed = time.perf_counter() - start
        if len(results) >= minimum and \
                elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def _report(passes, labels):
    print(f"{'experiment':<10} {'runs':>4} {'failed':>6} {'iters':>6} "
          f"{'raw_us':>10} {'q1':>10} {'q3':>10} {'scale':>6} {'iter_us':>10} "
          f"{'setup_ms':>8} {'objective':>10}")
    for label in labels:
        runs = [o for p in passes for o in p if o.label == label]
        timed = [o for o in runs if o.iter_us is not None]
        if not timed:
            print(f"{label:<10} {len(runs):>4} {len(runs):>6}  (no timed run)")
            continue
        raw = [o.iter_us for o in timed]
        q1, _, q3 = statistics.quantiles(raw, n=4) if len(raw) > 1 \
            else (raw[0],) * 3
        print(f"{label:<10} {len(runs):>4} "
              f"{sum(o.failure is not None for o in runs):>6} "
              f"{timed[0].iters:>6} {statistics.median(raw):>10.1f} "
              f"{q1:>10.1f} {q3:>10.1f} "
              f"{statistics.median(o.scale for o in timed):>6.3f} "
              f"{statistics.median(o.iter_us * o.scale for o in timed):>10.1f} "
              f"{statistics.median(o.setup_s * o.scale for o in timed) * 1e3:>8.2f} "
              f"{timed[0].objective if timed[0].objective is not None else '-':>10.5}")
    failures = {}
    for p in passes:
        for o in p:
            if o.failure:
                failures[(o.label, o.failure)] = \
                    failures.get((o.label, o.failure), 0) + 1
    for (label, why), n in failures.items():
        print(f"failed: {label} x{n}: {why}")


def run_workload(workload, seed, seconds, trace, peak_rss_mb=None):
    """Measure one workload; returns (correct, attempted, failed, metrics)."""
    import lab
    import spans
    import workloads

    experiments = workloads.WORKLOADS[workload](seed)
    labels = [label for label, _ in experiments]
    print(f"== {workload} seed={seed} trace={trace} seconds={seconds}")
    print("env: " + json.dumps(_environment(workload, seed)))
    problems = []
    if not trace:
        untraced = _repeat(seconds, MIN_PASSES,
                           lambda: lab.run_pass(experiments))
        passes = untraced
    else:
        tracer = spans.Tracer(probes=lab.PROBES)
        pairs = _repeat(seconds, MIN_TRACED_PAIRS,
                        lambda: lab.traced_pair(experiments, tracer))
        untraced = [plain for plain, _, _ in pairs]
        passes = untraced + [traced for _, traced, _ in pairs]
        left = spans.find_wrappers()
        if left:
            problems.append("tracer wrappers left behind: " + ", ".join(left))
        if lab.mark_traced_mismatches(pairs):
            problems.append("a traced run's digest differs from untraced")
    if lab.mark_mismatches(passes):
        problems.append("a run's digest differs from another run's")
    if any(o.failure and o.failure.startswith("raised")
           for p in passes for o in p):
        problems.append("an experiment raised")
    _report(passes, labels)
    if not trace:
        metrics = lab.end_to_end(untraced, labels)
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        print(f"final_objective {lab.final_objective(untraced[0]):.6g} "
              "(mean over experiments, deterministic for a seed)")
    else:
        metrics = lab.traced_metrics(pairs)
        wall = metrics["trace.wall_s"][0]
        print(f"layer self times cover "
              f"{(wall - metrics['trace.unattributed_s'][0]) / wall:.4%} "
              "of traced wall time")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<24} {value:>16.6g} {unit}")
    for problem in problems:
        print("error: " + problem)
    attempted = sum(len(p) for p in passes)
    failed = sum(o.failure is not None for p in passes for o in p)
    print(f"{workload}: attempted={attempted} failed={failed} "
          f"correct={not problems}")
    return not problems, attempted, failed, metrics


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rss-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if not (SRC / "geolearn" / "__init__.py").is_file():
        sys.exit(f"error: no geolearn package under {SRC}")
    os.environ.update(ONE_THREAD)

    if args.rss_probe:
        _import_package()
        _rss_probe(args.workload, args.seed)
        return
    rss = {} if args.trace else {n: _peak_rss_mb(n, args.seed) for n in names}
    _import_package()
    results = [run_workload(name, args.seed, args.seconds, args.trace,
                            rss.get(name)) for name in names]
    if len(names) == 1:
        metrics = results[0][3]
    else:
        metrics = {f"{name}/{k}": v
                   for name, r in zip(names, results) for k, v in r[3].items()}
    print(json.dumps({
        "correct": all(r[0] for r in results),
        "attempted": sum(r[1] for r in results),
        "failed": sum(r[2] for r in results),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
