"""Command line entry points: run, sweep, validate, report."""

import argparse
import copy
import os
import sys
from dataclasses import fields

import yaml

from . import harness


def _override(cfg, param, value):
    """Set a config field by 'section.field', or by a field name that only
    one section has."""
    section, _, name = param.rpartition(".")
    owners = [s for s, cls in harness._SECTIONS.items()
              if name in {f.name for f in fields(cls)}]
    if section and section not in harness._SECTIONS:
        raise SystemExit(f"unknown config section {section!r}")
    if section and section not in owners:
        raise SystemExit(f"{section} has no field {name!r}")
    if not section and len(owners) != 1:
        raise SystemExit(f"config sections with a field named {name!r}: "
                         f"{owners}; name one as section.field")
    setattr(getattr(cfg, section or owners[0]), name, value)
    return cfg


def _load(path):
    """The config at path; or, when it cannot be read or load_config
    rejects it, None after printing why."""
    try:
        return harness.load_config(path)
    except (OSError, ValueError, yaml.YAMLError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return None


def _invalid(cfg, where=""):
    """Print every problem validate_config finds; true if there was one."""
    errs = harness.validate_config(cfg)
    for e in errs:
        print(f"config error{where}: {e}", file=sys.stderr)
    return bool(errs)


def cmd_run(args):
    cfg = _load(args.config)
    if cfg is None:
        return 1
    if args.seed is not None:
        cfg.seed = args.seed
    if _invalid(cfg):
        return 1
    result = harness.run_experiment(cfg)
    out_dir = args.out or cfg.output.dir
    if out_dir:
        harness.save_run(result, out_dir)
        print(f"wrote {out_dir}/metrics.csv")
    sys.stdout.write(harness.summary_text(result.summary))
    return 0


def cmd_validate(args):
    cfg = _load(args.config)
    if cfg is None or _invalid(cfg):
        return 1
    print("ok")
    return 0


def cmd_sweep(args):
    base = _load(args.config)
    if base is None:
        return 1
    values = [yaml.safe_load(v) for v in args.values.split(",")]
    out_root = args.out or base.output.dir or "sweep"
    rows = []
    for value in values:
        cfg = copy.deepcopy(base)
        _override(cfg, args.param, value)
        if args.seed is not None:
            cfg.seed = args.seed
        cfg.name = f"{base.name}-{args.param}-{value}"
        if _invalid(cfg, f" at {args.param}={value}"):
            return 1
        result = harness.run_experiment(cfg)
        sub = os.path.join(out_root, f"{args.param.replace('.', '_')}={value}")
        harness.save_run(result, sub)
        row = {"value": value}
        row.update(result.summary)
        rows.append(row)
        print(f"{args.param}={value}: objective="
              f"{result.summary['final_objective']} "
              f"bytes={result.summary['total_bytes']} "
              f"cost={result.summary['cost_usd']}")
    os.makedirs(out_root, exist_ok=True)
    sweep_path = os.path.join(out_root, "sweep.csv")
    with open(sweep_path, "w", newline="") as fh:
        fh.write(harness._csv_text(list(rows[0]), rows))
    print(f"wrote {sweep_path}")
    return 0


def cmd_report(args):
    summary_path = os.path.join(args.run_dir, "summary.txt")
    metrics_path = os.path.join(args.run_dir, "metrics.csv")
    if not os.path.exists(summary_path):
        print(f"no summary at {summary_path}", file=sys.stderr)
        return 1
    with open(summary_path) as fh:
        sys.stdout.write(fh.read())
    if os.path.exists(metrics_path):
        with open(metrics_path) as fh:
            lines = fh.read().splitlines()
        print(f"metrics rows: {max(0, len(lines) - 1)}")
        if len(lines) > 1:
            print("last row: " + lines[-1])
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="geolearn",
        description="communication-efficient training on a simulated WAN")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(fn=cmd_run)

    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(fn=cmd_validate)

    p_sweep = sub.add_parser("sweep", help="run a config across param values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True,
                         help="field name, optionally section-qualified (algorithm.t0)")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_rep = sub.add_parser("report", help="print a finished run's summary")
    p_rep.add_argument("run_dir")
    p_rep.set_defaults(fn=cmd_report)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
