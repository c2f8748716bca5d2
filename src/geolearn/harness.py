"""Experiment orchestration: config in, metrics and a summary out.

A config names a model, a dataset, a partitioning, an algorithm, a WAN
topology, and optional adaptive tuning. run_experiment takes four steps:
build the data (the model kind decides it), build the simulator and the
nodes (the node class of the algorithm kind declares its policies), run,
and settle. Rows are taken at the trigger node's epoch (or round)
boundaries. Runs are functions of the config alone: the same config
produces byte-identical metrics.

The metrics CSV schema is fixed:

    sim_time_s,epoch,objective,accuracy,update_bytes,barrier_bytes,clock_bytes,travel_bytes,cost_usd

with byte columns as deltas since the previous row, cost cumulative, and
accuracy empty for models that have none (factorization).
"""

import csv
import functools
import io
import math
import numbers
import operator
import os
import re
from collections import namedtuple
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import numpy as np
import yaml

from . import wansim
from .algos import DONE, NODE_CLASSES
from .data import (
    LabeledDataset, MinibatchStream, gen_cluster_data, gen_mf_data,
    partition_label_skew, partition_uniform,
)
from .models import MFModel, SoftmaxModel, TinyMLP
from .numerics import StepDecay
from .psync import SoftCtl
from .rng import seed_stream
from .skewscout import ScoutController

METRICS_HEADER = (
    "sim_time_s", "epoch", "objective", "accuracy",
    "update_bytes", "barrier_bytes", "clock_bytes", "travel_bytes", "cost_usd",
)


# ---------------------------------------------------------------------------
# configuration


def _f(default, **rules):
    """A config field: its default, which must be valid (a None default
    makes None valid), and the rules validate_config checks beyond the
    annotated type: ge/gt/le/lt bound a number or each element of a tuple;
    choices lists the allowed values (noun names them in the message); of is
    a tuple's element type; per_dc also allows a {dc: number} mapping;
    schema is a dataclass whose fields are a dict field's keys."""
    return field(default=default, metadata=rules)


@dataclass
class ModelCfg:
    kind: str = _f("softmax", choices=("mf", "softmax", "mlp"))
    rows: int = _f(60, ge=1)         # mf
    cols: int = _f(40, ge=1)
    rank: int = _f(5, ge=1)
    reg: float = _f(0.0, ge=0)
    features: int = _f(8, ge=1)      # classifiers
    classes: int = _f(4, ge=1)
    hidden: tuple = _f((16,), of=int, ge=1)      # mlp hidden widths
    norm: str = _f("none", choices=("none", "batch", "group"))
    group_size: int = _f(2, ge=1)


@dataclass
class DataCfg:
    density: float = _f(0.3, gt=0, le=1)         # mf
    noise_sigma: float = _f(0.1, ge=0)
    per_class: int = _f(200, ge=1)   # blobs
    spread: float = _f(1.0, ge=0)
    test_per_class: int = _f(50, ge=1)


@dataclass
class PartitionCfg:
    nodes: int = _f(2, ge=1)
    alpha: float = _f(0.0, ge=0, le=1)


@dataclass
class AlgoCfg:
    kind: str = _f("gaia", choices=tuple(NODE_CLASSES))
    batch_size: int = _f(20, ge=1)
    epochs: int = _f(5, ge=1)
    momentum: float = _f(0.9, ge=0, lt=1)
    # keys: the StepDecay fields (SoftCtl's for soft), checked by building one
    lr: dict = field(default_factory=lambda: {"eta0": 0.05},
                     metadata={"schema": StepDecay})
    # significance-filtered sync
    t0: float = _f(0.01, gt=0)
    ds: int = _f(1, ge=0)
    decay: str = _f("lr", choices=("lr", "invsqrt"))
    barrier: bool = _f(True)
    mirror: bool = _f(True)
    soft: dict = _f(None, schema=SoftCtl)    # soft sharing, on when set
    # bounded staleness
    staleness: int = _f(1, ge=0)
    # model averaging
    iter_local: int = _f(20, ge=1)
    client_fraction: float = _f(1.0, gt=0, le=1)
    # sparse all-reduce
    e_warm: int = _f(1, ge=1)
    clip_norm: float = _f(5.0, gt=0)


@dataclass
class TopoCfg:
    dcs: tuple = _f((), of=str)      # default: first K regions of the table
    bandwidth_file: str = _f(None)
    cost_file: str = _f(None)
    latency_s: float = _f(0.05, ge=0)
    compute_s: float = _f(wansim.COMPUTE_S, ge=0, per_dc=True)
    groups: tuple = _f((), of=tuple)  # overlay groups; the first DC is the hub


@dataclass
class ScoutCfgSection:
    enabled: bool = _f(False)
    mtp: int = _f(0, ge=0)           # 0 = one local epoch
    sigma_al: float = _f(5.0, ge=0)
    lambda_al: float = _f(1.0, ge=0)
    lambda_c: float = _f(1.0, ge=0)
    probe_size: int = _f(256, ge=1)
    tuner: str = _f("hill", choices=("hill", "stochastic", "anneal"), noun="tuner")
    start_idx: int = _f(0, ge=0)
    temperature: float = _f(1.0, ge=0)
    temp_decay: float = _f(0.9, ge=0)
    grid: tuple = _f((), of=float)   # default: per-algorithm grid


@dataclass
class ConvergenceCfg:
    mode: str = _f("window", choices=("window", "target", "none"))
    window: int = _f(10, ge=2)
    rel_tol: float = _f(0.02, gt=0)
    target: float = _f(0.0)


@dataclass
class OutputCfg:
    dir: str = _f(None)              # where `geolearn run` writes its files
    trace: bool = _f(False)          # keep the gate trace


@dataclass
class ExperimentConfig:
    name: str = _f("run")
    seed: int = _f(0)
    model: ModelCfg = field(default_factory=ModelCfg)
    data: DataCfg = field(default_factory=DataCfg)
    partition: PartitionCfg = field(default_factory=PartitionCfg)
    algorithm: AlgoCfg = field(default_factory=AlgoCfg)
    topology: TopoCfg = field(default_factory=TopoCfg)
    scout: ScoutCfgSection = field(default_factory=ScoutCfgSection)
    convergence: ConvergenceCfg = field(default_factory=ConvergenceCfg)
    output: OutputCfg = field(default_factory=OutputCfg)


_SECTIONS = {f.name: f.type for f in fields(ExperimentConfig)
             if is_dataclass(f.type)}


def _build_section(cls, raw, section):
    if not isinstance(raw, dict):
        raise ValueError(f"{section} must be a mapping, got {raw!r}")
    if unknown := set(raw) - {f.name for f in fields(cls)}:
        raise ValueError(f"unknown {section} option(s): {sorted(unknown)}")
    return cls(**{k: tuple(v) if isinstance(v, list) else v
                  for k, v in raw.items()})


def config_from_dict(raw):
    raw = dict(raw or {})
    if unknown := set(raw) - {f.name for f in fields(ExperimentConfig)}:
        raise ValueError(f"unknown config section(s): {sorted(unknown)}")
    for section, cls in _SECTIONS.items():
        if section in raw:
            raw[section] = _build_section(cls, raw[section] or {}, section)
    return ExperimentConfig(**raw)


class _YamlLoader(yaml.SafeLoader):
    """PyYAML's safe loader, which follows YAML 1.1 and so reads a number
    whose exponent has no dot before it or no sign (5e-2, 1e3, 2.5e3) as a
    string; this one reads it as a float, as YAML 1.2 does."""


_YamlLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


def parse_yaml(stream):
    """The YAML document in stream (a string or an open file), read by
    _YamlLoader: configs and sweep values both go through it."""
    return yaml.load(stream, Loader=_YamlLoader)


def load_config(path):
    with open(path) as fh:
        raw = parse_yaml(fh)
    if raw is not None and not isinstance(raw, dict):
        raise ValueError(f"the top level of {path} must be a mapping, "
                         f"got {type(raw).__name__}")
    return config_from_dict(raw)


# annotation -> what a value must be, and the types that pass (a float field
# takes an int, a tuple field a list as YAML gives, numbers numpy scalars)
_TYPES = {bool: "true or false", int: "an integer", float: "a number",
          str: "a string", tuple: "a list", dict: "a mapping"}
_ACCEPT = {bool: bool, int: (int, numbers.Integral), float: (float, int, numbers.Real),
           str: str, tuple: (list, tuple), dict: dict}
_BOUNDS = {"ge": (">=", operator.ge), "gt": (">", operator.gt),
           "le": ("<=", operator.le), "lt": ("<", operator.lt)}


def _check(path, value, kind, rules):
    """Problems of one value against its type and rules: type, then range."""
    if rules.get("per_dc") and isinstance(value, dict):
        return [e for dc, v in value.items()
                for e in _check(f"{path}.{dc}", v, kind, {**rules, "per_dc": False})]
    if (isinstance(value, bool) != (kind is bool)
            or not isinstance(value, _ACCEPT[kind])):
        return [f"{path} must be {_TYPES[kind]}, got {value!r}"]
    if kind is tuple and rules.get("of"):
        return [e for i, v in enumerate(value)
                for e in _check(f"{path}[{i}]", v, rules["of"], {**rules, "of": None})]
    if kind is dict:
        return _check_schema(path, value, rules["schema"])
    if "choices" in rules and value not in rules["choices"]:
        return [f"unknown {rules.get('noun', path.replace('.', ' '))} {value!r}"]
    for k, (_, op) in _BOUNDS.items():
        if k in rules and not op(value, rules[k]):
            text = " and ".join(f"{sign} {rules[b]}"
                                for b, (sign, _) in _BOUNDS.items() if b in rules)
            return [f"{path} must be {text}, got {value!r}"]
    return []


def _check_schema(path, value, schema):
    """A mapping of `schema`'s fields: keys, values, then schema's own checks."""
    known = {f.name: f for f in _fields(schema)}
    if unknown := set(value) - set(known):
        return [f"unknown {path} option(s): {sorted(unknown, key=str)}"]
    if missing := [n for n, f in known.items()
                   if f.default is MISSING and n not in value]:
        return [f"{path} needs {', '.join(missing)}"]
    errs = [e for n, v in value.items()
            for e in _check(f"{path}.{n}", v, known[n].type, known[n].metadata)]
    if not errs:
        try:
            schema(**value)
        except ValueError as exc:
            errs.append(f"{path}: {exc}")
    return errs


_fields = functools.cache(fields)    # called with classes only


def _field_errors(obj, prefix=""):
    """Type and range problems of every field of a config and its sections."""
    errs = []
    for f in _fields(type(obj)):
        value = getattr(obj, f.name)
        if f.name in _SECTIONS:
            errs += _field_errors(value, f"{f.name}.")
        elif value is not f.default:    # defaults are valid (tested)
            errs += _check(prefix + f.name, value, f.type, f.metadata)
    return errs


def validate_config(cfg):
    """Collect human-readable problems; empty list means runnable."""
    return _check_config(cfg)[0]


def _check_config(cfg):
    """validate_config's problems, plus the (bandwidth, costs) tables read
    on the way and the resolved DC names (None if a problem came first) and
    a batch-norm config's partitions (else None), so a run makes each once."""
    errs = _field_errors(cfg)
    if errs:    # the cross-field checks assume well-typed, in-range fields
        return errs, None, None, None
    m, d, p, a, s, t = (cfg.model, cfg.data, cfg.partition, cfg.algorithm,
                        cfg.scout, cfg.topology)
    if m.kind == "mlp" and not m.hidden:
        errs.append("mlp needs at least one hidden width")
    if m.kind == "mlp" and m.norm == "group":
        errs += [f"hidden width {h} not divisible by group size {m.group_size}"
                 for h in m.hidden if h % m.group_size]
    knob = NODE_CLASSES[a.kind]._knobs[a.kind]
    if s.enabled and knob is None:
        errs.append(f"{a.kind} has no communication knob to tune")
    elif s.enabled:
        knob, grid = knob
        grid, spec = s.grid or grid, AlgoCfg.__dataclass_fields__[knob]
        errs += [e for i, v in enumerate(grid)
                 for e in _check(f"scout.grid[{i}]", v, spec.type, spec.metadata)]
        if s.start_idx >= len(grid):
            errs.append(f"scout start_idx {s.start_idx} outside grid of {len(grid)}")
    # n samples (mf: observed entries, dealt uniformly); the skewed ones
    # reach at most min(classes, nodes) label owners, and the uniform rest
    # fills the emptiest partitions first
    mf, parts = m.kind == "mf", None
    n = int(round(d.density * m.rows * m.cols)) if mf else m.classes * d.per_class
    n_skew = 0 if mf else int(round(p.alpha * n))
    if (empty := p.nodes - min(m.classes, p.nodes, n_skew) - (n - n_skew)) > 0:
        errs.append(f"{empty} of {p.nodes} partitions would be empty: {n} "
                    f"samples, {n_skew} of them dealt by label")
    elif m.kind == "mlp" and m.norm == "batch":
        # the run's partitions, which read only gen_cluster_data's labels
        labels = np.repeat(np.arange(m.classes), d.per_class)
        one_row = []
        for i, part in enumerate(parts := partition_label_skew(
                LabeledDataset(None, labels, m.classes), p.nodes, p.alpha,
                cfg.seed)):
            b = min(a.batch_size, part.size)
            if b == 1 or part.size % b == 1:
                one_row.append(f"{i} ({part.size} rows)")
        if one_row:
            errs.append(f"batch norm needs minibatches of 2 rows or more, "
                        f"but at batch_size {a.batch_size} partitions "
                        f"{', '.join(one_row)} would get one-row minibatches")
    if a.soft and (floor := SoftCtl(**a.soft).floor) > a.t0:
        errs.append(f"soft floor {floor} exceeds hard threshold t0 {a.t0}")
    try:
        tables = (_table(t.bandwidth_file, wansim.load_bandwidth_csv,
                         wansim.default_bandwidth),
                  _table(t.cost_file, wansim.load_cost_csv, wansim.default_costs))
    except (OSError, ValueError) as exc:
        return errs + [f"cannot read the topology tables: {exc}"], None, None, None
    (names, matrix), costs = tables
    dcs = list(t.dcs) or names[:p.nodes]
    if len(dcs) != p.nodes:
        errs.append(f"{len(dcs)} DCs named for {p.nodes} partitions" if t.dcs
                    else f"{p.nodes} partitions but {len(names)} DCs in the bandwidth table")
    elif len(set(dcs)) < len(dcs):
        errs.append(f"topology.dcs names a DC more than once: {dcs}")
    if missing := [dc for dc in dcs if dc not in names]:
        errs.append(f"DCs missing from the bandwidth table: {missing}")
    elif missing := [(src, dst) for src in dcs for dst in dcs
                     if src != dst and (src, dst) not in matrix]:
        errs.append(f"DC pairs missing from the bandwidth table: {missing}")
    elif missing := [dc for dc in dcs if dc not in costs]:
        errs.append(f"DCs missing from the cost table: {missing}")
    if isinstance(t.compute_s, dict) and (
            extra := [dc for dc in t.compute_s if dc not in dcs]):
        errs.append(f"topology.compute_s names DCs outside the run: {extra}")
    members = [dc for g in t.groups for dc in g]
    if t.groups and sorted(members, key=repr) != sorted(dcs, key=repr):
        errs.append(f"overlay groups {[list(g) for g in t.groups]} must hold "
                    f"each DC of {dcs} exactly once")
    if empty := [i for i, g in enumerate(t.groups) if not g]:
        errs.append(f"overlay groups {empty} are empty: a group's first DC "
                    f"is its hub")
    return errs, tables, dcs, parts


def _table(path, load, packaged):
    """A topology table: the file at path read by load, or the packaged one."""
    if not path:
        return packaged()
    with open(path, newline="") as fh:
        return load(fh)


# ---------------------------------------------------------------------------
# convergence


@dataclass
class ConvergenceState:
    """A run's evaluations so far, judged by its convergence section."""

    cfg: ConvergenceCfg
    history: list = field(default_factory=list)
    status: str = "running"
    at_time: float = None


def check_convergence(state, value, sim_time):
    """Feed one evaluation; returns the (possibly new) status string."""
    if state.status != "running":
        return state.status
    if not math.isfinite(value):
        state.status = "diverged"
        state.at_time = sim_time
        return state.status
    state.history.append(value)
    cfg = state.cfg
    if cfg.mode == "target":
        if value <= cfg.target:
            state.status = "converged"
            state.at_time = sim_time
    elif cfg.mode == "window" and len(state.history) >= cfg.window:
        tail = state.history[-cfg.window:]
        spread = max(tail) - min(tail)
        if spread <= cfg.rel_tol * abs(float(np.mean(tail))):
            state.status = "converged"
            state.at_time = sim_time
    return state.status


# ---------------------------------------------------------------------------
# runs


@dataclass
class RunResult:
    cfg: ExperimentConfig
    rows: list
    summary: dict
    nodes: list
    sim: object
    scout: object = None


# what the model kind decides, in run_experiment's first step
_Data = namedtuple("_Data", "model w0 parts full_batch test batch")


def run_experiment(cfg, on_nodes=None):
    """Run one configured experiment to completion on the simulator, in four
    steps: _build_data, _build_nodes (and _hook_rows), sim.run, _settle.

    The WAN is the one the config's topology section names; on_nodes(nodes,
    sim), if given, runs after wiring but before the first event, e.g. to
    attach extra per-iteration hooks.
    """
    errs, tables, dcs, parts = _check_config(cfg)
    if errs:
        raise ValueError("bad config: " + "; ".join(errs))
    (_, matrix), costs = tables
    data = _build_data(cfg, parts)
    sim, nodes = _build_nodes(cfg, data, matrix, dcs)
    rows, conv, scout = _hook_rows(cfg, data, nodes, costs)
    if on_nodes is not None:
        on_nodes(nodes, sim)
    for node in nodes:
        sim.wake_at(0.0, node.name)
    sim.run()
    return _settle(cfg, sim, costs, nodes, rows, conv, scout)


def _build_data(cfg, parts):
    """Step 1: the data, the model, its w0, the partitions (the check's, if
    it made them), the full batch, batch(idx), which returns a factorization
    model's entry indexes as they are or a classifier's (X[idx], y[idx]),
    and the test set (None for a factorization model)."""
    mcfg, dcfg, seed = cfg.model, cfg.data, cfg.seed
    k = cfg.partition.nodes
    if mcfg.kind == "mf":
        entries = gen_mf_data(
            mcfg.rows, mcfg.cols, mcfg.rank, dcfg.density, dcfg.noise_sigma,
            seed)
        model = MFModel(mcfg.rows, mcfg.cols, mcfg.rank, entries, reg=mcfg.reg)
        parts = partition_uniform(len(entries), k, seed)
        full_batch = np.arange(len(entries), dtype=np.intp)
        test = None

        def batch(idx):
            return idx
    else:
        train = gen_cluster_data(mcfg.classes, mcfg.features, dcfg.per_class,
                                 dcfg.spread, seed, tag="train")
        test = gen_cluster_data(mcfg.classes, mcfg.features,
                                dcfg.test_per_class, dcfg.spread, seed,
                                tag="test")
        if mcfg.kind == "softmax":
            model = SoftmaxModel(mcfg.features, mcfg.classes)
        else:
            sizes = [mcfg.features] + list(mcfg.hidden) + [mcfg.classes]
            model = TinyMLP(sizes, norm=mcfg.norm, group_size=mcfg.group_size)
        if parts is None:
            parts = partition_label_skew(train, k, cfg.partition.alpha, seed)
        full_batch = (train.X, train.y)

        def batch(idx):
            return train.X[idx], train.y[idx]
    w0 = model.init_params(seed_stream(seed, "model", "init"))
    return _Data(model, w0, parts, full_batch, test, batch)


def _build_nodes(cfg, data, matrix, dcs):
    """Step 2: the simulator on the configured WAN (a link per ordered pair
    of distinct DCs), and one node per partition, of the class that runs the
    algorithm kind and with the budget it declares."""
    acfg, tcfg, seed = cfg.algorithm, cfg.topology, cfg.seed
    links = {(src, dst): (matrix[src, dst], tcfg.latency_s)
             for src in dcs for dst in dcs if src != dst}
    compute_s = tcfg.compute_s
    sim = wansim.Simulator(dcs, links, tcfg.groups, trace=cfg.output.trace)
    streams = [
        MinibatchStream(part, min(acfg.batch_size, part.size),
                        seed_stream(seed, "node", str(i), "batches"))
        for i, part in enumerate(data.parts)
    ]
    # every node reads acfg and never mutates it
    node_cls = NODE_CLASSES[acfg.kind]
    budgets = node_cls._budgets(acfg, streams, dcs, seed, cfg.scout.enabled,
                                data.w0)
    nodes = []
    for i, (dc, stream) in enumerate(zip(dcs, streams)):
        node = node_cls(
            name=dc, index=i, model=data.model.clone(),
            batch=data.batch, stream=stream,
            compute_s=(compute_s.get(dc, wansim.COMPUTE_S)
                       if isinstance(compute_s, dict) else compute_s),
            peers=[d for d in dcs if d != dc], w0=data.w0, algo=acfg,
            **budgets[i])
        nodes.append(node)
        sim.register(dc, node)
    return sim, nodes


def _hook_rows(cfg, data, nodes, costs):
    """Step 2's hooks: the trigger's rows, of the replicas its class names,
    and SkewScout on the knob and boundaries that class declares. The hooks
    read the nodes from the sim they are handed, so no hook holds them and a
    dropped RunResult frees its run without a cyclic collection."""
    acfg, trigger = cfg.algorithm, nodes[0]
    rows = []
    conv = ConvergenceState(cfg.convergence)
    prev_bytes = dict.fromkeys(wansim.BYTE_KINDS, 0)

    def stop_all(sim):
        for node in sim.nodes.values():
            node.state = DONE

    # batch-norm running stats stay per node, so replicas that share their
    # weights still differ
    per_node_stats = getattr(data.model, "norm", None) == "batch"
    # the hooks close over these, not over data, so w0 is freed when
    # run_experiment returns
    full_batch, test = data.full_batch, data.test

    def accuracy(n):
        return n.model.accuracy(n.w, test.X, test.y)

    def evaluate(trigger, sim):
        evaluated = (sim.nodes.values() if per_node_stats
                     or not trigger._row_alone else [trigger])
        # replicas that share their weights array share its training-mode
        # objective, which reads no running statistics, and its accuracy
        # unless batch norm's running statistics enter it
        obj = float(np.mean(_per_weights(
            evaluated, lambda n: n.model.objective(n.w, full_batch))))
        acc = None if test is None else float(np.mean(
            [accuracy(n) for n in evaluated] if per_node_stats
            else _per_weights(evaluated, accuracy)))
        cost = _cost_now(sim, costs)
        row = {"sim_time_s": sim.now, "epoch": trigger.epochs_done,
               "objective": obj, "accuracy": acc, "cost_usd": cost}
        for kind in wansim.BYTE_KINDS:
            total = sim.ledger.sent_bytes(kind)
            row[f"{kind}_bytes"] = total - prev_bytes[kind]
            prev_bytes[kind] = total
        rows.append(row)
        if any(n.diverged for n in sim.nodes.values()):
            conv.status, conv.at_time = "diverged", sim.now
        else:
            check_convergence(conv, obj, sim.now)
        if conv.status != "running":
            stop_all(sim)

    scout = None
    if cfg.scout.enabled:
        # drawn after the nodes, which keeps set-up's order of allocations
        probes = [data.batch(seed_stream(cfg.seed, "scout", "probe", str(i))
                             .choice(part, size=min(cfg.scout.probe_size,
                                                    part.size), replace=False))
                  for i, part in enumerate(data.parts)]
        # one model for every probe; a travel's bn stats replace its own
        probe_model = data.model.clone()

        # fn(w, bn stats, node index): a factorization model's objective on
        # the node's probe entries (AL is its relative gap), or a
        # classifier's accuracy in points
        def probe_metric(w, stats, i):
            if test is None:
                return probe_model.objective(w, probes[i])
            if stats is not None:
                probe_model.bn_stats = stats
            return probe_model.accuracy(w, *probes[i]) * 100.0

        scout = ScoutController(
            cfg.scout, cfg.scout.mtp or trigger._spacing(acfg, trigger.batches_per_epoch),
            grid=list(cfg.scout.grid) or list(trigger._knobs[acfg.kind][1]),
            nodes=nodes, evaluate=probe_metric,
            model_bytes=wansim.dense_update_bytes(data.w0.size),
            rng=seed_stream(cfg.seed, "scout", "tuner"),
            relative_al=test is None)

    if trigger._per_round:
        def round_hook(node, sim):
            evaluate(node, sim)
            if scout is not None:
                if node.epochs_done >= acfg.epochs:
                    stop_all(sim)
                else:
                    scout.on_boundary(node, sim)
        trigger.round_hook = round_hook
    else:
        trigger.epoch_hook = evaluate
        if scout is not None:
            trigger.iter_hook = scout.on_boundary
    return rows, conv, scout


def _per_weights(nodes, fn):
    """[fn(n) for n in nodes], with fn called once per distinct weights
    array."""
    done = {}
    for n in nodes:
        if id(n.w) not in done:
            done[id(n.w)] = fn(n)
    return [done[id(n.w)] for n in nodes]


def _cost_now(sim, costs):
    """The cost so far: every DC's machine time up to the simulator's clock,
    in DC order, and the traffic in the ledger, at the cost table's rates."""
    return wansim.account_cost(sim.ledger, costs,
                               dict.fromkeys(sim.dcs, sim.now))


def _settle(cfg, sim, costs, nodes, rows, conv, scout):
    """A drained run settled at the final clock: the trigger's row still
    waiting, the cost, the summary and the byte conservation check."""
    trigger = nodes[0]
    trigger.settle(sim)
    summary = {
        "name": cfg.name,
        "seed": cfg.seed,
        "algorithm": cfg.algorithm.kind,
        "nodes": len(nodes),
        "model_coords": int(trigger.w.size),
        "epochs_done": trigger.epochs_done,
        "sim_time_s": sim.now,
        "status": conv.status,
        "converged": conv.status == "converged",
        "diverged": conv.status == "diverged" or any(n.diverged for n in nodes),
        "time_to_convergence_s":
            conv.at_time if conv.status == "converged" else None,
        "final_objective": rows[-1]["objective"] if rows else None,
        "final_accuracy": rows[-1]["accuracy"] if rows else None,
    }
    for kind in wansim.BYTE_KINDS:
        summary[f"{kind}_bytes"] = sim.ledger.sent_bytes(kind)
    summary["total_bytes"] = sim.ledger.sent_bytes()
    summary["cost_usd"] = _cost_now(sim, costs)
    summary["travels"] = scout.n_travels if scout else 0
    if scout:
        summary["final_theta"] = scout.final_theta
    if not sim.ledger.conservation_ok():
        raise RuntimeError("byte conservation violated: sent != delivered")
    return RunResult(cfg=cfg, rows=rows, summary=summary, nodes=nodes,
                     sim=sim, scout=scout)


# ---------------------------------------------------------------------------
# output files


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(cols, rows):
    """The rows (mappings) as CSV under the header cols, every cell in
    _fmt's form; a column a row lacks is empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    writer.writerows([_fmt(row.get(c)) for c in cols] for row in rows)
    return buf.getvalue()


def metrics_csv_text(rows):
    return _csv_text(METRICS_HEADER, rows)


def summary_text(summary):
    return "".join(f"{k}={_fmt(v)}\n" for k, v in summary.items())


TUNER_TRACE_HEADER = ("sim_time_s", "boundary", "theta", "al_points",
                      "c_bytes", "score", "action", "theta_next")


def save_run(result, out_dir):
    """Write metrics.csv, summary.txt, and (if tuned) tuner_trace.csv."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "metrics.csv"), "w") as fh:
        fh.write(metrics_csv_text(result.rows))
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write(summary_text(result.summary))
    if result.scout is not None:
        with open(os.path.join(out_dir, "tuner_trace.csv"), "w") as fh:
            fh.write(_csv_text(TUNER_TRACE_HEADER, result.scout.trace))
    return out_dir
