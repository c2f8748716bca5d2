"""Experiment orchestration: config in, metrics and a summary out.

A config names a model, a dataset, a partitioning, an algorithm, a WAN
topology, and optional adaptive tuning; run_experiment wires them onto the
simulator, evaluates at the trigger node's epoch (or round) boundaries, and
returns every artifact a caller could want to inspect. Runs are functions
of the config alone: the same config produces byte-identical metrics.

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
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import numpy as np
import yaml

from . import skewscout, wansim
from .algos import ArrayBatches, DgcNode, EntryBatches, FedAvgNode, GaiaNode
from .data import (
    MFDatasetSpec, MinibatchStream, SkewSpec, gen_cluster_data, gen_mf_data,
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


# algorithm kind -> (the AlgoCfg field SkewScout tunes, its default grid);
# None means the kind has no communication knob to tune
KNOBS = {"gaia": ("t0", skewscout.GAIA_T0_GRID), "bsp": None, "ssp": None,
         "fedavg": ("iter_local", skewscout.FEDAVG_ITER_GRID),
         "dgc": ("e_warm", skewscout.DGC_EWARM_GRID)}


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
    kind: str = _f("blobs", choices=("mf", "blobs"))
    density: float = _f(0.3, gt=0, le=1)         # mf
    noise_sigma: float = _f(0.1, ge=0)
    gen_rank: int = _f(0, ge=0)      # 0 = use model rank
    per_class: int = _f(200, ge=1)   # blobs
    spread: float = _f(1.0, ge=0)
    test_per_class: int = _f(50, ge=1)


@dataclass
class PartitionCfg:
    nodes: int = _f(2, ge=1)
    alpha: float = _f(0.0, ge=0, le=1)


@dataclass
class AlgoCfg:
    kind: str = _f("gaia", choices=tuple(KNOBS))
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
    compute_s: float = _f(0.001, ge=0, per_dc=True)
    groups: tuple = _f((), of=tuple)  # overlay groups, list of DC name lists
    hubs: tuple = _f((), of=tuple)    # [from_group, to_group, hub_dc] triples


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


def load_config(path):
    with open(path) as fh:
        return config_from_dict(yaml.safe_load(fh))


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
    on the way (None if a problem came first), so a run reads each once."""
    errs = _field_errors(cfg)
    if errs:    # the cross-field checks assume well-typed, in-range fields
        return errs, None
    m, d, p, a, s, t = (cfg.model, cfg.data, cfg.partition, cfg.algorithm,
                        cfg.scout, cfg.topology)
    if m.kind == "mf" and d.kind != "mf":
        errs.append("factorization model needs data kind 'mf'")
    if m.kind != "mf" and d.kind != "blobs":
        errs.append(f"{m.kind} model needs data kind 'blobs'")
    if m.kind == "mlp" and not m.hidden:
        errs.append("mlp needs at least one hidden width")
    if m.kind == "mlp" and m.norm == "group":
        errs += [f"hidden width {h} not divisible by group size {m.group_size}"
                 for h in m.hidden if h % m.group_size]
    if s.enabled and KNOBS[a.kind] is None:
        errs.append(f"{a.kind} has no communication knob to tune")
    elif s.enabled:
        knob, grid = KNOBS[a.kind]
        grid, spec = s.grid or grid, AlgoCfg.__dataclass_fields__[knob]
        errs += [e for i, v in enumerate(grid)
                 for e in _check(f"scout.grid[{i}]", v, spec.type, spec.metadata)]
        if s.start_idx >= len(grid):
            errs.append(f"scout start_idx {s.start_idx} outside grid of {len(grid)}")
    # n samples (mf: observed entries, dealt uniformly); the skewed ones
    # reach at most min(classes, nodes) label owners, and the uniform rest
    # fills the emptiest partitions first
    mf = m.kind == "mf"
    n = int(round(d.density * m.rows * m.cols)) if mf else m.classes * d.per_class
    n_skew = 0 if mf else int(round(p.alpha * n))
    if (empty := p.nodes - min(m.classes, p.nodes, n_skew) - (n - n_skew)) > 0:
        errs.append(f"{empty} of {p.nodes} partitions would be empty: {n} "
                    f"samples, {n_skew} of them dealt by label")
    if a.soft and (floor := SoftCtl(**a.soft).floor) > a.t0:
        errs.append(f"soft floor {floor} exceeds hard threshold t0 {a.t0}")
    try:
        tables = ((wansim.load_bandwidth_csv(t.bandwidth_file) if t.bandwidth_file
                   else wansim.default_bandwidth()),
                  (wansim.load_cost_csv(t.cost_file) if t.cost_file
                   else wansim.default_costs()))
    except (OSError, ValueError) as exc:
        return errs + [f"cannot read the topology tables: {exc}"], None
    names, costs = tables[0][0], tables[1]
    dcs = list(t.dcs) or names[:p.nodes]
    if len(dcs) != p.nodes:
        errs.append(f"{len(dcs)} DCs named for {p.nodes} partitions" if t.dcs
                    else f"{p.nodes} partitions but {len(names)} DCs in the bandwidth table")
    elif len(set(dcs)) < len(dcs):
        errs.append(f"topology.dcs names a DC more than once: {dcs}")
    if missing := [dc for dc in dcs if dc not in names]:
        errs.append(f"DCs missing from the bandwidth table: {missing}")
    elif missing := [dc for dc in dcs if dc not in costs]:
        errs.append(f"DCs missing from the cost table: {missing}")
    members = [dc for g in t.groups for dc in g]
    if t.groups and sorted(members, key=repr) != sorted(dcs, key=repr):
        errs.append(f"overlay groups {[list(g) for g in t.groups]} must hold "
                    f"each DC of {dcs} exactly once")
    n_groups = len(t.groups)
    if bad := [list(h) for h in t.hubs if len(h) != 3
               or not all(isinstance(i, int) and 0 <= i < n_groups for i in h[:2])
               or h[2] not in t.groups[h[1]]]:
        errs.append(f"hubs {bad} are not [from_group, to_group, hub_dc] with "
                    f"group indexes below {n_groups} and hub_dc in to_group")
    elif missing := [(i, j) for i in range(n_groups) for j in range(n_groups)
                     if i != j and [i, j] not in [list(h[:2]) for h in t.hubs]]:
        errs.append(f"overlay group pairs {missing} have no hub")
    return errs, tables


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
    extras: dict = field(default_factory=dict)


def run_experiment(cfg, topology=None, overlay=None, on_nodes=None):
    """Run one configured experiment to completion on the simulator.

    topology/overlay override the config's WAN description with prebuilt
    objects; on_nodes(nodes, sim), if given, runs after wiring but before
    the first event, e.g. to attach extra per-iteration hooks.
    """
    errs, tables = _check_config(cfg)
    if errs:
        raise ValueError("bad config: " + "; ".join(errs))
    seed = cfg.seed
    k = cfg.partition.nodes
    mcfg, dcfg, acfg = cfg.model, cfg.data, cfg.algorithm

    # data, model, partitions
    extras = {}
    if mcfg.kind == "mf":
        spec = MFDatasetSpec(
            rows=mcfg.rows, cols=mcfg.cols,
            rank=dcfg.gen_rank or mcfg.rank,
            density=dcfg.density, noise_sigma=dcfg.noise_sigma, seed=seed)
        entries, noise_floor = gen_mf_data(spec)
        base_model = MFModel(mcfg.rows, mcfg.cols, mcfg.rank, entries,
                             reg=mcfg.reg)
        parts = partition_uniform(len(entries), k, seed)
        full_batch = np.arange(len(entries), dtype=np.intp)
        test = None
        make_view = lambda: EntryBatches()
        extras["noise_floor"] = noise_floor
    else:
        train = gen_cluster_data(mcfg.classes, mcfg.features, dcfg.per_class,
                                 dcfg.spread, seed, tag="train")
        test = gen_cluster_data(mcfg.classes, mcfg.features,
                                dcfg.test_per_class, dcfg.spread, seed,
                                tag="test")
        if mcfg.kind == "softmax":
            base_model = SoftmaxModel(mcfg.features, mcfg.classes)
        else:
            sizes = [mcfg.features] + list(mcfg.hidden) + [mcfg.classes]
            base_model = TinyMLP(sizes, norm=mcfg.norm,
                                 group_size=mcfg.group_size)
        parts = partition_label_skew(train, SkewSpec(k, cfg.partition.alpha,
                                                     seed))
        full_batch = (train.X, train.y)
        make_view = lambda: ArrayBatches(train.X, train.y)
    w0 = base_model.init_params(seed_stream(seed, "model", "init"))

    # topology and cost table
    bandwidth, costs = tables
    if topology is None:
        dcs = list(cfg.topology.dcs) or bandwidth[0][:k]
        topology = wansim.build_topology(
            dcs, bandwidth=bandwidth, latency_s=cfg.topology.latency_s,
            compute_s=cfg.topology.compute_s)
    dcs = topology.dcs
    if len(dcs) != k:
        raise ValueError(f"topology has {len(dcs)} DCs for {k} partitions")
    # a DC the cost table does not price leaves the cost unknown, not $0
    rates = ({dc: costs[dc] for dc in dcs}
             if all(dc in costs for dc in dcs) else None)
    if overlay is None and cfg.topology.groups:
        hubs = {(int(gi), int(gj)): dc for gi, gj, dc in cfg.topology.hubs}
        overlay = wansim.OverlayPlan(
            groups=[list(g) for g in cfg.topology.groups], hubs=hubs)
    sim = wansim.Simulator(topology, overlay=overlay, trace=cfg.output.trace)

    # nodes
    lr_schedule = StepDecay(**acfg.lr)
    streams = [
        MinibatchStream(parts[i], min(acfg.batch_size, parts[i].size),
                        seed_stream(seed, "node", str(i), "batches"))
        for i in range(k)
    ]
    bpe0 = streams[0].batches_per_epoch
    # the node class and its kind-specific arguments; every node reads acfg
    # and never mutates it
    node_cls = {"fedavg": FedAvgNode, "dgc": DgcNode}.get(acfg.kind, GaiaNode)
    kind_kw = {}
    if node_cls is FedAvgNode:
        max_rounds, participants_fn = math.inf, None
        if not cfg.scout.enabled:
            # fixed round budget only when iter_local cannot change mid-run
            max_rounds = math.ceil(acfg.epochs * bpe0 / acfg.iter_local)
        if acfg.client_fraction < 1.0:
            names = sorted(dcs)
            n_pick = max(1, int(round(acfg.client_fraction * k)))

            def participants_fn(rnd):
                rng = seed_stream(seed, "fedavg", "round", str(rnd))
                pick = rng.choice(len(names), size=n_pick, replace=False)
                return sorted(names[int(i)] for i in pick)

        kind_kw = dict(max_rounds=max_rounds, participants_fn=participants_fn)

    nodes = []
    for i, (dc, stream) in enumerate(zip(dcs, streams)):
        if node_cls is not FedAvgNode:
            kind_kw["max_iters"] = acfg.epochs * stream.batches_per_epoch
        node = node_cls(
            name=dc, index=i, model=base_model.clone(),
            batch_view=make_view(), stream=stream, lr_schedule=lr_schedule,
            compute_s=topology.compute_s.get(dc, 0.001),
            peers=[d for d in dcs if d != dc], w0=w0, algo=acfg, **kind_kw)
        nodes.append(node)
        sim.register(dc, node)

    # evaluation and stopping
    rows = []
    conv = ConvergenceState(cfg.convergence)
    prev_bytes = dict.fromkeys(wansim.BYTE_KINDS, 0)

    def stop_all():
        for node in nodes:
            node.stopped = True

    # a BSP or DGC row describes the trigger's clock-t or step-t weights;
    # batch-norm running stats stay per node, so those replicas still differ
    one_model = (acfg.kind in ("bsp", "dgc")
                 and getattr(base_model, "norm", None) != "batch")

    def evaluate(trigger, sim_):
        evaluated = [trigger] if one_model else nodes
        obj = float(np.mean([n.model.objective(n.w, full_batch)
                             for n in evaluated]))
        acc = None if test is None else float(np.mean(
            [n.model.accuracy(n.w, test.X, test.y) for n in evaluated]))
        cost = _cost_now(sim_, rates)
        row = {"sim_time_s": sim_.now, "epoch": trigger.epochs_done,
               "objective": obj, "accuracy": acc, "cost_usd": cost}
        for kind in wansim.BYTE_KINDS:
            total = sim_.ledger.sent_bytes(kind)
            row[f"{kind}_bytes"] = total - prev_bytes[kind]
            prev_bytes[kind] = total
        rows.append(row)
        if any(n.diverged for n in nodes):
            conv.status, conv.at_time = "diverged", sim_.now
        else:
            check_convergence(conv, obj, sim_.now)
        if conv.status != "running":
            stop_all()

    scout = None
    if cfg.scout.enabled:
        grid = list(cfg.scout.grid) or list(KNOBS[acfg.kind][1])
        mtp = cfg.scout.mtp
        if mtp == 0:
            mtp = (max(1, round(bpe0 / acfg.iter_local))
                   if acfg.kind == "fedavg" else bpe0)
        probe_rngs = [seed_stream(seed, "scout", "probe", str(i))
                      for i in range(k)]
        probes = [
            rng.choice(parts[i], size=min(cfg.scout.probe_size, parts[i].size),
                       replace=False)
            for i, rng in enumerate(probe_rngs)
        ]
        if mcfg.kind == "mf":
            def probe_metric(w, stats, i):
                return base_model.objective(w, probes[i])
            al_mode = "relgap"
        else:
            def probe_metric(w, stats, i):
                model = base_model.clone()
                if stats is not None:
                    model.bn_stats = stats
                return model.accuracy(w, train.X[probes[i]],
                                      train.y[probes[i]]) * 100.0
            al_mode = "points"

        def apply_theta(theta):
            for node in nodes:
                node.set_knob(theta)

        scout = ScoutController(
            cfg.scout, mtp, grid=grid, nodes=nodes, evaluate=probe_metric,
            apply_theta=apply_theta,
            model_bytes=wansim.dense_update_bytes(w0.size),
            rng=seed_stream(seed, "scout", "tuner"), al_mode=al_mode)

    trigger = nodes[0]
    if acfg.kind == "fedavg":
        def round_hook(node, sim_):
            evaluate(node, sim_)
            if scout is not None:
                if node.epochs_done >= acfg.epochs:
                    stop_all()
                else:
                    scout.on_boundary(node, sim_)
        trigger.round_hook = round_hook
    else:
        trigger.epoch_hook = evaluate
        if scout is not None:
            trigger.iter_hook = scout.on_boundary

    if on_nodes is not None:
        on_nodes(nodes, sim)
    for node in nodes:
        sim.wake_at(0.0, node.name)
    sim.run()
    return _settle(cfg, sim, rates, nodes, rows, conv, scout, extras)


def _cost_now(sim, rates):
    """Book machine time at the simulator's clock; the cost so far, or None
    when the cost table does not price every DC."""
    sim.ledger.machine_seconds = {dc: sim.now for dc in sim.topology.dcs}
    return wansim.account_cost(sim.ledger, rates) if rates else None


def _settle(cfg, sim, rates, nodes, rows, conv, scout, extras):
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
    summary["cost_usd"] = _cost_now(sim, rates)
    summary["travels"] = scout.n_travels if scout else 0
    if scout:
        summary["final_theta"] = scout.final_theta
    if not sim.ledger.conservation_ok():
        raise RuntimeError("byte conservation violated: sent != delivered")
    if cfg.algorithm.kind == "gaia":
        extras["sig_counts"] = {n.name: n.sig_counts for n in nodes}
    return RunResult(cfg=cfg, rows=rows, summary=summary, nodes=nodes,
                     sim=sim, scout=scout, extras=extras)


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


def metrics_csv_text(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(METRICS_HEADER)
    for row in rows:
        writer.writerow([_fmt(row[col]) for col in METRICS_HEADER])
    return buf.getvalue()


def summary_text(summary):
    return "".join(f"{k}={_fmt(v)}\n" for k, v in summary.items())


def tuner_trace_text(scout):
    cols = ("sim_time_s", "boundary", "theta", "al_points", "c_bytes",
            "score", "action", "theta_next")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for row in scout.trace:
        writer.writerow([_fmt(row[c]) for c in cols])
    return buf.getvalue()


def save_run(result, out_dir):
    """Write metrics.csv, summary.txt, and (if tuned) tuner_trace.csv."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "metrics.csv"), "w") as fh:
        fh.write(metrics_csv_text(result.rows))
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write(summary_text(result.summary))
    if result.scout is not None:
        with open(os.path.join(out_dir, "tuner_trace.csv"), "w") as fh:
            fh.write(tuner_trace_text(result.scout))
    return out_dir
