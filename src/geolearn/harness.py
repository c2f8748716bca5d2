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
import io
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np
import yaml

from . import skewscout, wansim
from .algos import (
    ArrayBatches, AspPolicy, DgcNode, EntryBatches, FedAvgNode, GaiaNode,
    SspPolicy,
)
from .data import (
    MFDatasetSpec, MinibatchStream, SkewSpec, gen_cluster_data, gen_mf_data,
    partition_label_skew, partition_uniform,
)
from .models import MFModel, SoftmaxModel, TinyMLP
from .numerics import PolyDecay, StepDecay
from .psync import SoftCtl
from .rng import seed_stream
from .skewscout import ScoutConfig, ScoutController

METRICS_HEADER = (
    "sim_time_s", "epoch", "objective", "accuracy",
    "update_bytes", "barrier_bytes", "clock_bytes", "travel_bytes", "cost_usd",
)


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ModelCfg:
    kind: str = "softmax"            # mf | softmax | mlp
    rows: int = 60                   # mf
    cols: int = 40
    rank: int = 5
    reg: float = 0.0
    features: int = 8                # classifiers
    classes: int = 4
    hidden: tuple = (16,)            # mlp hidden widths
    norm: str = "none"               # none | batch | group
    group_size: int = 2


@dataclass
class DataCfg:
    kind: str = "blobs"              # mf | blobs
    density: float = 0.3             # mf
    noise_sigma: float = 0.1
    gen_rank: int = 0                # 0 = use model rank
    per_class: int = 200             # blobs
    spread: float = 1.0
    test_per_class: int = 50


@dataclass
class PartitionCfg:
    nodes: int = 2
    alpha: float = 0.0


@dataclass
class AlgoCfg:
    kind: str = "gaia"               # gaia | bsp | ssp | fedavg | dgc
    batch_size: int = 20
    epochs: int = 5
    momentum: float = 0.9
    lr: dict = field(default_factory=lambda: {"eta0": 0.05})
    # significance-filtered sync
    t0: float = 0.01
    ds: int = 1
    decay: str = "lr"                # lr | invsqrt
    barrier: bool = True
    mirror: bool = True
    soft: dict = None                # {target, adjust, floor} enables soft sharing
    # bounded staleness
    staleness: int = 1
    # model averaging
    iter_local: int = 20
    client_fraction: float = 1.0
    # sparse all-reduce
    e_warm: int = 1
    clip_norm: float = 5.0


@dataclass
class TopoCfg:
    dcs: tuple = ()                  # default: first K regions of the table
    bandwidth_file: str = None
    cost_file: str = None
    latency_s: float = 0.05
    compute_s: float = 0.001
    groups: tuple = ()               # overlay groups, list of DC name lists
    hubs: tuple = ()                 # [from_group, to_group, hub_dc] triples


@dataclass
class ScoutCfgSection:
    enabled: bool = False
    mtp: int = 0                     # 0 = one local epoch
    sigma_al: float = 5.0
    lambda_al: float = 1.0
    lambda_c: float = 1.0
    probe_size: int = 256
    tuner: str = "hill"
    start_idx: int = 0
    temperature: float = 1.0
    temp_decay: float = 0.9
    grid: tuple = ()                 # default: per-algorithm grid


@dataclass
class ConvergenceCfg:
    mode: str = "window"             # window | target | none
    window: int = 10
    rel_tol: float = 0.02
    target: float = 0.0


@dataclass
class ExperimentConfig:
    name: str = "run"
    seed: int = 0
    model: ModelCfg = field(default_factory=ModelCfg)
    data: DataCfg = field(default_factory=DataCfg)
    partition: PartitionCfg = field(default_factory=PartitionCfg)
    algorithm: AlgoCfg = field(default_factory=AlgoCfg)
    topology: TopoCfg = field(default_factory=TopoCfg)
    scout: ScoutCfgSection = field(default_factory=ScoutCfgSection)
    convergence: ConvergenceCfg = field(default_factory=ConvergenceCfg)
    out_dir: str = None              # output.dir
    trace: bool = False              # output.trace: keep the gate trace


_SECTIONS = {
    "model": ModelCfg, "data": DataCfg, "partition": PartitionCfg,
    "algorithm": AlgoCfg, "topology": TopoCfg, "scout": ScoutCfgSection,
    "convergence": ConvergenceCfg,
}


def _build_section(cls, raw, section):
    if not isinstance(raw, dict):
        raise ValueError(f"{section} must be a mapping, got {raw!r}")
    known = {f.name for f in fields(cls)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown {section} option(s): {sorted(unknown)}")
    kwargs = {
        k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()
    }
    return cls(**kwargs)


def config_from_dict(raw):
    raw = dict(raw or {})
    out = raw.pop("output", None) or {}
    if not isinstance(out, dict):
        raise ValueError(f"output must be a mapping, got {out!r}")
    unknown = set(out) - {"dir", "trace"}
    if unknown:
        raise ValueError(f"unknown output option(s): {sorted(unknown)}")
    cfg = ExperimentConfig(
        name=str(raw.pop("name", "run")),
        seed=int(raw.pop("seed", 0)),
        out_dir=out.get("dir"),
        trace=out.get("trace", False),
    )
    for section, cls in _SECTIONS.items():
        if section in raw:
            setattr(cfg, section, _build_section(cls, raw.pop(section) or {}, section))
    if raw:
        raise ValueError(f"unknown config section(s): {sorted(raw)}")
    return cfg


def load_config(path):
    with open(path) as fh:
        return config_from_dict(yaml.safe_load(fh))


# algorithm kind -> the grid SkewScout searches by default; an empty grid
# means the kind has no communication knob to tune
KNOB_GRIDS = {
    "gaia": skewscout.GAIA_T0_GRID, "bsp": (), "ssp": (),
    "fedavg": skewscout.FEDAVG_ITER_GRID, "dgc": skewscout.DGC_EWARM_GRID,
}


def validate_config(cfg):
    """Collect human-readable problems; empty list means runnable."""
    errs = []
    m, d, p, a, s, c = (cfg.model, cfg.data, cfg.partition, cfg.algorithm,
                        cfg.scout, cfg.convergence)
    if m.kind not in ("mf", "softmax", "mlp"):
        errs.append(f"unknown model kind {m.kind!r}")
    if d.kind not in ("mf", "blobs"):
        errs.append(f"unknown data kind {d.kind!r}")
    if m.kind == "mf" and d.kind != "mf":
        errs.append("factorization model needs data kind 'mf'")
    if m.kind in ("softmax", "mlp") and d.kind != "blobs":
        errs.append(f"{m.kind} model needs data kind 'blobs'")
    if m.kind == "mlp" and not m.hidden:
        errs.append("mlp needs at least one hidden width")
    if m.kind == "mlp" and m.norm == "group":
        for h in m.hidden:
            if h % m.group_size:
                errs.append(f"hidden width {h} not divisible by group size {m.group_size}")
    if p.nodes < 1:
        errs.append("partition.nodes must be >= 1")
    if not 0.0 <= p.alpha <= 1.0:
        errs.append(f"alpha must be in [0, 1], got {p.alpha}")
    if a.kind not in KNOB_GRIDS:
        errs.append(f"unknown algorithm kind {a.kind!r}")
    if a.epochs < 1:
        errs.append("epochs must be >= 1")
    if a.batch_size < 1:
        errs.append("batch_size must be >= 1")
    if not 0.0 <= a.momentum < 1.0:
        errs.append(f"momentum must be in [0, 1), got {a.momentum}")
    if "eta0" not in a.lr:
        errs.append("lr needs at least eta0")
    if a.kind == "gaia":
        if a.t0 <= 0:
            errs.append("t0 must be positive")
        if a.ds < 0:
            errs.append("ds must be >= 0")
        if a.decay not in ("lr", "invsqrt"):
            errs.append(f"unknown threshold decay {a.decay!r}")
        if a.soft:
            floor = a.soft.get("floor", 1e-4)
            if floor > a.t0:
                errs.append(f"soft floor {floor} exceeds hard threshold t0 {a.t0}")
            if a.soft.get("adjust", 2.0) <= 1.0:
                errs.append("soft adjust factor must exceed 1")
    if a.kind == "ssp" and a.staleness < 0:
        errs.append("staleness must be >= 0")
    if a.kind == "fedavg":
        if a.iter_local < 1:
            errs.append("iter_local must be >= 1")
        if not 0.0 < a.client_fraction <= 1.0:
            errs.append(f"client_fraction must be in (0, 1], got {a.client_fraction}")
    if a.kind == "dgc":
        if a.e_warm < 1:
            errs.append("e_warm must be >= 1")
        if a.clip_norm <= 0:
            errs.append("clip_norm must be positive")
    if s.enabled:
        if a.kind in KNOB_GRIDS and not KNOB_GRIDS[a.kind]:
            errs.append(f"{a.kind} has no communication knob to tune")
        if s.tuner not in ("hill", "stochastic", "anneal"):
            errs.append(f"unknown tuner {s.tuner!r}")
        if s.mtp < 0:
            errs.append("scout mtp must be >= 0")
        grid = s.grid or KNOB_GRIDS.get(a.kind, ())
        if grid and not 0 <= s.start_idx < len(grid):
            errs.append(f"scout start_idx {s.start_idx} outside grid of {len(grid)}")
    if cfg.topology.dcs and len(cfg.topology.dcs) != p.nodes:
        errs.append(
            f"{len(cfg.topology.dcs)} DCs named for {p.nodes} partitions")
    if cfg.topology.latency_s is not None and not isinstance(cfg.topology.latency_s, dict):
        if cfg.topology.latency_s < 0:
            errs.append("latency_s must be >= 0")
    if c.mode not in ("window", "target", "none"):
        errs.append(f"unknown convergence mode {c.mode!r}")
    if c.mode == "window" and c.window < 2:
        errs.append("convergence window must be >= 2")
    if c.mode == "window" and c.rel_tol <= 0:
        errs.append("rel_tol must be positive")
    if not isinstance(cfg.trace, bool):
        errs.append(f"output.trace must be true or false, got {cfg.trace!r}")
    return errs


def _lr_schedule(lr):
    if "power" in lr:
        return PolyDecay(eta0=lr["eta0"], power=lr["power"],
                         max_iter=lr["max_iter"])
    return StepDecay(eta0=lr["eta0"],
                     milestones=tuple(lr.get("milestones", ())),
                     factor=lr.get("factor", 10.0))


# ---------------------------------------------------------------------------
# convergence


@dataclass
class ConvergenceState:
    mode: str = "window"
    window: int = 10
    rel_tol: float = 0.02
    target: float = 0.0
    history: list = field(default_factory=list)
    status: str = "running"
    at_time: float = None

    @classmethod
    def from_cfg(cls, c):
        return cls(mode=c.mode, window=c.window, rel_tol=c.rel_tol,
                   target=c.target)


def check_convergence(state, value, sim_time):
    """Feed one evaluation; returns the (possibly new) status string."""
    if state.status != "running":
        return state.status
    if not math.isfinite(value):
        state.status = "diverged"
        state.at_time = sim_time
        return state.status
    state.history.append(value)
    if state.mode == "target":
        if value <= state.target:
            state.status = "converged"
            state.at_time = sim_time
    elif state.mode == "window" and len(state.history) >= state.window:
        tail = state.history[-state.window:]
        spread = max(tail) - min(tail)
        if spread <= state.rel_tol * abs(float(np.mean(tail))):
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


def _mean_objective(nodes, full_batch):
    return float(np.mean([node.model.objective(node.weights(), full_batch)
                          for node in nodes]))


def _mean_accuracy(nodes, test):
    if test is None:
        return None
    return float(np.mean([node.model.accuracy(node.weights(), test.X, test.y)
                          for node in nodes]))


def run_experiment(cfg, topology=None, overlay=None, on_nodes=None):
    """Run one configured experiment to completion on the simulator.

    topology/overlay override the config's WAN description with prebuilt
    objects; on_nodes(nodes, sim), if given, runs after wiring but before
    the first event, e.g. to attach extra per-iteration hooks.
    """
    errs = validate_config(cfg)
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
    costs = (wansim.load_cost_csv(cfg.topology.cost_file)
             if cfg.topology.cost_file else wansim.default_costs())
    if topology is None:
        if cfg.topology.bandwidth_file:
            bandwidth = wansim.load_bandwidth_csv(cfg.topology.bandwidth_file)
        else:
            bandwidth = wansim.default_bandwidth()
        dcs = list(cfg.topology.dcs) if cfg.topology.dcs else bandwidth[0][:k]
        topology = wansim.build_topology(
            dcs, bandwidth=bandwidth, latency_s=cfg.topology.latency_s,
            compute_s=cfg.topology.compute_s)
    dcs = topology.dcs
    if len(dcs) != k:
        raise ValueError(f"topology has {len(dcs)} DCs for {k} partitions")
    rates = {
        dc: costs.get(dc) or wansim.CostRates(dc, 0.0, 0.0, 0.0) for dc in dcs
    }
    if overlay is None and cfg.topology.groups:
        hubs = {(int(gi), int(gj)): dc for gi, gj, dc in cfg.topology.hubs}
        overlay = wansim.OverlayPlan(
            groups=[list(g) for g in cfg.topology.groups], hubs=hubs)
    sim = wansim.Simulator(topology, overlay=overlay, trace=cfg.trace)

    # nodes
    lr_schedule = _lr_schedule(acfg.lr)
    streams = [
        MinibatchStream(parts[i], min(acfg.batch_size, parts[i].size),
                        seed_stream(seed, "node", str(i), "batches"))
        for i in range(k)
    ]
    bpe0 = streams[0].batches_per_epoch
    # the node class and its kind-specific arguments; one policy per run,
    # shared by every node (nodes never mutate it)
    if acfg.kind == "fedavg":
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

        node_cls, kind_kw = FedAvgNode, dict(
            max_rounds=max_rounds, iter_local=acfg.iter_local,
            participants_fn=participants_fn)
    elif acfg.kind == "dgc":
        node_cls, kind_kw = DgcNode, dict(e_warm=acfg.e_warm,
                                          clip_norm=acfg.clip_norm)
    elif acfg.kind == "gaia":
        soft = SoftCtl(enabled=True, **acfg.soft) if acfg.soft else SoftCtl()
        node_cls, kind_kw = GaiaNode, dict(policy=AspPolicy(
            t0=acfg.t0, ds=acfg.ds, decay_mode=acfg.decay,
            barrier=acfg.barrier, mirror=acfg.mirror, soft=soft))
    else:
        staleness = 0 if acfg.kind == "bsp" else acfg.staleness
        node_cls, kind_kw = GaiaNode, dict(policy=SspPolicy(staleness))

    nodes = []
    for i, (dc, stream) in enumerate(zip(dcs, streams)):
        if node_cls is not FedAvgNode:
            kind_kw["max_iters"] = acfg.epochs * stream.batches_per_epoch
        node = node_cls(
            name=dc, index=i, model=base_model.clone(),
            batch_view=make_view(), stream=stream, lr_schedule=lr_schedule,
            compute_s=topology.compute_s.get(dc, 0.001),
            peers=[d for d in dcs if d != dc], w0=w0, momentum=acfg.momentum,
            **kind_kw)
        nodes.append(node)
        sim.register(dc, node)

    # evaluation and stopping
    rows = []
    conv = ConvergenceState.from_cfg(cfg.convergence)
    prev_bytes = dict.fromkeys(wansim.BYTE_KINDS, 0)
    rounds_log = []

    def stop_all():
        for node in nodes:
            node.stopped = True

    def evaluate(trigger, sim_):
        obj = _mean_objective(nodes, full_batch)
        acc = _mean_accuracy(nodes, test)
        sim_.ledger.machine_seconds = {dc: sim_.now for dc in dcs}
        cost = wansim.account_cost(sim_.ledger, rates)
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
        grid = list(cfg.scout.grid) or list(KNOB_GRIDS[acfg.kind])
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
            cfg=ScoutConfig(
                mtp=mtp, sigma_al=cfg.scout.sigma_al,
                lambda_al=cfg.scout.lambda_al, lambda_c=cfg.scout.lambda_c,
                probe_size=cfg.scout.probe_size, tuner=cfg.scout.tuner,
                start_idx=cfg.scout.start_idx,
                temperature=cfg.scout.temperature,
                temp_decay=cfg.scout.temp_decay),
            grid=grid, nodes=nodes, evaluate=probe_metric,
            apply_theta=apply_theta,
            model_bytes=wansim.dense_update_bytes(w0.size),
            rng=seed_stream(seed, "scout", "tuner"), al_mode=al_mode)

    trigger = nodes[0]
    if acfg.kind == "fedavg":
        def round_hook(node, sim_):
            rounds_log.append({
                "round": node.round - 1,
                "inputs": node.reconstructed,
                "mean": node.w.copy(),
            })
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

    # the queue is drained: book machine time at the final clock and settle
    sim.ledger.machine_seconds = {dc: sim.now for dc in dcs}
    total_cost = wansim.account_cost(sim.ledger, rates)
    summary = {
        "name": cfg.name,
        "seed": seed,
        "algorithm": acfg.kind,
        "nodes": k,
        "model_coords": int(w0.size),
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
    summary["cost_usd"] = total_cost
    summary["travels"] = scout.n_travels if scout else 0
    if scout:
        summary["final_theta"] = scout.final_theta
    if not sim.ledger.conservation_ok():
        raise RuntimeError("byte conservation violated: sent != delivered")

    extras["gate_trace"] = sim.gate_trace
    extras["rounds_log"] = rounds_log
    if acfg.kind in ("gaia",):
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
