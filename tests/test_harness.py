import csv
import dataclasses
import hashlib
import importlib.util
import io
import os
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from geolearn import algos, cli, harness, wansim
from geolearn.algos import GaiaNode
from geolearn.numerics import StepDecay
from geolearn.psync import SoftCtl
from geolearn.harness import (METRICS_HEADER, ConvergenceCfg,
                              ConvergenceState, ExperimentConfig,
                              check_convergence, config_from_dict,
                              load_config, metrics_csv_text,
                              run_experiment, save_run, summary_text,
                              validate_config, _fmt)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_demo(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "demos", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# configuration plumbing


def test_config_defaults():
    cfg = config_from_dict({})
    assert cfg.name == "run" and cfg.seed == 0
    assert cfg.model.kind == "softmax"
    assert cfg.algorithm.kind == "gaia"
    assert cfg.output.dir is None
    assert validate_config(cfg) == []


def test_config_from_dict_round_trip():
    cfg = config_from_dict({
        "name": "trial", "seed": 9,
        "model": {"kind": "mlp", "hidden": [8, 4], "norm": "group",
                  "group_size": 4},
        "data": {"per_class": 50},
        "partition": {"nodes": 3, "alpha": 0.5},
        "algorithm": {"kind": "fedavg", "iter_local": 7,
                      "lr": {"eta0": 0.1, "milestones": [2, 5]}},
        "topology": {"dcs": ["virginia", "saopaulo", "tokyo"]},
        "output": {"dir": "out/trial"},
    })
    assert cfg.name == "trial" and cfg.seed == 9
    assert cfg.model.hidden == (8, 4)          # lists become tuples
    assert cfg.partition.alpha == 0.5
    assert cfg.algorithm.iter_local == 7
    assert cfg.algorithm.lr == {"eta0": 0.1, "milestones": [2, 5]}
    assert cfg.topology.dcs == ("virginia", "saopaulo", "tokyo")
    assert cfg.output.dir == "out/trial"
    assert cfg.output.trace is False
    assert config_from_dict({"output": {"trace": True}}).output.trace is True


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config section"):
        config_from_dict({"modle": {}})
    with pytest.raises(ValueError, match="unknown algorithm option"):
        config_from_dict({"algorithm": {"t_zero": 0.1}})


@pytest.mark.parametrize("output,message", [
    ({"dri": "runs/x"}, "unknown output option(s): ['dri']"),
    ({"dir": "runs", "trace": True, "verbose": 1},
     "unknown output option(s): ['verbose']"),
    ("runs", "output must be a mapping, got 'runs'"),
])
def test_config_rejects_bad_output_section(output, message):
    with pytest.raises(ValueError) as err:
        config_from_dict({"output": output})
    assert str(err.value) == message


@pytest.mark.parametrize("section,value", [
    ("model", "abc"), ("model", 5), ("algorithm", ["bsp"])])
def test_config_rejects_a_section_that_is_not_a_mapping(section, value):
    with pytest.raises(ValueError) as err:
        config_from_dict({section: value})
    assert str(err.value) == f"{section} must be a mapping, got {value!r}"


@pytest.mark.parametrize("value", [1, "yes", 0, None])
def test_validate_config_rejects_a_non_bool_trace(value):
    cfg = config_from_dict({"output": {"trace": value}})
    assert validate_config(cfg) == [
        f"output.trace must be true or false, got {value!r}"]


def test_load_config_yaml(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text("name: yam\nseed: 4\nalgorithm:\n  kind: bsp\n")
    cfg = load_config(path)
    assert cfg.name == "yam" and cfg.seed == 4
    assert cfg.algorithm.kind == "bsp"
    # an empty file is a fully defaulted config
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    assert load_config(empty).name == "run"


@pytest.mark.parametrize("patch,needle", [
    ({"model": {"kind": "mf"}}, "needs data kind 'mf'"),
    ({"model": {"kind": "turbo"}}, "unknown model kind"),
    ({"partition": {"alpha": 1.5}}, "alpha"),
    ({"partition": {"nodes": 0}}, "nodes"),
    ({"algorithm": {"kind": "gossip"}}, "unknown algorithm"),
    ({"algorithm": {"momentum": 1.0}}, "momentum"),
    ({"algorithm": {"t0": 0.0}}, "t0"),
    ({"algorithm": {"lr": {}}}, "eta0"),
    ({"algorithm": {"soft": {"floor": 0.5}}}, "soft floor"),
    ({"algorithm": {"kind": "fedavg", "client_fraction": 0.0}}, "client_fraction"),
    ({"algorithm": {"kind": "dgc", "e_warm": 0}}, "e_warm"),
    ({"algorithm": {"kind": "bsp"}, "scout": {"enabled": True}}, "no communication knob"),
    ({"scout": {"enabled": True, "tuner": "luck"}}, "unknown tuner"),
    ({"scout": {"enabled": True, "start_idx": 99}}, "start_idx"),
    ({"model": {"kind": "mlp", "hidden": [5], "norm": "group", "group_size": 2}},
     "not divisible"),
    ({"topology": {"dcs": ["virginia"]}}, "DCs named for"),
    ({"convergence": {"mode": "hope"}}, "unknown convergence mode"),
    ({"convergence": {"window": 1}}, "window"),
    # wrong types and out-of-range values, each caught by its field's rules
    ({"algorithm": {"epochs": "3"}}, "algorithm.epochs must be an integer"),
    ({"partition": {"alpha": "0.5"}}, "partition.alpha must be a number"),
    ({"convergence": {"rel_tol": "x"}}, "convergence.rel_tol must be a number"),
    ({"topology": {"latency_s": "fast"}}, "topology.latency_s must be a number"),
    ({"algorithm": {"lr": {"eta0": 0.05, "milstones": [1]}}}, "milstones"),
    ({"algorithm": {"barrier": "no"}}, "algorithm.barrier must be true or false"),
    ({"seed": 2.7}, "seed must be an integer"),
    ({"partition": {"nodes": True}}, "partition.nodes must be an integer"),
    ({"model": {"features": 0}}, "model.features must be >= 1"),
    ({"model": {"hidden": [0]}}, "model.hidden[0] must be >= 1"),
    ({"algorithm": {"lr": {"eta0": 0.05, "power": 2}}}, "power"),
    ({"algorithm": {"lr": {"eta0": -0.05}}}, "algorithm.lr.eta0 must be > 0"),
    ({"algorithm": {"batch_size": 2.5}}, "algorithm.batch_size must be an integer"),
    ({"data": {"per_class": 0}}, "data.per_class must be >= 1"),
    ({"topology": {"compute_s": -1}}, "topology.compute_s must be >= 0"),
    ({"algorithm": {"soft": {"targt": 0.5}}}, "targt"),
    ({"scout": {"enabled": True, "grid": [0.1, "x"]}}, "scout.grid[1] must be a number"),
    ({"model": {"norm": "layer"}}, "unknown model norm 'layer'"),
    ({"topology": {"latency_s": {"virginia": 0.1}}},
     "topology.latency_s must be a number"),
    ({"topology": {"latency_s": None}}, "topology.latency_s must be a number"),
    # cross-field checks
    ({"topology": {"dcs": ["virginia", "atlantis"]}},
     "missing from the bandwidth table: ['atlantis']"),
    ({"topology": {"groups": [["virginia"]]}}, "exactly once"),
    ({"topology": {"groups": [["virginia"], ["california"]],
                   "hubs": [[0, 5, "virginia"]]}}, "[[0, 5, 'virginia']]"),
    ({"partition": {"nodes": 12}}, "but 11 DCs in the bandwidth table"),
    ({"partition": {"nodes": 5, "alpha": 1}}, "1 of 5 partitions would be empty"),
    ({"model": {"kind": "mf", "rows": 2, "cols": 2}, "data": {"kind": "mf"},
      "partition": {"nodes": 3}}, "2 of 3 partitions would be empty"),
    ({"topology": {"dcs": ["virginia", "virginia"]}}, "more than once"),
    ({"algorithm": {"decay": "linear"}}, "unknown algorithm decay"),
    # what Simulator.hops relies on: each DC in one group, every hub in its
    # to_group, a hub for every group pair
    ({"topology": {"groups": [["virginia", "california"], ["virginia"]],
                   "hubs": [[0, 1, "virginia"], [1, 0, "california"]]}},
     "exactly once"),
    ({"topology": {"groups": [["virginia"], ["california"]],
                   "hubs": [[0, 1, "virginia"], [1, 0, "virginia"]]}},
     "hubs [[0, 1, 'virginia']] are not"),
    ({"topology": {"groups": [["virginia"], ["california"]],
                   "hubs": [[0, 1, "california"]]}},
     "group pairs [(1, 0)] have no hub"),
])
def test_validate_config_catches(patch, needle):
    cfg = config_from_dict(patch)
    errs = validate_config(cfg)
    assert any(needle in e for e in errs), errs
    assert len(errs) == 1, errs


def test_every_config_field_is_checked():
    # a value of no field's type must be reported under the field's path, so
    # a new field cannot skip validation; containers declare what they hold
    probe = object()
    for section, cls in [("", ExperimentConfig)] + list(harness._SECTIONS.items()):
        for f in fields(cls):
            if f.name in harness._SECTIONS:
                continue
            cfg = config_from_dict({})
            setattr(getattr(cfg, section) if section else cfg, f.name, probe)
            path = f"{section}.{f.name}" if section else f.name
            assert validate_config(cfg) == [
                f"{path} must be {harness._TYPES[f.type]}, got {probe!r}"]
            assert f.type is not tuple or "of" in f.metadata, path
            assert f.type is not dict or "schema" in f.metadata, path
            # validate_config skips a field that still holds its default
            default = getattr(cls(), f.name)
            assert default is None or harness._check(
                path, default, f.type, f.metadata) == [], path
    for schema in (StepDecay, SoftCtl):
        assert all(f.type in harness._TYPES for f in fields(schema)), schema


def test_lr_and_soft_keys_are_the_schedule_and_control_fields():
    assert validate_config(config_from_dict({"algorithm": {
        "lr": {"eta0": 0.1, "milestones": [2], "factor": 5},
        "soft": {"target": 0.5, "adjust": 3, "floor": 0.001}}})) == []
    assert validate_config(config_from_dict({"algorithm": {
        "soft": {"enabled": True}}})) == [
            "unknown algorithm.soft option(s): ['enabled']"]
    assert validate_config(config_from_dict({"algorithm": {
        "soft": {"adjust": 1.0}}})) == [
            "algorithm.soft: adjust factor must exceed 1, got 1.0"]


@pytest.mark.parametrize("batch_size,named", [
    (119, "partitions 0 (120 rows) would"),
    (79, "partitions 1 (80 rows), 2 (80 rows) would"),
    (1, "partitions 0 (120 rows), 1 (80 rows), 2 (80 rows) would"),
])
def test_validate_config_rejects_one_row_batch_norm_minibatches(batch_size,
                                                                named):
    # 7 classes on 3 DCs at full skew: partitions of 120, 80 and 80 rows
    raw = {"seed": 11, "model": {"kind": "mlp", "features": 6, "classes": 7,
                                 "hidden": [12], "norm": "batch"},
           "data": {"per_class": 40}, "partition": {"nodes": 3, "alpha": 1.0},
           "algorithm": {"kind": "gaia", "epochs": 1,
                         "batch_size": batch_size}}
    errs = validate_config(config_from_dict(raw))
    assert errs == [f"batch norm needs minibatches of 2 rows or more, but at "
                    f"batch_size {batch_size} {named} get one-row minibatches"]
    with pytest.raises(ValueError, match="bad config: batch norm"):
        run_experiment(config_from_dict(raw))
    # a last minibatch of two rows, or none short, is fine; so is a
    # one-row minibatch without batch norm
    for fine in (batch_size + 1, 40):
        raw["algorithm"]["batch_size"] = fine
        assert validate_config(config_from_dict(raw)) == [], fine
    raw["algorithm"]["batch_size"] = batch_size
    raw["model"]["norm"] = "group"
    raw["model"]["group_size"] = 4
    assert validate_config(config_from_dict(raw)) == []


@pytest.mark.parametrize("norm", ["batch", "group"])
def test_a_run_partitions_its_labels_once(monkeypatch, norm):
    # a batch-norm config's check partitions the labels to size its
    # minibatches; the run then uses those partitions, not a second split
    calls, real = [], harness.partition_label_skew

    def counted(*args):
        calls.append(real(*args))
        return calls[-1]

    raw = {"seed": 11, "model": {"kind": "mlp", "features": 6, "classes": 7,
                                 "hidden": [12], "norm": norm,
                                 "group_size": 4},
           "data": {"per_class": 40}, "partition": {"nodes": 3, "alpha": 1.0},
           "algorithm": {"kind": "gaia", "epochs": 1, "batch_size": 40}}
    want = summary_text(run_experiment(config_from_dict(raw)).summary)
    monkeypatch.setattr(harness, "partition_label_skew", counted)
    seen = []
    got = run_experiment(config_from_dict(raw), on_nodes=lambda nodes, sim: (
        seen.extend(node.stream.indices for node in nodes)))
    assert len(calls) == 1
    assert [p.tobytes() for p in seen] == [p.tobytes() for p in calls[0]]
    assert summary_text(got.summary) == want


def test_validate_config_names_dcs_missing_from_the_cost_table(tmp_path):
    costs = tmp_path / "costs.csv"
    costs.write_text("region,machine_rate_usd_per_hr,send_usd_per_gb,"
                     "recv_usd_per_gb\nvirginia,0.9,0.02,0.01\n")
    cfg = config_from_dict({"topology": {"cost_file": str(costs)}})
    assert validate_config(cfg) == [
        "DCs missing from the cost table: ['california']"]
    cfg.topology.dcs = ("virginia", "oregon")
    assert validate_config(cfg) == [
        "DCs missing from the cost table: ['oregon']"]


def test_packaged_tables_are_parsed_once_per_process(monkeypatch, tmp_path):
    parsed = []
    for name in ("load_bandwidth_csv", "load_cost_csv"):
        def counted(source, real=getattr(wansim, name), name=name):
            parsed.append(name)
            return real(source)
        monkeypatch.setattr(wansim, name, counted)
    wansim.default_bandwidth.cache_clear()
    wansim.default_costs.cache_clear()
    raw = {"model": {"kind": "softmax", "features": 3, "classes": 2},
           "data": {"per_class": 10, "test_per_class": 5},
           "partition": {"nodes": 2},
           "algorithm": {"kind": "bsp", "epochs": 1, "batch_size": 5}}
    first = run_experiment(config_from_dict(raw))
    second = run_experiment(config_from_dict(raw))
    assert parsed == ["load_bandwidth_csv", "load_cost_csv"]
    assert first.summary == second.summary
    names, matrix = wansim.default_bandwidth()
    costs = wansim.default_costs()
    assert isinstance(names, tuple)
    with pytest.raises(TypeError):
        matrix[("virginia", "california")] = 1.0
    with pytest.raises(TypeError):
        costs["virginia"] = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        costs["virginia"].send_usd_per_gb = 0.0
    # a user's table is read on every run
    table = tmp_path / "bandwidth.csv"
    table.write_text(",virginia,california\nvirginia,,100\ncalifornia,100,\n")
    raw["topology"] = {"bandwidth_file": str(table)}
    del parsed[:]
    run_experiment(config_from_dict(raw))
    run_experiment(config_from_dict(raw))
    assert parsed == ["load_bandwidth_csv", "load_bandwidth_csv"]


SOFTMAX_3 = {"kind": "softmax", "features": 4, "classes": 3}
MLP_3 = {"kind": "mlp", "features": 4, "classes": 3, "hidden": [8]}


@pytest.mark.parametrize("kind, model, per_boundary", [
    ("dgc", SOFTMAX_3, 1),
    ("dgc", MLP_3, 1),
    ("dgc", dict(MLP_3, norm="batch"), 3),    # running stats are per node
    ("dgc", dict(MLP_3, norm="group"), 1),
    ("bsp", SOFTMAX_3, 1),                     # the clock-t replica
    ("ssp", SOFTMAX_3, 3),
    ("gaia", MLP_3, 3),
    ("fedavg", SOFTMAX_3, 3),
    ("bsp", MLP_3, 1),
    ("bsp", dict(MLP_3, norm="group"), 1),
    ("bsp", dict(MLP_3, norm="batch"), 3),    # the mean over replicas
])
def test_model_evaluations_per_boundary(kind, model, per_boundary):
    # per_boundary replicas make each row; those that share one weights
    # array share its training-mode objective, which reads no running
    # statistics, and its accuracy unless batch norm's running statistics
    # enter it. Where rows read shared arrays, the run's exact calls:
    # (rows, objective calls, accuracy calls)
    shared = {("dgc", "batch"): (2, 4, 6),   # <= 2 step models per row
              ("fedavg", None): (4, 6, 6)}   # round averages and steps
    calls = {"objective": 0, "accuracy": 0}

    def count(nodes, sim):
        # stateless models are shared by every node: wrap each one once
        for model in {id(node.model): node.model for node in nodes}.values():
            for name in calls:
                def counted(*args, real=getattr(model, name), name=name):
                    calls[name] += 1
                    return real(*args)
                setattr(model, name, counted)

    cfg = config_from_dict({
        "model": model, "data": {"per_class": 20, "test_per_class": 5},
        "partition": {"nodes": 3, "alpha": 0.5},
        "algorithm": {"kind": kind, "epochs": 2, "batch_size": 10,
                      "iter_local": 1}})
    result = run_experiment(cfg, on_nodes=count)
    assert len(result.rows) >= 2
    rows = len(result.rows)
    want = (rows, per_boundary * rows, per_boundary * rows)
    assert (rows, calls["objective"], calls["accuracy"]) == shared.get(
        (kind, model.get("norm")), want)


@pytest.mark.parametrize("model, digest", [
    (SOFTMAX_3,
     "dd7876bcb7ba079f7b782b5dc4520e45ed154f8c6332dec22c043ec999f4525a"),
    (MLP_3,
     "30648441d30a30b08b5a8b2b0087d09ab00196bc1e854708e36e74cf925e884c"),
])
def test_solo_bsp_takes_each_row_at_its_step(model, digest):
    # a lone node has no peer update to wait for: its row is taken right
    # after the boundary step, and the metrics and summary bytes are the
    # ones pinned before BSP rows waited for the clock-t model
    cfg = config_from_dict({
        "model": model, "data": {"per_class": 20, "test_per_class": 5},
        "partition": {"nodes": 1},
        "algorithm": {"kind": "bsp", "epochs": 3, "batch_size": 10},
        "convergence": {"mode": "none"}})
    steps = []
    result = run_experiment(cfg, on_nodes=lambda nodes, sim: setattr(
        nodes[0], "iter_hook", lambda node, sim_: steps.append(sim_.now)))
    bpe = result.nodes[0].batches_per_epoch
    assert [row["sim_time_s"] for row in result.rows] == steps[bpe - 1::bpe]
    text = metrics_csv_text(result.rows) + "\0" + summary_text(result.summary)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_a_topology_the_cost_table_does_not_price_has_no_cost():
    demo = _load_demo("sync_mechanisms")
    cfg = demo.gated_cfg(True)
    cfg.algorithm.epochs = 2
    result = run_experiment(cfg, topology=demo.lopsided_topology())
    assert result.summary["total_bytes"] > 0
    assert result.summary["cost_usd"] is None
    assert [row["cost_usd"] for row in result.rows] == [None] * len(result.rows)
    assert "\ncost_usd=\n" in summary_text(result.summary)
    assert metrics_csv_text(result.rows).splitlines()[1].endswith(",")


def test_a_prebuilt_topology_with_the_wrong_dc_count_fails_before_the_data(
        monkeypatch):
    demo = _load_demo("sync_mechanisms")
    cfg = demo.gated_cfg(True)
    cfg.partition.nodes = 3
    monkeypatch.setattr(harness, "gen_mf_data", None)  # never reached
    with pytest.raises(ValueError, match="topology has 2 DCs for 3 partitions"):
        run_experiment(cfg, topology=demo.lopsided_topology())


def test_a_prebuilt_topology_outside_the_overlay_groups_fails_before_the_data(
        monkeypatch):
    # Simulator.hops routes by the groups, so they must name its DCs
    demo = _load_demo("sync_mechanisms")
    cfg = demo.gated_cfg(True)
    cfg.topology.groups = (("virginia",), ("california",))
    cfg.topology.hubs = ((0, 1, "california"), (1, 0, "virginia"))
    monkeypatch.setattr(harness, "gen_mf_data", None)  # never reached
    with pytest.raises(ValueError, match="not the topology's DCs"):
        run_experiment(cfg, topology=demo.lopsided_topology())


# the node attribute each SkewScout knob (an AlgoCfg field) sets
KNOB_ATTRS = {"t0": "t_hard", "iter_local": "iter_local", "e_warm": "e_warm"}


@pytest.mark.parametrize(
    "kind", {f.name: f for f in fields(harness.AlgoCfg)}["kind"].metadata["choices"])
def test_every_kind_declares_its_policy(kind):
    node_cls = algos.NODE_CLASSES[kind]
    assert issubclass(node_cls, algos._NodeBase)
    knob = node_cls._knobs[kind]
    assert (knob is None) == (kind in ("bsp", "ssp"))
    errs = validate_config(config_from_dict(
        {"algorithm": {"kind": kind}, "scout": {"enabled": True}}))
    assert any("no communication knob" in e for e in errs) == (knob is None)
    seen = []

    def check(nodes, sim):
        for node in nodes:
            assert type(node) is node_cls
            assert (node.max_iters is None) == (kind == "fedavg")
            if knob is not None:
                field_name, grid = knob
                attr = KNOB_ATTRS[field_name]
                before = getattr(node, attr)
                assert before == getattr(node.algo, field_name) != grid[0]
                node.set_knob(grid[0])
                assert getattr(node, attr) == grid[0]
            seen.append(node.name)

    run_experiment(config_from_dict({
        "data": {"per_class": 10, "test_per_class": 5},
        "partition": {"nodes": 2},
        "algorithm": {"kind": kind, "epochs": 1, "batch_size": 10}}),
        on_nodes=check)
    assert len(seen) == 2


def test_unknown_algorithm_kind_with_the_scout_on_is_one_error():
    cfg = config_from_dict({"algorithm": {"kind": "gossip"},
                            "scout": {"enabled": True}})
    assert validate_config(cfg) == ["unknown algorithm kind 'gossip'"]


# ---------------------------------------------------------------------------
# convergence bookkeeping


def test_convergence_target_mode():
    state = ConvergenceState(ConvergenceCfg(mode="target", target=1.0))
    assert check_convergence(state, 3.0, 1.0) == "running"
    assert check_convergence(state, 0.9, 2.0) == "converged"
    assert state.at_time == 2.0
    # terminal status is sticky
    assert check_convergence(state, 5.0, 3.0) == "converged"


def test_convergence_window_mode():
    state = ConvergenceState(ConvergenceCfg(mode="window", window=3,
                                            rel_tol=0.05))
    for t, v in enumerate([10.0, 5.0, 4.0, 4.05, 3.98]):
        status = check_convergence(state, v, float(t))
    # last three values sit within 5% of their mean
    assert status == "converged"
    assert state.at_time == 4.0


def test_convergence_divergence_and_none_mode():
    state = ConvergenceState(ConvergenceCfg(mode="none"))
    assert check_convergence(state, 1.0, 0.0) == "running"
    assert check_convergence(state, float("nan"), 1.0) == "diverged"
    assert state.at_time == 1.0


# ---------------------------------------------------------------------------
# output formatting


def test_metrics_header_is_frozen():
    assert ",".join(METRICS_HEADER) == (
        "sim_time_s,epoch,objective,accuracy,"
        "update_bytes,barrier_bytes,clock_bytes,travel_bytes,cost_usd")


def test_fmt_semantics():
    assert _fmt(None) == ""
    assert _fmt(True) == "true"
    assert _fmt(False) == "false"
    assert _fmt(0.1) == repr(0.1)
    assert _fmt(3) == "3"
    assert _fmt("x") == "x"


def test_metrics_csv_text_layout():
    rows = [{"sim_time_s": 1.5, "epoch": 1, "objective": 0.25,
             "accuracy": None, "update_bytes": 10, "barrier_bytes": 0,
             "clock_bytes": 24, "travel_bytes": 0, "cost_usd": 0.125}]
    text = metrics_csv_text(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(METRICS_HEADER)
    assert lines[1] == "1.5,1,0.25,,10,0,24,0,0.125"


def test_summary_text_layout():
    assert summary_text({"name": "n", "converged": True, "acc": None}) == (
        "name=n\nconverged=true\nacc=\n")


# ---------------------------------------------------------------------------
# small end-to-end runs


def _small_cfg(**overrides):
    raw = {
        "name": "smoke", "seed": 3,
        "model": {"kind": "softmax", "features": 3, "classes": 2},
        "data": {"per_class": 20, "test_per_class": 10},
        "partition": {"nodes": 2, "alpha": 0.0},
        "algorithm": {"kind": "bsp", "batch_size": 10, "epochs": 2,
                      "lr": {"eta0": 0.05}},
        "convergence": {"mode": "none"},
    }
    for section, patch in overrides.items():
        raw.setdefault(section, {}).update(patch)
    return config_from_dict(raw)


def test_run_experiment_bsp_end_to_end():
    result = run_experiment(_small_cfg())
    assert len(result.rows) == 2                      # one evaluation per epoch
    for row in result.rows:
        assert set(row) == set(METRICS_HEADER)
        assert row["accuracy"] is not None
        assert row["travel_bytes"] == 0
    assert [r["epoch"] for r in result.rows] == [1, 2]
    costs = [r["cost_usd"] for r in result.rows]
    assert costs == sorted(costs)                     # cost column is cumulative
    s = result.summary
    assert s["status"] == "running" and not s["converged"]
    assert s["total_bytes"] == sum(s[f"{k}_bytes"] for k in wansim.BYTE_KINDS)
    # BSP takes its last row after the queue drains, so rows hold every byte
    for kind in wansim.BYTE_KINDS:
        assert sum(r[f"{kind}_bytes"] for r in result.rows) == s[f"{kind}_bytes"]
    assert s["epochs_done"] == 2
    assert s["travels"] == 0 and "final_theta" not in s


def test_run_experiment_is_deterministic():
    a = run_experiment(_small_cfg())
    b = run_experiment(_small_cfg())
    assert metrics_csv_text(a.rows) == metrics_csv_text(b.rows)
    assert a.summary == b.summary


def test_run_experiment_fedavg_rounds_account_exactly():
    cfg = _small_cfg(algorithm={"kind": "fedavg", "iter_local": 2})
    result = run_experiment(cfg)
    # 2 epochs x 2 batches/epoch at 2 steps/round = 2 rounds, one row each
    assert len(result.rows) == 2
    assert result.nodes[0].round == 2
    # every byte is sent before the trigger's final reduce fires
    s = result.summary
    for kind in wansim.BYTE_KINDS:
        assert sum(r[f"{kind}_bytes"] for r in result.rows) == s[f"{kind}_bytes"]
    assert s["update_bytes"] > 0 and s["barrier_bytes"] == 0


def _fedavg_mlp_cfg(epochs):
    # 32*128 + 128 + 128*4 + 4 = 4,740 coordinates; 40 rows per node in
    # batches of 10 at 2 steps per round make 2 rounds per epoch
    return _small_cfg(
        model={"kind": "mlp", "features": 32, "hidden": [128], "classes": 4},
        data={"per_class": 30, "test_per_class": 10},
        partition={"nodes": 3},
        algorithm={"kind": "fedavg", "iter_local": 2, "epochs": epochs})


def test_fedavg_memory_does_not_grow_with_rounds():
    model_bytes = 4_740 * 8
    # untraced warm-up: the packaged tables are parsed once per process
    run_experiment(_fedavg_mlp_cfg(1))
    peaks = []
    for epochs in (5, 20):
        tracemalloc.start()
        try:
            result = run_experiment(_fedavg_mlp_cfg(epochs))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert result.nodes[0].w.size * 8 == model_bytes
        assert result.nodes[0].round == 2 * epochs
    assert peaks[1] - peaks[0] < 3 * model_bytes, peaks


def test_run_experiment_mf_has_blank_accuracy():
    cfg = config_from_dict({
        "seed": 2,
        "model": {"kind": "mf", "rows": 10, "cols": 8, "rank": 2},
        "data": {"kind": "mf", "density": 0.5, "noise_sigma": 0.05},
        "partition": {"nodes": 2},
        "algorithm": {"kind": "bsp", "batch_size": 10, "epochs": 1,
                      "lr": {"eta0": 0.01}},
        "convergence": {"mode": "none"},
    })
    result = run_experiment(cfg)
    assert result.rows[0]["accuracy"] is None
    assert result.summary["final_accuracy"] is None
    line = metrics_csv_text(result.rows).splitlines()[1]
    assert ",," in line                               # empty accuracy cell


def test_run_experiment_early_stop_on_target():
    cfg = _small_cfg(algorithm={"epochs": 5},
                     convergence={"mode": "target", "target": 1e9})
    result = run_experiment(cfg)
    assert len(result.rows) == 1                      # stopped at first look
    s = result.summary
    assert s["converged"] and s["status"] == "converged"
    assert s["time_to_convergence_s"] == result.rows[0]["sim_time_s"]
    assert s["epochs_done"] == 1


def test_a_row_that_stops_the_run_starts_no_further_step():
    # BSP takes its row inside an inbox drain, just before the gate check
    cfg = _small_cfg(partition={"nodes": 3}, algorithm={"epochs": 5},
                     convergence={"mode": "target", "target": 1e9},
                     output={"trace": True})
    result = run_experiment(cfg)
    assert len(result.rows) == 1 and result.summary["status"] == "converged"
    # each step the trigger starts passes one open gate, and it is stopped
    # before it checks the gate again (peers may be mid-step when it stops)
    trigger = result.nodes[0]
    opened = [row for row in result.sim.gate_trace
              if row[1] == trigger.name and row[6]]
    assert len(opened) == trigger.iters_done == trigger.batches_per_epoch


def test_a_row_still_waiting_when_the_queue_drains_is_taken_there():
    # 7 classes over 3 DCs at full skew: the trigger has 3 batches per
    # epoch and its peers 2, so no peer ever sends the clock-3 update its
    # only row waits for
    cfg = _small_cfg(
        model={"classes": 7}, data={"per_class": 10, "test_per_class": 5},
        partition={"nodes": 3, "alpha": 1.0}, algorithm={"epochs": 1})
    result = run_experiment(cfg)
    trigger = result.nodes[0]
    assert [n.max_iters for n in result.nodes] == [3, 2, 2]
    assert [row["epoch"] for row in result.rows] == [1]
    assert result.rows[0]["sim_time_s"] == result.summary["sim_time_s"]
    assert trigger.inbox == [] and not trigger._row_pending


def test_run_experiment_flags_divergence():
    cfg = config_from_dict({
        "seed": 2,
        "model": {"kind": "mf", "rows": 10, "cols": 8, "rank": 2},
        "data": {"kind": "mf", "density": 0.5, "noise_sigma": 0.05},
        "partition": {"nodes": 2},
        "algorithm": {"kind": "bsp", "batch_size": 10, "epochs": 2,
                      "lr": {"eta0": 1e6}},
        "convergence": {"mode": "none"},
    })
    with np.errstate(all="ignore"):
        result = run_experiment(cfg)
    assert result.summary["diverged"] is True


def _softmax_cfg(kind, nodes, trace=False, **algorithm):
    return config_from_dict({
        "seed": 3,
        "model": {"kind": "softmax", "features": 10, "classes": 10},
        "data": {"per_class": 40, "spread": 1.0, "test_per_class": 10},
        "partition": {"nodes": nodes, "alpha": 0.5},
        "algorithm": dict(algorithm, kind=kind, epochs=2, batch_size=10),
        "convergence": {"mode": "none"},
        "output": {"trace": trace},
    })


def _count_gate_checks(monkeypatch):
    checks = []
    shut_gate = GaiaNode._shut_gate

    def counted(node, sim):
        checks.append(node.name)
        return shut_gate(node, sim)

    monkeypatch.setattr(GaiaNode, "_shut_gate", counted)
    return checks


@pytest.mark.parametrize("trace", [False, True])
def test_untraced_bsp_checks_its_gate_about_twice_per_iteration(
        monkeypatch, trace):
    # one check after each step, and one more when the last peer's clock
    # arrives; a traced run checks on every one of the ten deliveries
    checks = _count_gate_checks(monkeypatch)
    result = run_experiment(_softmax_cfg("bsp", 11, trace=trace))
    iters = sum(node.iters_done for node in result.nodes)
    assert iters == 11 * 2 * 4
    per_iter = len(checks) / iters
    if trace:
        assert per_iter > 5
        assert len(result.sim.gate_trace) == len(checks)
    else:
        assert per_iter <= 2.5


def test_untraced_runs_never_read_peer_clocks(monkeypatch):
    def oracle(node, sim):
        raise AssertionError("peer state read in an untraced run")

    monkeypatch.setattr(GaiaNode, "_true_min_peer_clock", oracle)
    for cfg in (_softmax_cfg("ssp", 4, staleness=1),
                _softmax_cfg("gaia", 4, t0=0.001),
                config_from_dict({
                    "seed": 11,
                    "model": {"kind": "mlp", "features": 16, "classes": 4,
                              "hidden": [64]},
                    "data": {"per_class": 40, "test_per_class": 20},
                    "partition": {"nodes": 5, "alpha": 0.5},
                    "algorithm": {"kind": "gaia", "epochs": 3, "t0": 0.001},
                    "topology": {"dcs": ["mumbai", "saopaulo", "sydney",
                                         "seoul", "singapore"]},
                    "convergence": {"mode": "none"}})):
        result = run_experiment(cfg)
        assert result.sim.trace is False
        assert result.sim.gate_trace == []
    # the barrier run above does block on barriers
    assert result.summary["barrier_bytes"] > 0


def test_run_experiment_rejects_bad_config():
    cfg = _small_cfg(partition={"alpha": 2.0})
    with pytest.raises(ValueError, match="bad config"):
        run_experiment(cfg)


def test_run_experiment_scout_summary_and_trace(tmp_path):
    cfg = _small_cfg(algorithm={"kind": "gaia", "t0": 0.05, "ds": 2},
                     scout={"enabled": True, "mtp": 0, "tuner": "hill",
                            "start_idx": 0})
    result = run_experiment(cfg)
    s = result.summary
    # mtp=0 travels once per local epoch: 2 boundaries x 2 nodes
    assert s["travels"] == 4
    assert s["travel_bytes"] == 4 * wansim.dense_update_bytes(s["model_coords"])
    assert s["final_theta"] in result.scout.grid
    out = save_run(result, str(tmp_path / "scouted"))
    trace = (tmp_path / "scouted" / "tuner_trace.csv").read_text().splitlines()
    assert trace[0] == "sim_time_s,boundary,theta,al_points,c_bytes,score,action,theta_next"
    assert len(trace) == 1 + len(result.scout.trace)
    assert out == str(tmp_path / "scouted")


def test_save_run_files(tmp_path):
    result = run_experiment(_small_cfg())
    out = tmp_path / "run1"
    save_run(result, str(out))
    assert (out / "metrics.csv").read_text() == metrics_csv_text(result.rows)
    assert (out / "summary.txt").read_text() == summary_text(result.summary)
    assert not (out / "tuner_trace.csv").exists()
    parsed = list(csv.DictReader(io.StringIO((out / "metrics.csv").read_text())))
    assert len(parsed) == len(result.rows)
    assert float(parsed[0]["objective"]) == result.rows[0]["objective"]


# ---------------------------------------------------------------------------
# command line


def _write_cfg(tmp_path, name="exp.yaml", algo="bsp", extra=""):
    text = (
        "name: smoke\n"
        "seed: 3\n"
        "model: {kind: softmax, features: 3, classes: 2}\n"
        "data: {per_class: 20, test_per_class: 10}\n"
        "partition: {nodes: 2, alpha: 0.0}\n"
        f"algorithm: {{kind: {algo}, batch_size: 10, epochs: 2, lr: {{eta0: 0.05}}}}\n"
        "convergence: {mode: none}\n" + extra)
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_validate_ok(tmp_path, capsys):
    assert cli.main(["validate", "--config", _write_cfg(tmp_path)]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_cli_validate_rejects_a_string_for_a_bool(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text('algorithm: {barrier: "no"}\n')
    assert cli.main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        "config error: algorithm.barrier must be true or false, got 'no'\n")


@pytest.mark.parametrize("field, text, error", [
    ("bandwidth_file", "", "cannot read the topology tables: bandwidth "
     "table is empty"),
    ("cost_file", "", "cannot read the topology tables: cost model header "
     "must be ['machine_rate_usd_per_hr', 'recv_usd_per_gb', 'region', "
     "'send_usd_per_gb']"),
    ("bandwidth_file", ",virginia,california\nvirginia,,\n"
     "california,100,\n", "DC pairs missing from the bandwidth table: "
     "[('virginia', 'california')]"),
])
def test_cli_validate_rejects_a_table_that_cannot_run(tmp_path, capsys,
                                                      field, text, error):
    table = tmp_path / "table.csv"
    table.write_text(text)
    path = tmp_path / "cfg.yaml"
    path.write_text(f"topology: {{{field}: {table}}}\n")
    assert cli.main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"config error: {error}\n"


def test_cli_validate_catches_errors(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("partition: {alpha: 3.0}\n")
    assert cli.main(["validate", "--config", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_run_writes_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["run", "--config", _write_cfg(tmp_path),
                     "--out", str(out), "--seed", "7"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert f"wrote {out}/metrics.csv" in stdout
    assert "name=smoke" in stdout and "seed=7" in stdout
    assert (out / "metrics.csv").exists()
    assert "seed=7" in (out / "summary.txt").read_text()


def test_cli_run_rejects_invalid(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("algorithm: {kind: gossip}\n")
    assert cli.main(["run", "--config", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_report(tmp_path, capsys):
    out = tmp_path / "out"
    cli.main(["run", "--config", _write_cfg(tmp_path), "--out", str(out)])
    capsys.readouterr()
    assert cli.main(["report", str(out)]) == 0
    report = capsys.readouterr().out
    assert "name=smoke" in report
    assert "metrics rows: 2" in report
    assert cli.main(["report", str(tmp_path / "nowhere")]) == 1


def test_cli_sweep(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--config", _write_cfg(tmp_path, algo="gaia"),
                     "--param", "algorithm.t0", "--values", "0.05,0.2",
                     "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "algorithm.t0=0.05: objective=" in stdout
    assert (out / "algorithm_t0=0.05" / "metrics.csv").exists()
    assert (out / "algorithm_t0=0.2" / "summary.txt").exists()
    rows = list(csv.DictReader(open(out / "sweep.csv")))
    assert [r["value"] for r in rows] == ["0.05", "0.2"]
    assert all(r["algorithm"] == "gaia" for r in rows)
    # a tighter threshold should not ship fewer update bytes
    assert int(rows[0]["update_bytes"]) >= int(rows[1]["update_bytes"])


def test_cli_override_resolution():
    cfg = ExperimentConfig()
    cli._override(cfg, "algorithm.t0", 0.2)
    assert cfg.algorithm.t0 == 0.2
    cli._override(cfg, "features", 5)       # bare names search the sections
    assert cfg.model.features == 5
    with pytest.raises(SystemExit):
        cli._override(cfg, "no_such_field", 1)
    with pytest.raises(SystemExit):
        cli._override(cfg, "model.no_such_field", 1)
    with pytest.raises(SystemExit):
        cli._override(cfg, "nosection.t0", 1)
    with pytest.raises(SystemExit):         # model, data and algorithm
        cli._override(cfg, "kind", "bsp")
    cli._override(cfg, "output.dir", "runs/x")
    assert cfg.output.dir == "runs/x"
