import numpy as np
import pytest

from geolearn import wansim
from geolearn.harness import ScoutCfgSection
from geolearn.skewscout import (DGC_EWARM_GRID, FEDAVG_ITER_GRID,
                                GAIA_T0_GRID, ScoutController, TunerState,
                                proxy_score, tuner_step)


# ---------------------------------------------------------------------------
# proxy objective


def test_proxy_score_oracle():
    cfg = ScoutCfgSection(sigma_al=5.0, lambda_al=1.0, lambda_c=1.0)
    # hinge: 8 points lost, 5 tolerated -> 3; plus 500/1000 model volumes
    assert proxy_score(0.1, 8.0, 500, 1000, cfg) == 3.5
    # below the tolerance the hinge contributes nothing
    assert proxy_score(0.1, 2.0, 500, 1000, cfg) == 0.5
    assert proxy_score(0.1, -40.0, 0, 1000, cfg) == 0.0


def test_proxy_score_lambda_weighting():
    cfg = ScoutCfgSection(sigma_al=5.0, lambda_al=2.0, lambda_c=0.5)
    assert proxy_score(0.1, 8.0, 500, 1000, cfg) == 2.0 * 3.0 + 0.5 * 0.5


def test_proxy_score_needs_positive_model_size():
    cfg = ScoutCfgSection()
    with pytest.raises(ValueError):
        proxy_score(0.1, 1.0, 10, 0, cfg)


def test_knob_grids_run_dense_to_sparse():
    # each grid starts at its most communication-hungry setting
    assert GAIA_T0_GRID == (0.02, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50)
    assert FEDAVG_ITER_GRID == (5, 10, 20, 50, 200, 500, 1000)
    assert DGC_EWARM_GRID == (8, 4, 3, 2, 1)


# ---------------------------------------------------------------------------
# tuner


def test_tuner_state_validates_kind():
    with pytest.raises(ValueError):
        TunerState(idx=0, kind="brownian")


def test_tuner_step_requires_memoized_current_point():
    with pytest.raises(ValueError):
        tuner_step(TunerState(idx=0), grid_size=3)


def test_hill_explores_higher_index_first():
    state = TunerState(idx=1, memo={1: 1.0})
    assert tuner_step(state, grid_size=3) == 2
    state = TunerState(idx=1, memo={1: 1.0, 2: 5.0})
    assert tuner_step(state, grid_size=3) == 0


def test_hill_moves_only_to_strictly_better():
    state = TunerState(idx=1, memo={0: 0.5, 1: 1.0, 2: 0.8})
    assert tuner_step(state, grid_size=3) == 0
    state = TunerState(idx=1, memo={0: 2.0, 1: 1.0, 2: 2.0})
    assert tuner_step(state, grid_size=3) == 1
    # equal scores are not strictly better: hold position
    state = TunerState(idx=1, memo={0: 1.0, 1: 1.0, 2: 1.0})
    assert tuner_step(state, grid_size=3) == 1


def test_hill_ties_between_neighbors_prefer_less_communication():
    state = TunerState(idx=1, memo={0: 0.5, 1: 1.0, 2: 0.5})
    assert tuner_step(state, grid_size=3) == 2


def test_single_point_grid_stays_put():
    assert tuner_step(TunerState(idx=0, memo={0: 1.0}), grid_size=1) == 0
    state = TunerState(idx=0, kind="stochastic", memo={0: 1.0},
                       rng=np.random.default_rng(0))
    assert tuner_step(state, grid_size=1) == 0


def test_stochastic_accepts_improvement_rejects_worse():
    rng = np.random.default_rng(3)
    state = TunerState(idx=0, kind="stochastic", memo={0: 1.0, 1: 0.5}, rng=rng)
    assert tuner_step(state, grid_size=2) == 1
    state = TunerState(idx=0, kind="stochastic", memo={0: 1.0, 1: 2.0}, rng=rng)
    assert tuner_step(state, grid_size=2) == 0


def test_stochastic_samples_the_seeded_neighbor():
    rng = np.random.default_rng(7)
    mirror = np.random.default_rng(7)
    state = TunerState(idx=1, kind="stochastic", memo={1: 1.0}, rng=rng)
    picked = tuner_step(state, grid_size=3)
    assert picked == (2, 0)[int(mirror.integers(2))]


def test_anneal_accepts_equal_score_and_decays_temperature():
    # delta = 0 gives acceptance probability exp(0) = 1, draw-independent
    state = TunerState(idx=0, kind="anneal", memo={0: 1.0, 1: 1.0},
                       temperature=1.0, temp_decay=0.9,
                       rng=np.random.default_rng(0))
    assert tuner_step(state, grid_size=2) == 1
    assert state.temperature == pytest.approx(0.9)


def test_anneal_rejects_much_worse_at_cold_temperature():
    state = TunerState(idx=0, kind="anneal", memo={0: 0.0, 1: 50.0},
                       temperature=1e-9, temp_decay=0.9,
                       rng=np.random.default_rng(0))
    assert tuner_step(state, grid_size=2) == 0
    assert state.temperature == pytest.approx(0.9e-9)


# ---------------------------------------------------------------------------
# controller against the live simulator


class _StubNode:
    def __init__(self, name, index, w, model=None):
        self.name = name
        self.index = index
        self.w = np.asarray(w, dtype=float)
        self.model = model if model is not None else object()
        self.travel_sink = None

    def on_message(self, sim, msg):
        if msg.kind == wansim.KIND_TRAVEL:
            self.travel_sink(self, sim, msg)


def _ring_sim(names=("a", "b")):
    links = {}
    for s in names:
        for d in names:
            if s != d:
                links[(s, d)] = wansim.LinkSpec(s, d, 1e6, 0.001)
    return wansim.Simulator(wansim.Topology(dcs=list(names), links=links))


def _controller(sim, nodes, applied, metric_by_index, grid=(0.1, 0.2, 0.3),
                mtp=1, al_mode="points"):
    cfg = ScoutCfgSection(sigma_al=5.0, tuner="hill", start_idx=0)
    return ScoutController(
        cfg, mtp, grid, nodes,
        evaluate=lambda w, stats, i: metric_by_index[i],
        apply_theta=applied.append, model_bytes=240,
        rng=np.random.default_rng(0), al_mode=al_mode)


def test_controller_travels_score_and_explore():
    sim = _ring_sim()
    nodes = [_StubNode("a", 0, [1.0, 2.0]), _StubNode("b", 1, [3.0, 4.0])]
    for n in nodes:
        sim.register(n.name, n)
    applied = []
    ctl = _controller(sim, nodes, applied, metric_by_index={0: 80.0, 1: 70.0})
    assert applied == [0.1]                    # start knob pushed at wiring time
    sim.send(wansim.Message(kind=wansim.KIND_UPDATE, src="a", dst="b",
                            byte_split={wansim.KIND_UPDATE: 120}))
    ctl.on_boundary(nodes[0], sim)
    assert ctl.n_travels == 2                  # full ring: a->b and b->a
    sim.run()
    # a's model drops 10 points on b's probe; b's trip mirrors the gain
    als = {(r.source, r.target): r.al_points for r in ctl.reports}
    assert als == {("a", "b"): 10.0, ("b", "a"): -10.0}
    assert sim.ledger.sent_bytes(wansim.KIND_TRAVEL) == 480
    row = ctl.trace[0]
    assert row["al_points"] == 0.0             # the two trips cancel in the mean
    assert row["c_bytes"] == 120               # travel bytes stay out of C
    assert row["score"] == 0.5                 # hinge 0 + 120/240 model volumes
    assert row["theta"] == 0.1
    assert row["action"] == "explore" and row["theta_next"] == 0.2
    assert applied == [0.1, 0.2]
    assert ctl.final_theta == 0.2


def test_controller_honors_travel_period():
    sim = _ring_sim()
    nodes = [_StubNode("a", 0, [1.0]), _StubNode("b", 1, [2.0])]
    for n in nodes:
        sim.register(n.name, n)
    ctl = _controller(sim, nodes, [], metric_by_index={0: 1.0, 1: 1.0}, mtp=2)
    ctl.on_boundary(nodes[0], sim)
    assert ctl.n_travels == 0                  # boundary 1 of 2: hold
    ctl.on_boundary(nodes[0], sim)
    assert ctl.n_travels == 2


def test_controller_single_dc_has_nowhere_to_travel():
    sim = wansim.Simulator(wansim.Topology(dcs=["a"], links={}))
    node = _StubNode("a", 0, [1.0])
    sim.register("a", node)
    ctl = _controller(sim, [node], [], metric_by_index={0: 1.0})
    ctl.on_boundary(node, sim)
    sim.run()
    assert ctl.n_travels == 0
    assert ctl.trace == []


def test_controller_hill_walk_over_boundaries():
    sim = _ring_sim()
    nodes = [_StubNode("a", 0, [1.0]), _StubNode("b", 1, [2.0])]
    for n in nodes:
        sim.register(n.name, n)
    applied = []
    ctl = _controller(sim, nodes, applied, metric_by_index={0: 50.0, 1: 50.0})
    # AL is identically zero, so the score is pure communication volume
    for nbytes in (240, 480, 720, 0):
        if nbytes:
            sim.send(wansim.Message(kind=wansim.KIND_UPDATE, src="a", dst="b",
                                    byte_split={wansim.KIND_UPDATE: nbytes}))
        ctl.on_boundary(nodes[0], sim)
        sim.run()
    assert [r["action"] for r in ctl.trace] == ["explore", "explore", "move", "stay"]
    assert [r["score"] for r in ctl.trace] == [1.0, 2.0, 3.0, 0.0]
    assert applied == [0.1, 0.2, 0.3, 0.2]
    assert ctl.state.memo == {0: 1.0, 1: 0.0, 2: 3.0}
    assert ctl.final_theta == 0.2


def test_relative_al_mode_measures_objective_gap():
    sim = _ring_sim()
    nodes = [_StubNode("a", 0, [1.0]), _StubNode("b", 1, [2.0])]
    for n in nodes:
        sim.register(n.name, n)
    ctl = _controller(sim, nodes, [], metric_by_index={0: 2.0, 1: 3.0},
                      al_mode="relative")
    ctl.on_boundary(nodes[0], sim)
    sim.run()
    als = {(r.source, r.target): r.al_points for r in ctl.reports}
    # a's objective rises 2 -> 3 on b's probe: +50%; b's falls 3 -> 2: -33%
    assert als[("a", "b")] == pytest.approx(50.0)
    assert als[("b", "a")] == pytest.approx(-100.0 / 3.0)


def test_travel_payload_snapshots_norm_stats():
    class _BNModel:
        def __init__(self):
            self.bn_stats = [{"mean": np.array([1.0]), "var": np.array([2.0])}]

    sim = _ring_sim()
    nodes = [_StubNode("a", 0, [1.0], model=_BNModel()),
             _StubNode("b", 1, [2.0])]
    for n in nodes:
        sim.register(n.name, n)
    seen = []
    cfg = ScoutCfgSection(tuner="hill", start_idx=0)

    def evaluate(w, stats, i):
        seen.append(stats)
        return 1.0

    ctl = ScoutController(cfg, 1, (0.1, 0.2), nodes, evaluate=evaluate,
                          apply_theta=lambda theta: None, model_bytes=240,
                          rng=np.random.default_rng(0))
    ctl.on_boundary(nodes[0], sim)
    nodes[0].model.bn_stats[0]["mean"][0] = 99.0   # mutate while in flight
    sim.run()
    carried = [s for s in seen if s is not None]
    assert len(carried) == 2                        # a's send-side and b's landing
    assert all(s[0]["mean"][0] == 1.0 for s in carried)
