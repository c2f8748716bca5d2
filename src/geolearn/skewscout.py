"""Adaptive communication tuning driven by model traveling.

Every `mtp` boundaries each node ships its current model to the next
partition in a ring. Comparing the model's quality on its home probe
against the probe where it lands yields an accuracy-loss signal AL (in
points); together with the bytes the algorithm spent since the previous
boundary this forms a proxy objective

    score = lambda_al * max(0, AL - sigma_al) + lambda_c * C / CM

(CM = one dense model in bytes), which a small tuner minimizes over an
ordered grid of the algorithm's communication knob. Grids run from the
most to the least communication-intensive setting, so "less conservative"
always means a higher grid index.

The controller itself is modeled as a zero-cost control plane: travels are
billed on the wire (kind "travel"), the returned scalar is not.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import wansim

GAIA_T0_GRID = (0.02, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50)
FEDAVG_ITER_GRID = (5, 10, 20, 50, 200, 500, 1000)
DGC_EWARM_GRID = (8, 4, 3, 2, 1)


def proxy_score(al_points, c_bytes, cm_bytes, cfg):
    """Accuracy-loss hinge plus normalized communication volume, weighed by
    the scout section cfg (sigma_al, lambda_al, lambda_c)."""
    if cm_bytes <= 0:
        raise ValueError(f"model size must be positive, got {cm_bytes}")
    hinge = max(0.0, al_points - cfg.sigma_al)
    return cfg.lambda_al * hinge + cfg.lambda_c * (c_bytes / cm_bytes)


@dataclass
class TunerState:
    idx: int
    kind: str = "hill"
    memo: dict = field(default_factory=dict)
    temperature: float = 1.0
    temp_decay: float = 0.9
    rng: object = None

    def __post_init__(self):
        if self.kind not in ("hill", "stochastic", "anneal"):
            raise ValueError(f"unknown tuner kind {self.kind!r}")


def tuner_step(state, grid_size):
    """Next grid index given memoized scores; mutates annealing temperature.

    The current index must have a memoized score. An unevaluated neighbor is
    explored before score comparisons, trying the less-communication side
    (higher index) first. Hill climbing then moves only to a strictly better
    evaluated neighbor; the stochastic variant samples one neighbor and
    accepts improvements; annealing additionally accepts a worse neighbor
    with probability exp(-delta/temperature), temperature decaying
    geometrically on every step.
    """
    if state.idx not in state.memo:
        raise ValueError("current grid point has no memoized score")
    here = state.memo[state.idx]
    neighbors = [i for i in (state.idx + 1, state.idx - 1) if 0 <= i < grid_size]
    if state.kind == "hill":
        for nb in neighbors:
            if nb not in state.memo:
                return nb
        best = min(neighbors, key=lambda i: (state.memo[i], -i), default=None)
        if best is not None and state.memo[best] < here:
            return best
        return state.idx
    # sampling variants
    if not neighbors:
        return state.idx
    pick = int(state.rng.integers(len(neighbors))) if len(neighbors) > 1 else 0
    nb = neighbors[pick]
    if nb not in state.memo or state.memo[nb] < here:
        return nb
    if state.kind == "anneal":
        delta = state.memo[nb] - here
        accept = state.rng.random() < math.exp(-delta / max(state.temperature, 1e-12))
        state.temperature *= state.temp_decay
        if accept:
            return nb
    return state.idx


class ScoutController:
    """Wires travels, scoring, and the tuner into a running experiment.

    cfg is the scout section (harness.ScoutCfgSection), which sets the
    score's weights and the tuner; mtp is the resolved travel period, in
    boundaries (iterations or rounds) per travel. evaluate(w, stats,
    node_index) returns the probe metric at one node (accuracy in points for
    classifiers, raw objective for factorization); AL points are the home
    metric minus the remote one, or with relative_al the remote objective's
    gap over the home one, in percent. The controller holds no node: it
    points each of nodes' travel_sink at itself and sets their knob to the
    grid's start value; later it sends travels from the nodes of the sim
    its hooks are handed (sim.nodes, in node order) and pushes each new grid
    value to them through set_knob.
    """

    def __init__(self, cfg, mtp, grid, nodes, evaluate, model_bytes, rng,
                 relative_al=False):
        self.cfg = cfg
        self.mtp = mtp
        self.grid = list(grid)
        self.evaluate = evaluate
        self.model_bytes = model_bytes
        self.relative_al = relative_al
        self.state = TunerState(
            idx=cfg.start_idx, kind=cfg.tuner,
            temperature=cfg.temperature, temp_decay=cfg.temp_decay, rng=rng)
        self.boundary = 0
        self._boundary_count = 0
        self._pending = {}       # boundary -> list of per-travel AL points
        self._expected = 0       # travels per boundary, fixed by the ring
        self._bytes_mark = 0
        self.n_travels = 0
        self.trace = []          # rows for the tuner trace csv
        for node in nodes:
            node.travel_sink = self._on_travel
            node.set_knob(self.grid[self.state.idx])

    # -- hooks ---------------------------------------------------------------

    def on_boundary(self, node, sim):
        """Called from the trigger node's hook once per iteration/round."""
        self._boundary_count += 1
        if self._boundary_count % self.mtp != 0:
            return
        self.boundary += 1
        self._pending[self.boundary] = []
        self._expected = 0
        dcs = sim.dcs
        for i, src_node in enumerate(sim.nodes.values()):
            tgt = dcs[(i + 1) % len(dcs)]
            if tgt == src_node.name:
                continue
            w = src_node.w.copy()
            stats = getattr(src_node.model, "bn_stats", None)
            stats = [dict(mean=s["mean"].copy(), var=s["var"].copy())
                     for s in stats] if stats else None
            local = self.evaluate(w, stats, i)
            sim.send(wansim.Message(
                kind=wansim.KIND_TRAVEL, src=src_node.name, dst=tgt,
                byte_split={wansim.KIND_TRAVEL: self.model_bytes},
                payload=(self.boundary, w, stats, local),
                origin=src_node.name))
            self.n_travels += 1
            self._expected += 1
        if self._expected == 0:
            self._pending.pop(self.boundary, None)

    def _on_travel(self, node, sim, msg):
        boundary, w, stats, local = msg.payload
        remote = self.evaluate(w, stats, node.index)
        if self.relative_al:
            al = (remote - local) / max(abs(local), 1e-12) * 100.0
        else:
            al = local - remote
        pending = self._pending.get(boundary)
        if pending is None:
            return
        pending.append(al)
        if len(pending) == self._expected:
            self._complete_boundary(sim, boundary)

    def _complete_boundary(self, sim, boundary):
        als = self._pending.pop(boundary)
        al = float(np.mean(als))
        ledger = sim.ledger
        algo_bytes = sum(ledger.sent_bytes(k) for k in
                         (wansim.KIND_UPDATE, wansim.KIND_BARRIER, wansim.KIND_CLOCK))
        c_bytes = algo_bytes - self._bytes_mark
        self._bytes_mark = algo_bytes
        score = proxy_score(al, c_bytes, self.model_bytes, self.cfg)
        self.state.memo[self.state.idx] = score
        prev = self.state.idx
        self.state.idx = tuner_step(self.state, len(self.grid))
        action = "stay" if self.state.idx == prev else (
            "explore" if self.state.idx not in self.state.memo else "move")
        if self.state.idx != prev:
            for node in sim.nodes.values():
                node.set_knob(self.grid[self.state.idx])
        self.trace.append({
            "sim_time_s": sim.now, "boundary": boundary,
            "theta": self.grid[prev], "al_points": al, "c_bytes": c_bytes,
            "score": score, "action": action,
            "theta_next": self.grid[self.state.idx],
        })

    @property
    def final_theta(self):
        return self.grid[self.state.idx]
