"""Training algorithms as event-driven nodes on the WAN simulator.

Three communication regimes over the same momentum-SGD inner loop:

* GaiaNode: per-coordinate significance filtering with selective barriers
  and mirror clocks (the relaxed mode), or dense lockstep / bounded-stale
  exchange as baselines, chosen by policy.
* FedAvgNode: rounds of local steps followed by a dense model average.
* DgcNode: synchronized sparse all-reduce of top-k update coordinates with
  momentum correction and a warm-up sparsity ramp.

Nodes are state machines driven by Simulator wake and delivery events: a
node computes for its DC's configured compute time per minibatch, then
exchanges according to its policy, and blocks whenever its gates say so.
A blocked node simply stays idle until a delivery changes its view.

The message plumbing is shared in _NodeBase: it receives, forwards the
copies an overlay hub must re-broadcast, broadcasts, and holds a node that
waits for a round to complete. A node class supplies only its algorithm:
_receive, _ready, _finish_iteration and set_knob.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import psync, wansim
from .data import MinibatchStream
from .numerics import ClipConfig, MomentumState, clip_by_norm, lr_at, momentum_step
from .psync import (
    IterTick, LrDropped, SoftCtl, ThresholdSchedule,
    WeightShard, accumulate_and_flush, apply_barrier, clear_barrier_on_update,
    gate_read, mirror_clock_gate, ssp_gate, soft_threshold_adjust,
)

WARMUP_SCHEDULE = (75.0, 93.75, 98.4375, 99.6, 99.9)
DGC_CLIP_NORM = 5.0


def warmup_sparsity(epoch, e_warm, schedule=WARMUP_SCHEDULE):
    """Warm-up sparsity percentage for a 1-indexed epoch.

    The ramp advances one stage every e_warm epochs and saturates at the
    last stage: epoch 1 with e_warm=4 gives stage 1 (75%), epoch 17 gives
    the terminal 99.9%.
    """
    if epoch < 1:
        raise ValueError(f"epoch is 1-indexed, got {epoch}")
    if e_warm < 1:
        raise ValueError(f"e_warm must be >= 1, got {e_warm}")
    stage = min(math.ceil(epoch / e_warm), len(schedule))
    return schedule[stage - 1]


def dgc_select(v, sparsity_pct):
    """Indices to emit: the ceil((1-s)*M) largest |v|, ties to lowest index.

    NaN ranks below every number. Returned sorted by index.
    """
    m = v.size
    k = math.ceil((1.0 - sparsity_pct / 100.0) * m)
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    if k >= m:
        return np.arange(m, dtype=np.intp)
    # rank by -|v| ascending; partition, like sort, places NaN last
    key = np.abs(v)
    np.negative(key, out=key)
    kth = np.partition(key, k - 1)[k - 1]
    if kth != kth:            # NaN: every number ranks above it
        tied = np.isnan(key)
        above = ~tied
    else:
        above, tied = key < kth, key == kth
    above[tied.nonzero()[0][:k - np.count_nonzero(above)]] = True
    return above.nonzero()[0]


# ---------------------------------------------------------------------------
# policies


@dataclass
class SspPolicy:
    """Dense exchange every iteration, bounded staleness; 0 is lockstep BSP."""

    staleness: int = 1


@dataclass
class AspPolicy:
    """Significance-filtered exchange with barriers and mirror clocks."""

    t0: float = 0.01
    ds: int = 1
    decay_mode: str = "lr"              # "lr" | "invsqrt"
    barrier: bool = True
    mirror: bool = True
    soft: SoftCtl = field(default_factory=SoftCtl)


# ---------------------------------------------------------------------------
# batch views


class ArrayBatches:
    """Row-indexed view over (X, y) arrays for classifiers."""

    def __init__(self, X, y):
        self.X = X
        self.y = y

    def make(self, idx):
        return self.X[idx], self.y[idx]


class EntryBatches:
    """Identity view for factorization entry indices."""

    def make(self, idx):
        return np.asarray(idx, dtype=np.intp)


class _NodeBase:
    """What every node shares: compute scheduling, counters, hooks, and the
    message plumbing.

    The base receives (travel payloads go to travel_sink, anything else to
    the subclass's _receive), forwards overlay copies a hub must
    re-broadcast, broadcasts, and holds a node that is _awaiting a round.
    A subclass supplies the algorithm: _receive, _ready (may the next step
    start now?), _finish_iteration (one local step and its exchange),
    weights and set_knob (the knob SkewScout tunes).
    """

    def __init__(self, name, index, model, batch_view, stream, lr_schedule,
                 compute_s, max_iters, peers):
        self.name = name
        self.index = index
        self.model = model
        self.batch_view = batch_view
        self.stream = stream
        self.lr_schedule = lr_schedule
        self.compute_s = compute_s
        self.max_iters = max_iters
        self.peers = list(peers)
        self.iters_done = 0
        self.stopped = False
        self.diverged = False
        self._computing = False
        self._awaiting = False        # held until a round's exchange completes
        self._finish_at = None
        self.epoch_hook = None        # fn(node, sim) at each local epoch end
        self.iter_hook = None         # fn(node, sim) after every iteration
        self.travel_sink = None       # fn(node, sim, msg) for travel payloads

    @property
    def batches_per_epoch(self):
        return self.stream.batches_per_epoch

    @property
    def epochs_done(self):
        return self.iters_done // self.batches_per_epoch

    def members(self):
        """Every node in the exchange, this one included, in name order."""
        return sorted([self.name] + self.peers)

    def _begin_compute(self, sim):
        self._computing = True
        self._finish_at = sim.now + self.compute_s
        sim.wake_at(self._finish_at, self.name)

    def on_wake(self, sim):
        if self.stopped:
            return
        if self._computing:
            if sim.now >= self._finish_at:
                self._computing = False
                self._finish_iteration(sim)
                if not self.stopped:
                    self.try_start(sim)
            return
        self.try_start(sim)

    def on_message(self, sim, msg):
        if msg.kind == wansim.KIND_TRAVEL:
            if self.travel_sink:
                self.travel_sink(self, sim, msg)
        else:
            self._receive(sim, msg)
        self._maybe_forward(sim, msg)
        self.try_start(sim)

    # Copies of one message share its byte_split and payload dicts: the
    # simulator and the ledger only read byte_split, and receivers only
    # read payloads. The split is checked once, when it is first built, and
    # every copy carries its total.

    def _maybe_forward(self, sim, msg):
        if not msg.forward or sim.overlay is None:
            return
        for dst in wansim.forward_hops(sim.overlay, self.name, msg.origin):
            sim.send(wansim.Message(msg.kind, self.name, dst, msg.byte_split,
                                    msg.payload, msg.origin,
                                    nbytes=msg.nbytes))

    def _broadcast(self, sim, byte_split, payload, hops=None):
        """Send one copy per first hop; hops defaults to broadcast_hops."""
        kind = (wansim.KIND_UPDATE if wansim.KIND_UPDATE in byte_split
                else wansim.KIND_CLOCK)
        name, send, message = self.name, sim.send, wansim.Message
        nbytes = wansim.split_nbytes(byte_split)
        if hops is None:
            hops = wansim.broadcast_hops(sim.overlay, name, sim.topology.dcs)
        for dst, needs_forward in hops:
            send(message(kind, name, dst, byte_split, payload, name,
                         needs_forward, nbytes))

    def try_start(self, sim):
        if self._computing or self.stopped or self._awaiting:
            return
        if self._ready(sim):
            self._begin_compute(sim)

    def _ready(self, sim):
        return True

    def _after_iteration(self, sim):
        if not np.all(np.isfinite(self.weights())):
            self.diverged = True
            self.stopped = True
        if self.iters_done % self.batches_per_epoch == 0 and self.epoch_hook:
            self.epoch_hook(self, sim)
        if self.iter_hook:
            self.iter_hook(self, sim)
        if self.max_iters is not None and self.iters_done >= self.max_iters:
            self.stopped = True

    def weights(self):
        raise NotImplementedError

    def set_knob(self, theta):
        raise NotImplementedError

    def _receive(self, sim, msg):
        raise NotImplementedError

    def _finish_iteration(self, sim):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# significance-filtered / dense-policy node


class GaiaNode(_NodeBase):
    """One data center's worker+server pair under a sync policy.

    The policy decides both what is emitted after each local step (a
    significance-filtered slice of the accumulated update, or the whole
    dense update) and what gates the next step (mirror clock + selective
    barrier, or a staleness bound on known peer clocks).

    A blocked node waits for something, and an untraced run re-checks its
    gates only when that has moved. Its local clock stands still while it
    is blocked and mirror clocks only grow, so a clock gate (mirror or SSP)
    that needs every peer at _need or above stays shut while _short, the
    number of peers still below _need, is positive; _receive counts the
    peers that cross it. A barrier gate can open only when an update clears
    barrier entries, so it is re-checked only after one has. Every delivery
    still drains the inbox, so updates land in the same order either way.
    A traced run (Simulator(trace=True)) checks on every delivery and
    records each check in sim.gate_trace.
    """

    def __init__(self, name, index, model, batch_view, stream, lr_schedule,
                 compute_s, max_iters, w0, policy, peers, momentum=0.9):
        super().__init__(name, index, model, batch_view, stream, lr_schedule,
                         compute_s, max_iters, peers)
        self.policy = policy
        self._asp = isinstance(policy, AspPolicy)
        if not self._asp:
            self._staleness = policy.staleness
        self._peer_shards = None   # (sim, nodes registered, peer shards)
        self.shard = WeightShard.fresh(w0, m=momentum, peers=self.peers)
        self.inbox = []            # (clock, origin, seq, idx, vals, dense)
        self._inbox_seq = 0
        self._last_eta = None
        self._last_flush_time = {p: 0.0 for p in self.peers}
        self.rate_monitors = {p: wansim.RateMonitor() for p in self.peers}
        if self._asp:
            self.t_hard = policy.t0
            self.t_soft = policy.t0
            self.t_sched = ThresholdSchedule(t0=policy.t0, mode=policy.decay_mode)
        self.sig_counts = {}       # epoch -> [emitted, scored]
        # the wait of an untraced blocked node (see the class docstring);
        # _short is always the number of peers whose mirror clock is below
        # _need
        self._need = 0
        self._short = 0
        self._barrier_wait = False

    def weights(self):
        return self.shard.w

    def set_knob(self, theta):
        """Restart the significance threshold at theta."""
        self.t_hard = theta
        self.t_soft = min(self.t_soft, theta)
        self.t_sched = ThresholdSchedule(t0=theta, mode=self.policy.decay_mode)

    # -- receiving ---------------------------------------------------------

    def _receive(self, sim, msg):
        if wansim.KIND_CLOCK in msg.byte_split and msg.payload is not None:
            clock = msg.payload.get("clock")
            clocks = self.shard.mirror_clocks
            if clock is not None and msg.origin in clocks:
                known = clocks[msg.origin]
                if clock > known:
                    clocks[msg.origin] = clock
                    if known < self._need <= clock:
                        self._short -= 1
        if msg.kind == wansim.KIND_BARRIER:
            apply_barrier(self.shard, msg.payload["barrier"])
        elif msg.kind == wansim.KIND_UPDATE and "idx" in (msg.payload or {}):
            p = msg.payload
            self.inbox.append((p["clock"], msg.origin, self._inbox_seq,
                               p["idx"], p["vals"], p["dense"]))
            self._inbox_seq += 1

    def _drain_inbox(self):
        """Apply the inbox in (clock, origin, arrival) order; True when an
        applied update came from a source with barrier entries."""
        if not self.inbox:
            return False
        if len(self.inbox) > 1:
            self.inbox.sort(key=lambda rec: (rec[0], rec[1], rec[2]))
        waits = self.shard.barrier_waits
        cleared = False
        for clock, origin, _seq, idx, vals, dense in self.inbox:
            if dense:
                self.shard.w = self.shard.w + vals
                if origin not in waits:
                    continue
                # a dense update carries every coordinate
                idx = np.arange(self.shard.w.size)
            else:
                w = self.shard.w.copy()
                w[idx] += vals
                self.shard.w = w
            cleared = cleared or origin in waits
            clear_barrier_on_update(self.shard, origin, clock, idx)
        self.inbox.clear()
        return cleared

    # -- gating ------------------------------------------------------------

    def _true_min_peer_clock(self, sim):
        # the registered peers' shards, resolved again only when the
        # simulator or its set of registered nodes changes
        view = self._peer_shards
        if view is None or view[0] is not sim or view[1] != len(sim.nodes):
            view = self._peer_shards = (sim, len(sim.nodes), [
                sim.nodes[p].shard for p in self.peers if p in sim.nodes])
        shards = view[2]
        if not shards:
            return self.shard.local_clock
        return min([shard.local_clock for shard in shards])

    def _clock_gate(self, sim, kind, gate, slack):
        """A gate on the slowest known peer clock; an untraced block records
        the clock every peer must reach and how many are still short of it."""
        local = self.shard.local_clock
        clocks = self.shard.mirror_clocks
        slowest = min(clocks.values())
        allow = gate(local, slowest, slack)
        if sim.trace:
            sim.gate_trace.append((
                sim.now, self.name, kind, local, slowest,
                self._true_min_peer_clock(sim), allow))
        elif not allow:
            need = self._need = local - slack
            self._short = sum(clock < need for clock in clocks.values())
        return allow

    def _barrier_gate(self, sim):
        """Whether the next step's reads are clear of barrier entries."""
        if not self.shard.barrier_waits:
            return True
        read_set = self.model.touched(self.batch_view.make(self.stream.peek()))
        if sim.trace:
            n_blocked = gate_read(self.shard, read_set).size
            sim.gate_trace.append((
                sim.now, self.name, "barrier", self.shard.local_clock,
                n_blocked, self._true_min_peer_clock(sim), n_blocked == 0))
            return n_blocked == 0
        # a dense read (None) meets every outstanding entry
        allow = read_set is not None and gate_read(self.shard, read_set).size == 0
        self._barrier_wait = not allow
        return allow

    def _gates_allow(self, sim):
        if self._asp:
            pol = self.policy
            if pol.mirror and self.peers and not self._clock_gate(
                    sim, "mirror", mirror_clock_gate, pol.ds):
                return False
            return not pol.barrier or self._barrier_gate(sim)
        return not self.peers or self._clock_gate(sim, "ssp", ssp_gate,
                                                   self._staleness)

    def _ready(self, sim):
        cleared = self._drain_inbox()
        if self._short or (self._barrier_wait and not cleared):
            return False
        self._barrier_wait = False
        return self._gates_allow(sim)

    # -- the local step ----------------------------------------------------

    def _finish_iteration(self, sim):
        batch = self.batch_view.make(self.stream.next_batch())
        loss, grad = self.model.loss_and_grad(self.shard.w, batch,
                                              update_stats=True)
        eta = lr_at(self.lr_schedule, self.epochs_done)
        w_next, m_next, update = momentum_step(self.shard.w, self.shard.momentum,
                                               grad, eta)
        self.shard.w = w_next
        self.shard.momentum = m_next
        self.iters_done += 1
        self.shard.local_clock += 1
        if self._asp:
            self._asp_exchange(sim, update, eta)
        else:
            self._dense_exchange(sim, update)
        self._last_eta = eta
        self._after_iteration(sim)

    def _dense_exchange(self, sim, update):
        if not self.peers:
            return
        payload = {
            "clock": self.shard.local_clock,
            "idx": None,
            "vals": update.copy(),
            "dense": True,
        }
        split = {
            wansim.KIND_UPDATE: wansim.dense_update_bytes(update.size),
            wansim.KIND_CLOCK: wansim.CLOCK_BYTES,
        }
        self._broadcast(sim, split, payload)

    def _asp_exchange(self, sim, update, eta):
        pol = self.policy
        self.shard.v = self.shard.v + update
        # threshold decay: coupled to lr drops, or 1/sqrt(t) on every tick
        if pol.decay_mode == "lr" and self._last_eta is not None and eta < self._last_eta:
            self.t_hard = psync.threshold_decay(
                self.t_sched, self.t_hard, LrDropped(eta / self._last_eta))
            self.t_soft = min(self.t_soft, self.t_hard)
        elif pol.decay_mode == "invsqrt":
            self.t_hard = psync.threshold_decay(
                self.t_sched, self.t_hard, IterTick(self.iters_done))
            self.t_soft = min(self.t_soft, self.t_hard)
        t_eff = self.t_soft if pol.soft.enabled else self.t_hard
        idx, vals = accumulate_and_flush(self.shard, t_eff)
        epoch = (self.iters_done - 1) // self.batches_per_epoch
        counts = self.sig_counts.setdefault(epoch, [0, 0])
        counts[0] += int(idx.size)
        counts[1] += int(self.shard.v.size)
        if not self.peers:
            return
        payload = {
            "clock": self.shard.local_clock,
            "idx": idx,
            "vals": vals,
            "dense": False,
        }
        flush_nbytes = wansim.sparse_update_bytes(idx.size) + wansim.CLOCK_BYTES
        # per-destination rate bookkeeping and barrier decisions use the
        # first-hop links only; hub forwarding is mechanical
        hops = wansim.broadcast_hops(sim.overlay, self.name, sim.topology.dcs)
        utilizations = []
        barrier = None
        for dst, _fw in hops:
            link = sim.topology.link(self.name, dst)
            monitor = self.rate_monitors[dst]
            elapsed = sim.now - self._last_flush_time[dst]
            if elapsed > 0:
                monitor.observe(flush_nbytes, elapsed)
            self._last_flush_time[dst] = sim.now
            utilizations.append(monitor.rate / link.bandwidth)
            if not (pol.barrier and monitor.warm and idx.size
                    and monitor.rate > link.bandwidth):
                continue
            if barrier is None:
                # one announcement of this flush serves every saturated
                # first hop; its copies share payload and byte split
                barrier = psync.maybe_emit_barrier(
                    monitor.rate, link.bandwidth, idx,
                    self.name, self.shard.local_clock)
                barrier_split = {wansim.KIND_BARRIER:
                                 wansim.barrier_bytes(len(barrier.indexes))}
                barrier_nbytes = wansim.split_nbytes(barrier_split)
                barrier_payload = {"barrier": barrier}
            sim.send(wansim.Message(
                wansim.KIND_BARRIER, self.name, dst, barrier_split,
                barrier_payload, self.name, nbytes=barrier_nbytes))
        if idx.size:
            split = {
                wansim.KIND_UPDATE: wansim.sparse_update_bytes(idx.size),
                wansim.KIND_CLOCK: wansim.CLOCK_BYTES,
            }
            self._broadcast(sim, split, payload, hops)
        else:
            # nothing significant: the clock still has to move
            self._broadcast(
                sim, {wansim.KIND_CLOCK: wansim.CLOCK_BYTES},
                {"clock": self.shard.local_clock, "idx": None,
                 "vals": None, "dense": False}, hops)
        if pol.soft.enabled and utilizations:
            self.t_soft = soft_threshold_adjust(
                pol.soft, max(utilizations), self.t_soft, self.t_hard)


# ---------------------------------------------------------------------------
# federated averaging


class FedAvgNode(_NodeBase):
    """Local momentum SGD punctuated by a dense model average every
    iter_local steps. Rounds are synchronous: a node holds at the round
    boundary until every participant's model for that round has arrived."""

    def __init__(self, name, index, model, batch_view, stream, lr_schedule,
                 compute_s, max_rounds, w0, peers, iter_local, momentum=0.9,
                 participants_fn=None):
        super().__init__(name, index, model, batch_view, stream, lr_schedule,
                         compute_s, max_iters=None, peers=peers)
        self.w = np.array(w0, dtype=np.float64)
        self.momentum = MomentumState.zeros(self.w.size, m=momentum)
        self.iter_local = int(iter_local)
        self.max_rounds = max_rounds
        self.round = 0
        self._round_models = {}    # round -> {name: w}
        self._steps_in_round = 0
        # participants_fn(round) -> ordered participant name list
        self.participants_fn = participants_fn
        self.round_hook = None
        self.reconstructed = None

    def weights(self):
        return self.w

    def set_knob(self, theta):
        """Average every theta local steps from the next round on."""
        self.iter_local = int(theta)

    def _receive(self, sim, msg):
        p = msg.payload
        self._round_models.setdefault(p["round"], {})[msg.origin] = p["w"]
        if self._awaiting:
            self._try_reduce(sim)

    def _ready(self, sim):
        if self.name in self._members_this_round():
            return True
        # sitting this round out: adopt the average once it is complete
        self._awaiting = True
        self._try_reduce(sim)
        return False

    def _members_this_round(self):
        if self.participants_fn is None:
            return self.members()
        return self.participants_fn(self.round)

    def _finish_iteration(self, sim):
        batch = self.batch_view.make(self.stream.next_batch())
        loss, grad = self.model.loss_and_grad(self.w, batch, update_stats=True)
        eta = lr_at(self.lr_schedule, self.epochs_done)
        self.w, self.momentum, _ = momentum_step(self.w, self.momentum, grad, eta)
        self.iters_done += 1
        self._steps_in_round += 1
        self._after_iteration(sim)
        if self.stopped:
            return
        if self._steps_in_round >= self.iter_local:
            self._steps_in_round = 0
            self._share_model(sim)

    def _share_model(self, sim):
        payload = {"round": self.round, "w": self.w.copy()}
        self._round_models.setdefault(self.round, {})[self.name] = self.w.copy()
        self._broadcast(
            sim, {wansim.KIND_UPDATE: wansim.dense_update_bytes(self.w.size)},
            payload)
        self._awaiting = True
        self._try_reduce(sim)

    def _try_reduce(self, sim):
        members = self._members_this_round()
        have = self._round_models.get(self.round, {})
        if any(m not in have for m in members):
            return
        stack = np.stack([have[m] for m in sorted(members)])
        mean = stack.sum(axis=0) / len(members)
        self.w = mean
        self.reconstructed = {m: have[m] for m in sorted(members)}
        del self._round_models[self.round]
        self.round += 1
        self._awaiting = False
        if self.round_hook:
            self.round_hook(self, sim)
        if self.round >= self.max_rounds:
            self.stopped = True
        if not self.stopped:
            self.try_start(sim)


# ---------------------------------------------------------------------------
# sparse synchronized all-reduce


class DgcNode(_NodeBase):
    """Per-step synchronous exchange of top-k momentum-corrected residuals.

    Every node advances the same global weight vector by the sum of all
    emitted slices for a step, applied in node order, so replicas stay
    bit-identical. Sparsity follows the warm-up ramp by local epoch.
    """

    def __init__(self, name, index, model, batch_view, stream, lr_schedule,
                 compute_s, max_iters, w0, peers, e_warm=1, momentum=0.9,
                 clip_norm=DGC_CLIP_NORM):
        super().__init__(name, index, model, batch_view, stream, lr_schedule,
                         compute_s, max_iters, peers)
        self.w = np.array(w0, dtype=np.float64)
        self.u = np.zeros_like(self.w)
        self.v = np.zeros_like(self.w)
        self.m = momentum
        self.e_warm = int(e_warm)
        self.clip = clip_norm
        self._step_slices = {}         # step -> {name: (idx, vals)}
        self.last_emitted = None

    def weights(self):
        return self.w

    def set_knob(self, theta):
        """Advance the warm-up ramp one stage every theta epochs."""
        self.e_warm = int(theta)

    def _receive(self, sim, msg):
        p = msg.payload
        self._step_slices.setdefault(p["step"], {})[msg.origin] = (
            p["idx"], p["vals"])
        if self._awaiting:
            self._try_apply(sim)

    def current_sparsity(self):
        return warmup_sparsity(self.epochs_done + 1, self.e_warm)

    def _finish_iteration(self, sim):
        batch = self.batch_view.make(self.stream.next_batch())
        loss, grad = self.model.loss_and_grad(self.w, batch, update_stats=True)
        eta = lr_at(self.lr_schedule, self.epochs_done)
        step_vec = clip_by_norm(-eta * grad, ClipConfig(self.clip))
        self.u = self.m * self.u + step_vec
        self.v = self.v + self.u
        sparsity = self.current_sparsity()
        idx = dgc_select(self.v, sparsity)
        vals = self.v[idx].copy()
        self.v[idx] = 0.0
        self.u[idx] = 0.0             # momentum correction
        self.last_emitted = (idx, vals)
        this_step = self.iters_done   # 0-indexed step being exchanged
        self._step_slices.setdefault(this_step, {})[self.name] = (idx, vals)
        self._broadcast(
            sim, {wansim.KIND_UPDATE: wansim.sparse_update_bytes(idx.size)},
            {"step": this_step, "idx": idx, "vals": vals})
        self._awaiting = True
        self._try_apply(sim)

    def _try_apply(self, sim):
        have = self._step_slices.get(self.iters_done, {})
        members = self.members()
        if any(m not in have for m in members):
            return
        w = self.w.copy()
        for m in members:
            idx, vals = have[m]
            w[idx] += vals
        self.w = w
        del self._step_slices[self.iters_done]
        self.iters_done += 1
        self._awaiting = False
        self._after_iteration(sim)
        if not self.stopped:
            self.try_start(sim)
