"""Training algorithms as event-driven nodes on the WAN simulator.

Three communication regimes over the same momentum-SGD inner loop:

* GaiaNode: per-coordinate significance filtering with selective barriers
  and mirror clocks (the relaxed mode), or dense lockstep / bounded-stale
  exchange as baselines, chosen by the algorithm kind.
* FedAvgNode: rounds of local steps followed by a dense model average.
* DgcNode: synchronized sparse all-reduce of top-k update coordinates with
  momentum correction and a warm-up sparsity ramp.

Nodes are state machines driven by Simulator wake and delivery events: a
node computes for its DC's configured compute time per minibatch, then
exchanges according to its algorithm, and blocks whenever its gates say so.
A blocked node does nothing until a delivery changes its view.

Every node reads the `algorithm` section (harness.AlgoCfg) and holds one
replica in _NodeBase: the weights w, the velocity u and the momentum m. A
model that several replicas share is computed and checked once per run: a
DGC step's global model, written into one of two buffers (StepModels), and
a FedAvg round's average (RoundModel).
The message plumbing is shared there too: it receives, forwards the copies
an overlay hub must re-broadcast, broadcasts, and gathers the shares of a
synchronous round (a FedAvg average, a DGC step); each kind of message is
one fixed record. A node class supplies its algorithm and declares the
policies a run reads off it (_NodeBase).
NODE_CLASSES maps each algorithm kind to the class that runs it.
"""

import math
from bisect import bisect_right
from operator import itemgetter

import numpy as np

from . import psync, wansim
from .numerics import StepDecay, clip_by_norm, lr_at, momentum_step
from .psync import (
    SoftCtl, WeightShard, accumulate_and_flush, apply_barrier,
    clear_barrier_on_update, gate_read, soft_threshold_adjust, ssp_gate,
)
from .rng import seed_stream
from .skewscout import DGC_EWARM_GRID, FEDAVG_ITER_GRID, GAIA_T0_GRID
from .wansim import KIND_BARRIER, KIND_TRAVEL   # read on every delivery

WARMUP_SCHEDULE = (75.0, 93.75, 98.4375, 99.6, 99.9)

# a node's states (_NodeBase); BLOCKED is keyed by gate-trace kind
IDLE, COMPUTING, ROUND_WAIT, DONE = "idle", "computing", "round-wait", "done"
BLOCKED = {kind: f"blocked-{kind}" for kind in ("mirror", "ssp", "barrier")}
_MAY_START = frozenset((IDLE, *BLOCKED.values()))


def warmup_sparsity(epoch, e_warm):
    """Warm-up sparsity percentage for a 1-indexed epoch.

    The ramp advances one stage every e_warm epochs and saturates at the
    last stage: epoch 1 with e_warm=4 gives stage 1 (75%), epoch 17 gives
    the terminal 99.9%.
    """
    if epoch < 1:
        raise ValueError(f"epoch is 1-indexed, got {epoch}")
    if e_warm < 1:
        raise ValueError(f"e_warm must be >= 1, got {e_warm}")
    stage = min(math.ceil(epoch / e_warm), len(WARMUP_SCHEDULE))
    return WARMUP_SCHEDULE[stage - 1]


def dgc_select(v, sparsity_pct, scratch=None):
    """Indices to emit: the ceil((1-s)*M) largest |v|, ties to lowest index.

    NaN ranks below every number. Returned sorted by index. The key is
    ranked in scratch (an array the caller no longer needs) or a new one.
    """
    m = v.size
    k = math.ceil((1.0 - sparsity_pct / 100.0) * m)
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    if k >= m:
        return np.arange(m, dtype=np.intp)
    # rank by -|v| ascending; partition, like sort, places NaN last, and
    # negation is exact, so -|v| < -kth exactly where |v| > kth
    key = np.abs(v, out=scratch)
    np.negative(key, out=key)
    key.partition(k - 1)
    kth = -key[k - 1]
    key = np.abs(v, out=key)
    if kth != kth:            # NaN: every number ranks above it
        tied = np.isnan(key)
        above = ~tied
    else:
        above, tied = key > kth, key == kth
    above[tied.nonzero()[0][:k - np.count_nonzero(above)]] = True
    return above.nonzero()[0]


class _NodeBase:
    """What every node shares: the replica, compute scheduling, counters,
    hooks, and the message plumbing.

    The replica is the float64 weights w, the velocity u and the momentum m
    of the algorithm section `algo`, which is shared by every node and
    never mutated. Steps and applied updates write into w and u in place,
    so a dense payload, which peers read after the sender's next step, is
    sent as a copy. A FedAvg step writes its new w into its spent gradient
    instead, so its share is w itself. A model that several replicas share
    is computed once per run: a DGC node's w is one of the two model
    buffers its run's nodes share (StepModels), and a FedAvg node that
    completes a round binds w to the round's average (RoundModel), which
    stays shared and read-only until its next step. So callers treat
    node.w as read-only: hooks and peers read it, and copy what they keep.
    A message's payload is one fixed record: a gaia, bsp or ssp flush is
    (clock, idx, vals), idx None for a dense update and empty when only the
    clock moves; a barrier's is the psync.BarrierMsg itself; a FedAvg or DGC
    share is (round, share); and a SkewScout travel is (boundary, w, stats,
    local). The base receives (travels go to travel_sink, anything else to
    _receive), forwards overlay copies a hub must re-broadcast, broadcasts,
    and computes each minibatch gradient at w: batch(idx), one function per
    run, builds the minibatch of the indexes idx that stream hands out,
    once per step. A broadcast or a hub's forward is one sim.send of one
    message with the hops sim.hops built once, and each link delivers it
    to its receiving node; receivers share the message and only read it.

    A node's state is IDLE, COMPUTING, ROUND_WAIT, BLOCKED[gate kind] or
    DONE (budget spent, diverged or stopped), which is final; try_start
    starts a step only from IDLE or BLOCKED. Every wake calls it; a delivery
    calls it only when it can start a step, by one rule in on_message. A
    synchronous round is gathered here: _share keeps this node's share of a
    round, broadcasts it and holds the node (ROUND_WAIT); each peer's share
    lands in _gathered, and _try_complete runs while the node is held, so a
    stopped node never completes a round. _gather returns a round's shares
    once every member's has arrived; a round's shares come only from its
    members, so it counts them before it looks any up. A held node has
    gathered its round once and found it short, and only a share of that
    round can complete it, so _receive calls _try_complete only for the
    share that brings the count _gather left in _awaited to full. The
    learning rate is the local epoch's, computed once per epoch.

    A subclass supplies the algorithm: _ready (may the next step start
    now?), _local_step (apply one gradient at a learning rate, and
    exchange), set_knob (the knob SkewScout tunes), and either its own
    _receive or _try_complete. It declares the policies a run reads off
    it: _knobs, _budgets, _spacing, _per_round and _row_alone.
    The gradient is the step's one model-sized array; once applied it is
    scratch, which a sparse exchange ranks or scores its update in.
    """

    # the kinds the class runs -> (the AlgoCfg field SkewScout tunes, its
    # default grid), or None when the kind has no knob
    _knobs = {}
    _per_round = False    # rows and boundaries per round, not epoch and step
    _row_alone = False    # a row evaluates the trigger alone, not every node
    inbox = ()            # updates held back (GaiaNode's own list)
    _short = 0            # peers a shut clock gate still waits on (GaiaNode)

    def __init__(self, name, index, model, batch, stream, compute_s,
                 max_iters, w0, algo, peers):
        self.name = name
        self.index = index
        self.model = model
        self.batch = batch
        self.stream = stream
        self.lr_schedule = StepDecay(**algo.lr)
        self._eta = lr_at(self.lr_schedule, 0)   # the local epoch's rate
        self.compute_s = compute_s
        self.max_iters = max_iters
        self.peers = list(peers)
        self.members = sorted([name, *peers])     # the exchange, in name order
        self.algo = algo
        self.w = self._replica(w0)
        # calloc'd, so set-up touches none of its pages; the first step
        # writes them, and every later step updates w and u in place
        self.u = np.zeros(self.w.size)
        self.m = float(algo.momentum)
        self.iters_done = 0
        self.state = IDLE
        self.diverged = False
        self._gathered = {}           # round -> {member: share}
        self._awaited = None          # (round, shares) a held node awaits
        self.epoch_hook = None        # fn(node, sim) at each local epoch end
        self._lockstep = False        # rows wait for the peers' boundary clock
        self._row_pending = False     # a row waits at clock iters_done
        self.iter_hook = None         # fn(node, sim) after every iteration
        self.travel_sink = None       # fn(node, sim, msg) for travel payloads

    @property
    def batches_per_epoch(self):
        return self.stream.batches_per_epoch

    @property
    def epochs_done(self):
        return self.iters_done // self.batches_per_epoch

    @property
    def stopped(self):
        return self.state == DONE

    def _begin_compute(self, sim):
        self.state = COMPUTING
        sim.wake_at(sim.now + self.compute_s, self.name)

    def on_wake(self, sim):
        if self.state == COMPUTING:     # its one wake: the step's end
            self.state = IDLE
            self._finish_iteration(sim)
        self.try_start(sim)

    def on_message(self, sim, msg):
        if msg.kind != KIND_TRAVEL:
            self._receive(sim, msg)
        elif self.travel_sink:
            self.travel_sink(self, sim, msg)
        if msg.forward:
            self._forward_in_group(sim, msg)
        # a delivery enters the gate check only when it can start a step:
        # the node may start, and its inbox or a row waits, or no clock gate
        # is known shut and no barrier holds it (what _ready checks before
        # any gate)
        state = self.state
        if state in _MAY_START and (
                self.inbox or self._row_pending
                or not (self._short or state == BLOCKED["barrier"])):
            self.try_start(sim)

    def _forward_in_group(self, sim, msg):
        """Re-broadcast a hub's inter-group copy within the hub's group."""
        sim.send(wansim.Message(msg.kind, self.name, None, msg.byte_split,
                                msg.payload, msg.origin, nbytes=msg.nbytes),
                 sim.hops(self.name, msg.origin))

    def _broadcast(self, sim, byte_split, payload, nbytes=None):
        """Offer one copy per first hop, in one send; nbytes, when given,
        is byte_split's total."""
        kind = (wansim.KIND_UPDATE if wansim.KIND_UPDATE in byte_split
                else wansim.KIND_CLOCK)
        sim.send(wansim.Message(kind, self.name, None, byte_split, payload,
                                nbytes=nbytes),
                 sim.hops(self.name, self.name))

    def _share(self, sim, rnd, byte_split, share):
        """Keep this node's share of round rnd, broadcast it, and hold until
        the round completes. The kept and the sent share are one object,
        which no receiver writes into."""
        self._gathered.setdefault(rnd, {})[self.name] = share
        self._broadcast(sim, byte_split, (rnd, share))
        self.state = ROUND_WAIT
        self._try_complete(sim)

    def _receive(self, sim, msg):
        rnd, share = msg.payload
        have = self._gathered.setdefault(rnd, {})
        have[msg.origin] = share
        # a held node's round was incomplete when it was last gathered, and
        # only a share of that round can complete it
        if self.state == ROUND_WAIT and (rnd, len(have)) == self._awaited:
            self._try_complete(sim)

    def _replica(self, w0):
        """The node's weights at the start: its own copy of w0."""
        return np.array(w0, dtype=np.float64)

    def _gather(self, rnd, members):
        """The shares of round rnd in member order, or None while one is
        missing (then _awaited is rnd and its member count, which _receive
        compares each share's round and count with). A complete round is
        forgotten and the node released."""
        have = self._gathered.get(rnd)
        # only members share a round, so a full count is a complete round
        if have is None or len(have) < len(members):
            self._awaited = (rnd, len(members))
            return None
        del self._gathered[rnd]
        self.state = IDLE
        return [have[m] for m in members]

    def try_start(self, sim):
        if self.state in _MAY_START and self._ready(sim):
            self._begin_compute(sim)

    def _ready(self, sim):
        return True

    def _finish_iteration(self, sim):
        """The next minibatch's gradient at the current weights and the
        current local epoch's learning rate, handed to _local_step."""
        # the minibatch stays referenced until the step returns: releasing
        # it earlier reorders the heap's later large allocations, which made
        # run set-up ~45% slower in the mlp-5dc benchmark
        batch = self.batch(self.stream.next_batch())
        _, grad = self.model.loss_and_grad(self.w, batch,
                                           update_stats=True)
        self._local_step(sim, grad, self._eta)

    def _after_iteration(self, sim, finite=None):
        """The divergence check (unless the caller knows whether w is
        finite), the hooks and the budget, after an iteration."""
        if finite is None:
            finite = np.logical_and.reduce(np.isfinite(self.w))
        if not finite:
            self.diverged = True
            self.state = DONE
        if self.iters_done % self.batches_per_epoch == 0:
            self._eta = lr_at(self.lr_schedule, self.epochs_done)
            if self.epoch_hook and self._lockstep:  # waits in _drain_inbox
                self._row_pending = True
            elif self.epoch_hook:
                self.epoch_hook(self, sim)
        if self.iter_hook:
            self.iter_hook(self, sim)
        if self.max_iters is not None and self.iters_done >= self.max_iters:
            self.state = DONE

    def settle(self, sim):
        """Take a row still waiting when the run ends."""
        if self._row_pending:
            self._drain_inbox(sim, final=True)

    @classmethod
    def _budgets(cls, algo, streams, dcs, seed, scouted, w0):
        """Each node's budget and run-wide arguments, in node order, given
        every node's stream, the DC names, the run's seed, whether SkewScout
        is on and the initial weights: max_iters, epochs x the node's own
        batches per epoch."""
        return [{"max_iters": algo.epochs * s.batches_per_epoch}
                for s in streams]

    @classmethod
    def _spacing(cls, algo, bpe):
        """SkewScout's default boundary spacing: a local epoch of steps."""
        return bpe


# ---------------------------------------------------------------------------
# significance-filtered or dense exchange


class GaiaNode(_NodeBase):
    """One data center's worker+server pair.

    Its kind decides both what is emitted after each local step (gaia: a
    significance-filtered slice of the accumulated update; bsp and ssp: the
    whole dense update) and what gates the next step (gaia: mirror clock +
    selective barrier; bsp and ssp: a staleness bound on known peer clocks,
    0 for bsp).

    The hard significance threshold starts at algo.t0 and decays with the
    learning rate (decay "lr": by the factor of each drop) or as
    t0 / sqrt(t) on every iteration (decay "invsqrt"). Soft control
    (psync.SoftCtl) runs exactly when algo.soft is set.

    The node's clock is iters_done. Its production rate, _rate, is the
    bytes/s of each flush (payload and clock) over the time since the last
    one, smoothed with weight 0.5 on the newest, and None before the first.
    A non-empty flush announces a barrier (its own idx) on every first hop
    the rate exceeds, and soft control compares the rate with each first
    hop's bandwidth. An inbox record is a received flush that carries
    values, as (clock, origin, idx, vals).

    A blocked node (BLOCKED[kind] of its first shut gate) waits for
    something, and re-checks its gates only when that has moved. Its clock
    stands still while it is blocked and mirror clocks only grow, so a
    clock gate (mirror or SSP) that needs every peer at _need or above
    stays shut while _short, the number of peers still below _need, is
    positive; _receive counts the peers that cross it. A barrier gate can
    open only when an update clears barrier entries, so it is re-checked
    only after one has. on_message holds that decision: a delivery enters
    the gate check (try_start, then _ready) only when the node may start
    and its inbox or a row waits, or it is neither clock-short nor
    barrier-blocked. So a delivery to a node that may start still drains a
    non-empty inbox (an update it would drain alone lands in _receive).
    A traced run (Simulator(trace=True)) takes the same decisions and
    appends a row to sim.gate_trace for each gate it checks.

    A bsp node with peers is lockstep: its row (epoch_hook) at boundary
    clock t describes w holding exactly the updates of clocks <= t, so the
    row waits in _drain_inbox for every peer's clock-t update, the node
    blocked-ssp meanwhile; settle takes one still waiting when the run
    ends, the node done at its budget.
    """

    _knobs = {"gaia": ("t0", GAIA_T0_GRID), "bsp": None, "ssp": None}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        algo = self.algo
        self._filtered = algo.kind == "gaia"
        self._staleness = 0 if algo.kind == "bsp" else algo.staleness
        self._lockstep = self._row_alone = (algo.kind == "bsp"
                                            and bool(self.peers))
        self._soft = SoftCtl(**algo.soft) if algo.soft else None
        self.shard = WeightShard.fresh(self.w, peers=self.peers,
                                       accumulate=self._filtered)
        self.inbox = []
        self._last_eta = None
        self._last_flush_time = 0.0
        self._rate = None
        self._t0 = self.t_hard = self.t_soft = algo.t0
        self.sig_counts = {}       # epoch -> [emitted, scored]
        # a clock wait (see the class docstring): _short is always the
        # number of peers whose mirror clock is below _need
        self._need = 0
        self._short = 0
        if not self._filtered:     # a dense flush's split, of a fixed size
            self._dense_split = {
                wansim.KIND_UPDATE: wansim.dense_update_bytes(self.w.size),
                wansim.KIND_CLOCK: wansim.CLOCK_BYTES}
            self._dense_nbytes = sum(self._dense_split.values())

    def set_knob(self, theta):
        """Restart the significance threshold at theta."""
        self._t0 = self.t_hard = theta
        self.t_soft = min(self.t_soft, theta)

    # -- receiving ---------------------------------------------------------

    def _receive(self, sim, msg):
        if msg.kind == KIND_BARRIER:
            apply_barrier(self.shard, msg.payload)
            return
        clock, idx, vals = msg.payload
        clocks, origin = self.shard.mirror_clocks, msg.origin
        known = clocks[origin]
        if clock > known:
            clocks[origin] = clock
            if known < self._need <= clock:
                self._short -= 1
        if idx is not None and not idx.size:   # clock only: see _drain_inbox
            return
        # a lone update clearing no barrier lands now, as the drain would
        if (self.inbox or self._row_pending or self.state not in _MAY_START
                or origin in self.shard.barrier_waits):
            self.inbox.append((clock, origin, idx, vals))
        elif idx is None:
            self.w += vals
        else:
            self.w[idx] += vals

    def _drain_inbox(self, sim, final=False):
        """Apply the inbox to w in place, in (clock, origin, arrival) order;
        True when an applied sparse update came from a source with barrier
        entries. Dense updates come only from bsp and ssp nodes, which
        announce no barriers. A clock-only flush, a control message that may
        pass an older flush on its link, never enters: it would release
        that flush's barrier.

        While a row waits at clock t, records of later clocks stay in the
        inbox, for a fast peer's clock-(t+1) update may land before a slow
        peer's clock-t one. Once every peer's clock is t or more (or when
        final), the row is taken and the rest applied."""
        inbox = self.inbox
        if len(inbox) > 1:
            # stable: records of one (clock, origin) keep their arrival order
            inbox.sort(key=itemgetter(0, 1))
        t = self.iters_done if self._row_pending else None
        cut = len(inbox) if t is None else bisect_right(
            inbox, t, key=itemgetter(0))
        w = self.w
        waits = self.shard.barrier_waits
        cleared = False
        for clock, origin, idx, vals in inbox[:cut]:
            if idx is None:
                w += vals
                continue
            w[idx] += vals
            cleared = cleared or origin in waits
            clear_barrier_on_update(self.shard, origin, clock, idx)
        del inbox[:cut]
        if t is not None and (
                final or min(self.shard.mirror_clocks.values()) >= t):
            self._row_pending = False
            self.epoch_hook(self, sim)
            return self._drain_inbox(sim) or cleared
        return cleared

    # -- gating ------------------------------------------------------------

    def _true_min_peer_clock(self, sim):
        """The registered peers' slowest clock, read for the gate trace."""
        clocks = [sim.nodes[p].iters_done for p in self.peers if p in sim.nodes]
        return min(clocks) if clocks else self.iters_done

    def _clock_gate(self, sim, kind, slack):
        """A gate (mirror or ssp, by kind) on the slowest known peer clock:
        kind when it is shut, else None. A block records the clock every
        peer must reach and how many are still short of it."""
        local = self.iters_done
        clocks = self.shard.mirror_clocks
        slowest = min(clocks.values())
        allow = ssp_gate(local, slowest, slack)
        if sim.trace:
            sim.gate_trace.append((
                sim.now, self.name, kind, local, slowest,
                self._true_min_peer_clock(sim), allow))
        if not allow:
            need = self._need = local - slack
            self._short = len([c for c in clocks.values() if c < need])
        return None if allow else kind

    def _barrier_gate(self, sim):
        """'barrier' if the next step's reads meet a barrier, else None."""
        if not self.shard.barrier_waits:
            return None
        read_set = self.model.touched(self.stream.peek())
        # a dense read (None) meets every outstanding entry
        shut = read_set is None or gate_read(self.shard, read_set).size > 0
        if sim.trace:
            sim.gate_trace.append((
                sim.now, self.name, "barrier", self.iters_done,
                gate_read(self.shard, read_set).size,
                self._true_min_peer_clock(sim), not shut))
        return "barrier" if shut else None

    def _shut_gate(self, sim):
        """The kind of the first gate that holds the next step, or None."""
        if not self.peers:
            return None
        if not self._filtered:
            return self._clock_gate(sim, "ssp", self._staleness)
        algo = self.algo
        return (algo.mirror and self._clock_gate(sim, "mirror", algo.ds)
                or algo.barrier and self._barrier_gate(sim) or None)

    def _ready(self, sim):
        cleared = (self.inbox or self._row_pending) and self._drain_inbox(sim)
        # a row taken in the drain may have stopped the run
        if self.state == DONE or self._short or (
                self.state == BLOCKED["barrier"] and not cleared):
            return False
        shut = self._shut_gate(sim)
        if shut:
            self.state = BLOCKED[shut]
        return not shut

    # -- the local step ----------------------------------------------------

    def _local_step(self, sim, grad, eta):
        momentum_step(self.w, self.u, self.m, grad, eta)
        self.iters_done += 1
        # grad is spent: the filter scores in it, or it carries u's copy,
        # which peers apply after this node's next step rewrites u
        if self._filtered:
            self._filtered_exchange(sim, eta, grad)
        elif self.peers:
            np.copyto(grad, self.u)
            self._broadcast(sim, self._dense_split,
                            (self.iters_done, None, grad), self._dense_nbytes)
        self._last_eta = eta
        self._after_iteration(sim)

    def _filtered_exchange(self, sim, eta, scratch):
        algo = self.algo
        self.shard.v += self.u
        # the hard threshold decays by the factor of an lr drop, or as
        # t0 / sqrt(t) on every iteration; t_soft is capped at it, which
        # moves it only after a decay: soft_threshold_adjust keeps it there
        if algo.decay == "lr" and self._last_eta is not None and eta < self._last_eta:
            self.t_hard = self.t_hard * (eta / self._last_eta)
        elif algo.decay == "invsqrt":
            self.t_hard = self._t0 / np.sqrt(self.iters_done)
        self.t_soft = min(self.t_soft, self.t_hard)
        t_eff = self.t_soft if self._soft else self.t_hard
        idx, vals = accumulate_and_flush(self.shard, self.w, t_eff, scratch)
        epoch = (self.iters_done - 1) // self.batches_per_epoch
        counts = self.sig_counts.setdefault(epoch, [0, 0])
        counts[0] += int(idx.size)
        counts[1] += int(self.shard.v.size)
        if not self.peers:
            return
        # the clock moves with every flush, the update when it has entries
        split = ({wansim.KIND_UPDATE: wansim.sparse_update_bytes(idx.size)}
                 if idx.size else {})
        split[wansim.KIND_CLOCK] = wansim.CLOCK_BYTES
        elapsed = sim.now - self._last_flush_time
        if elapsed > 0:
            inst = sum(split.values()) / elapsed
            self._rate = inst if self._rate is None else (
                (1.0 - 0.5) * self._rate + 0.5 * inst)
        self._last_flush_time = sim.now
        # before the first observation, 0: below every (positive) bandwidth
        rate = self._rate or 0.0
        # the barrier decisions and the utilization compare the rate with
        # the first-hop links only; hub forwarding is mechanical
        hops = sim.hops(self.name, self.name)
        saturated = algo.barrier and idx.size and [
            (channel, False) for channel, _fw in hops
            if rate > channel.bandwidth]
        if saturated:
            # one announcement of this flush, naming its own idx, serves
            # every saturated first hop
            sim.send(wansim.Message(
                wansim.KIND_BARRIER, self.name, None,
                {wansim.KIND_BARRIER: wansim.barrier_bytes(idx.size)},
                psync.BarrierMsg(self.name, self.iters_done, idx)), saturated)
        self._broadcast(sim, split, (self.iters_done, idx, vals))
        if self._soft and hops:
            utilization = max(rate / channel.bandwidth for channel, _fw in hops)
            self.t_soft = soft_threshold_adjust(
                self._soft, utilization, self.t_soft, self.t_hard)


# ---------------------------------------------------------------------------
# federated averaging


class RoundModel:
    """A FedAvg run's newest round average, shared by the nodes that
    complete that round: w averages round rnd (-1 before any round).

    The first node to complete round r computes it. A node that completes
    an older round, one it sat out while the holder moved on, computes its
    own. No node writes into an average: a node's next step writes its new
    weights into its own spent gradient.
    """

    def __init__(self):
        self.rnd = -1
        self.w = None


class FedAvgNode(_NodeBase):
    """Local momentum SGD punctuated by a dense model average every
    iter_local steps. Rounds are synchronous: a node holds at the round
    boundary until every participant's model for that round has arrived.

    The run's nodes share each round's average (rounds, a RoundModel): a
    node that completes a round binds w to it, and w stays shared and
    read-only until the node's next step. Every step writes w + u into
    the step's spent gradient, which is the node's own w from then on."""

    _knobs = {"fedavg": ("iter_local", FEDAVG_ITER_GRID)}
    _per_round = True

    def __init__(self, *args, max_rounds, rounds, participants_fn=None,
                 **kwargs):
        super().__init__(*args, max_iters=None, **kwargs)
        self.iter_local = int(self.algo.iter_local)
        self.max_rounds = max_rounds
        self.round = 0
        self._steps_in_round = 0
        self._rounds = rounds
        # participants_fn(round) -> participant names, called once a round
        self.participants_fn = participants_fn
        self._picked = (None, self.members)   # (round, its sorted pick)
        self.round_hook = None

    def set_knob(self, theta):
        """Average every theta local steps from the next round on."""
        self.iter_local = int(theta)

    @classmethod
    def _budgets(cls, algo, streams, dcs, seed, scouted, w0):
        """Every node's: each round's seeded pick of participants, the
        run's one RoundModel, and the trigger's epochs in rounds. Under
        SkewScout, which may change iter_local mid-run, the trigger's
        round_hook ends the run once the trigger has trained its epochs, N
        steps; every round the trigger joins is one step or more, so no
        node completes the round of the trigger's (N+1)-th share, and the
        cap is one round past it."""
        participants_fn = None
        if algo.client_fraction < 1.0:
            names = sorted(dcs)
            n_pick = max(1, int(round(algo.client_fraction * len(dcs))))

            def participants_fn(rnd):
                rng = seed_stream(seed, "fedavg", "round", str(rnd))
                pick = rng.choice(len(names), size=n_pick, replace=False)
                return sorted(names[int(i)] for i in pick)

        n_steps = algo.epochs * streams[0].batches_per_epoch
        if not scouted:
            max_rounds = math.ceil(n_steps / algo.iter_local)
        else:
            max_rounds = shares = 0
            while shares <= n_steps:
                shares += (participants_fn is None
                           or dcs[0] in participants_fn(max_rounds))
                max_rounds += 1
        return [dict(max_rounds=max_rounds, rounds=RoundModel(),
                     participants_fn=participants_fn)] * len(streams)

    @classmethod
    def _spacing(cls, algo, bpe):
        """A local epoch of rounds, at least one."""
        return max(1, round(bpe / algo.iter_local))

    def _ready(self, sim):
        if self.name in self._members_this_round():
            return True
        # sitting this round out: adopt the average once it is complete
        self.state = ROUND_WAIT
        self._try_complete(sim)
        return False

    def _members_this_round(self):
        fn = self.participants_fn
        if fn and self._picked[0] != self.round:
            self._picked = (self.round, sorted(fn(self.round)))
        return self._picked[1]

    def _local_step(self, sim, grad, eta):
        # w + u goes into the spent gradient: the bits of the in-place
        # step, without writing a shared round average
        momentum_step(self.w, self.u, self.m, grad, eta, out=grad)
        self.w = grad
        self.iters_done += 1
        self._steps_in_round += 1
        self._after_iteration(sim)
        if self.state != DONE and self._steps_in_round >= self.iter_local:
            self._steps_in_round = 0
            # w itself: the next step writes the node's new w elsewhere
            self._share(
                sim, self.round,
                {wansim.KIND_UPDATE: wansim.dense_update_bytes(self.w.size)},
                self.w)

    def _try_complete(self, sim):
        members = self._members_this_round()
        models = self._gather(self.round, members)
        if models is None:
            return
        held = self._rounds
        if held.rnd == self.round:
            w = held.w
        else:
            # the shares added in member order into a zeroed buffer: the
            # additions of np.stack(models).sum(axis=0), without the stack
            w = np.zeros(self.w.size)
            for share in models:
                w += share
            w /= len(members)
            if held.rnd < self.round:     # the first node to complete it
                held.rnd, held.w = self.round, w
        self.w = w
        self.round += 1
        if self.round_hook:
            self.round_hook(self, sim)
        if self.round >= self.max_rounds:
            self.state = DONE
        self.try_start(sim)


# ---------------------------------------------------------------------------
# sparse synchronized all-reduce


class StepModels:
    """A DGC run's global model, one per step, in two buffers that the run's
    nodes share: step t's model is bufs[t % 2], newest is the latest step
    written, and finite whether its model is finite.

    The first node to complete step t writes step t+1's model over step
    t-1's and checks it for divergence once. A node shares step t only
    after it has completed step t-1, so by then every node holds step t's
    model, and no node reads step t-1's; a peer still waiting at step t
    keeps reading step t's. No node completes step t+1 before every node
    has completed step t, so a node completing a step reads the newest
    step's finite.
    """

    def __init__(self, w0):
        self.bufs = (np.array(w0, dtype=np.float64), np.empty(len(w0)))
        self.newest = 0
        self.finite = True


class DgcNode(_NodeBase):
    """Per-step synchronous exchange of top-k momentum-corrected residuals,
    each step's update clipped to the section's clip_norm.

    A step's global model is the last one plus the sum of all emitted
    slices, applied in node order. The run's nodes share it (steps, a
    StepModels): the first node to complete a step computes it and checks
    it for divergence once, and every node binds w to it, so the replicas'
    weights are one array at each step and node.w is read-only to every
    caller. Sparsity follows the warm-up ramp by local epoch.
    """

    _knobs = {"dgc": ("e_warm", DGC_EWARM_GRID)}
    _row_alone = True             # every replica is the step-t model

    def __init__(self, *args, steps, **kwargs):
        self._steps = steps
        super().__init__(*args, **kwargs)
        self.v = np.zeros(self.w.size)   # calloc'd, like u
        self.e_warm = int(self.algo.e_warm)
        self.last_emitted = None

    def set_knob(self, theta):
        """Advance the warm-up ramp one stage every theta epochs."""
        self.e_warm = int(theta)

    @classmethod
    def _budgets(cls, algo, streams, dcs, seed, scouted, w0):
        """max_iters as in _NodeBase, and the run's one StepModels."""
        steps = StepModels(w0)
        budgets = super()._budgets(algo, streams, dcs, seed, scouted, w0)
        return [dict(b, steps=steps) for b in budgets]

    def _replica(self, w0):
        return self._steps.bufs[0]

    def _local_step(self, sim, grad, eta):
        grad *= -eta                  # the step -eta * grad, in grad's array
        step_vec = clip_by_norm(grad, self.algo.clip_norm)
        u = self.u
        u *= self.m
        u += step_vec
        self.v += u
        sparsity = warmup_sparsity(self.epochs_done + 1, self.e_warm)
        idx = dgc_select(self.v, sparsity, grad)   # grad is spent
        vals = self.v[idx]            # integer indexing copies: v is cleared next
        self.v[idx] = 0.0
        self.u[idx] = 0.0             # momentum correction
        self.last_emitted = (idx, vals)
        # the step being exchanged, 0-indexed, is the round
        self._share(
            sim, self.iters_done,
            {wansim.KIND_UPDATE: wansim.sparse_update_bytes(idx.size)},
            self.last_emitted)

    def _try_complete(self, sim):
        t = self.iters_done
        slices = self._gather(t, self.members)
        if slices is None:
            return
        steps = self._steps
        w = steps.bufs[(t + 1) % 2]
        if steps.newest == t:         # the first node to complete step t
            np.copyto(w, self.w)
            for idx, vals in slices:
                w[idx] += vals
            steps.newest = t + 1
            steps.finite = bool(np.logical_and.reduce(np.isfinite(w)))
        self.w = w
        self.iters_done += 1
        self._after_iteration(sim, steps.finite)
        self.try_start(sim)


# algorithm kind -> the node class that runs it
NODE_CLASSES = {kind: cls for cls in (GaiaNode, FedAvgNode, DgcNode)
                for kind in cls._knobs}
