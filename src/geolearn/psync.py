"""Synchronization state machines for training across slow links.

The relaxed discipline implemented here rests on three mechanisms:

* a significance filter: per-coordinate relative magnitude of the
  accumulated local update decides what is worth sending now; the rest
  keeps accumulating locally,
* a selective barrier: when significant updates are produced faster than a
  link can drain them, the sender first ships just the coordinate indexes
  of the flush (tiny, high priority). The barrier announces that flush, and
  a receiver blocks reads of its coordinates until the flush lands,
* mirror clocks: every node announces its iteration count; a node stops
  iterating when it would run more than `ds` clocks ahead of the slowest
  peer it has heard from.

Lockstep (every update exchanged every iteration) and bounded-staleness
gates are provided as the comparison baselines. All functions here are pure
state transitions; simulated time lives elsewhere.
"""

from dataclasses import dataclass, field

import numpy as np

EPS_WEIGHT = 1e-6


# ---------------------------------------------------------------------------
# significance


def significance_scores(v, w, out=None):
    """Per-coordinate relative significance of accumulated updates v against
    the weights w they perturb: |v| / d with d = max(|w|, EPS_WEIGHT),
    computed as |v / d| (the same bits, as d > 0, but for the sign of the
    NaN inf / inf makes) in out, an array the caller no longer needs, or new."""
    d = np.abs(w, out=out)
    np.maximum(d, EPS_WEIGHT, out=d)
    np.divide(v, d, out=d)
    return np.abs(d, out=d)


# ---------------------------------------------------------------------------
# shard state


@dataclass
class WeightShard:
    """One node's sync state around its replica (the weights, the velocity
    and the clock, which is the node's iters_done, live on the node).

    v is the update accumulated since the coordinate last cleared the
    significance filter, or None for a node of a dense kind (bsp, ssp),
    which sends its whole update every step and accumulates nothing; and
    mirror_clocks the latest clock heard from each peer.

    barrier_waits holds the selective barriers received and not yet
    released, as {source: {clock: indexes}}: one entry per announced flush
    that has not landed, keyed by the flush's clock, holding the sorted
    unique coordinates it will carry. A barrier is released when its flush
    lands. A source is present only while it has an entry, so an empty dict
    means nothing is blocked. The blocked coordinates are the union of the
    entries' indexes.
    """

    v: np.ndarray | None
    barrier_waits: dict = field(default_factory=dict)
    mirror_clocks: dict = field(default_factory=dict)

    @classmethod
    def fresh(cls, w, peers=(), accumulate=True):
        """Nothing accumulated and every clock at 0 for float64 weights w;
        v is allocated (calloc'd) only when the node accumulates."""
        v = np.zeros(np.shape(w)) if accumulate else None
        return cls(v=v, mirror_clocks={p: 0 for p in peers})


def accumulate_and_flush(shard, w, threshold, scratch=None):
    """Emit and clear every coordinate of v whose significance against the
    weights w, scored in scratch when given, exceeds threshold.

    Returns (indices, values) sorted by coordinate. Retained coordinates all
    score at or below the threshold afterwards, by construction.
    """
    if threshold < 0:
        raise ValueError(f"negative threshold: {threshold}")
    scores = significance_scores(shard.v, w, scratch)
    idx = np.nonzero(scores > threshold)[0]
    values = shard.v[idx]             # integer indexing copies: v is cleared next
    shard.v[idx] = 0.0
    return idx, values


# ---------------------------------------------------------------------------
# selective barrier


@dataclass(frozen=True)
class BarrierMsg:
    """Announcement of a flush still on its way: its clock and the indexes
    (sorted, unique intp array) it will carry."""

    source: str
    clock: int
    indexes: np.ndarray


def _sorted_unique(indexes):
    """indexes as a sorted, duplicate-free intp array.

    A strictly increasing input (every flush) is returned as is; anything
    else is sorted and deduplicated by comparing neighbours.
    """
    indexes = np.asarray(indexes, dtype=np.intp)
    if np.all(indexes[1:] > indexes[:-1]):
        return indexes
    indexes = np.sort(indexes)
    keep = np.empty(indexes.size, dtype=bool)
    keep[:1] = True
    np.not_equal(indexes[1:], indexes[:-1], out=keep[1:])
    return indexes[keep]


def maybe_emit_barrier(rate, bandwidth, pending_indexes, source, clock):
    """Barrier for the pending flush when the link cannot keep up.

    rate is the sender's smoothed significant-update production rate
    (bytes/s) and bandwidth the capacity of one of its links. Emits only
    when that link is saturated and there is something pending.
    """
    if rate <= bandwidth or len(pending_indexes) == 0:
        return None
    return BarrierMsg(source=source, clock=clock,
                      indexes=_sorted_unique(pending_indexes))


def apply_barrier(shard, msg):
    """Block reads of msg.indexes until the flush announced at msg.clock
    lands. The indexes are stored as they are, without a copy."""
    if len(msg.indexes) == 0:
        return
    shard.barrier_waits.setdefault(msg.source, {})[msg.clock] = np.asarray(
        msg.indexes, dtype=np.intp)


def clear_barrier_on_update(shard, source, clock, indexes):
    """Release every barrier of source announced at a clock <= clock, as
    source's flush of that clock, carrying indexes, lands.

    A barrier names exactly its flush's indexes and leaves before it on the
    same link, and one source's flushes land in clock order, so a flush
    releases only its own barrier. Releasing one of an older clock, or one
    naming a coordinate the flush does not carry, breaks that protocol and
    raises RuntimeError. The flush normally carries the very array its
    barrier named, which the check recognises by identity.
    """
    pending = shard.barrier_waits.get(source)
    if pending is None:
        return
    for announced_clock in [c for c in pending if c <= clock]:
        announced = pending.pop(announced_clock)
        if announced_clock != clock:
            raise RuntimeError(
                f"{source}'s flush at clock {clock} landed while its barrier "
                f"at clock {announced_clock} still awaits its own flush")
        if announced is not indexes and not np.isin(announced, indexes).all():
            raise RuntimeError(
                f"barrier of {source} at clock {clock} names coordinates "
                f"its flush does not carry")
    if not pending:
        del shard.barrier_waits[source]


def gate_read(shard, read_indexes):
    """Indices in the read set still barrier-blocked (empty array = allow);
    a read set of None reads every coordinate. The blocked coordinates are
    the union of the outstanding barriers' indexes."""
    if not shard.barrier_waits:
        return np.empty(0, dtype=np.intp)
    blocked = np.zeros(shard.v.size, dtype=bool)
    for pending in shard.barrier_waits.values():
        for indexes in pending.values():
            blocked[indexes] = True
    if read_indexes is None:
        return np.flatnonzero(blocked)
    read_indexes = np.asarray(read_indexes, dtype=np.intp)
    return _sorted_unique(read_indexes[blocked[read_indexes]])


# ---------------------------------------------------------------------------
# progress gates


def ssp_gate(worker_clock, slowest_clock, staleness):
    """True (allow) unless the worker would run more than staleness clocks
    ahead of the slowest; staleness 0 is lockstep. The mirror-clock gate is
    this gate with the slack ds."""
    if staleness < 0:
        raise ValueError(f"negative staleness: {staleness}")
    return worker_clock - slowest_clock <= staleness


# ---------------------------------------------------------------------------
# soft threshold control


@dataclass
class SoftCtl:
    """Best-effort extra sharing when the link has headroom.

    When utilization of the monitored link sits below `target`, the soft
    threshold is lowered (divided by `adjust`, floored at `floor` or at the
    hard threshold, whichever is lower); otherwise it is raised back toward
    the hard threshold. Without soft control a node
    filters at the hard threshold, which is the communication-cost-minimizing
    setting.
    """

    target: float = 0.8
    adjust: float = 2.0
    floor: float = 1e-4

    def __post_init__(self):
        if self.adjust <= 1.0:
            raise ValueError(f"adjust factor must exceed 1, got {self.adjust}")
        if not 0 < self.target <= 1:
            raise ValueError(f"target utilization must be in (0, 1], got {self.target}")


def soft_threshold_adjust(ctl, utilization, t_soft, t_hard):
    """Next soft threshold given measured link utilization in [0, 1].

    Never above t_hard: once the hard threshold has decayed below the floor,
    the floor gives way, since soft sharing may only send more than the hard
    threshold would.
    """
    if utilization < ctl.target:
        return min(t_hard, max(ctl.floor, t_soft / ctl.adjust))
    return min(t_hard, t_soft * ctl.adjust)
