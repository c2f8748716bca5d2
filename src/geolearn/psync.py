"""Synchronization state machines for training across slow links.

The relaxed discipline implemented here rests on three mechanisms:

* a significance filter: per-coordinate relative magnitude of the
  accumulated local update decides what is worth sending now; the rest
  keeps accumulating locally,
* a selective barrier: when significant updates are produced faster than a
  link can drain them, the sender first ships just the coordinate indexes
  (tiny, high priority) so receivers block reads of those coordinates until
  the real values arrive,
* mirror clocks: every node announces its iteration count; a node stops
  iterating when it would run more than `ds` clocks ahead of the slowest
  peer it has heard from.

Lockstep (every update exchanged every iteration) and bounded-staleness
gates are provided as the comparison baselines. All functions here are pure
state transitions; simulated time lives elsewhere.
"""

from dataclasses import dataclass, field

import numpy as np

from .numerics import MomentumState

EPS_WEIGHT = 1e-6


# ---------------------------------------------------------------------------
# significance


def significance_scores(v, w):
    """Per-coordinate relative significance of accumulated updates v against
    the weights w they perturb: |v| / max(|w|, EPS_WEIGHT)."""
    return np.abs(v) / np.maximum(np.abs(w), EPS_WEIGHT)


# ---------------------------------------------------------------------------
# shard state


@dataclass
class WeightShard:
    """One node's view of the shared parameter vector.

    w is the live weight vector, momentum the local velocity, v the update
    accumulated since the coordinate last cleared the significance filter.
    mirror_clocks holds the latest clock heard from each peer.

    barrier_waits maps a source that has sent barriers to an int64 array
    with one entry per coordinate: -1 when the coordinate is clear of that
    source, otherwise the newest barrier clock whose flush from that source
    has not arrived yet. A source's array exists only while at least one of
    its entries is outstanding, so an empty dict means nothing is blocked.
    Barrier clocks are non-negative.
    """

    w: np.ndarray
    momentum: MomentumState
    v: np.ndarray
    local_clock: int = 0
    barrier_waits: dict = field(default_factory=dict)
    mirror_clocks: dict = field(default_factory=dict)

    @classmethod
    def fresh(cls, w, m=0.9, peers=()):
        w = np.array(w, dtype=np.float64)
        return cls(
            w=w,
            momentum=MomentumState.zeros(w.size, m=m),
            v=np.zeros_like(w),
            mirror_clocks={p: 0 for p in peers},
        )


def accumulate_and_flush(shard, threshold):
    """Emit and clear every coordinate of v whose significance exceeds threshold.

    Returns (indices, values) sorted by coordinate. Retained coordinates all
    score at or below the threshold afterwards, by construction.
    """
    if threshold < 0:
        raise ValueError(f"negative threshold: {threshold}")
    scores = significance_scores(shard.v, shard.w)
    idx = np.nonzero(scores > threshold)[0]
    values = shard.v[idx].copy()
    shard.v[idx] = 0.0
    return idx, values


# ---------------------------------------------------------------------------
# threshold decay


@dataclass
class ThresholdSchedule:
    """Hard significance threshold over time.

    mode "lr": the threshold scales by the same factor the learning rate
    drops by (the default pairing with step schedules). mode "invsqrt":
    T_t = t0 / sqrt(t) on every iteration tick, the form matching the
    epsilon-convergence argument.
    """

    t0: float
    mode: str = "lr"

    def __post_init__(self):
        if self.mode not in ("lr", "invsqrt"):
            raise ValueError(f"unknown threshold decay mode {self.mode!r}")


@dataclass
class LrDropped:
    ratio: float  # new_lr / old_lr


@dataclass
class IterTick:
    t: int        # 1-indexed iteration count


def threshold_decay(schedule, t_prev, event):
    """Next hard threshold after a decay event."""
    if isinstance(event, LrDropped):
        if schedule.mode != "lr":
            return t_prev
        if not 0 < event.ratio <= 1:
            raise ValueError(f"lr drop ratio must be in (0, 1], got {event.ratio}")
        return t_prev * event.ratio
    if isinstance(event, IterTick):
        if schedule.mode != "invsqrt":
            return t_prev
        if event.t < 1:
            raise ValueError("iteration tick must be >= 1")
        return schedule.t0 / np.sqrt(event.t)
    raise TypeError(f"unknown decay event {type(event).__name__}")


# ---------------------------------------------------------------------------
# selective barrier


@dataclass(frozen=True)
class BarrierMsg:
    """Indexes (sorted, unique intp array) of a flush still on its way."""

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

    rate is the smoothed significant-update production rate toward one link
    (bytes/s) and bandwidth the link's capacity. Emits only when the link is
    saturated and there is something pending.
    """
    if rate <= bandwidth or len(pending_indexes) == 0:
        return None
    return BarrierMsg(source=source, clock=clock,
                      indexes=_sorted_unique(pending_indexes))


def apply_barrier(shard, msg):
    """Mark msg.indexes as read-blocked until the matching update lands."""
    idx = np.asarray(msg.indexes, dtype=np.intp)
    if idx.size == 0:
        return
    row = shard.barrier_waits.get(msg.source)
    if row is None:
        row = shard.barrier_waits[msg.source] = np.full(
            shard.w.size, -1, dtype=np.int64)
    # a repeated index writes the same value twice, so plain fancy
    # assignment is exact
    row[idx] = np.maximum(row[idx], msg.clock)


def clear_barrier_on_update(shard, source, clock, indexes):
    """Release barrier waits satisfied by an arrived update flush."""
    row = shard.barrier_waits.get(source)
    if row is None:
        return
    idx = np.asarray(indexes, dtype=np.intp)
    # clear entries (-1) pass the test too and are rewritten unchanged
    row[idx[row[idx] <= clock]] = -1
    if row.max() < 0:
        del shard.barrier_waits[source]


def gate_read(shard, read_indexes):
    """Indices in the read set still barrier-blocked (empty array = allow);
    a read set of None reads every coordinate."""
    if not shard.barrier_waits:
        return np.empty(0, dtype=np.intp)
    if read_indexes is None:
        read_indexes = np.arange(shard.w.size)
    read_indexes = np.asarray(read_indexes, dtype=np.intp)
    blocked = np.zeros(read_indexes.size, dtype=bool)
    for row in shard.barrier_waits.values():
        blocked |= row[read_indexes] >= 0
    return _sorted_unique(read_indexes[blocked])


# ---------------------------------------------------------------------------
# progress gates


def mirror_clock_gate(local_clock, min_remote_clock, ds):
    """True (allow) unless the node would run more than ds clocks ahead."""
    if ds < 0:
        raise ValueError(f"negative clock slack: {ds}")
    return local_clock - min_remote_clock <= ds


def ssp_gate(worker_clock, slowest_clock, staleness):
    """Bounded-staleness gate; staleness 0 is lockstep."""
    if staleness < 0:
        raise ValueError(f"negative staleness: {staleness}")
    return worker_clock - slowest_clock <= staleness


# ---------------------------------------------------------------------------
# soft threshold control


@dataclass
class SoftCtl:
    """Best-effort extra sharing when the link has headroom.

    When utilization of the monitored link sits below `target`, the soft
    threshold is lowered (divided by `adjust`, floored); otherwise it is
    raised back toward the hard threshold. Disabled control pins the soft
    threshold to the hard one, which is the communication-cost-minimizing
    setting.
    """

    enabled: bool = False
    target: float = 0.8
    adjust: float = 2.0
    floor: float = 1e-4

    def __post_init__(self):
        if self.adjust <= 1.0:
            raise ValueError(f"adjust factor must exceed 1, got {self.adjust}")
        if not 0 < self.target <= 1:
            raise ValueError(f"target utilization must be in (0, 1], got {self.target}")


def soft_threshold_adjust(ctl, utilization, t_soft, t_hard):
    """Next soft threshold given measured link utilization in [0, 1]."""
    if not ctl.enabled:
        return t_hard
    if utilization < ctl.target:
        return max(ctl.floor, t_soft / ctl.adjust)
    return min(t_hard, t_soft * ctl.adjust)
