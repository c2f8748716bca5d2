import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geolearn.psync import (BarrierMsg, IterTick, LrDropped,
                            SoftCtl, ThresholdSchedule, WeightShard,
                            accumulate_and_flush, apply_barrier,
                            clear_barrier_on_update, gate_read,
                            maybe_emit_barrier, mirror_clock_gate,
                            significance_scores, ssp_gate,
                            soft_threshold_adjust, threshold_decay)


# ---------------------------------------------------------------------------
# significance


def test_relative_significance_oracle():
    assert significance_scores(np.array([0.5]),
                               np.array([10.0]))[0] == pytest.approx(0.05)
    assert significance_scores(np.array([-0.5]),
                               np.array([10.0]))[0] == pytest.approx(0.05)
    # tiny weights fall back to the epsilon denominator
    assert significance_scores(np.array([1e-3]),
                               np.array([0.0]))[0] == pytest.approx(1e-3 / 1e-6)


def test_significance_scores_vectorized_matches_scalar():
    v = np.array([0.5, -0.5, 0.0, -2.0, 1e-3])
    w = np.array([10.0, 10.0, 1.0, 4.0, 0.0])
    # |v| / |w|; a zero weight falls back to the epsilon denominator
    np.testing.assert_allclose(significance_scores(v, w),
                               [0.05, 0.05, 0.0, 0.5, 1e-3 / 1e-6])


# ---------------------------------------------------------------------------
# accumulate and flush


def test_accumulate_and_flush_oracle():
    shard = WeightShard.fresh(np.array([10.0, 10.0, 10.0]))
    shard.v[:] = [0.5, 2.0, -3.0]      # scores 0.05, 0.2, 0.3
    idx, vals = accumulate_and_flush(shard, 0.1)
    np.testing.assert_array_equal(idx, [1, 2])
    np.testing.assert_array_equal(vals, [2.0, -3.0])
    np.testing.assert_array_equal(shard.v, [0.5, 0.0, 0.0])


def test_accumulate_and_flush_rejects_negative_threshold():
    with pytest.raises(ValueError):
        accumulate_and_flush(WeightShard.fresh(np.ones(2)), -0.1)


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=12),
       st.floats(0.0, 2.0))
@settings(max_examples=60)
def test_flush_leaves_only_subthreshold_residue(vals, threshold):
    w = np.full(len(vals), 5.0)
    shard = WeightShard.fresh(w)
    shard.v[:] = vals
    idx, flushed = accumulate_and_flush(shard, threshold)
    # emitted values carried the accumulated update out exactly
    residue = significance_scores(shard.v, shard.w)
    assert np.all(residue <= threshold + 1e-12)
    # flushed + residue reconstructs the original accumulation
    rebuilt = shard.v.copy()
    rebuilt[idx] += flushed
    np.testing.assert_allclose(rebuilt, vals)


# ---------------------------------------------------------------------------
# threshold decay


def test_threshold_decay_follows_lr_drops():
    sched = ThresholdSchedule(t0=0.02, mode="lr")
    t = threshold_decay(sched, 0.02, LrDropped(ratio=0.1))
    assert t == pytest.approx(0.002)
    # invsqrt schedule ignores lr events
    sched2 = ThresholdSchedule(t0=0.02, mode="invsqrt")
    assert threshold_decay(sched2, 0.01, LrDropped(ratio=0.1)) == 0.01


def test_threshold_decay_invsqrt_oracle():
    sched = ThresholdSchedule(t0=0.1, mode="invsqrt")
    assert threshold_decay(sched, 1.0, IterTick(t=4)) == pytest.approx(0.05)
    assert threshold_decay(sched, 1.0, IterTick(t=1)) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        threshold_decay(sched, 1.0, IterTick(t=0))


def test_threshold_schedule_validates_mode():
    with pytest.raises(ValueError):
        ThresholdSchedule(t0=0.1, mode="linear")


# ---------------------------------------------------------------------------
# selective barrier


def test_barrier_emitted_only_when_saturated():
    assert maybe_emit_barrier(100.0, 200.0, [1, 2], "a", 5) is None
    assert maybe_emit_barrier(300.0, 200.0, [], "a", 5) is None
    msg = maybe_emit_barrier(300.0, 200.0, [3, 1, 3], "a", 5)
    assert (msg.source, msg.clock, list(msg.indexes)) == ("a", 5, [1, 3])


def test_barrier_block_and_release_cycle():
    shard = WeightShard.fresh(np.zeros(4))
    # an announcement of nothing blocks nothing
    apply_barrier(shard, BarrierMsg(source="b", clock=1, indexes=()))
    assert shard.barrier_waits == {}
    apply_barrier(shard, BarrierMsg(source="b", clock=3, indexes=(0, 2)))
    np.testing.assert_array_equal(gate_read(shard, [0, 1]), [0])
    np.testing.assert_array_equal(gate_read(shard, [1, 3]), [])
    # an older flush does not release a newer barrier
    clear_barrier_on_update(shard, "b", 2, [0])
    np.testing.assert_array_equal(gate_read(shard, [0]), [0])
    # the matching flush does
    clear_barrier_on_update(shard, "b", 3, [0, 2])
    np.testing.assert_array_equal(gate_read(shard, [0, 2]), [])
    assert shard.barrier_waits == {}


def test_barrier_tracks_sources_independently():
    shard = WeightShard.fresh(np.zeros(2))
    apply_barrier(shard, BarrierMsg(source="b", clock=1, indexes=(0,)))
    apply_barrier(shard, BarrierMsg(source="c", clock=4, indexes=(0,)))
    clear_barrier_on_update(shard, "b", 1, [0])
    # c's barrier still holds
    np.testing.assert_array_equal(gate_read(shard, [0]), [0])
    clear_barrier_on_update(shard, "c", 4, [0])
    np.testing.assert_array_equal(gate_read(shard, [0]), [])


def test_barrier_keeps_newest_clock_per_source():
    shard = WeightShard.fresh(np.zeros(1))
    apply_barrier(shard, BarrierMsg(source="b", clock=5, indexes=(0,)))
    apply_barrier(shard, BarrierMsg(source="b", clock=2, indexes=(0,)))
    # flush 2 releases only its own barrier: 5 still blocks coordinate 0
    clear_barrier_on_update(shard, "b", 2, [0])
    np.testing.assert_array_equal(gate_read(shard, [0]), [0])
    clear_barrier_on_update(shard, "b", 5, [0])
    np.testing.assert_array_equal(gate_read(shard, [0]), [])
    assert shard.barrier_waits == {}


def test_flush_releasing_an_unannounced_barrier_raises():
    # barrier 2's flush never landed, yet flush 3 arrives
    shard = WeightShard.fresh(np.zeros(3))
    apply_barrier(shard, BarrierMsg(source="b", clock=2, indexes=(0,)))
    with pytest.raises(RuntimeError, match="still awaits"):
        clear_barrier_on_update(shard, "b", 3, np.array([0]))
    # barrier 3 named a coordinate its flush does not carry
    shard = WeightShard.fresh(np.zeros(3))
    apply_barrier(shard, BarrierMsg(source="b", clock=3, indexes=(0, 1)))
    with pytest.raises(RuntimeError, match="does not carry"):
        clear_barrier_on_update(shard, "b", 3, np.array([0]))


def test_barrier_bookkeeping_is_independent_of_the_shard_size():
    shard = WeightShard.fresh(np.zeros(2_000_000))
    msg = maybe_emit_barrier(2.0, 1.0, np.arange(0, 2_000_000, 200_000),
                             "b", 1)
    assert msg.indexes.size == 10
    tracemalloc.start()
    try:
        apply_barrier(shard, msg)
        clear_barrier_on_update(shard, "b", 1, msg.indexes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert shard.barrier_waits == {}
    assert peak < 64 * 1024


class _DictBarriers:
    """The former dict-of-dicts barrier state ({coord: {source: clock}}),
    kept as the oracle for the flush-keyed functions."""

    def __init__(self):
        self.waits = {}

    def emit(self, pending):
        return tuple(sorted(set(int(i) for i in pending)))

    def apply(self, source, clock, indexes):
        for idx in indexes:
            waits = self.waits.setdefault(idx, {})
            prev = waits.get(source)
            if prev is None or clock > prev:
                waits[source] = clock

    def clear(self, source, clock, indexes):
        for idx in indexes:
            waits = self.waits.get(int(idx))
            if waits and source in waits and clock >= waits[source]:
                del waits[source]
                if not waits:
                    del self.waits[int(idx)]

    def gate(self, read):
        return sorted({int(i) for i in read if int(i) in self.waits})


_M = 9
_SOURCES = ("a", "b", "c")
# one source's flushes in clock order: (clock gap, pending indexes of a
# barrier or None, carried indexes of an unannounced flush, dense). A
# barrier's pending set may be unsorted and duplicated; a sparse flush it
# announces carries the sorted unique set.
_FLUSHES = st.lists(st.tuples(
    st.integers(1, 3),
    st.one_of(st.none(), st.lists(st.integers(0, _M - 1), min_size=1,
                                  max_size=12)),
    st.sets(st.integers(0, _M - 1)).map(sorted),
    st.booleans(),
), max_size=6)


@given(st.fixed_dictionaries({src: _FLUSHES for src in _SOURCES}), st.data())
@settings(max_examples=300)
def test_barrier_arrays_match_dict_of_dicts(flushes, data):
    """Protocol sequences: each source's flushes land in clock order, each
    barrier arrives before the flush it announces (barriers of one source in
    any order), sources interleave, and any read set is gated."""
    shard = WeightShard.fresh(np.zeros(_M))
    oracle = _DictBarriers()
    plan = {}                    # source -> [(clock, pending, carried, dense)]
    for source, seq in flushes.items():
        clock, plan[source] = -1, []
        for gap, pending, carried, dense in seq:
            clock += gap
            plan[source].append((clock, pending, carried, dense))
    landed = {source: 0 for source in _SOURCES}
    announced = {}               # (source, clock) -> BarrierMsg
    outstanding = {}             # (source, clock) -> announced indexes
    while True:
        moves = []
        for source, seq in plan.items():
            for clock, pending, _carried, _dense in seq[landed[source]:]:
                if pending is not None and (source, clock) not in announced:
                    moves.append(("barrier", source, clock))
            if landed[source] < len(seq):
                clock, pending = seq[landed[source]][:2]
                if pending is None or (source, clock) in announced:
                    moves.append(("flush", source, clock))
        if not moves:
            break
        kind, source, clock = data.draw(st.sampled_from(moves))
        if kind == "barrier":
            pending = next(p for c, p, _i, _d in plan[source] if c == clock)
            msg = maybe_emit_barrier(2.0, 1.0, pending, source, clock)
            assert (msg.source, msg.clock) == (source, clock)
            assert tuple(msg.indexes.tolist()) == oracle.emit(pending)
            apply_barrier(shard, msg)
            oracle.apply(source, clock, oracle.emit(pending))
            announced[source, clock] = msg
            outstanding[source, clock] = list(oracle.emit(pending))
        else:
            _clock, pending, carried, dense = plan[source][landed[source]]
            landed[source] += 1
            outstanding.pop((source, clock), None)
            if dense:
                clear_barrier_on_update(shard, source, clock, np.arange(_M))
                oracle.clear(source, clock, list(oracle.waits))
            else:
                if pending is not None:
                    # the flush carries what its barrier named: the very
                    # array, or an equal one in any order
                    carried = announced[source, clock].indexes
                    if data.draw(st.booleans()):
                        carried = np.array(data.draw(st.permutations(
                            carried.tolist())), dtype=np.intp)
                clear_barrier_on_update(shard, source, clock,
                                        np.asarray(carried, dtype=np.intp))
                oracle.clear(source, clock, list(carried))
        read = data.draw(st.lists(st.integers(0, _M - 1), max_size=12))
        assert gate_read(shard, read).tolist() == oracle.gate(read)
        assert gate_read(shard, np.arange(_M)).tolist() == sorted(oracle.waits)
        assert gate_read(shard, None).tolist() == sorted(oracle.waits)
        assert {
            (src, c): idx.tolist()
            for src, pending in shard.barrier_waits.items()
            for c, idx in pending.items()
        } == outstanding
        assert all(shard.barrier_waits.values())


# ---------------------------------------------------------------------------
# progress gates


def test_mirror_clock_gate_oracle():
    assert mirror_clock_gate(5, 3, 2)
    assert not mirror_clock_gate(6, 3, 2)
    assert mirror_clock_gate(0, 0, 0)
    with pytest.raises(ValueError):
        mirror_clock_gate(1, 0, -1)


def test_ssp_gate_oracle():
    assert ssp_gate(4, 4, 0)
    assert not ssp_gate(5, 4, 0)
    assert ssp_gate(7, 4, 3)
    with pytest.raises(ValueError):
        ssp_gate(1, 1, -2)


# ---------------------------------------------------------------------------
# soft threshold control


def test_soft_control_disabled_pins_to_hard():
    ctl = SoftCtl(enabled=False)
    assert soft_threshold_adjust(ctl, 0.1, 0.001, 0.02) == 0.02


def test_soft_control_adjusts_with_headroom():
    ctl = SoftCtl(enabled=True, target=0.8, adjust=2.0, floor=1e-4)
    # idle link: halve the soft threshold
    assert soft_threshold_adjust(ctl, 0.2, 0.01, 0.02) == pytest.approx(0.005)
    # floor holds
    assert soft_threshold_adjust(ctl, 0.2, 1.5e-4, 0.02) == pytest.approx(1e-4)
    # saturated link: back toward hard, capped at hard
    assert soft_threshold_adjust(ctl, 0.95, 0.015, 0.02) == pytest.approx(0.02)


def test_soft_control_validates_fields():
    with pytest.raises(ValueError):
        SoftCtl(enabled=True, adjust=1.0)
    with pytest.raises(ValueError):
        SoftCtl(enabled=True, target=0.0)
