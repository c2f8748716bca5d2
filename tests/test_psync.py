import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geolearn import wansim
from geolearn.algos import GaiaNode
from geolearn.data import MinibatchStream, gen_cluster_data
from geolearn.harness import AlgoCfg, config_from_dict, run_experiment
from geolearn.models import SoftmaxModel
from geolearn.numerics import StepDecay, lr_at
from geolearn.psync import (EPS_WEIGHT, BarrierMsg, SoftCtl, WeightShard,
                            accumulate_and_flush, apply_barrier,
                            clear_barrier_on_update, gate_read,
                            significance_scores, ssp_gate,
                            soft_threshold_adjust)
from geolearn.rng import seed_stream


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


# signed zeros, infinities, NaN, subnormals, and weights at, below and
# above EPS_WEIGHT
_SPECIAL = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
     2.2e-308, 1e-7, -1e-7, EPS_WEIGHT, -EPS_WEIGHT, 1e300])
_PAIRS = st.lists(st.tuples(st.one_of(_SPECIAL, st.floats()),
                            st.one_of(_SPECIAL, st.floats())),
                  min_size=1, max_size=40)


def _columns(pairs):
    v, w = (np.array(col, dtype=np.float64) for col in zip(*pairs))
    return v, w


@pytest.mark.filterwarnings("ignore::RuntimeWarning")    # inf / inf
@given(_PAIRS)
@settings(max_examples=300)
def test_significance_scores_in_scratch_are_the_expression_bit_for_bit(pairs):
    v, w = _columns(pairs)
    v0, w0 = v.tobytes(), w.tobytes()
    want = np.abs(v) / np.maximum(np.abs(w), EPS_WEIGHT)
    buf = np.full(v.size, 7.0)
    got = significance_scores(v, w, out=buf)
    assert got is buf
    # inf / inf makes a NaN whose sign bit may differ between the forms;
    # every other score, NaN included, has the expression's bits
    both_inf = np.isinf(v) & np.isinf(w)
    for scores in (got, significance_scores(v, w)):
        assert np.isnan(scores[both_inf]).all()
        assert scores[~both_inf].tobytes() == want[~both_inf].tobytes()
    assert v.tobytes() == v0 and w.tobytes() == w0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")    # inf / inf
@given(_PAIRS, st.floats(0.0, 1e9))
@settings(max_examples=200)
def test_accumulate_and_flush_in_scratch_clears_the_same_coordinates(
        pairs, threshold):
    v, w = _columns(pairs)
    w0 = w.tobytes()
    plain, scratched = WeightShard.fresh(w), WeightShard.fresh(w)
    plain.v[:] = v
    scratched.v[:] = v
    idx, vals = accumulate_and_flush(plain, w, threshold)
    sidx, svals = accumulate_and_flush(scratched, w, threshold,
                                       np.empty(v.size))
    assert sidx.tolist() == idx.tolist()
    assert svals.tobytes() == vals.tobytes()
    assert scratched.v.tobytes() == plain.v.tobytes()
    assert w.tobytes() == w0


# ---------------------------------------------------------------------------
# accumulate and flush


def test_accumulate_and_flush_oracle():
    shard = WeightShard.fresh(np.array([10.0, 10.0, 10.0]))
    shard.v[:] = [0.5, 2.0, -3.0]      # scores 0.05, 0.2, 0.3
    idx, vals = accumulate_and_flush(shard, np.array([10.0, 10.0, 10.0]), 0.1)
    np.testing.assert_array_equal(idx, [1, 2])
    np.testing.assert_array_equal(vals, [2.0, -3.0])
    np.testing.assert_array_equal(shard.v, [0.5, 0.0, 0.0])


def test_accumulate_and_flush_rejects_negative_threshold():
    with pytest.raises(ValueError):
        accumulate_and_flush(WeightShard.fresh(np.ones(2)), np.ones(2), -0.1)


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=12),
       st.floats(0.0, 2.0))
@settings(max_examples=60)
def test_flush_leaves_only_subthreshold_residue(vals, threshold):
    w = np.full(len(vals), 5.0)
    shard = WeightShard.fresh(w)
    shard.v[:] = vals
    idx, flushed = accumulate_and_flush(shard, w, threshold)
    # emitted values carried the accumulated update out exactly
    residue = significance_scores(shard.v, w)
    assert np.all(residue <= threshold + 1e-12)
    # flushed + residue reconstructs the original accumulation
    rebuilt = shard.v.copy()
    rebuilt[idx] += flushed
    np.testing.assert_allclose(rebuilt, vals)


# ---------------------------------------------------------------------------
# hard threshold decay


def _hard_thresholds(decay, lr, knob_at=None, theta=None):
    """t_hard after each of a lone Gaia node's 12 iterations over 60 samples
    in batches of 10 (t0 0.02, the lr section lr); set_knob(theta) runs after
    iteration knob_at."""
    sim = wansim.Simulator(["a"], {})
    data = gen_cluster_data(2, 3, 30, spread=1.0, seed=5)
    node = GaiaNode(
        name="a", index=0, model=SoftmaxModel(3, 2),
        batch=lambda idx: (data.X[idx], data.y[idx]),
        stream=MinibatchStream(np.arange(60), 10, seed_stream(5, "stream", "a")),
        compute_s=0.001, max_iters=12, w0=np.zeros(8),
        algo=AlgoCfg(kind="gaia", t0=0.02, decay=decay, lr=lr), peers=[])
    sim.register("a", node)
    seen = []

    def hook(n, _sim):
        seen.append(n.t_hard)
        if n.iters_done == knob_at:
            n.set_knob(theta)

    node.iter_hook = hook
    sim.wake_at(0.0, "a")
    sim.run()
    return seen


_DROP = {"eta0": 0.05, "milestones": (1,), "factor": 4.0}


def test_threshold_decay_follows_lr_drops():
    drop = StepDecay(**_DROP)
    ratio = lr_at(drop, 1) / lr_at(drop, 0)
    t0, theta = 0.02, 0.3
    # the lr drops at the first step of epoch 1, iteration 7
    assert _hard_thresholds("lr", _DROP) == [t0] * 6 + [t0 * ratio] * 6
    # a knob set moves the base that later drops scale
    assert _hard_thresholds("lr", _DROP, knob_at=3, theta=theta) == (
        [t0] * 3 + [theta] * 3 + [theta * ratio] * 6)


def test_threshold_decay_invsqrt_oracle():
    t0, theta = 0.02, 0.3
    # invsqrt ignores lr drops: t0 / sqrt(t) at iteration t
    assert _hard_thresholds("invsqrt", _DROP) == [
        t0 / np.sqrt(t) for t in range(1, 13)]
    assert _hard_thresholds("invsqrt", _DROP, knob_at=3, theta=theta) == (
        [t0 / np.sqrt(t) for t in range(1, 4)]
        + [theta / np.sqrt(t) for t in range(4, 13)])


# ---------------------------------------------------------------------------
# selective barrier


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
    msg = BarrierMsg("b", 1, np.arange(0, 2_000_000, 200_000))
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
# barrier or None, carried indexes of an unannounced flush, dense). Index
# sets are sorted and unique, as a flush's np.nonzero indexes are.
_FLUSHES = st.lists(st.tuples(
    st.integers(1, 3),
    st.one_of(st.none(), st.sets(st.integers(0, _M - 1),
                                 min_size=1).map(sorted)),
    st.sets(st.integers(0, _M - 1)).map(sorted),
    st.booleans(),
), max_size=6)
# a read set, sorted and unique as MFModel.touched makes it
_READS = st.sets(st.integers(0, _M - 1)).map(sorted)


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
            msg = BarrierMsg(source, clock,
                             np.array(oracle.emit(pending), dtype=np.intp))
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
        read = data.draw(_READS)
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


def test_ssp_gate_oracle():
    assert ssp_gate(4, 4, 0)
    assert not ssp_gate(5, 4, 0)
    assert ssp_gate(7, 4, 3)
    with pytest.raises(ValueError):
        ssp_gate(1, 1, -2)
    # the mirror-clock gate is the same gate with the slack ds
    assert ssp_gate(5, 3, 2)
    assert not ssp_gate(6, 3, 2)
    assert ssp_gate(0, 0, 0)
    with pytest.raises(ValueError):
        ssp_gate(1, 0, -1)


# ---------------------------------------------------------------------------
# soft threshold control


def test_soft_control_adjusts_with_headroom():
    ctl = SoftCtl(target=0.8, adjust=2.0, floor=1e-4)
    # idle link: halve the soft threshold
    assert soft_threshold_adjust(ctl, 0.2, 0.01, 0.02) == pytest.approx(0.005)
    # floor holds
    assert soft_threshold_adjust(ctl, 0.2, 1.5e-4, 0.02) == pytest.approx(1e-4)
    # saturated link: back toward hard, capped at hard
    assert soft_threshold_adjust(ctl, 0.95, 0.015, 0.02) == pytest.approx(0.02)
    # a hard threshold decayed below the floor caps the floor too
    assert soft_threshold_adjust(ctl, 0.2, 1e-4, 5e-5) == 5e-5


def test_soft_threshold_never_exceeds_a_decayed_hard_threshold():
    # the lr drop at epoch 1 takes t_hard from 1e-3 to 1e-4, below the
    # soft floor of 5e-4: soft sharing must still filter at <= t_hard
    result = run_experiment(config_from_dict({
        "seed": 3,
        "model": {"kind": "softmax", "features": 10, "classes": 10},
        "data": {"per_class": 40, "spread": 1.0, "test_per_class": 10},
        "partition": {"nodes": 3, "alpha": 0.5},
        "algorithm": {"kind": "gaia", "epochs": 3, "batch_size": 10,
                      "t0": 0.001, "soft": {"floor": 0.0005},
                      "lr": {"eta0": 0.1, "milestones": [1], "factor": 10}},
        "convergence": {"mode": "none"},
    }))
    for node in result.nodes:
        assert node.t_hard == pytest.approx(1e-4)
        assert node.t_soft <= node.t_hard


def test_soft_control_validates_fields():
    with pytest.raises(ValueError):
        SoftCtl(adjust=1.0)
    with pytest.raises(ValueError):
        SoftCtl(target=0.0)
