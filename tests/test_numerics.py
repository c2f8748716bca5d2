import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geolearn.numerics import (StepDecay, clip_by_norm, grad_check, lr_at,
                               momentum_step)


def test_momentum_step_hand_oracle():
    # u' = 0.9*[0.5, -0.5] - 0.1*[0.2, -0.4] = [0.43, -0.41]; w' = w + u'
    w = np.array([1.0, 2.0])
    u = np.array([0.5, -0.5])
    grad = np.array([0.2, -0.4])
    assert momentum_step(w, u, 0.9, grad, 0.1) is None
    # the step lands in the caller's arrays; grad now holds eta * grad
    np.testing.assert_allclose(u, [0.43, -0.41], rtol=0, atol=1e-15)
    np.testing.assert_allclose(w, [1.43, 1.59], rtol=0, atol=1e-15)
    np.testing.assert_allclose(grad, [0.02, -0.04], rtol=0, atol=1e-15)


_finite = st.floats(-1e6, 1e6, allow_subnormal=False)


@given(st.lists(st.tuples(_finite, _finite, _finite), min_size=1,
                max_size=16),
       st.floats(0.0, 0.99), st.floats(0.0, 10.0))
def test_momentum_step_in_place_matches_expressions_bitwise(rows, m, eta):
    w, u, grad = (np.array(col) for col in zip(*rows))
    u_expect = m * u - eta * grad
    w_expect = w + u_expect
    # the same step with w + u written into the spent gradient
    w2, u2, grad2 = w.copy(), u.copy(), grad.copy()
    momentum_step(w, u, m, grad, eta)
    assert u.tobytes() == u_expect.tobytes()
    assert w.tobytes() == w_expect.tobytes()
    w_before = w2.tobytes()
    momentum_step(w2, u2, m, grad2, eta, out=grad2)
    assert u2.tobytes() == u_expect.tobytes()
    assert grad2.tobytes() == w_expect.tobytes()
    assert w2.tobytes() == w_before


def test_momentum_step_rejects_mismatch_and_negative_lr():
    u = np.zeros(2)
    with pytest.raises(ValueError):
        momentum_step(np.zeros(3), u, 0.9, np.zeros(3), 0.1)
    with pytest.raises(ValueError):
        momentum_step(np.zeros(2), u, 0.9, np.zeros(2), -0.1)
    with pytest.raises(ValueError):
        momentum_step(np.zeros(2), u, 0.9, np.zeros(2), 0.1, out=np.zeros(3))


@given(st.floats(0.0, 0.99), st.integers(1, 30))
def test_momentum_zero_grad_decays_geometrically(m, steps):
    # with grad = 0 the velocity is u0 * m^t exactly
    u = np.array([1.0])
    w = np.zeros(1)
    for _ in range(steps):
        momentum_step(w, u, m, np.zeros(1), 0.5)
    assert u[0] == pytest.approx(m ** steps, rel=1e-12, abs=1e-300)


def test_step_decay_oracle():
    sched = StepDecay(eta0=1.0, milestones=(2, 5), factor=10.0)
    assert [lr_at(sched, e) for e in (0, 1, 2, 4, 5, 9)] == [
        1.0, 1.0, 0.1, 0.1, 0.01, 0.01]


def test_clip_by_norm_oracle():
    clipped = clip_by_norm(np.array([3.0, 4.0]), 2.5)
    np.testing.assert_allclose(clipped, [1.5, 2.0])
    small = np.array([0.1, -0.2])
    out = clip_by_norm(small, 5.0)
    np.testing.assert_array_equal(out, [0.1, -0.2])
    assert out is small  # short enough: returned as it is
    long = np.array([6.0, 8.0])
    assert clip_by_norm(long, 5.0) is long  # scaled in place
    np.testing.assert_allclose(long, [3.0, 4.0])
    np.testing.assert_array_equal(clip_by_norm(np.zeros(3), 1.0),
                                  np.zeros(3))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")    # inf * 0.0
@settings(max_examples=200, deadline=None)
@given(size=st.integers(0, 300), seed=st.integers(0, 2**16),
       share=st.sampled_from((0.0, 0.05, 0.5, 1.0)),
       max_norm=st.sampled_from((1e-3, 1.0, 7.5, 1e300)))
def test_clip_by_norm_is_the_linalg_norm_formula_bit_for_bit(
        size, seed, share, max_norm):
    # entries over 32 decades, a share of them replaced by zeros,
    # subnormals, 1e300 (their squares overflow the norm to inf), inf and
    # NaN; up to 300 entries, past the dot product's unrolled blocks
    rng = np.random.default_rng(seed)
    g = rng.normal(size=size) * 10.0 ** rng.integers(-16, 16, size=size)
    special = rng.random(size) < share
    g[special] = rng.choice(
        [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, math.inf, -math.inf,
         math.nan], size=int(special.sum()))
    _assert_clips_as_linalg_norm(g, max_norm)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("vals", [
    [], [0.0, -0.0, 0.0], [5e-324] * 9, [-2.5e-310, 5e-324],
    [1e300, 1.0], [1e300, -1e300, 1e-300], [math.inf, 1.0], [-math.inf],
    [math.nan, 1.0], [math.inf, math.nan], [3.0, 4.0],
])
@pytest.mark.parametrize("max_norm", [1e-3, 5.0, 1e300])
def test_clip_by_norm_edge_vectors_bit_for_bit(vals, max_norm):
    _assert_clips_as_linalg_norm(np.array(vals, dtype=np.float64), max_norm)


def _assert_clips_as_linalg_norm(g, max_norm):
    """clip_by_norm(g) in place, and bit for bit the clip with
    np.linalg.norm."""
    want = g.copy()
    norm = float(np.linalg.norm(want))
    if not (norm == 0.0 or norm <= max_norm):
        want *= max_norm / norm
    got = clip_by_norm(g, max_norm)
    assert got is g
    assert got.tobytes() == want.tobytes()


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
       st.floats(1e-3, 1e3))
def test_clip_by_norm_properties(vals, max_norm):
    g = np.array(vals)
    out = clip_by_norm(g.copy(), max_norm)
    assert np.linalg.norm(out) <= max_norm * (1 + 1e-12)
    # direction preserved: out is a nonnegative multiple of g
    if np.linalg.norm(g) > 0:
        scale = np.linalg.norm(out) / np.linalg.norm(g)
        np.testing.assert_allclose(out, g * scale, rtol=1e-9, atol=1e-9)


class _Quadratic:
    """f(w) = |w|^2 + w[0], gradient 2w + e0; optionally corrupted."""

    def __init__(self, broken=False):
        self.broken = broken

    def objective(self, params, batch):
        return float(np.dot(params, params) + params[0])

    def loss_and_grad(self, params, batch, update_stats=False):
        g = 2.0 * params
        g[0] += 1.0
        if self.broken:
            g[0] += 0.05
        return self.objective(params, batch), g


def test_grad_check_accepts_correct_and_flags_broken():
    params = np.array([0.3, -0.7, 1.1])
    assert grad_check(_Quadratic(), params, None) < 1e-8
    assert grad_check(_Quadratic(broken=True), params, None) > 1e-3


def test_grad_check_raises_on_nonfinite_probe():
    class Exploding(_Quadratic):
        def objective(self, params, batch):
            return math.inf

    with pytest.raises(FloatingPointError):
        grad_check(Exploding(), np.ones(2), None)
