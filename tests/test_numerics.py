import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from geolearn.numerics import (ClipConfig, MomentumState,
                               StepDecay, clip_by_norm, grad_check, lr_at,
                               momentum_step)


def test_momentum_step_hand_oracle():
    # u' = 0.9*[0.5, -0.5] - 0.1*[0.2, -0.4] = [0.43, -0.41]; w' = w + u'
    w = np.array([1.0, 2.0])
    state = MomentumState(u=np.array([0.5, -0.5]), m=0.9)
    grad = np.array([0.2, -0.4])
    w2, state2, applied = momentum_step(w, state, grad, 0.1)
    np.testing.assert_allclose(applied, [0.43, -0.41], rtol=0, atol=1e-15)
    np.testing.assert_allclose(w2, [1.43, 1.59], rtol=0, atol=1e-15)
    np.testing.assert_array_equal(state2.u, applied)
    # inputs untouched
    np.testing.assert_array_equal(w, [1.0, 2.0])
    np.testing.assert_array_equal(state.u, [0.5, -0.5])


def test_momentum_step_rejects_mismatch_and_negative_lr():
    state = MomentumState.zeros(2)
    with pytest.raises(ValueError):
        momentum_step(np.zeros(3), state, np.zeros(3), 0.1)
    with pytest.raises(ValueError):
        momentum_step(np.zeros(2), state, np.zeros(2), -0.1)


@given(st.floats(0.0, 0.99), st.integers(1, 30))
def test_momentum_zero_grad_decays_geometrically(m, steps):
    # with grad = 0 the velocity is u0 * m^t exactly
    state = MomentumState(u=np.array([1.0]), m=m)
    w = np.zeros(1)
    for _ in range(steps):
        w, state, _ = momentum_step(w, state, np.zeros(1), 0.5)
    assert state.u[0] == pytest.approx(m ** steps, rel=1e-12, abs=1e-300)


def test_step_decay_oracle():
    sched = StepDecay(eta0=1.0, milestones=(2, 5), factor=10.0)
    assert [lr_at(sched, e) for e in (0, 1, 2, 4, 5, 9)] == [
        1.0, 1.0, 0.1, 0.1, 0.01, 0.01]


def test_clip_by_norm_oracle():
    clipped = clip_by_norm(np.array([3.0, 4.0]), ClipConfig(2.5))
    np.testing.assert_allclose(clipped, [1.5, 2.0])
    small = np.array([0.1, -0.2])
    out = clip_by_norm(small, ClipConfig(5.0))
    np.testing.assert_array_equal(out, small)
    assert out is not small  # always a copy
    np.testing.assert_array_equal(clip_by_norm(np.zeros(3), ClipConfig(1.0)),
                                  np.zeros(3))


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
       st.floats(1e-3, 1e3))
def test_clip_by_norm_properties(vals, max_norm):
    g = np.array(vals)
    out = clip_by_norm(g, ClipConfig(max_norm))
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
