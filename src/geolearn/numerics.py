"""Shared training arithmetic.

Momentum SGD, learning-rate schedules, gradient clipping, and a
finite-difference gradient oracle. Everything operates on 1-D float64
arrays. The momentum step and the clip work in place: the step updates the
replica's own velocity and overwrites the gradient, and writes the new
weights into the weight array or into a given out array (the spent
gradient, say); the clip scales its input. So neither allocates an array
of the model's size. Each in-place form rounds exactly as the expression it replaces.
"""

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class StepDecay:
    """eta0 divided by `factor` once per milestone epoch passed; the field
    metadata bounds a config's `algorithm.lr` (see harness)."""

    eta0: float = field(metadata={"gt": 0})
    milestones: tuple = field(default=(), metadata={"of": int})
    factor: float = field(default=10.0, metadata={"gt": 0})


def momentum_step(w, u, m, grad, eta, out=None):
    """One heavy-ball step with velocity u and coefficient m, in place.

    u <- m * u - eta * grad, then w <- w + u, each rounded as that
    expression; u is then the update actually applied, which callers
    accumulate for exchange. grad is overwritten with eta * grad. Given
    out, w + u is written there and w is left as it is; out may be grad,
    which is spent by then.
    """
    if w.shape != grad.shape or w.shape != u.shape or (
            out is not None and w.shape != out.shape):
        raise ValueError(
            f"length mismatch: w{w.shape}, grad{grad.shape}, u{u.shape}, "
            f"out{getattr(out, 'shape', None)}"
        )
    if eta < 0:
        raise ValueError(f"negative learning rate: {eta}")
    u *= m
    grad *= eta
    u -= grad
    if out is None:
        w += u
    else:
        np.add(w, u, out=out)


def lr_at(schedule, epoch):
    """Learning rate of a StepDecay schedule at a 0-indexed epoch."""
    drops = sum(1 for ms in schedule.milestones if ms <= epoch)
    return schedule.eta0 / schedule.factor ** drops


def clip_by_norm(grad, max_norm):
    """grad (contiguous, 1-D) scaled in place to L2 norm at most max_norm
    and returned; a shorter or zero vector is returned as it is."""
    grad = np.asarray(grad, dtype=np.float64)
    norm = math.sqrt(grad.dot(grad))    # np.linalg.norm(grad), bit for bit
    if norm == 0.0 or norm <= max_norm:
        return grad
    grad *= max_norm / norm
    return grad


def grad_check(model, params, batch, delta=1e-5):
    """Max relative error between analytic and central-difference gradients.

    The numeric derivative for coordinate i is
    (f(p + delta e_i) - f(p - delta e_i)) / (2 delta) and the relative error
    uses denominator max(|analytic|, |numeric|, 1e-10). A healthy hand-derived
    gradient lands below 1e-4 at delta = 1e-5.
    """
    params = np.asarray(params, dtype=np.float64)
    _, analytic = model.loss_and_grad(params, batch)
    worst = 0.0
    for i in range(params.size):
        probe = params.copy()
        probe[i] = params[i] + delta
        f_plus = model.objective(probe, batch)
        probe[i] = params[i] - delta
        f_minus = model.objective(probe, batch)
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise FloatingPointError(
                f"non-finite objective while probing coordinate {i}"
            )
        numeric = (f_plus - f_minus) / (2.0 * delta)
        denom = max(abs(analytic[i]), abs(numeric), 1e-10)
        worst = max(worst, abs(analytic[i] - numeric) / denom)
    return worst
