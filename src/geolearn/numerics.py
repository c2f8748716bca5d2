"""Shared training arithmetic.

Momentum SGD, learning-rate schedules, gradient clipping, and a
finite-difference gradient oracle. Everything operates on 1-D float64
arrays and nothing mutates its inputs: a step returns new weight and
velocity arrays, and the node that owns the replica keeps them.
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


def momentum_step(w, u, m, grad, eta):
    """One heavy-ball step with velocity u and coefficient m.

    u' = m * u - eta * grad, w' = w + u'. Returns (w', u'); u' is the update
    actually applied, which callers accumulate for exchange.
    """
    w = np.asarray(w, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if w.shape != grad.shape or w.shape != u.shape:
        raise ValueError(
            f"length mismatch: w{w.shape}, grad{grad.shape}, u{u.shape}"
        )
    if eta < 0:
        raise ValueError(f"negative learning rate: {eta}")
    u_next = m * u - eta * grad
    w_next = w + u_next
    return w_next, u_next


def lr_at(schedule, epoch):
    """Learning rate of a StepDecay schedule at a 0-indexed epoch."""
    drops = sum(1 for ms in schedule.milestones if ms <= epoch)
    return schedule.eta0 / schedule.factor ** drops


def clip_by_norm(grad, max_norm):
    """Scale grad to L2 norm at most max_norm; zero vectors pass through."""
    grad = np.asarray(grad, dtype=np.float64)
    norm = float(np.linalg.norm(grad))
    if norm == 0.0 or norm <= max_norm:
        return grad.copy()
    return grad * (max_norm / norm)


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
