"""The tests' one spelling of a layer's direction and its magnitude guard. It
calls neither adapters._direction nor adapters._guarded_norm, so a wrong
formula there cannot pass its own oracle; test_grad.py holds the two to the
same bytes. pytest does not collect this module."""

from collections import namedtuple

import numpy as np

from peftlab.adapters import METHODS, NORM_EPSILON, step_cache
from peftlab.grad import direction_gradient
from peftlab.linalg import frobenius_norm

ADAPTER_METHODS = tuple(m for m in METHODS if m != "full")
MAGNITUDE_METHODS = ("dora", "dude", "dude_a", "dude_b")

Direction = namedtuple("Direction", "v sq n mn")


def rel_frob(a, b):
    return frobenius_norm(a - b) / max(1.0, frobenius_norm(b))


def guarded_norm(norms):
    """n_j, the denominator of a dora/dude* weight m_j v_j / n_j, from ||v_j||."""
    return norms + NORM_EPSILON


def direction(state):
    """Direction(v, sq, n, mn): v = base + s * b @ a (full: the base), its
    column sums of squares sq as np.linalg.norm(v, axis=0) sums them,
    n = guarded_norm(sqrt(sq)) and mn = m / n (None without m)."""
    v = state.base
    if state.method != "full":
        v = v + state.config.scaling * (state.b @ state.a)
    sq = (v * v).sum(axis=0)
    n = guarded_norm(np.sqrt(sq))
    return Direction(v, sq, n, None if state.m is None else state.m / n)


def direction_from_coefficients(state, g):
    """h = dL/dv for g = dL/dW', built column by column from the coefficients
    c that direction_gradient returns: h_j = (m_j / n_j) g_j - c_j v_j."""
    v, _, _, mn = direction(state)
    c = direction_gradient(step_cache(state), (v * g).sum(axis=0))
    return mn * g - c * v


def projection_gaps(state, g, rtol):
    """(|v_j . h_j|, its bound) per column of h = direction_from_coefficients:
    rtol ||v_j|| times (m_j / n_j) ||g_j||, the scale of h_j's rounding error
    (at d = 1 the exact h_j is 0, so ||h_j|| is that error), at least 1e-30."""
    v, _, n, _ = direction(state)
    h = direction_from_coefficients(state, g)
    for j in range(v.shape[1]):
        scale = abs(state.m[j]) / n[j] * np.linalg.norm(g[:, j])
        yield abs(float(v[:, j] @ h[:, j])), max(rtol * np.linalg.norm(v[:, j]) * scale, 1e-30)
