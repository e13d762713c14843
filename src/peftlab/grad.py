"""Analytic backward passes (one per-layer VJP, param_grads, shared by
backward and trainer.loss_and_grads), a central-difference oracle and a
gradient checker.

A layer computes z = W' x for an input block x (k x n), so dL/dW' is
g = gz x^T with gz = dL/dz (d x n). The VJP takes g by these factors and
never forms it, nor the effective weight W' or the direction gradient
h = dL/dv. For lora/pissa, z = base x + s b (a x) with s the scaling, and

    db = s gz (a x)^T      da = s (b^T gz) x^T      dx = base^T gz + s a^T (b^T gz).

For the magnitude/direction methods the backward pass differentiates
through the column norms (no frozen-norm shortcut). With v_j the j-th column
of base + s b a, n_j = ||v_j|| + eps (eps = adapters.NORM_EPSILON) and
mn_j = m_j / n_j, the forward is z = v x_m with x_m = mn * x (row j of x
scaled by mn_j), and

    h_j  = mn_j g_j - c_j v_j,   c_j = mn_j <v_j, g_j> / ||v_j||^2,
    dm_j = <v_j, g_j> / n_j.

With P = v^T gz (k x n), <v_j, g_j> = sum_n x_jn P_jn, so

    db = s [gz (a x_m)^T - v (a c)^T]      (a c: column j of a times c_j)
    da = s [(b^T gz) x_m^T - (b^T v) c]    (column j of b^T v times c_j)
    dx = mn * P.

direction_gradient returns the coefficients c; the projector divides by
||v_j||^2 as the summed squares of v_j, so each h_j is orthogonal to v_j up
to rounding. The epsilon guard shifts only the outer 1/n_j scale, keeping h
within O(eps) of the guarded forward's true derivative while preserving the
exact-projection property. A zero column (v_j = 0) has c_j = 0.

A lora/pissa step costs GEMMs of O(r (d + k) n + d k n) operations and forms
no d x k array. The magnitude methods add the d x k passes of
adapters.layer_forward that refresh v and its norms in the state's workspace
(AdapterState.cache), which param_grads then reads, and the O(r d k) products
b^T v and v (a c)^T; full's dbase = gz x^T goes into that workspace.

finite_diff_grads, the oracle these formulas are checked against, takes
central differences of forwards instead, with one step rule,
h = FD_BASE_STEP (1 + |theta|). W'_j reads base_j, a_j and m_j only, so the
oracle displaces a, m, x and full's base through one-column layers; b moves
every column (for dora/dude* through every norm) and keeps whole weights.
Each array's displacements are stacked in chunks and computed in place by
adapters._weight, the formula that effective_weight and step_cache also
use; it allocates the chunk workspace on the first chunk and reuses it, and
a shorter last chunk gets a workspace of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adapters import AdapterState, StepCache, _scaled, _weight
from .adapters import forward, layer_forward, trainable_params
from .linalg import NumericError

__all__ = [
    "GradientSet",
    "GradCheckReport",
    "backward",
    "direction_gradient",
    "param_grads",
    "finite_diff_grads",
    "grad_check",
    "compare_gradient_sets",
]

FD_BASE_STEP = 1e-5
# grad_check passes when every max relative error is at most this.
GRAD_CHECK_TOLERANCE = 1e-5
# Bytes of stacked weights the finite-difference oracle evaluates at once:
# the size of each stacked d x k buffer of its workspace, and so what bounds
# the oracle's memory.
_FD_CHUNK_BYTES = 128 * 1024


@dataclass
class GradientSet:
    """Gradients for one adapted layer; db/da/dm/dbase are None exactly when
    the method lacks the parameter (db/da/dm absent for full, dm absent unless
    the method carries a magnitude vector, dbase present only for full). dx is
    None for the first layer of trainer.loss_and_grads, which has no input to
    pass it to; backward always returns it."""

    db: np.ndarray | None = None
    da: np.ndarray | None = None
    dm: np.ndarray | None = None
    dx: np.ndarray | None = None
    dbase: np.ndarray | None = None


def direction_gradient(state: AdapterState, proj: np.ndarray) -> np.ndarray:
    """Column coefficients c of h = dL/dv for a magnitude/direction layer,
    given proj_j = <v_j, g_j> for g = dL/dW' and the refreshed state.cache.

    h_j = (m_j / n_j) * g_j - c_j * v_j with c_j = (m_j / n_j) * proj_j / ||v_j||^2:
    the scaled projection of g_j onto the orthogonal complement of v_j.
    """
    sq = state.cache.sq
    # A zero column contributes nothing to the projector (v_j is zero);
    # guard the denominator so it does not poison the whole column with NaN:
    # sq + (sq == 0) is sq, or 1 where sq is 0.
    return state.cache.mn * proj / (sq + (sq == 0.0))


def param_grads(state: AdapterState, gz: np.ndarray, x: np.ndarray,
                input_grad: bool = True) -> GradientSet:
    """The per-layer VJP: gradients of L through z = layer_forward(state, x),
    given the input block x (k x n) and gz = dL/dz (d x n), summed over the n
    columns. dx is None unless input_grad. The state's last layer_forward
    must have read x. full's dbase is a buffer of state.cache, valid until
    the next param_grads on the state.
    """
    # np.dot rather than @: the same BLAS products with less per-call
    # overhead, which dominates a step at small d and k. full's d x k outer
    # product over the batch is the exception: np.matmul is faster there.
    cache = state.cache
    if state.method == "full":
        dx = np.dot(state.base.T, gz) if input_grad else None
        cache.scratch = np.matmul(gz, x.T, out=cache.scratch)
        return GradientSet(dx=dx, dbase=cache.scratch)
    s, b, a = state.config.scaling, state.b, state.a
    bg = np.dot(b.T, gz)
    if state.m is None:
        dx = None
        if input_grad:
            dx = np.dot(state.base.T, gz)
            dx += _scaled(np.dot(a.T, bg), s)
        db, da = np.dot(gz, np.dot(a, x).T), np.dot(bg, x.T)
        return GradientSet(db=_scaled(db, s), da=_scaled(da, s), dx=dx)
    v, mn, x_m = cache.v, cache.mn[:, None], cache.xm
    p = np.dot(v.T, gz)
    # proj_j = <v_j, g_j> once for dm and c.
    proj = np.add.reduce(x * p, axis=1)
    c = direction_gradient(state, proj)
    db = np.dot(gz, np.dot(a, x_m).T)
    db -= np.dot(v, (a * c).T)
    da = np.dot(bg, x_m.T)
    da -= np.dot(b.T, v) * c
    dx = np.multiply(p, mn, out=p) if input_grad else None
    return GradientSet(db=_scaled(db, s), da=_scaled(da, s), dm=proj / cache.n, dx=dx)


def backward(state: AdapterState, x, gy) -> GradientSet:
    """Exact gradients of L with respect to the trainables and the input,
    given gy = dL/dy for y = effective_weight(state) @ x, in new arrays:
    the state's workspace is released before it returns."""
    x = np.asarray(x, dtype=np.float64)
    gy = np.asarray(gy, dtype=np.float64)
    d, k = state.base.shape
    if x.shape != (k,):
        raise ValueError(f"input length mismatch: expected {k}, got {x.shape}")
    if gy.shape != (d,):
        raise ValueError(f"output-grad length mismatch: expected {d}, got {gy.shape}")
    x = x[:, None]
    layer_forward(state, x)
    gs = param_grads(state, gy[:, None], x)
    gs.dx = gs.dx[:, 0]
    state.cache = StepCache()
    return gs


def finite_diff_grads(state: AdapterState, x, gy) -> GradientSet:
    """Central-difference gradients of L = <gy, forward(state, x)>.

    Each trainable scalar theta, and each entry of x, is displaced by +-h with
    h = FD_BASE_STEP * (1 + |theta|), the one step rule. A scalar of a, m, x
    or full's base moves column j of W' only, so its loss is the column term
    gy @ (W'_j x_j), with the bits of gy @ forward(column j as a layer,
    x[j:j+1]); a scalar of b moves every column, so its loss has the bits of
    gy @ forward(state, x). Displacements are evaluated in stacked chunks of
    at most 128 KiB of weights (8 d bytes per column, 8 d k per whole weight),
    by the operations of effective_weight in the same order, in a workspace
    that the weight formula allocates for the first chunk and reuses. The
    caller's state and x are only read; state.cache is not touched.
    """
    x = np.asarray(x, dtype=np.float64)
    gy = np.asarray(gy, dtype=np.float64)
    return GradientSet(**{"d" + name: _central_differences(state, name, arr, x, gy)
                          for name, arr in trainable_params(state) + [("x", x)]})


def _central_differences(state: AdapterState, name: str, arr: np.ndarray, x: np.ndarray,
                          gy: np.ndarray) -> np.ndarray:
    """Central-difference gradient of L with respect to arr, the array called
    name (a trainable of state, or x). Displacement j sets scalar j // 2 in
    its own copy of the inputs that scalar feeds: the whole weight for b,
    else the one-column layer gathered from base, a, m and x."""
    flat = arr.reshape(-1)
    h = FD_BASE_STEP * (1.0 + np.abs(flat))
    # Displacements j = 2i, 2i + 1 set scalar i to theta_i + h_i and theta_i - h_i.
    values = (flat[:, None] + h[:, None] * [1.0, -1.0]).reshape(-1)
    d, k = state.base.shape
    if name == "b":
        # One unit, the whole weight, so every stacked b is a copy.
        width, inputs = k, {"b": state.b.reshape(1, -1)}
    else:
        # k units, one per column: row j of each input feeds W'_j.
        width, inputs = 1, {"base": state.base.T, "a": state.a.T, "x": x[:, None]}
        if state.m is not None:
            inputs["m"] = state.m[:, None]
    n = min(max(1, _FD_CHUNK_BYTES // (8 * d * width)), values.size)
    stacks = {key: np.empty((n, arr.shape[1])) for key, arr in inputs.items()}
    ws = StepCache()
    losses = np.empty(values.size)
    for start in range(0, values.size, n):
        c = min(n, values.size - start)
        if c < n:
            # Only the last chunk can be shorter; _weight sizes its workspace.
            ws = StepCache()
        row, unit = np.divmod(np.arange(start, start + c) // 2, len(inputs[name]))
        # mode="clip" takes straight into out (the default mode buffers it);
        # every index is in range.
        part = {key: np.take(arr, unit, axis=0, out=stacks[key][:c], mode="clip")
                for key, arr in inputs.items()}
        part[name][np.arange(c), row] = values[start:start + c]
        if name == "b":
            w = _weight(state.base, part["b"].reshape((c,) + state.b.shape), state.a,
                        state.m, state.config, ws)
            ys = np.matmul(w, x)
        else:
            w = part["base"][:, :, None]
            if state.method != "full":
                w = _weight(w, state.b, part["a"][:, :, None], part.get("m"), state.config, ws)
            ys = np.multiply(w, part["x"][:, None], out=w)[..., 0]
        # ndarray.dot of two 1-D arrays is the same ddot as gy @ y; a
        # matrix-vector product ys @ gy would sum in another order.
        losses[start:start + c] = np.fromiter(map(gy.dot, ys), np.float64, c)
    return ((losses[0::2] - losses[1::2]) / (2.0 * h)).reshape(arr.shape)


@dataclass
class GradCheckReport:
    errors: dict[str, float]
    passed: bool


def _max_rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
    return float((np.abs(analytic - fd) / scale).max())


def compare_gradient_sets(analytic: GradientSet, fd: GradientSet) -> GradCheckReport:
    """Per-parameter max relative error |a-f|/max(1,|a|,|f|) and overall
    verdict against GRAD_CHECK_TOLERANCE."""
    errors: dict[str, float] = {}
    for name in ("db", "da", "dm", "dx", "dbase"):
        a = getattr(analytic, name)
        f = getattr(fd, name)
        if a is None and f is None:
            continue
        if a is None or f is None:
            raise ValueError(f"gradient sets disagree on presence of {name}")
        errors[name] = _max_rel_err(a, f)
    return GradCheckReport(errors, all(err <= GRAD_CHECK_TOLERANCE for err in errors.values()))


def grad_check(state: AdapterState, seed: int = 0) -> GradCheckReport:
    """Compare backward against the finite-difference oracle on a seeded
    random (x, gy) pair. Mismatch yields passed=False, not an exception."""
    d, k = state.base.shape
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(k)
    gy = rng.standard_normal(d)
    y = forward(state, x)
    if not np.all(np.isfinite(y)):
        raise NumericError("forward produced non-finite values")
    analytic = backward(state, x, gy)
    return compare_gradient_sets(analytic, finite_diff_grads(state, x, gy))
