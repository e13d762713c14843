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
of base + s b a, n_j = ||v_j|| + eps its guarded norm (adapters._guarded_norm)
and mn_j = m_j / n_j, the forward is z = v x_m with x_m = mn * x (row j of x
scaled by mn_j), and

    h_j  = mn_j g_j - c_j v_j,   c_j = mn_j <v_j, g_j> / ||v_j||^2,
    dm_j = <v_j, g_j> / n_j.

With P = v^T gz (k x n), <v_j, g_j> = sum_n x_jn P_jn, so

    db = s [gz (a x_m)^T - v (a c)^T]      (a c: column j of a times c_j)
    da = s [(b^T gz) x_m^T - (b^T v) c]    (column j of b^T v times c_j)
    dx = mn * P.

direction_gradient returns the coefficients c; the projector divides by
||v_j||^2 as the summed squares of v_j, so each h_j is orthogonal to v_j up
to rounding. The epsilon guard shifts only the outer 1/n_j scale, which keeps
the exact projection but drops eps from the derivative of n_j: h_j differs
from the guarded forward's true derivative by about m_j eps / n_j^2 times
||g_j||. That is about eps ||g_j|| when m_j and n_j are near 1, but a column
of v near zero lifts it past grad_check's tolerance (tests/test_grad.py's
test_grad_check_passes_at_a_direction_column_near_zero, a strict xfail).
A zero column (v_j = 0) has c_j = 0.

A lora/pissa step costs GEMMs of O(r (d + k) n + d k n) operations and forms
no d x k array. The magnitude methods add the d x k passes of
adapters.step_cache, which derives v and its norms once per step as a value
that layer_forward and param_grads both take, and the O(r d k) products
b^T v and v (a c)^T. full's dbase = gz x^T is a d x k array, new unless
param_grads is given out (trainer.train's flat gradient buffer).

finite_diff_grads, the oracle these formulas are checked against, takes
central differences of forwards instead; its docstring says how.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adapters import AdapterState, StepCache, _as_vector, _direction, _guarded_norm, _scaled
from .adapters import _weight, forward, step_cache, trainable_params
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
# Bytes of stacked rows or columns the finite-difference oracle evaluates at
# once: the size of each array a chunk gathers or computes, and so what bounds
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


def direction_gradient(cache: StepCache, proj: np.ndarray) -> np.ndarray:
    """Column coefficients c of h = dL/dv for a magnitude/direction layer,
    given its direction cache (adapters.step_cache) and proj_j = <v_j, g_j>
    for g = dL/dW'.

    h_j = (m_j / n_j) * g_j - c_j * v_j with c_j = (m_j / n_j) * proj_j / ||v_j||^2:
    the scaled projection of g_j onto the orthogonal complement of v_j.
    """
    sq = cache.sq
    # A zero column contributes nothing to the projector (v_j is zero);
    # guard the denominator so it does not poison the whole column with NaN:
    # sq + (sq == 0) is sq, or 1 where sq is 0.
    return cache.mn * proj / (sq + (sq == 0.0))


def param_grads(state: AdapterState, gz: np.ndarray, x: np.ndarray, cache: StepCache | None,
                input_grad: bool = True, out: GradientSet | None = None) -> GradientSet:
    """The per-layer VJP: gradients of L through z = layer_forward(state, x,
    cache), given the input block x (k x n), gz = dL/dz (d x n) and cache =
    adapters.step_cache(state), summed over the n columns. dx is None unless
    input_grad. The parameter gradients go into out's arrays (C-contiguous
    float64) when out is given, else into new arrays; dx is always new.
    """
    o = out if out is not None else GradientSet()
    # np.dot rather than @: the same BLAS products with less per-call
    # overhead, which dominates a step at small d and k. full's d x k outer
    # product over the batch is the exception: np.matmul is faster there.
    if state.method == "full":
        dx = np.dot(state.base.T, gz) if input_grad else None
        return GradientSet(dx=dx, dbase=np.matmul(gz, x.T, out=o.dbase))
    s, b, a = state.config.scaling, state.b, state.a
    bg = np.dot(b.T, gz)
    if state.m is None:
        dx = None
        if input_grad:
            dx = np.dot(state.base.T, gz)
            dx += _scaled(np.dot(a.T, bg), s)
        db, da = np.dot(gz, np.dot(a, x).T, o.db), np.dot(bg, x.T, o.da)
        return GradientSet(db=_scaled(db, s), da=_scaled(da, s), dx=dx)
    v, mn = cache.v, cache.mn[:, None]
    x_m = x * mn
    p = np.dot(v.T, gz)
    # proj_j = <v_j, g_j> once for dm and c.
    proj = np.add.reduce(x * p, axis=1)
    c = direction_gradient(cache, proj)
    db = np.dot(gz, np.dot(a, x_m).T, o.db)
    db -= np.dot(v, (a * c).T)
    da = np.dot(bg, x_m.T, o.da)
    da -= np.dot(b.T, v) * c
    dm = np.divide(proj, cache.n, out=o.dm)
    dx = np.multiply(p, mn, out=p) if input_grad else None
    return GradientSet(db=_scaled(db, s), da=_scaled(da, s), dm=dm, dx=dx)


def backward(state: AdapterState, x, gy) -> GradientSet:
    """Exact gradients of L with respect to the trainables and the input,
    given gy = dL/dy for y = effective_weight(state) @ x, in new arrays."""
    d, k = state.base.shape
    x = _as_vector(x, k, "input")[:, None]
    gy = _as_vector(gy, d, "output-grad")[:, None]
    gs = param_grads(state, gy, x, step_cache(state))
    gs.dx = gs.dx[:, 0]
    return gs


def finite_diff_grads(state: AdapterState, x, gy) -> GradientSet:
    """Central-difference gradients of L = <gy, forward(state, x)>. The
    caller's state and x are only read.

    Each trainable scalar theta, and each entry of x, is displaced by +-h with
    h = FD_BASE_STEP * (1 + |theta|), the one step rule, and its gradient is
    (L+ - L-) / 2h. A displacement moves one unit of the layer, which is
    evaluated alone, in one of three ways:

    - a_lj moves column j of W', which reads base_j, a_j and m_j only: a
      one-column layer, with loss gy . (W'_j x_j).
    - b_il moves row i of v = base + s b @ a only: a one-row layer v'_i
      without magnitude, with loss gy_i (v'_i . x) for lora/pissa. For
      dora/dude*, with delta = v'_i - v_i, G = gy @ v and sq_j = ||v_j||^2,
      the loss is sum_j m_j x_j q_j with
      q_j = (G_j + gy_i delta_j) / (sqrt(sq_j + delta_j (2 v_ij + delta_j)) + eps).
    - m_j, x_j and full's base_ij: column j of the unperturbed layer,
      gathered with the scalar displaced, and loss gy . (W'_j x_j). That
      layer is v, with n_j for dora/dude* (m and x move neither), or full's
      base.

    The unperturbed layer is built once per call; no displacement forms a
    d x k weight. Scalars go in chunks of at most 128 KiB of units (8 d bytes
    per column, 8 k per row, two per scalar), each gathered by indexing its
    array. Units are computed by the operations of effective_weight
    (adapters._weight) in the same order, and the losses by np.matmul over
    stacked 1 x n . n x 1 items, which numpy computes with the routine of
    ndarray.dot (a matrix-vector product would sum in another order).
    """
    d, k = state.base.shape
    x, gy = _as_vector(x, k, "input"), _as_vector(gy, d, "output-grad")
    params = dict(trainable_params(state), x=x)
    grads = GradientSet()
    if "a" in params:
        grads.da = _central_differences(state, "a", params.pop("a"), x, gy, None)
    # The unperturbed layer that the other arrays read, built after a's
    # chunks, which do not read it, so that it adds nothing to their peak.
    if state.method == "full":
        whole = StepCache(v=state.base)
    else:
        whole = _direction(state.base, state.b, state.a, state.m, state.config)
    for name, arr in params.items():
        setattr(grads, "d" + name, _central_differences(state, name, arr, x, gy, whole))
    return grads


def _central_differences(state: AdapterState, name: str, arr: np.ndarray, x: np.ndarray,
                          gy: np.ndarray, whole: StepCache | None) -> np.ndarray:
    """Central-difference gradient of L with respect to arr, the array called
    name (a trainable of state, or x), given the unperturbed layer whole
    (None for a)."""
    d, k = state.base.shape
    m, cfg = state.m, state.config
    # A displacement gathers one row, its unit, of each input: a column of W'
    # (width d) or a row of v (width k). w is the loss product's vector.
    if name == "a":
        width, w, inputs = d, gy, {"base": state.base.T, "a": state.a.T, "x": x[:, None]}
        if m is not None:
            inputs["m"] = m[:, None]
    elif name == "b":
        width, w, inputs = k, x, {"base": state.base, "b": state.b}
        if m is not None:
            g, w, inputs["v"] = np.dot(gy, whole.v), m * x, whole.v
    else:
        width, w, inputs = d, gy, {"v": whole.v.T, "x": x[:, None]}
        if m is not None:
            inputs |= {"m": m[:, None], "n": whole.n[:, None]}
    moved = "v" if name == "base" else name
    flat = arr.reshape(-1)
    grads = np.empty(flat.size)
    size = min(max(1, _FD_CHUNK_BYTES // (16 * width)), flat.size)
    for start in range(0, flat.size, size):
        theta = flat[start:start + size]
        h = FD_BASE_STEP * (1.0 + np.abs(theta))
        # Rows 2i and 2i + 1 set scalar start + i to theta_i + h_i and theta_i - h_i.
        c = 2 * theta.size
        scalar = np.arange(start, start + theta.size).repeat(2)
        # b_il sits in row il // r, at entry il % r; scalar jl of another array
        # in column jl % k, at entry jl // k of that column's slice.
        if name == "b":
            unit, entry = np.divmod(scalar, state.b.shape[1])
        else:
            entry, unit = np.divmod(scalar, k)
        part = {key: rows[unit] for key, rows in inputs.items()}
        part[moved][np.arange(c), entry] = (theta[:, None] + h[:, None] * [1.0, -1.0]).reshape(-1)
        if name == "a":
            ys = _weight(part["base"][:, :, None], state.b, part["a"][:, :, None],
                         part.get("m"), cfg)[..., 0]
            ys *= part["x"]
        elif name == "b":
            ys = _weight(part["base"][:, None], part["b"][:, None], state.a, None, cfg)[:, 0]
            if m is not None:
                # In place: delta in ys, the guarded norm of sq + delta
                # (2 v_i + delta) in the gathered rows v_i, then q in ys.
                ys -= part["v"]
                den = part["v"]
                den *= 2.0
                den += ys
                den *= ys
                den += whole.sq
                _guarded_norm(den, out=den)
                ys *= gy[unit][:, None]
                ys += g
                ys /= den
                del den
        else:
            ys = part["v"]
            if m is not None:
                ys *= part["m"] / part["n"]
            ys *= part["x"]
        losses = np.matmul(ys[:, None], w[:, None])[:, 0, 0]
        del ys, part  # the chunk's arrays go before the next chunk's are gathered
        if name == "b" and m is None:
            losses *= gy[unit]
        grads[start:start + theta.size] = (losses[0::2] - losses[1::2]) / (2.0 * h)
    return grads.reshape(arr.shape)


@dataclass
class GradCheckReport:
    errors: dict[str, float]
    passed: bool


def _max_rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
    return float((np.abs(analytic - fd) / scale).max())


def compare_gradient_sets(analytic: GradientSet, fd: GradientSet) -> GradCheckReport:
    """Per-parameter max relative error |a-f|/max(1,|a|,|f|) and overall
    verdict against GRAD_CHECK_TOLERANCE. The two sets must hold the same
    parameters in the same shapes."""
    errors: dict[str, float] = {}
    for name in ("db", "da", "dm", "dx", "dbase"):
        a = getattr(analytic, name)
        f = getattr(fd, name)
        if a is None and f is None:
            continue
        if a is None or f is None:
            raise ValueError(f"gradient sets disagree on presence of {name}")
        if a.shape != f.shape:
            raise ValueError(f"gradient sets disagree on the shape of {name}: "
                             f"{a.shape}, {f.shape}")
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
