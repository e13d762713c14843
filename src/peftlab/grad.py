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
adapters.step_cache that build v and its norms in the layer's StepCache, and
the O(r d k) products b^T v and v (a c)^T; full's dbase = gz x^T goes into
its StepCache's scratch buffer. train reuses one cache per layer across
steps, so its steps allocate no d x k array; without a cache, every call
here uses a new one. In a step, the dora/dude* VJP takes x_m from the
forward (StepCache.xm) instead of forming it again.

finite_diff_grads, the oracle these formulas are checked against, takes
central differences of dense forwards instead, with one step rule,
h = FD_BASE_STEP (1 + |theta|). For each trainable, and for x, it stacks
the displaced copies in chunks and computes every chunk into one workspace,
allocated once per displaced array, through adapters._weight: the in-place
formula that effective_weight and step_cache also use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adapters import AdapterState, StepCache, _scaled, _weight, effective_weight
from .adapters import forward, step_cache, trainable_params
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

    db: np.ndarray | None
    da: np.ndarray | None
    dm: np.ndarray | None
    dx: np.ndarray | None
    dbase: np.ndarray | None = None


def direction_gradient(state: AdapterState, proj: np.ndarray,
                       cache: StepCache | None = None) -> np.ndarray:
    """Column coefficients c of h = dL/dv for a magnitude/direction state,
    given proj_j = <v_j, g_j> for g = dL/dW'.

    h_j = (m_j / n_j) * g_j - c_j * v_j with c_j = (m_j / n_j) * proj_j / ||v_j||^2:
    the scaled projection of g_j onto the orthogonal complement of v_j.
    """
    cache = step_cache(state) if cache is None else cache
    sq = cache.sq
    # A zero column contributes nothing to the projector (v_j is zero);
    # guard the denominator so it does not poison the whole column with NaN:
    # sq + (sq == 0) is sq, or 1 where sq is 0.
    return cache.mn * proj / (sq + (sq == 0.0))


def param_grads(state: AdapterState, gz: np.ndarray, x: np.ndarray,
                cache: StepCache | None = None, input_grad: bool = True,
                x_m: np.ndarray | None = None) -> GradientSet:
    """The per-layer VJP: gradients of L through z = layer_forward(state, x),
    given the input block x (k x n) and gz = dL/dz (d x n), summed over the
    n columns. dx is None unless input_grad. cache, if given, must be
    refreshed from the state's current trainables; full's dbase is then its
    scratch buffer, valid until the cache's next use. x_m, if given, must be
    x * m / n for this x and cache, as layer_forward(state, x, cache) leaves
    it in cache.xm; without it, dora/dude* compute it again.
    """
    # np.dot rather than @: the same BLAS products with less per-call
    # overhead, which dominates a step at small d and k. full's d x k outer
    # product over the batch is the exception: np.matmul is faster there.
    if state.method == "full":
        cache = step_cache(state) if cache is None else cache
        dx = np.dot(state.base.T, gz) if input_grad else None
        return GradientSet(None, None, None, dx, np.matmul(gz, x.T, out=cache.scratch))
    s, b, a = state.config.scaling, state.b, state.a
    bg = np.dot(b.T, gz)
    if state.m is None:
        dx = None
        if input_grad:
            dx = np.dot(state.base.T, gz)
            dx += _scaled(np.dot(a.T, bg), s)
        db, da = np.dot(gz, np.dot(a, x).T), np.dot(bg, x.T)
        return GradientSet(_scaled(db, s), _scaled(da, s), None, dx)
    cache = step_cache(state) if cache is None else cache
    v, mn = cache.v, cache.mn[:, None]
    x_m = x * mn if x_m is None else x_m
    p = np.dot(v.T, gz)
    # proj_j = <v_j, g_j> once for dm and c.
    proj = np.add.reduce(x * p, axis=1)
    c = direction_gradient(state, proj, cache)
    db = np.dot(gz, np.dot(a, x_m).T)
    db -= np.dot(v, (a * c).T)
    da = np.dot(bg, x_m.T)
    da -= np.dot(b.T, v) * c
    dx = np.multiply(p, mn, out=p) if input_grad else None
    return GradientSet(_scaled(db, s), _scaled(da, s), proj / cache.n, dx)


def backward(state: AdapterState, x, gy) -> GradientSet:
    """Exact gradients of L with respect to the trainables and the input,
    given gy = dL/dy for y = effective_weight(state) @ x."""
    x = np.asarray(x, dtype=np.float64)
    gy = np.asarray(gy, dtype=np.float64)
    d, k = state.base.shape
    if x.shape != (k,):
        raise ValueError(f"input length mismatch: expected {k}, got {x.shape}")
    if gy.shape != (d,):
        raise ValueError(f"output-grad length mismatch: expected {d}, got {gy.shape}")
    gs = param_grads(state, gy[:, None], x[:, None])
    gs.dx = gs.dx[:, 0]
    return gs


def finite_diff_grads(state: AdapterState, x, gy) -> GradientSet:
    """Central-difference gradients of L = <gy, forward(state, x)>.

    Each trainable scalar theta, and each entry of x, is displaced by +-h with
    h = FD_BASE_STEP * (1 + |theta|), the one step rule. The displaced copies
    of one array are evaluated in stacked chunks of at most 128 KiB of weights
    (one copy per chunk once a weight takes more than half of that).
    Each array gets one workspace, allocated once, that holds a chunk's
    stacked weights, for dora/dude* their squares, norms and m / n, and its
    outputs; every chunk is computed into it in place, by the operations of
    effective_weight in the same order. Each loss is still gy @ (W_j @ x_j),
    so every gradient has the bits of one forward per displaced scalar. The
    caller's state and x are only read.
    """
    x = np.asarray(x, dtype=np.float64)
    gy = np.asarray(gy, dtype=np.float64)
    grads = {name: _central_differences(state, name, arr, x, gy)
             for name, arr in trainable_params(state) + [("x", x)]}
    return GradientSet(
        db=grads.get("b"),
        da=grads.get("a"),
        dm=grads.get("m"),
        dx=grads["x"],
        dbase=grads.get("base"),
    )


def _central_differences(state: AdapterState, name: str, arr: np.ndarray, x: np.ndarray,
                          gy: np.ndarray) -> np.ndarray:
    """Central-difference gradient of L with respect to arr, the array called
    name (a trainable of state, or x)."""
    flat = arr.reshape(-1)
    h = FD_BASE_STEP * (1.0 + np.abs(flat))
    # Displacements j = 2i, 2i + 1 set scalar i to theta_i + h_i and
    # theta_i - h_i; row j % n of a stack of n copies holds displacement j.
    values = np.stack([flat + h, flat - h], axis=1).reshape(-1)
    undo = np.repeat(flat, 2)
    d, k = state.base.shape
    n = min(max(1, _FD_CHUNK_BYTES // (8 * d * k)), values.size)
    stack = np.repeat(flat[None], n, axis=0)
    buf = stack.reshape(-1)
    at = np.arange(values.size) % n * flat.size + np.arange(values.size) // 2
    stacked = stack.reshape((n,) + arr.shape)
    outputs = _displaced_outputs(state, name, x, n)
    losses = np.empty(values.size)
    for start in range(0, values.size, n):
        stop = min(start + n, values.size)
        buf[at[start:stop]] = values[start:stop]
        ys = outputs(stacked[: stop - start])
        # ndarray.dot of two 1-D arrays is the same ddot as gy @ y; a
        # matrix-vector product ys @ gy would sum in another order.
        losses[start:stop] = np.fromiter(map(gy.dot, ys), np.float64, stop - start)
        buf[at[start:stop]] = undo[start:stop]
    return ((losses[0::2] - losses[1::2]) / (2.0 * h)).reshape(arr.shape)


def _displaced_outputs(state: AdapterState, name: str, x: np.ndarray, n: int):
    """f(p) = W_j @ x_j for each entry j of p, a stack of at most n copies of
    the array called name (a trainable, or x) with p in its place. Every call
    writes into one workspace allocated here: the stacked weights, for
    dora/dude* their squares, norms and m / n, and the outputs. The x
    displacements reuse the unperturbed weight, the m ones the unperturbed
    direction v and its norms n."""
    d, k = state.base.shape
    ys = np.empty((n, d, 1))
    if name == "x":
        w = effective_weight(state)
        return lambda p: np.matmul(w, p[..., None], out=ys[: len(p)])[..., 0]
    if name == "base":
        return lambda p: np.matmul(p, x, out=ys[: len(p), :, 0])
    ws = StepCache(v=np.empty((n, d, k)), mn=None if state.m is None else np.empty((n, k)))
    if name == "m":
        cache = step_cache(state)

        def outputs(p):
            c = len(p)
            mn = np.divide(p, cache.n, out=ws.mn[:c])
            w = np.multiply(cache.v, mn[:, None, :], out=ws.v[:c])
            return np.matmul(w, x, out=ys[:c, :, 0])
        return outputs
    if state.m is not None:
        ws.scratch, ws.sq, ws.n = np.empty((n, d, k)), np.empty((n, k)), np.empty((n, k))

    def outputs(p):
        c = len(p)
        # Only the last chunk can be shorter: it takes views of the first c entries.
        head = ws if c == n else StepCache(**{f: None if buf is None else buf[:c]
                                               for f, buf in vars(ws).items()})
        b, a = (p, state.a) if name == "b" else (state.b, p)
        w = _weight(state.base, b, a, state.m, state.config, head)
        return np.matmul(w, x, out=ys[:c, :, 0])
    return outputs


@dataclass
class GradCheckReport:
    errors: dict[str, float]
    passed: bool
    epsilon: float
    tolerance: float


def _max_rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
    return float((np.abs(analytic - fd) / scale).max())


def compare_gradient_sets(analytic: GradientSet, fd: GradientSet, tolerance: float):
    """Per-parameter max relative error |a-f|/max(1,|a|,|f|) and overall verdict."""
    errors: dict[str, float] = {}
    for name in ("db", "da", "dm", "dx", "dbase"):
        a = getattr(analytic, name)
        f = getattr(fd, name)
        if a is None and f is None:
            continue
        if a is None or f is None:
            raise ValueError(f"gradient sets disagree on presence of {name}")
        errors[name] = _max_rel_err(a, f)
    passed = all(err <= tolerance for err in errors.values())
    return errors, passed


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
    fd = finite_diff_grads(state, x, gy)
    errors, passed = compare_gradient_sets(analytic, fd, GRAD_CHECK_TOLERANCE)
    return GradCheckReport(errors, passed, FD_BASE_STEP, GRAD_CHECK_TOLERANCE)
