import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peftlab import grad
from peftlab.adapters import (
    METHODS,
    NORM_EPSILON,
    AdapterConfig,
    forward,
    initialize,
    layer_forward,
    merge,
    step_cache,
    trainable_params,
)
from peftlab.grad import (
    backward,
    compare_gradient_sets,
    direction_gradient,
    finite_diff_grads,
    grad_check,
    param_grads,
)


def random_case(method, d, k, r, seed, scaling=1.0):
    rng = np.random.default_rng(seed)
    w0 = rng.standard_normal((d, k)) / np.sqrt(k)
    state = initialize(w0, AdapterConfig(method, r, scaling=scaling, seed=seed + 1))
    # Move off the init point so gradients are generic (lora's b is zero at
    # init, which would hide da errors).
    for arr in (state.b, state.a) + (() if state.m is None else (state.m,)):
        arr += 0.1 * rng.standard_normal(arr.shape)
    x = rng.standard_normal(k)
    gy = rng.standard_normal(d)
    return state, x, gy


def max_rel(a, f):
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(f)))
    return float((np.abs(a - f) / scale).max())


def direction_from_coefficients(state, v, g):
    """h = dL/dv for g = dL/dW', built column by column from the coefficients
    c that direction_gradient returns: h_j = (m_j / n_j) g_j - c_j v_j."""
    n = np.linalg.norm(v, axis=0) + NORM_EPSILON
    c = direction_gradient(state, (v * g).sum(axis=0))
    return (state.m / n) * g - c * v


# ---------------------------------------------------------------------------
# analytic backward

def test_zero_output_gradient_gives_zero_grads():
    state, x, _ = random_case("dude", 5, 4, 2, seed=0)
    gs = backward(state, x, np.zeros(5))
    assert np.array_equal(gs.db, np.zeros_like(state.b))
    assert np.array_equal(gs.da, np.zeros_like(state.a))
    assert np.array_equal(gs.dm, np.zeros_like(state.m))
    assert np.array_equal(gs.dx, np.zeros(4))


def test_direction_gradient_orthogonal_to_columns():
    # h = dL/dv projects onto the orthogonal complement of each column. The
    # bound is relative to (m_j / n_j) * ||g_j||, the scale of h_j's rounding
    # error: at d = 1 the exact h_j is 0, so ||h_j|| is that error.
    for seed in range(12):
        d = 1 + seed % 6
        state, x, gy = random_case("dude", d, 5, min(2, d), seed=seed)
        g = np.outer(gy, x)
        v = state.base + state.config.scaling * (state.b @ state.a)
        h = direction_from_coefficients(state, v, g)
        for j in range(v.shape[1]):
            inner = abs(float(v[:, j] @ h[:, j]))
            n_j = np.linalg.norm(v[:, j]) + NORM_EPSILON
            scale = abs(state.m[j]) / n_j * np.linalg.norm(g[:, j])
            bound = 1e-10 * np.linalg.norm(v[:, j]) * scale
            assert inner <= max(bound, 1e-30)


def with_zero_column(state):
    """The state with column 0 of v = base + s * b @ a exactly zero (the
    guarded path); full's base gets a zero column instead."""
    base = state.base.copy()
    if state.method == "full":
        base[:, 0] = 0.0
    else:
        base[:, 0] = -(state.config.scaling * (state.b @ state.a))[:, 0]
    return dataclasses.replace(state, base=base)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("d, k, r", [(6, 4, 2), (3, 7, 3), (5, 5, 5)])
def test_cached_step_gives_the_uncached_bytes(method, d, k, r):
    state, _, _ = random_case(method, d, k, r, seed=d * k + r)
    state = with_zero_column(state)
    rng = np.random.default_rng(r)
    x, gz = rng.standard_normal((k, 3)), rng.standard_normal((d, 3))
    cache = step_cache(state)

    def bits(gs):
        arrays = [gs] if isinstance(gs, np.ndarray) else [gs.db, gs.da, gs.dm, gs.dx, gs.dbase]
        return [None if a is None else (a.shape, a.tobytes()) for a in arrays]

    assert bits(layer_forward(state, x, cache)) == bits(layer_forward(state, x))
    assert bits(param_grads(state, gz, x, cache)) == bits(param_grads(state, gz, x))
    if state.m is not None:
        proj = rng.standard_normal(k)
        assert bits(direction_gradient(state, proj, cache)) == bits(direction_gradient(state, proj))


def test_doubling_magnitude_exactly_doubles_factor_grads():
    state, x, gy = random_case("dude", 5, 4, 2, seed=3)
    gs1 = backward(state, x, gy)
    doubled = dataclasses.replace(state, m=2.0 * state.m)
    gs2 = backward(doubled, x, gy)
    assert np.array_equal(gs2.db, 2.0 * gs1.db)
    assert np.array_equal(gs2.da, 2.0 * gs1.da)
    # dm divides the magnitude out again, so it is unchanged.
    assert np.array_equal(gs2.dm, gs1.dm)


def test_backward_shape_validation():
    state, x, gy = random_case("lora", 4, 3, 2, seed=1)
    with pytest.raises(ValueError, match="input length"):
        backward(state, np.zeros(4), gy)
    with pytest.raises(ValueError, match="output-grad length"):
        backward(state, x, np.zeros(3))


# ---------------------------------------------------------------------------
# finite differences vs analytic

def test_dude_matches_oracle_entrywise():
    state, x, gy = random_case("dude", 4, 3, 2, seed=7)
    ana = backward(state, x, gy)
    fd = finite_diff_grads(state, x, gy)
    assert max_rel(ana.db, fd.db) <= 1e-6
    assert max_rel(ana.da, fd.da) <= 1e-6
    assert max_rel(ana.dm, fd.dm) <= 1e-6


def test_lora_loss_is_affine_in_b():
    # For lora the loss is bilinear, so central differences are exact up to
    # rounding and db equals g @ a.T directly.
    state, x, gy = random_case("lora", 5, 4, 2, seed=11)
    fd = finite_diff_grads(state, x, gy)
    expected = np.outer(gy, x) @ state.a.T
    assert max_rel(fd.db, expected) <= 1e-9


def test_magnitude_grad_is_exact_under_fd():
    # With the direction fixed, the loss is affine in m.
    state, x, gy = random_case("dude", 5, 4, 2, seed=13)
    ana = backward(state, x, gy)
    fd = finite_diff_grads(state, x, gy)
    assert max_rel(ana.dm, fd.dm) <= 1e-9


def test_fd_truncation_error_shrinks_with_step():
    # Central differences have O(h^2) truncation error; with a step large
    # enough to dominate rounding, halving it should shrink the deviation
    # from the analytic gradient by about 4x.
    state, x, gy = random_case("dude", 5, 4, 2, seed=17)
    ana = backward(state, x, gy)
    with mock.patch.object(grad, "FD_BASE_STEP", 1e-3):
        fd_h = finite_diff_grads(state, x, gy)
    with mock.patch.object(grad, "FD_BASE_STEP", 5e-4):
        fd_h2 = finite_diff_grads(state, x, gy)
    dev_h = np.abs(fd_h.db - ana.db).max()
    dev_h2 = np.abs(fd_h2.db - ana.db).max()
    assert dev_h > 1e-12  # step chosen so truncation is visible
    assert dev_h2 <= dev_h / 4.0 + 1e-11
    # And the h-to-h/2 change itself is bounded by the prior deviation scale.
    assert np.abs(fd_h2.db - fd_h.db).max() <= 4.0 * dev_h


def test_fd_restores_state_bit_exact():
    state, x, gy = random_case("dude", 4, 4, 2, seed=19)
    snapshots = [state.base.tobytes(), state.b.tobytes(), state.a.tobytes(), state.m.tobytes()]
    finite_diff_grads(state, x, gy)
    assert [state.base.tobytes(), state.b.tobytes(), state.a.tobytes(), state.m.tobytes()] == snapshots


def _writable_copy(state):
    return dataclasses.replace(state, base=state.base.copy(), b=state.b.copy(), a=state.a.copy(),
                               m=None if state.m is None else state.m.copy())


# The per-scalar loop grad.finite_diff_grads must match bit for bit: one
# forward per displaced scalar, on a private copy of the state.
def _reference_finite_diff_grads(state, x, gy):
    work = _writable_copy(state)
    xs = np.asarray(x, dtype=np.float64).copy()
    gy = np.asarray(gy, dtype=np.float64)
    grads = {}
    for name, arr in trainable_params(work) + [("x", xs)]:
        flat = arr.reshape(-1)
        gflat = np.zeros(flat.size)
        for idx in range(flat.size):
            theta = flat[idx]
            h = grad.FD_BASE_STEP * (1.0 + abs(theta))
            flat[idx] = theta + h
            lp = float(gy @ forward(work, xs))
            flat[idx] = theta - h
            lm = float(gy @ forward(work, xs))
            flat[idx] = theta
            gflat[idx] = (lp - lm) / (2.0 * h)
        grads[name] = gflat.reshape(arr.shape)
    return grads


def _state_snapshot(state, *arrays):
    return [(a.tobytes(), a.shape, a.flags.writeable)
            for a in (state.base, state.b, state.a, state.m, *arrays) if a is not None]


@settings(max_examples=60, deadline=None)
@given(
    method=st.sampled_from(METHODS),
    d=st.integers(1, 24),
    k=st.integers(1, 24),
    rank=st.integers(1, 24),
    scaling=st.floats(0.25, 4.0),
    seed=st.integers(0, 2**32 - 1),
    custom_step=st.booleans(),
)
# 64 x 256 weights fill the whole chunk budget: one perturbation per chunk.
@example(method="dora", d=64, k=256, rank=8, scaling=1.0, seed=5, custom_step=False)
# 32 x 257 weights take just over half the budget, so each chunk again holds
# one copy; scaling != 1 runs the in-place scaling of every method there.
@example(method="full", d=32, k=257, rank=1, scaling=0.5, seed=6, custom_step=False)
@example(method="lora", d=32, k=257, rank=1, scaling=3.0, seed=7, custom_step=False)
@example(method="dora", d=32, k=257, rank=1, scaling=0.5, seed=8, custom_step=True)
@example(method="pissa", d=32, k=257, rank=1, scaling=0.5, seed=9, custom_step=False)
@example(method="dude", d=32, k=257, rank=1, scaling=3.0, seed=10, custom_step=False)
@example(method="dude_a", d=32, k=257, rank=1, scaling=0.5, seed=11, custom_step=True)
@example(method="dude_b", d=32, k=257, rank=1, scaling=3.0, seed=12, custom_step=False)
def test_fd_bits_match_reference_loop(method, d, k, rank, scaling, seed, custom_step):
    r = 1 + (rank - 1) % min(d, k)
    state, x, gy = random_case(method, d, k, r, seed, scaling=scaling)
    before = _state_snapshot(state, x, gy)
    step = 3e-6 if custom_step else grad.FD_BASE_STEP
    with mock.patch.object(grad, "FD_BASE_STEP", step):
        got = finite_diff_grads(state, x, gy)
        assert _state_snapshot(state, x, gy) == before
        want = _reference_finite_diff_grads(state, x, gy)
    for name in ("b", "a", "m", "x", "base"):
        g = getattr(got, "d" + name)
        if name not in want:
            assert g is None, name
            continue
        w = want[name]
        assert (g.shape, g.strides, g.tobytes()) == (w.shape, w.strides, w.tobytes()), name


@pytest.mark.parametrize("method, d, k, r", [("dora", 64, 256, 8), ("dude", 12, 12, 12)])
def test_fd_peak_memory_is_bounded_by_the_chunk_budget(method, d, k, r):
    # Stacked perturbations and their temporaries stay within a few chunk
    # budgets, plus the one unperturbed weight the x displacements reuse.
    state, x, gy = random_case(method, d, k, r, seed=2)
    tracemalloc.start()
    try:
        finite_diff_grads(state, x, gy)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * grad._FD_CHUNK_BYTES + 8 * d * k


def test_input_gradient_matches_fd():
    for method in ("lora", "dora", "pissa", "dude", "full"):
        state, x, gy = random_case(method, 5, 4, 2, seed=23)
        ana = backward(state, x, gy)
        fd = finite_diff_grads(state, x, gy)
        assert max_rel(ana.dx, fd.dx) <= 1e-6, method


def test_base_and_update_perturbations_are_interchangeable():
    # dL/d(base) and dL/d(b @ a) act through the same sum, so adding a small
    # delta to the base or folding the same delta into the factors moves the
    # loss identically.
    state, x, gy = random_case("dude", 5, 4, 2, seed=29)
    rng = np.random.default_rng(101)
    e = rng.standard_normal(state.a.shape)
    h = 1e-4

    def loss(st):
        from peftlab.adapters import forward
        return float(gy @ forward(st, x))

    base_loss = loss(state)
    delta = state.b @ e  # delta in the span of b so the factors can realize it
    via_base = dataclasses.replace(state, base=state.base + h * delta)
    via_factors = dataclasses.replace(state, a=state.a + h * e)
    change_base = loss(via_base) - base_loss
    change_factors = loss(via_factors) - base_loss
    assert abs(change_base - change_factors) <= 1e-8 * max(1.0, abs(change_base))
    assert abs(change_base) > 1e-9  # the perturbation actually moved the loss


# ---------------------------------------------------------------------------
# grad_check harness

def test_grad_check_passes_for_every_method():
    for method in METHODS:
        for r in (1, 2, 3):
            rng = np.random.default_rng(97 + r)
            w0 = rng.standard_normal((5, 4))
            state = initialize(w0, AdapterConfig(method, r, seed=5))
            report = grad_check(state, seed=42)
            assert report.passed, (method, r, report.errors)


def test_grad_check_detects_corruption():
    state, x, gy = random_case("dude", 5, 4, 2, seed=31)
    ana = backward(state, x, gy)
    fd = finite_diff_grads(state, x, gy)
    ana.da = ana.da + 1e-3
    errors, passed = compare_gradient_sets(ana, fd, tolerance=1e-5)
    assert not passed
    assert errors["da"] > 1e-5


def test_grad_check_deterministic_per_seed():
    _, state = None, initialize(np.random.default_rng(4).standard_normal((6, 3)),
                                AdapterConfig("dora", 2, seed=9))
    r1 = grad_check(state, seed=7)
    r2 = grad_check(state, seed=7)
    assert r1 == r2
    assert grad_check(state, seed=8) != r1


def test_grad_check_with_nondefault_scaling():
    rng = np.random.default_rng(41)
    for method in ("lora", "dude"):
        w0 = rng.standard_normal((6, 5))
        state = initialize(w0, AdapterConfig(method, 2, scaling=0.5, seed=1))
        state.b += 0.2 * rng.standard_normal(state.b.shape)
        assert grad_check(state, seed=3).passed, method


@settings(max_examples=60, deadline=None)
@given(
    method=st.sampled_from(METHODS),
    d=st.integers(1, 8),
    k=st.integers(1, 8),
    data=st.data(),
    scaling=st.floats(0.25, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_gradient_and_merge_properties(method, d, k, data, scaling, seed):
    # Unit-scale layers at every rank, with the trainables moved off their init.
    r = data.draw(st.integers(1, min(d, k)), label="rank")
    state, x, gy = random_case(method, d, k, r, seed, scaling=scaling)
    report = grad_check(state, seed=seed)
    assert report.passed, report.errors
    if state.m is not None:
        v = state.base + scaling * (state.b @ state.a)
        g = np.outer(gy, x)
        h = direction_from_coefficients(state, v, g)
        inner = np.abs((v * h).sum(axis=0))
        # Relative to the projected vector (m_j / n_j) g_j, not to h_j: at
        # d = 1 the exact h_j is zero and the computed one is rounding noise
        # parallel to v_j.
        norms = np.linalg.norm(v, axis=0)
        scale = np.abs(state.m) / (norms + NORM_EPSILON) * np.linalg.norm(g, axis=0)
        assert np.all(inner <= np.maximum(1e-10 * norms * scale, 1e-30))
    assert np.allclose(merge(state) @ x, forward(state, x), rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# factored VJP vs the dense formulas

# The dense step the factored param_grads replaced, kept as an independent
# oracle: it forms the effective weight W', g = dL/dW' = gz x^T and the
# direction gradient h = dL/dv, and maps g to the parameter gradients.

def _ref_weight(state):
    if state.method == "full":
        return state.base.copy()
    v = state.base + state.config.scaling * (state.b @ state.a)
    if state.m is None:
        return v
    n = np.linalg.norm(v, axis=-2) + NORM_EPSILON
    return v * (state.m / n)[..., None, :]


def _ref_direction_gradient(state, g):
    v = state.base + state.config.scaling * (state.b @ state.a)
    norms = np.linalg.norm(v, axis=0)
    n = norms + NORM_EPSILON
    proj = (v * g).sum(axis=0)
    denom = np.where(norms > 0.0, norms * norms, 1.0)
    return (state.m / n) * (g - v * (proj / denom))


def _ref_param_grads(state, g):
    """Gradients in trainable_params order."""
    if state.method == "full":
        return [g.copy()]
    s = state.config.scaling
    if state.m is None:
        return [s * (g @ state.a.T), s * (state.b.T @ g)]
    v = state.base + s * (state.b @ state.a)
    n = np.linalg.norm(v, axis=0) + NORM_EPSILON
    dm = (v * g).sum(axis=0) / n
    h = _ref_direction_gradient(state, g)
    return [s * (h @ state.a.T), s * (state.b.T @ h), dm]


def _term_sizes(state, gz, x):
    """For each gradient of _ref_param_grads, then dx, the size of the terms
    its entries sum, from absolute values. Column g_j = gz x_j^T of dL/dW'
    enters at the norm of sum_n |gz_n| |x_jn|, so the column sizes of h,
    (m_j / n_j) * that norm, are the scale criterion 4 bounds h_j by."""
    s = abs(state.config.scaling)
    d, k = state.base.shape
    g_abs = np.abs(gz) @ np.abs(x).T
    col = np.linalg.norm(g_abs, axis=0)
    if state.method == "full":
        return [g_abs, np.abs(state.base).T @ np.abs(gz)]
    v_abs = np.abs(state.base) + s * (np.abs(state.b) @ np.abs(state.a))
    mn = np.ones(k)
    if state.m is not None:
        norms = np.linalg.norm(state.base + state.config.scaling * (state.b @ state.a), axis=0)
        mn = np.abs(state.m) / (norms + NORM_EPSILON)
    h_col = mn * col
    sizes = [s * np.broadcast_to(np.abs(state.a) @ h_col, (d, state.a.shape[0])),
             s * np.abs(state.b).sum(axis=0)[:, None] * h_col]
    if state.m is not None:
        sizes.append(norms * col / (norms + NORM_EPSILON))
    return sizes + [mn[:, None] * (v_abs.T @ np.abs(gz))]


@settings(max_examples=150, deadline=None)
@given(
    method=st.sampled_from(METHODS),
    d=st.integers(1, 8),
    k=st.integers(1, 8),
    data=st.data(),
    n=st.integers(1, 4),
    scaling=st.floats(0.25, 4.0).filter(lambda s: s != 1.0),
    zero_column=st.booleans(),
    exponent=st.sampled_from([0, 100, -100]),
    seed=st.integers(0, 2**32 - 1),
)
def test_factored_grads_match_the_dense_oracle(method, d, k, data, n, scaling, zero_column,
                                               exponent, seed):
    # One step of n samples at input scale 10^exponent. Each entry may differ
    # from the dense formulas by rounding only: by at most 1e-13 of the size
    # of the terms it sums.
    r = data.draw(st.integers(1, min(d, k)), label="rank")
    state, _, _ = random_case(method, d, k, r, seed, scaling=scaling)
    if zero_column:
        state = with_zero_column(state)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((k, n)) * 10.0 ** exponent
    gz = rng.standard_normal((d, n))
    gs = param_grads(state, gz, x)
    got = [a for a in (gs.db, gs.da, gs.dm, gs.dbase) if a is not None] + [gs.dx]
    want = _ref_param_grads(state, gz @ x.T) + [_ref_weight(state).T @ gz]
    names = [name for name, _ in trainable_params(state)] + ["x"]
    for name, g, w, size in zip(names, got, want, _term_sizes(state, gz, x), strict=True):
        assert g.shape == w.shape
        assert np.all(np.isfinite(g)) and np.all(np.isfinite(size))
        assert np.all(np.abs(g - w) <= 1e-13 * size), (name, np.abs(g - w).max())
