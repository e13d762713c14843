import dataclasses
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from layer_oracle import ADAPTER_METHODS, MAGNITUDE_METHODS, direction, guarded_norm
from layer_oracle import projection_gaps
from peftlab import grad
from peftlab.adapters import (
    METHODS,
    AdapterConfig,
    effective_weight,
    forward,
    initialize,
    layer_forward,
    merge,
    step_cache,
    trainable_params,
)
from peftlab.grad import (
    GradientSet,
    backward,
    compare_gradient_sets,
    direction_gradient,
    finite_diff_grads,
    grad_check,
    param_grads,
)
from peftlab.linalg import NumericError
from peftlab.trainer import Layer, Model, Task, evaluate, loss_and_grads, model_forward


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
    # h = dL/dv projects onto the orthogonal complement of each column, to
    # the bound projection_gaps states.
    for seed in range(12):
        d = 1 + seed % 6
        state, x, gy = random_case("dude", d, 5, min(2, d), seed=seed)
        for inner, bound in projection_gaps(state, np.outer(gy, x), 1e-10):
            assert inner <= bound


def with_zero_column(state):
    """The state with column 0 of v = base + s * b @ a exactly zero (the
    guarded path); full's base gets a zero column instead."""
    base = state.base.copy()
    if state.method == "full":
        base[:, 0] = 0.0
    else:
        base[:, 0] = -(state.config.scaling * (state.b @ state.a))[:, 0]
    return dataclasses.replace(state, base=base)


def assert_reused_cache_gives_fresh_bytes(method, d, k, r, scaling, zero_column, seed):
    """layer_forward, then param_grads and direction_gradient, on a state
    whose kernels last ran on other trainables and another input block, its
    trainables since changed in place as train changes them: with
    step_cache(state) taken now, every result has the bits of a
    dataclasses.replace copy's, which no kernel has seen. Nothing of the
    earlier call is kept anywhere."""
    state, _, _ = random_case(method, d, k, r, seed, scaling=scaling)
    if zero_column:
        state = with_zero_column(state)
    rng = np.random.default_rng(seed)
    x, gz = rng.standard_normal((k, 3)), rng.standard_normal((d, 3))
    params = [arr for _, arr in trainable_params(state)]
    saved = [arr.copy() for arr in params]
    for arr in params:
        arr += 0.1 * rng.standard_normal(arr.shape)
    stale_x, stale = rng.standard_normal((k, 5)), step_cache(state)
    layer_forward(state, stale_x, stale)
    param_grads(state, rng.standard_normal((d, 5)), stale_x, stale)
    for arr, old in zip(params, saved):
        arr[...] = old
    fresh = dataclasses.replace(state)
    cache, fresh_cache = step_cache(state), step_cache(fresh)
    assert bits(layer_forward(state, x, cache)) == bits(layer_forward(fresh, x, fresh_cache))
    assert bits(param_grads(state, gz, x, cache)) == bits(param_grads(fresh, gz, x, fresh_cache))
    if state.m is not None:
        proj = rng.standard_normal(k)
        assert bits(direction_gradient(cache, proj)) == \
            bits(direction_gradient(fresh_cache, proj))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("d, k, r", [(6, 4, 2), (3, 7, 3), (5, 5, 5)])
def test_cached_step_gives_the_uncached_bytes(method, d, k, r):
    assert_reused_cache_gives_fresh_bytes(method, d, k, r, 1.0, True, seed=d * k + r)


@settings(max_examples=100, deadline=None)
@given(
    method=st.sampled_from(METHODS),
    d=st.integers(1, 8),
    k=st.integers(1, 8),
    data=st.data(),
    scaling=st.sampled_from([0.5, 1.0, 3.0]),
    zero_column=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_reused_cache_gives_a_fresh_caches_bytes(method, d, k, data, scaling, zero_column,
                                                   seed):
    r = data.draw(st.integers(1, min(d, k)), label="rank")
    assert_reused_cache_gives_fresh_bytes(method, d, k, r, scaling, zero_column, seed)


def test_doubling_magnitude_exactly_doubles_factor_grads():
    state, x, gy = random_case("dude", 5, 4, 2, seed=3)
    gs1 = backward(state, x, gy)
    doubled = dataclasses.replace(state, m=2.0 * state.m)
    gs2 = backward(doubled, x, gy)
    assert np.array_equal(gs2.db, 2.0 * gs1.db)
    assert np.array_equal(gs2.da, 2.0 * gs1.da)
    # dm divides the magnitude out again, so it is unchanged.
    assert np.array_equal(gs2.dm, gs1.dm)


def test_backward_results_outlive_later_calls():
    # full's dbase is a new array, which a later backward leaves as it was.
    state, x, gy = random_case("full", 5, 4, 1, seed=2)
    first = backward(state, x, gy)
    kept = first.dbase.copy()
    second = backward(state, -2.0 * x, gy)
    assert np.array_equal(first.dbase, kept)
    assert not np.array_equal(second.dbase, kept)


def bits(gs):
    """(shape, bytes) of an array, or of each array of a GradientSet (None where absent)."""
    arrays = [gs] if isinstance(gs, np.ndarray) else [gs.db, gs.da, gs.dm, gs.dx, gs.dbase]
    return [None if a is None else (a.shape, a.tobytes()) for a in arrays]


def test_grad_check_leaves_the_dbase_loss_and_grads_returned():
    # full's dbase is a new array, so grad_check's own backward leaves the
    # one loss_and_grads returned with its bytes.
    state, _, _ = random_case("full", 6, 5, 1, seed=4)
    rng = np.random.default_rng(4)
    batch = rng.standard_normal((5, 3)), rng.standard_normal((6, 3))
    _, grads = loss_and_grads(Model([Layer(state)], loss="mse"), batch)
    kept = grads[0].dbase.copy()
    assert grad_check(state, seed=4).passed
    assert grads[0].dbase.tobytes() == kept.tobytes()


@pytest.mark.parametrize("method", ["dora", "dude", "dude_a", "dude_b"])
def test_param_grads_reads_only_the_block_it_is_given(method):
    # The direction holds no input block: the block the last layer_forward
    # read does not reach param_grads' gradients for another one.
    state, _, _ = random_case(method, 6, 5, 2, seed=5)
    rng = np.random.default_rng(5)
    x1, x2 = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
    gz = rng.standard_normal((6, 3))
    cache = step_cache(state)
    layer_forward(state, x2, cache)
    want = bits(param_grads(state, gz, x2, cache))
    layer_forward(state, x1, cache)
    assert bits(param_grads(state, gz, x2, cache)) == want


@settings(max_examples=100, deadline=None)
@given(
    method=st.sampled_from(METHODS),
    d=st.integers(1, 12),
    k=st.integers(1, 12),
    rank=st.integers(1, 12),
    n=st.integers(1, 6),
    scaling=st.sampled_from([0.5, 3.0]),
    input_grad=st.booleans(),
    zero_column=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(method="dude", d=1, k=7, rank=1, n=3, scaling=0.5, input_grad=True,
         zero_column=False, seed=1)
@example(method="lora", d=7, k=1, rank=1, n=1, scaling=3.0, input_grad=False,
         zero_column=False, seed=2)
@example(method="dora", d=5, k=8, rank=5, n=4, scaling=3.0, input_grad=True,
         zero_column=True, seed=3)
@example(method="full", d=1, k=1, rank=1, n=2, scaling=0.5, input_grad=True,
         zero_column=False, seed=4)
def test_param_grads_into_out_gives_the_bits_of_new_arrays(method, d, k, rank, n, scaling,
                                                           input_grad, zero_column, seed):
    # out's arrays are views of one NaN-filled flat buffer, as train passes
    # them: the returned set holds those very arrays, every entry written
    # with the bits of the call without out, and dx is a new array.
    state, _, _ = random_case(method, d, k, min(rank, d, k), seed, scaling=scaling)
    if zero_column:
        state = with_zero_column(state)
    rng = np.random.default_rng(seed)
    x, gz = rng.standard_normal((k, n)), rng.standard_normal((d, n))
    cache = step_cache(state)
    want = param_grads(state, gz, x, cache, input_grad=input_grad)
    params = trainable_params(state)
    flat = np.full(sum(arr.size for _, arr in params), np.nan)
    cuts = np.cumsum([arr.size for _, arr in params])[:-1]
    out = GradientSet(**{"d" + name: view.reshape(arr.shape)
                         for (name, arr), view in zip(params, np.split(flat, cuts))})
    got = param_grads(state, gz, x, cache, input_grad=input_grad, out=out)
    for name, _ in params:
        assert getattr(got, "d" + name) is getattr(out, "d" + name), name
    assert bits(got) == bits(want)
    assert (got.dx is None) == (not input_grad)
    if input_grad:
        assert got.dx.base is None and not np.shares_memory(got.dx, flat)


@settings(max_examples=60, deadline=None)
@given(
    method=st.sampled_from(METHODS),
    d=st.integers(1, 12),
    k=st.integers(1, 12),
    data=st.data(),
    scaling=st.sampled_from([0.5, 3.0]),
    zero_column=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_no_entry_point_writes_to_a_state(method, d, k, data, scaling, zero_column, seed):
    # Every entry point that takes a state only reads it: afterwards the
    # state has the same fields, each bound to the same object, and every
    # array keeps its bytes.
    r = data.draw(st.integers(1, min(d, k)), label="rank")
    state, x, gy = random_case(method, d, k, r, seed, scaling=scaling)
    if zero_column:
        state = with_zero_column(state)
    rng = np.random.default_rng(seed)
    xs, ts = rng.standard_normal((k, 3)), rng.standard_normal((d, 3))
    model = Model([Layer(state)], loss="mse")
    task = Task("teacher_student", d, k, 0, 0.0, seed, eval_x=xs, eval_t=ts)
    before = {name: (value, value.tobytes() if isinstance(value, np.ndarray) else None)
              for name, value in vars(state).items()}
    cache = step_cache(state)
    layer_forward(state, xs, cache)
    param_grads(state, ts, xs, cache)
    loss_and_grads(model, (xs, ts))
    model_forward(model, xs)
    evaluate(model, task)
    forward(state, x)
    effective_weight(state)
    merge(state)
    backward(state, x, gy)
    finite_diff_grads(state, x, gy)
    grad_check(state, seed=seed)
    assert vars(state).keys() == before.keys()
    for name, (value, data_bytes) in before.items():
        assert vars(state)[name] is value, name
        if data_bytes is not None:
            assert value.tobytes() == data_bytes, name


def test_backward_shape_validation():
    state, x, gy = random_case("lora", 4, 3, 2, seed=1)
    with pytest.raises(ValueError, match="input length"):
        backward(state, np.zeros(4), gy)
    with pytest.raises(ValueError, match="output-grad length"):
        backward(state, x, np.zeros(3))
    # forward and finite_diff_grads make the same check: an x one entry short
    # must not reach the oracle's gathers, which would clamp its missing
    # column to the last one.
    for method in ("full", "lora", "dora"):
        state, x, gy = random_case(method, 4, 6, 2, seed=3)
        for f in (backward, finite_diff_grads):
            with pytest.raises(ValueError, match=r"input length mismatch: expected 6, got \(5,\)"):
                f(state, x[:5], gy)
            with pytest.raises(ValueError, match=r"expected 6, got \(6, 1\)"):
                f(state, x[:, None], gy)
            with pytest.raises(ValueError, match=r"output-grad length mismatch: expected 4, got"):
                f(state, x, gy[:3])
        with pytest.raises(ValueError, match=r"input length mismatch: expected 6, got \(5,\)"):
            forward(state, x[:5])


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


def _writable_copies(state, x, gy):
    """A copy of state with writable arrays of its own, a copy of x, and gy."""
    work = dataclasses.replace(state, base=state.base.copy(), b=state.b.copy(), a=state.a.copy(),
                               m=None if state.m is None else state.m.copy())
    return work, np.asarray(x, dtype=np.float64).copy(), np.asarray(gy, dtype=np.float64)


def _displaced_losses(loss, flat, at):
    """The losses loss() with flat[at] displaced by +h and by -h, flat[at]
    restored after, and h."""
    theta = flat[at]
    h = grad.FD_BASE_STEP * (1.0 + abs(theta))
    flat[at] = theta + h
    lp = loss()
    flat[at] = theta - h
    lm = loss()
    flat[at] = theta
    return lp, lm, h


def _column_layer(state, x, j):
    """Column j of the layer as a one-column layer of its own, and its input
    x[j:j+1], in new arrays: base_j, a_j and m_j are all that W'_j reads."""
    layer = dataclasses.replace(state, base=state.base[:, [j]], a=state.a[:, [j]],
                                m=None if state.m is None else state.m[[j]])
    return layer, x[[j]]


# The per-scalar loop grad.finite_diff_grads must match bit for bit, on a
# private copy of the state. A displaced scalar b_il moves row i of v only:
# its loss is gy_i forward(row i as a layer, x) for lora/pissa and, for
# dora/dude*, with delta = v'_i - v_i from that layer and G = gy @ v,
# sum_j m_j x_j (G_j + gy_i delta_j) / (sqrt(sq_j + delta_j (2 v_ij + delta_j)) + eps).
# A displaced scalar of a or full's base moves one column of W': its loss is
# one forward of that column as a layer. m_j and x_j move no column of v: their
# loss is gy @ (W'_j x_j) from column j of the unperturbed v and its norm.
# Scalar idx of a (r x k), base (d x k), m or x sits in column idx % k, at
# entry idx // k of that column's slice; b_il = b.flat[idx] in row idx // r.
def _reference_finite_diff_grads(state, x, gy):
    work, xs, gy = _writable_copies(state, x, gy)
    k = work.base.shape[1]
    v, sq, n, _ = direction(work)  # unperturbed

    def row_loss(layer, i):
        if work.m is None:
            return gy[i] * forward(layer, xs)[0]
        delta = effective_weight(layer)[0] - v[i]
        q = (gy @ v + gy[i] * delta) / guarded_norm(np.sqrt(sq + delta * (2.0 * v[i] + delta)))
        return (work.m * xs) @ q

    def whole_column_loss(j):
        col = v[:, j]
        if work.m is not None:
            col = col * (work.m[j] / n[j])
        return float(gy @ (col * xs[j]))

    grads = {}
    for name, arr in trainable_params(work) + [("x", xs)]:
        gflat = np.zeros(arr.size)
        for idx in range(arr.size):
            if name == "b":
                # Row i as a one-row layer without magnitude, in new arrays:
                # base_i and b_i are all that v_i reads.
                i, entry = divmod(idx, work.b.shape[1])
                layer = dataclasses.replace(work, base=work.base[[i]], b=work.b[[i]], m=None)
                loss, flat, at = (lambda: row_loss(layer, i)), layer.b.reshape(-1), entry
            elif name in ("m", "x"):
                loss, flat, at = (lambda: whole_column_loss(idx)), arr, idx
            else:
                layer, layer_x = _column_layer(work, xs, idx % k)
                flat = {"base": layer.base, "a": layer.a}[name].reshape(-1)
                loss, at = (lambda: float(gy @ forward(layer, layer_x))), idx // k
            lp, lm, h = _displaced_losses(loss, flat, at)
            gflat[idx] = (lp - lm) / (2.0 * h)
        grads[name] = gflat.reshape(arr.shape)
    return grads


# A second, dense oracle: one forward of the whole layer per displaced scalar
# of every array. finite_diff_grads must match it to rounding.
def _dense_finite_diff_grads(state, x, gy):
    work, xs, gy = _writable_copies(state, x, gy)
    grads = {}
    for name, arr in trainable_params(work) + [("x", xs)]:
        flat = arr.reshape(-1)
        gflat = np.zeros(flat.size)
        for idx in range(flat.size):
            lp, lm, h = _displaced_losses(lambda: float(gy @ forward(work, xs)), flat, idx)
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
# At 64 x 256 a chunk holds 64 one-row layers for b, and 256 one-column
# layers, two per scalar and so 128 of the 256 columns, for a, m and x.
@example(method="dora", d=64, k=256, rank=8, scaling=1.0, seed=5, custom_step=False)
# At 32 x 257 a chunk holds 62 rows, so b's 64 displacements at rank 1 end
# in a short chunk of 2, and 512 columns, so a column path of 514
# displacements ends in a short chunk of 2; scaling != 1 runs the in-place
# scaling of every method there.
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


def with_zero_input_column(state):
    """The state with column 0 of base and of a set to zero, so column 0 of
    v = base + s * b @ a is exactly zero however b @ a is summed (that of
    with_zero_column cancels exactly in the whole product only)."""
    base, a = state.base.copy(), state.a.copy()
    base[:, 0] = 0.0
    a[:, 0] = 0.0
    return dataclasses.replace(state, base=base, a=a)


def _padded(arr):
    """|theta| + h for every scalar theta of arr: the largest |theta +- h|."""
    return np.abs(arr) + grad.FD_BASE_STEP * (1.0 + np.abs(arr))


def _loss_term_size(state, x, gy):
    """sum_ij |gy_i| |W'_ij| |x_j| over any one displacement, with |W'_ij|
    bounded by |m_j| for dora/dude* (|v_ij| <= ||v_j|| < n_j, so a zero
    column that a displacement moves off zero is covered too) and by
    |base| + s |b| |a| for the others."""
    if state.m is not None:
        w = np.broadcast_to(_padded(state.m), state.base.shape)
    else:
        w = _padded(state.base) + state.config.scaling * (_padded(state.b) @ _padded(state.a))
    return float(np.abs(gy) @ w @ _padded(x))


@settings(max_examples=60, deadline=None)
@given(
    method=st.sampled_from(METHODS),
    d=st.integers(1, 24),
    k=st.integers(1, 24),
    data=st.data(),
    scaling=st.floats(0.25, 4.0).filter(lambda s: s != 1.0),
    zero_column=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_column_oracle_matches_the_dense_oracle(method, d, k, data, scaling, zero_column, seed):
    # The dense oracle's losses sum d k terms gy_i W'_ij x_j and its W' is
    # rounded by the d-term norms and r-term products: each loss is off by at
    # most (k + 2d + r + 4) u S, S = _loss_term_size, and the column oracle's
    # by less. So the two central differences agree within
    # 4 (k + 2d + r + 4) u S / (2h) = (k + 2d + r + 4) eps S / h per scalar.
    r = data.draw(st.integers(1, min(d, k)), label="rank")
    state, x, gy = random_case(method, d, k, r, seed, scaling=scaling)
    if zero_column:
        state = with_zero_input_column(state)
    got = finite_diff_grads(state, x, gy)
    want = _dense_finite_diff_grads(state, x, gy)
    size = (k + 2 * d + r + 4) * np.finfo(float).eps * _loss_term_size(state, x, gy)
    for name, arr in trainable_params(state) + [("x", x)]:
        g, w = getattr(got, "d" + name), want[name]
        bound = size / (grad.FD_BASE_STEP * (1.0 + np.abs(arr)))
        assert np.all(np.abs(g - w) <= bound), (name, np.abs(g - w).max(), bound.min())


@settings(max_examples=100, deadline=None)
@given(
    method=st.sampled_from(METHODS),
    d=st.integers(1, 12),
    k=st.integers(1, 12),
    data=st.data(),
    scaling=st.sampled_from([0.5, 1.0, 3.0]),
    zero_column=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_column_layers_give_the_columns_of_the_weight(method, d, k, data, scaling,
                                                          zero_column, seed):
    # The column oracle assumes W'_j reads base_j, a_j and m_j only. Every
    # column as a one-column layer, stacked (base_j: d x 1, a_j: r x 1,
    # m_j: 1), must give the columns of the weight up to rounding: in v by
    # the r-term products, in n_j by the d-term norm. with_zero_column's
    # column 0 cancels exactly in the whole product only; the bound, scaled
    # by 1 / n_j, covers its rounding residue in the one-column product.
    r = data.draw(st.integers(1, min(d, k)), label="rank")
    state, _, _ = random_case(method, d, k, r, seed, scaling=scaling)
    if zero_column:
        state = with_zero_column(state)
    columns = dataclasses.replace(state, base=state.base.T[:, :, None], a=state.a.T[:, :, None],
                                  m=None if state.m is None else state.m[:, None])
    got = effective_weight(columns)
    assert got.shape == (k, d, 1)
    want = effective_weight(state)
    eps = np.finfo(float).eps
    env = np.abs(state.base) + scaling * (np.abs(state.b) @ np.abs(state.a))
    bound = (r + 2) * eps * env
    if state.m is not None:
        mn = np.abs(direction(state).mn)
        bound = mn * (bound + (d + r + 4) * eps * np.linalg.norm(env, axis=0))
    assert np.all(np.abs(got[..., 0].T - want) <= bound)


@settings(max_examples=100, deadline=None)
@given(
    # full has no b, and its W' is base alone.
    method=st.sampled_from(ADAPTER_METHODS),
    d=st.integers(1, 12),
    k=st.integers(1, 12),
    data=st.data(),
    scaling=st.sampled_from([0.5, 1.0, 3.0]),
    zero_column=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_row_layers_give_the_rows_of_the_direction(method, d, k, data, scaling,
                                                        zero_column, seed):
    # The row oracle assumes row i of v = base + s * b @ a reads base_i and
    # b_i only. Every row as a one-row layer without magnitude, stacked
    # (base_i: 1 x k, b_i: 1 x r), must give the rows of v up to the rounding
    # of its r-term products. with_zero_column's column 0 cancels exactly in
    # the whole product only; the bound covers its residue in a one-row product.
    r = data.draw(st.integers(1, min(d, k)), label="rank")
    state, _, _ = random_case(method, d, k, r, seed, scaling=scaling)
    if zero_column:
        state = with_zero_column(state)
    rows = dataclasses.replace(state, base=state.base[:, None, :], b=state.b[:, None, :], m=None)
    got = effective_weight(rows)
    assert got.shape == (d, 1, k)
    want = direction(state).v
    env = np.abs(state.base) + scaling * (np.abs(state.b) @ np.abs(state.a))
    assert np.all(np.abs(got[:, 0] - want) <= (r + 2) * np.finfo(float).eps * env)


@settings(max_examples=100, deadline=None)
@given(
    method=st.sampled_from(["dora", "dude", "dude_a", "dude_b"]),
    d=st.integers(1, 12),
    k=st.integers(1, 12),
    data=st.data(),
    scaling=st.sampled_from([0.5, 1.0, 3.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fd_magnitude_and_input_grads_match_backward_at_a_cancelling_column(
        method, d, k, data, scaling, seed):
    # m_j and x_j do not move v, so the oracle reads v_j and n_j of the whole
    # product, as backward does: with_zero_column's column 0, which cancels
    # exactly there, gives dm_0 = dx_0 = 0 on both sides. (A one-column
    # product of that column leaves a rounding residue res, and
    # W'_0 = m_0 res / (||res|| + eps) of the order of m_0.) The loss is
    # linear in m_j and in x_j, so the rest is rounding: with
    # t_j = sum_i |gy_i| |v_ij| / n_j, the oracle's losses are off by at most
    # (d + 3) u t_j |m_j| |x_j|, the displaced values by u |theta|, and
    # backward's dm_j and dx_j by (d + 2) u t_j times |x_j| and |m_j|.
    r = data.draw(st.integers(1, min(d, k)), label="rank")
    state, x, gy = random_case(method, d, k, r, seed, scaling=scaling)
    state = with_zero_column(state)
    ana = backward(state, x, gy)
    fd = finite_diff_grads(state, x, gy)
    v, _, n, _ = direction(state)
    t = np.abs(gy) @ np.abs(v) / n
    assert t[0] == 0.0
    for name, own, other in (("m", state.m, x), ("x", x, state.m)):
        h = grad.FD_BASE_STEP * (1.0 + np.abs(own))
        bound = (d + 5) * np.finfo(float).eps * t * _padded(other) * (_padded(own) / h + 1.0)
        err = np.abs(getattr(fd, "d" + name) - getattr(ana, "d" + name))
        assert np.all(err <= bound), (name, err.max(), err[0])


@pytest.mark.parametrize("method, d, k, r", [("dora", 64, 256, 8), ("dude", 12, 12, 12),
                                              ("dora", 32, 257, 1), ("dude", 32, 257, 8),
                                              ("lora", 64, 256, 8), ("pissa", 32, 257, 8),
                                              ("full", 64, 256, 1), ("full", 256, 64, 1)])
def test_fd_peak_memory_is_bounded_by_the_chunk_budget(method, d, k, r):
    # Stacked perturbations and their temporaries stay within a few chunk
    # budgets, plus the unperturbed direction v that b, m and x read.
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
    report = compare_gradient_sets(ana, fd)
    assert not report.passed
    assert report.errors["da"] > 1e-5
    # The oracle takes each column's scalars from that column alone, so a
    # gradient put in the wrong column must still fail.
    for method in ("lora", "dude"):
        state, x, gy = random_case(method, 5, 4, 2, seed=31)
        ana = backward(state, x, gy)
        fd = finite_diff_grads(state, x, gy)
        assert compare_gradient_sets(ana, fd).passed, method
        for name in ("da", "dm", "dx"):
            g = getattr(ana, name)
            if g is None:
                continue
            swapped = dataclasses.replace(ana, **{name: g[..., [1, 0, 2, 3]]})
            report = compare_gradient_sets(swapped, fd)
            assert not report.passed and report.errors[name] > 1e-5, (method, name)
        # Likewise each row's scalars of b from that row alone.
        swapped = dataclasses.replace(ana, db=ana.db[[1, 0, 2, 3, 4]])
        report = compare_gradient_sets(swapped, fd)
        assert not report.passed and report.errors["db"] > 1e-5, method


def test_compare_gradient_sets_rejects_mismatched_sets():
    # Broadcasting a 4 x 1 db against a 4 x 2 one, or a length-1 dx against
    # a length-6 one, would compare entries of different parameters.
    state, x, gy = random_case("lora", 4, 6, 2, seed=3)
    ana = backward(state, x, gy)
    assert compare_gradient_sets(ana, ana).passed
    with pytest.raises(ValueError, match="presence of dm"):
        compare_gradient_sets(ana, dataclasses.replace(ana, dm=np.zeros(6)))
    for name, cut in (("db", ana.db[:, :1]), ("dx", ana.dx[:1])):
        want = re.escape(f"shape of {name}: {cut.shape}, {getattr(ana, name).shape}")
        with pytest.raises(ValueError, match=want):
            compare_gradient_sets(dataclasses.replace(ana, **{name: cut}), ana)
        with pytest.raises(ValueError, match=f"shape of {name}"):
            compare_gradient_sets(ana, dataclasses.replace(ana, **{name: cut}))


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


def test_grad_check_raises_when_the_forward_overflows():
    # Every entry of the state is finite, but y = 1e308 * sum(x) is not: at
    # seed 0, sum(x) = 2.82.
    for method in ("full", "lora"):
        state = initialize(np.full((2, 8), 1e308), AdapterConfig(method, 1, seed=0))
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="non-finite"):
            grad_check(state, seed=0)


# Two known false FAILs of grad_check, pinned as strict xfails: each turns
# into an XPASS, and so a failure, once its ROADMAP item lands, and that item
# deletes the marker.

@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: backward's dude gradient drops the NORM_EPSILON term of the "
    "column norm's derivative, about m_j eps / n_j^2 times ||g_j||, which a column "
    "of v near zero (v_0 = 7.4e-5) lifts to da error 2.73e-5 against the 1e-5 tolerance"))
def test_grad_check_passes_at_a_direction_column_near_zero():
    # The example of test_gradient_and_merge_properties that Hypothesis found.
    state, _, _ = random_case("dude", 1, 5, 1, 1, scaling=3.5390625)
    assert grad_check(state, seed=1).passed


_ZERO_B_AT_A_LARGE_BASE = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 4: at b = 0 the central difference of b cancels against a base "
    "of entries >= 1e6, so db's FD error (1.5e-5 to 3.1e-3) exceeds the 1e-5 tolerance"))


@pytest.mark.parametrize("scale", [1e6, 1e8])
@pytest.mark.parametrize("method", [
    pytest.param("lora", marks=_ZERO_B_AT_A_LARGE_BASE),
    pytest.param("dora", marks=_ZERO_B_AT_A_LARGE_BASE),
    "full", "pissa", "dude", "dude_a", "dude_b"])
def test_grad_check_passes_at_a_large_base(method, scale):
    # lora and dora start at b = 0; the other methods are their control: the
    # SVD-initialized ones start with b != 0, and full trains the base itself.
    w0 = np.random.default_rng(1).standard_normal((8, 8)) * scale
    assert grad_check(initialize(w0, AdapterConfig(method, 2, seed=1)), seed=1).passed


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
        for inner, bound in projection_gaps(state, np.outer(gy, x), 1e-10):
            assert inner <= bound
    assert np.allclose(merge(state) @ x, forward(state, x), rtol=1e-12, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    method=st.sampled_from(MAGNITUDE_METHODS),
    d=st.integers(1, 12),
    k=st.integers(1, 12),
    rank=st.integers(1, 12),
    scaling=st.sampled_from([0.5, 1.0, 3.0]),
    exponent=st.sampled_from([0, 100, -100]),
    zero_column=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_cache_has_the_bytes_of_the_oracle_direction(method, d, k, rank, scaling, exponent,
                                                          zero_column, seed):
    # The direction the bit-for-bit oracles share has step_cache's bytes.
    state, _, _ = scaled_case(method, d, k, min(rank, d, k), scaling, exponent, seed)
    state = with_zero_column(state) if zero_column else state
    cache, want = step_cache(state), direction(state)
    assert not zero_column or cache.sq[0] == 0.0
    assert [bits(getattr(cache, name)) for name in want._fields] == [bits(a) for a in want]


# ---------------------------------------------------------------------------
# factored VJP vs the dense formulas

# The dense step the factored param_grads replaced, kept as an independent
# oracle: it forms the effective weight W', g = dL/dW' = gz x^T and the
# direction gradient h = dL/dv, and maps g to the parameter gradients.

def _ref_weight(state):
    v, _, _, mn = direction(state)
    return v if mn is None else v * mn


def _ref_param_grads(state, g):
    """Gradients in trainable_params order; for dora/dude* through
    h = dL/dv = (m_j / n_j) (g_j - v_j (v_j . g_j) / ||v_j||^2)."""
    if state.method == "full":
        return [g.copy()]
    s = state.config.scaling
    if state.m is None:
        return [s * (g @ state.a.T), s * (state.b.T @ g)]
    v, sq, n, mn = direction(state)
    norms = np.sqrt(sq)
    proj = (v * g).sum(axis=0)
    h = mn * (g - v * (proj / np.where(norms > 0.0, norms * norms, 1.0)))
    return [s * (h @ state.a.T), s * (state.b.T @ h), proj / n]


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
    _, sq, n, mn = direction(state)
    mn = np.ones(k) if mn is None else np.abs(mn)
    h_col = mn * col
    sizes = [s * np.broadcast_to(np.abs(state.a) @ h_col, (d, state.a.shape[0])),
             s * np.abs(state.b).sum(axis=0)[:, None] * h_col]
    if state.m is not None:
        sizes.append(np.sqrt(sq) * col / n)
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
    gs = param_grads(state, gz, x, step_cache(state))
    got = [a for a in (gs.db, gs.da, gs.dm, gs.dbase) if a is not None] + [gs.dx]
    want = _ref_param_grads(state, gz @ x.T) + [_ref_weight(state).T @ gz]
    names = [name for name, _ in trainable_params(state)] + ["x"]
    for name, g, w, size in zip(names, got, want, _term_sizes(state, gz, x), strict=True):
        assert g.shape == w.shape
        assert np.all(np.isfinite(g)) and np.all(np.isfinite(size))
        assert np.all(np.abs(g - w) <= 1e-13 * size), (name, np.abs(g - w).max())


# ---------------------------------------------------------------------------
# symmetry identities: oracle-free checks at rounding level
#
# The loss reads (b, a) only through b @ a, which (b, a) -> (b C, C^-1 a)
# leaves unchanged, so every correct gradient has b^T db = da a^T (r x r).
# The weight of a magnitude method is 1-homogeneous in m, and its z in x, so
# sum_j m_j dm_j = <x, dx>: both are <W', gz x^T>. Each side is bounded by
# the same products of the absolute values of its terms, taken before they
# cancel, so the check holds at any weight scale, also where the gradients
# are rounding alone (d = 1, where h = 0).

EPS = np.finfo(np.float64).eps
# Largest |b^T db - da a^T| and |sum m dm - <x, dx>| allowed, in eps times
# the bounds below. Over 10,000 draws of these strategies at each weight
# scale, the largest ratios were 1.13 for param_grads' rescaling identity,
# 1.36 for a two-layer loss_and_grads' and 0.94 for homogeneity.
IDENTITY_EPS = 4.0


def _eps_ratio(gap, bound):
    """max gap / (EPS * bound): 0 where both are 0, inf where only bound is."""
    gap, bound = np.asarray(gap, dtype=float), np.asarray(bound, dtype=float)
    ratio = np.divide(gap, EPS * bound, out=np.where(gap > 0.0, np.inf, 0.0), where=bound > 0.0)
    return float(ratio.max())


def scaled_case(method, d, k, r, scaling, exponent, seed):
    """A state built from w0 = 10^exponent G / sqrt(k), G standard normal,
    with b and a moved off the init point by a tenth of their largest entry
    (b by a tenth of 10^exponent where it starts at zero, as for lora and
    dora), and a unit-scale input block x (k x n) and output gradient gz
    (d x n) for n = 3."""
    rng = np.random.default_rng(seed)
    w0 = rng.standard_normal((d, k)) * (10.0 ** exponent / np.sqrt(k))
    state = initialize(w0, AdapterConfig(method, r, scaling=scaling, seed=seed + 1))
    for arr in (state.b, state.a):
        arr += 0.1 * (np.abs(arr).max() or 10.0 ** exponent) * rng.standard_normal(arr.shape)
    return state, rng.standard_normal((k, 3)), rng.standard_normal((d, 3))


def rescaling_ratio(state, gz, x, cache, gs):
    """|b^T db - da a^T| in eps times |b|^T tb + ta |a|^T, where tb and ta
    size db and da from the absolute values of their terms: s |gz| |a x|^T
    and s |b^T gz| |x|^T for lora/pissa; s (|gz| |a x_m|^T + |v| |a c|^T)
    and s (|b^T gz| |x_m|^T + |b^T v| |c|) for dora/dude*, with
    x_m = mn * x and c the direction coefficients (grad's docstring)."""
    s, b, a = state.config.scaling, state.b, state.a
    bg = np.abs(b.T @ gz)
    if state.m is None:
        tb, ta = s * (np.abs(gz) @ np.abs(a @ x).T), s * (bg @ np.abs(x).T)
    else:
        x_m = x * cache.mn[:, None]
        c = direction_gradient(cache, (x * (cache.v.T @ gz)).sum(axis=1))
        tb = s * (np.abs(gz) @ np.abs(a @ x_m).T + np.abs(cache.v) @ np.abs(a * c).T)
        ta = s * (bg @ np.abs(x_m).T + np.abs(b.T @ cache.v) * np.abs(c))
    return _eps_ratio(np.abs(b.T @ gs.db - gs.da @ a.T), np.abs(b).T @ tb + ta @ np.abs(a).T)


def homogeneity_ratio(state, x, gs):
    """|sum_j m_j dm_j - <x, dx>| in eps times sum |m dm| + sum |x dx|, each
    sum of the rounded products taken exactly (math.fsum)."""
    md, xd = (state.m * gs.dm).ravel(), (x * gs.dx).ravel()
    gap = abs(math.fsum(md) - math.fsum(xd))
    return _eps_ratio(gap, math.fsum(np.abs(md)) + math.fsum(np.abs(xd)))


@settings(max_examples=150, deadline=None)
@given(
    method=st.sampled_from(ADAPTER_METHODS),
    d=st.integers(1, 19),
    k=st.integers(1, 19),
    rank=st.integers(1, 19),
    scaling=st.floats(0.25, 4.0).filter(lambda s: s != 1.0),
    exponent=st.sampled_from([0, 100, -100]),
    input_grad=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(method="dude_b", d=1, k=19, rank=1, scaling=0.5, exponent=100, input_grad=False,
         seed=0)
@example(method="dora", d=19, k=19, rank=19, scaling=3.0, exponent=-100, input_grad=True,
         seed=1)
def test_rescaling_identity_holds_for_param_grads(method, d, k, rank, scaling, exponent,
                                                  input_grad, seed):
    state, x, gz = scaled_case(method, d, k, min(rank, d, k), scaling, exponent, seed)
    cache = step_cache(state)
    gs = param_grads(state, gz, x, cache, input_grad=input_grad)
    assert rescaling_ratio(state, gz, x, cache, gs) <= IDENTITY_EPS


@settings(max_examples=100, deadline=None)
@given(
    method=st.sampled_from(ADAPTER_METHODS),
    d=st.integers(1, 12),
    k=st.integers(1, 12),
    hidden=st.none() | st.integers(1, 12),
    rank=st.integers(1, 12),
    scaling=st.floats(0.25, 4.0).filter(lambda s: s != 1.0),
    exponent=st.sampled_from([0, 100, -100]),
    seed=st.integers(0, 2**32 - 1),
)
def test_rescaling_identity_holds_for_loss_and_grads(method, d, k, hidden, rank, scaling,
                                                      exponent, seed):
    # One mse layer (hidden None) or a ReLU layer of hidden units under a
    # cross-entropy layer, every layer at weight scale 10^exponent. Each
    # layer's identity is checked on the blocks loss_and_grads gave its VJP.
    shapes = [(d, k)] if hidden is None else [(hidden, k), (d, hidden)]
    states = [scaled_case(method, rows, cols, min(rank, rows, cols), scaling, exponent,
                          seed + i)[0] for i, (rows, cols) in enumerate(shapes)]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((k, 3))
    if hidden is None:
        model = Model([Layer(states[0])], loss="mse")
        t = rng.standard_normal((d, 3)) * 10.0 ** exponent
    else:
        model = Model([Layer(states[0], relu=True), Layer(states[1])], loss="cross_entropy")
        t = rng.integers(0, d, size=3)
    with mock.patch("peftlab.trainer.param_grads", wraps=param_grads) as vjp:
        _, grads = loss_and_grads(model, (x, t))
    calls = vjp.call_args_list[::-1]  # the backward pass runs from the last layer
    assert len(calls) == len(grads)
    for call, gs in zip(calls, grads):
        state, gz, x_in, cache = call.args
        assert rescaling_ratio(state, gz, x_in, cache, gs) <= IDENTITY_EPS


@settings(max_examples=150, deadline=None)
@given(
    method=st.sampled_from(MAGNITUDE_METHODS),
    d=st.integers(1, 19),
    k=st.integers(1, 19),
    rank=st.integers(1, 19),
    scaling=st.floats(0.25, 4.0).filter(lambda s: s != 1.0),
    exponent=st.sampled_from([0, 100, -100]),
    seed=st.integers(0, 2**32 - 1),
)
def test_magnitude_homogeneity_holds_for_param_grads(method, d, k, rank, scaling, exponent,
                                                     seed):
    state, x, gz = scaled_case(method, d, k, min(rank, d, k), scaling, exponent, seed)
    gs = param_grads(state, gz, x, step_cache(state))
    assert homogeneity_ratio(state, x, gs) <= IDENTITY_EPS
