import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peftlab import linalg
from peftlab.linalg import (
    JACOBI_TOL,
    ConfigError,
    NumericError,
    SvdFactors,
    as_matrix,
    column_norms,
    frobenius_norm,
    svd,
    truncate_svd,
)
from peftlab.adapters import AdapterConfig, initialize
from peftlab.trainer import make_model, make_task

# svd (LAPACK) serves every caller but make_task, which factors with the
# Jacobi; the contract tests hold both to one sign convention and accuracy.
SVDS = (svd, linalg._jacobi_svd)


def reconstruct(f: SvdFactors) -> np.ndarray:
    return (f.u * f.sigma) @ f.v.T


# ---------------------------------------------------------------------------
# column norms / frobenius

def test_column_norms_identity():
    assert np.array_equal(column_norms(np.eye(2)), [1.0, 1.0])


def test_column_norms_three_four_five():
    assert np.allclose(column_norms([[3.0, 0.0], [4.0, 0.0]]), [5.0, 0.0])


def test_column_norms_zero_matrix():
    assert np.array_equal(column_norms(np.zeros((3, 4))), np.zeros(4))


def test_frobenius_norm_values():
    assert frobenius_norm(np.zeros((2, 5))) == 0.0
    assert frobenius_norm(np.eye(3)) == pytest.approx(math.sqrt(3.0), rel=1e-15)
    assert frobenius_norm([[3.0, 4.0]]) == pytest.approx(5.0, rel=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_frobenius_norm_keeps_the_unscaled_bits_at_unit_scale(seed):
    # The power-of-two prescale is exact where no square under- or overflows.
    w = np.random.default_rng(seed).standard_normal((7, 5))
    assert frobenius_norm(w) == float(np.sqrt((w * w).sum()))


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_frobenius_norm_does_not_overflow_or_underflow(scale):
    # The entries' squares leave the float64 range; the norm does not. The
    # sum of n squares rounds by at most n eps relative (a bound for any
    # summation order), and its square root and math.hypot by about 1 eps.
    w = np.random.default_rng(3).standard_normal((6, 4)) * scale
    want = math.hypot(*w.ravel())
    assert abs(frobenius_norm(w) - want) <= (w.size + 2) * np.finfo(float).eps * want


# ---------------------------------------------------------------------------
# matrix validation

def test_as_matrix_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        as_matrix([[1.0, float("nan")]])
    with pytest.raises(ValueError, match="non-finite"):
        as_matrix([[float("inf")]])


def test_as_matrix_rejects_wrong_ndim():
    with pytest.raises(ValueError, match="2-D"):
        as_matrix([1.0, 2.0])


# ---------------------------------------------------------------------------
# svd

def test_svd_identity():
    f = svd(np.eye(2))
    assert np.allclose(f.sigma, [1.0, 1.0])


def test_svd_diagonal():
    f = svd(np.diag([3.0, 2.0]))
    assert np.allclose(f.sigma, [3.0, 2.0])
    # The sign convention makes the factors exactly the identity here.
    assert np.allclose(f.u, np.eye(2))
    assert np.allclose(f.v, np.eye(2))


def test_svd_two_by_two_against_characteristic_polynomial():
    # Eigenvalues of W^T W for [[1,2],[3,4]] are 15 +- sqrt(221); the
    # singular values are their square roots, and their product is |det W|.
    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    expected = np.sqrt([15.0 + math.sqrt(221.0), 15.0 - math.sqrt(221.0)])
    f = svd(w)
    assert np.allclose(f.sigma, expected, rtol=1e-12)
    assert f.sigma[0] * f.sigma[1] == pytest.approx(2.0, rel=1e-12)


def _random_shapes(rng, count, lo=1, hi=16):
    for _ in range(count):
        yield int(rng.integers(lo, hi + 1)), int(rng.integers(lo, hi + 1))


def test_svd_reconstruction_and_orthogonality_random():
    for factor in SVDS:
        rng = np.random.default_rng(11)
        for d, k in _random_shapes(rng, 60):
            w = rng.standard_normal((d, k))
            f = factor(w)
            p = min(d, k)
            rel = frobenius_norm(reconstruct(f) - w) / max(1.0, frobenius_norm(w))
            assert rel <= 1e-10
            assert np.abs(f.u.T @ f.u - np.eye(p)).max() <= 1e-10
            assert np.abs(f.v.T @ f.v - np.eye(p)).max() <= 1e-10
            assert np.all(np.diff(f.sigma) <= 0.0)
            assert np.all(f.sigma >= 0.0)


def test_svd_matches_numpy_singular_values():
    # The Jacobi's singular values against numpy's, from LAPACK.
    rng = np.random.default_rng(3)
    for d, k in _random_shapes(rng, 40):
        w = rng.standard_normal((d, k))
        assert np.allclose(linalg._jacobi_svd(w).sigma, np.linalg.svd(w, compute_uv=False),
                           atol=1e-10)


def _assert_factors_agree(u, sigma, u_ref, sigma_ref):
    """sigma within 1e-13 * sigma_max of sigma_ref's leading entries, and the
    top-r projector of u within 1e-11 * sigma_max / gap (spectral norm) of
    u_ref's, for every r up to u's columns where the gap sigma_r - sigma_{r+1}
    of sigma_ref, the full spectrum, is at least 1e-3 * sigma_max
    (sigma_{p+1} = 0)."""
    top = sigma_ref[0]
    q = u.shape[1]
    assert np.abs(sigma[:q] - sigma_ref[:q]).max() <= 1e-13 * top
    below = np.append(sigma_ref[1:], 0.0)
    for r in range(1, q + 1):
        gap = sigma_ref[r - 1] - below[r - 1]
        if gap >= 1e-3 * top > 0.0:
            diff = u[:, :r] @ u[:, :r].T - u_ref[:, :r] @ u_ref[:, :r].T
            assert np.linalg.norm(diff, 2) <= 1e-11 * top / gap, r


# LAPACK's svd against its oracle, the Jacobi. The subspace bound has
# Davis-Kahan's form, an error over the gap: Jacobi stops at off-diagonal
# ratios of JACOBI_TOL (1e-12), and 3000 draws of this strategy measured at
# most 6.2e-13 * sigma_max / gap.
@settings(max_examples=100, deadline=None)
@given(
    d=st.integers(1, 24),
    k=st.integers(1, 24),
    log_scale=st.floats(-100.0, 100.0),
    seed=st.integers(0, 2**32 - 1),
    product_rank=st.none() | st.integers(1, 24),
    zero_col=st.booleans(),
    repeat_col=st.booleans(),
)
@example(d=24, k=24, log_scale=100.0, seed=0, product_rank=None, zero_col=False,
         repeat_col=False)
@example(d=24, k=7, log_scale=-100.0, seed=1, product_rank=3, zero_col=True, repeat_col=True)
def test_svd_agrees_with_lapack(d, k, log_scale, seed, product_rank, zero_col, repeat_col):
    rng = np.random.default_rng(seed)
    if product_rank is None:
        w = rng.standard_normal((d, k))
    else:
        q = min(product_rank, d, k)
        w = rng.standard_normal((d, q)) @ rng.standard_normal((q, k))
    if zero_col:
        w[:, rng.integers(k)] = 0.0
    if repeat_col:
        w[:, rng.integers(k)] = w[:, rng.integers(k)]
    w *= 10.0 ** log_scale
    f = svd(w)
    want = linalg._jacobi_svd(w)
    _assert_factors_agree(f.u, f.sigma, want.u, want.sigma)


def _adapter_factors(state):
    """(u, sigma, v) of an SVD-initialized adapter: b = u * sigma**p and
    a = sigma**(1 - p) * v^T, so sigma_j = |b_j| |a_j|, and the columns of b
    and the rows of a, normalized, are u and v."""
    b_norms = np.linalg.norm(state.b, axis=0)
    a_norms = np.linalg.norm(state.a, axis=1)
    return state.b / b_norms, b_norms * a_norms, state.a.T / a_norms


# An SVD-initialized model of a teacher-student task starts from make_task's
# Jacobi factors, while initialize on its own factors w0 with svd: the two
# adapters agree within the bounds above.
@pytest.mark.parametrize("method", ["pissa", "dude", "dude_a", "dude_b"])
@pytest.mark.parametrize("d, k", [(16, 16), (12, 20), (20, 12)])
def test_make_model_init_agrees_with_initialize(method, d, k):
    task = make_task("teacher_student", d, k, 2, 0.01, seed=d + k)
    rank = min(d, k)
    jacobi = make_model(task, method, rank).layers[0].state
    lapack = initialize(task.w0, AdapterConfig(method, rank))
    u, sigma, v = _adapter_factors(lapack)
    u_ref, _, v_ref = _adapter_factors(jacobi)
    _assert_factors_agree(u, sigma, u_ref, task.w0_factors.sigma)
    _assert_factors_agree(v, sigma, v_ref, task.w0_factors.sigma)
    if lapack.m is not None:
        assert lapack.m.tobytes() == jacobi.m.tobytes()


def test_svd_sign_convention():
    for factor in SVDS:
        rng = np.random.default_rng(5)
        for d, k in _random_shapes(rng, 20, lo=2, hi=12):
            f = factor(rng.standard_normal((d, k)))
            for i in range(f.sigma.size):
                col = f.u[:, i]
                assert col[np.argmax(np.abs(col))] > 0.0


def test_svd_deterministic_bitwise():
    rng = np.random.default_rng(9)
    w = rng.standard_normal((7, 5))
    for factor in SVDS:
        f1 = factor(w)
        f2 = factor(w)
        assert f1.u.tobytes() == f2.u.tobytes()
        assert f1.sigma.tobytes() == f2.sigma.tobytes()
        assert f1.v.tobytes() == f2.v.tobytes()


@pytest.mark.parametrize("scale", [1e-200, 1e-100, 1e100, 1e200])
def test_svd_reconstructs_across_the_float_range(scale):
    w = np.random.default_rng(17).standard_normal((7, 5)) * scale
    for factor in SVDS:
        f = factor(w)
        assert np.abs(reconstruct(f) - w).max() <= 1e-12 * np.abs(w).max()
        assert np.abs(f.u.T @ f.u - np.eye(5)).max() <= 1e-12
        assert np.abs(f.v.T @ f.v - np.eye(5)).max() <= 1e-12


def test_svd_raises_when_the_largest_singular_value_overflows():
    # Finite entries whose sigma_1, sqrt(6) * 1e308, is not; at 5e307 it is.
    for factor in SVDS:
        with pytest.raises(NumericError, match=r"largest singular value, .* overflows float64"):
            factor(np.full((2, 3), 1e308))
        assert factor(np.full((2, 3), 5e307)).sigma[0] == pytest.approx(math.sqrt(6) * 5e307)


def test_svd_power_of_two_scaling_is_exact():
    w = np.random.default_rng(19).standard_normal((4, 6))
    for factor in SVDS:
        f = factor(w)
        for e in (-700, 700):
            g = factor(np.ldexp(w, e))
            assert g.u.tobytes() == f.u.tobytes()
            assert g.v.tobytes() == f.v.tobytes()
            assert g.sigma.tobytes() == np.ldexp(f.sigma, e).tobytes()


def test_svd_nonconvergence_reports_offdiagonal_residual(monkeypatch):
    # A few sweeps are not enough for a generic matrix; the failure carries
    # the worst remaining off-diagonal ratio, and its digits equal the
    # reference loop's, so both stop on the same sweep with the same m.
    # At n = 16 the longer levels take the stacked path.
    for n in (6, 16):
        w = np.random.default_rng(2).standard_normal((n, n))
        for sweeps in (1, 2, 3):
            monkeypatch.setattr(linalg, "MAX_SWEEPS", sweeps)
            with pytest.raises(NumericError, match="off-diagonal ratio") as got:
                linalg._jacobi_svd(w)
            with mock.patch.object(linalg, "_jacobi_tall", _reference_jacobi_tall):
                with pytest.raises(NumericError) as want:
                    linalg._jacobi_svd(w)
            assert str(got.value) == str(want.value)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_svd_raises_on_factors_that_are_not_orthonormal(seed):
    # Jacobi's convergence test underflows for a column 1e-160 times smaller
    # than the others; its u is off by 2e-2, 4e-3 and 6e-3 at these seeds.
    w = np.random.default_rng(seed).standard_normal((5, 3))
    w[:, 2] *= 1e-160
    with pytest.raises(NumericError, match=r"not orthonormal: .* = \d\.\d{3}e-0\d exceeds 1e-10"):
        linalg._jacobi_svd(w)


# LAPACK has no such limit: svd factors a matrix with one column up to
# 1e-300 times smaller than the others.
@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 24),
    k=st.integers(1, 24),
    tiny=st.floats(100.0, 300.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=5, k=3, tiny=160.0, seed=0)
@example(d=3, k=24, tiny=300.0, seed=1)
def test_svd_factors_a_matrix_with_a_tiny_column(d, k, tiny, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((d, k))
    w[:, rng.integers(k)] *= 10.0 ** -tiny
    f = svd(w)
    p = min(d, k)
    assert np.abs(f.u.T @ f.u - np.eye(p)).max() <= 1e-12
    assert np.abs(f.v.T @ f.v - np.eye(p)).max() <= 1e-12
    assert np.abs(reconstruct(f) - w).max() <= 1e-12 * np.abs(w).max()


# The straightforward row-cyclic Jacobi loop that linalg._jacobi_tall must
# match bit for bit: every Gram entry recomputed before each pair, one pair
# rotated at a time, m and v rotated as separate arrays.
def _reference_jacobi_tall(w):
    m = w.copy()
    n_cols = m.shape[1]
    v = np.eye(n_cols)
    for _ in range(linalg.MAX_SWEEPS):
        rotated = False
        for i in range(n_cols - 1):
            for j in range(i + 1, n_cols):
                gii = float(m[:, i] @ m[:, i])
                gjj = float(m[:, j] @ m[:, j])
                gij = float(m[:, i] @ m[:, j])
                if gii == 0.0 or gjj == 0.0 or abs(gij) <= JACOBI_TOL * math.sqrt(gii * gjj):
                    continue
                rotated = True
                tau = (gjj - gii) / (2.0 * gij)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                mi = m[:, i].copy()
                m[:, i] = c * mi - s * m[:, j]
                m[:, j] = s * mi + c * m[:, j]
                vi = v[:, i].copy()
                v[:, i] = c * vi - s * v[:, j]
                v[:, j] = s * vi + c * v[:, j]
        if not rotated:
            break
    else:
        raise NumericError(
            "svd did not converge within "
            f"{linalg.MAX_SWEEPS} sweeps; worst off-diagonal ratio "
            f"{linalg._worst_offdiag(m):.3e}"
        )
    norms = np.linalg.norm(m, axis=0)
    order = np.argsort(-norms, kind="stable")
    sigma = norms[order]
    v = v[:, order]
    u = np.zeros_like(m)
    for idx, col in enumerate(order):
        if sigma[idx] > 0.0:
            u[:, idx] = m[:, col] / sigma[idx]
    # The columns of zero singular values, completed by the one Householder
    # QR that _jacobi_tall calls, with its -0.0 entries made +0.0.
    p = np.count_nonzero(sigma)
    if p < n_cols:
        q = np.linalg.qr(np.hstack([u[:, :p], np.eye(len(m), n_cols - p)]))[0]
        u[:, p:] = q[:, p:] + 0.0
    return u, sigma, v


def _svd_or_error(w):
    """_jacobi_svd(w), or the message of the NumericError it raised."""
    try:
        return linalg._jacobi_svd(w)
    except NumericError as e:
        return str(e)


# The examples give levels of up to 32 pairs; 257 x 32 is the transposed
# shape of a 32 x 257 gradcheck weight. At 9 x 7 every level has at most
# _PER_PAIR_MAX pairs, so each rotation is a per-pair one. per_pair_max
# replaces _PER_PAIR_MAX: 0 stacks every level and 10**6 rotates every pair
# on its own, so both kinds of level meet the reference at every shape.
@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 24),
    k=st.integers(1, 24),
    log_scale=st.floats(-100.0, 100.0),
    seed=st.integers(0, 2**32 - 1),
    zero_col=st.booleans(),
    repeat_col=st.booleans(),
    negative_zeros=st.booleans(),
    tiny_col=st.none() | st.floats(100.0, 170.0),
    per_pair_max=st.sampled_from((0, linalg._PER_PAIR_MAX, 10**6)),
)
@example(d=64, k=64, log_scale=0.0, seed=0, zero_col=False, repeat_col=False,
         negative_zeros=False, tiny_col=None, per_pair_max=linalg._PER_PAIR_MAX)
@example(d=40, k=33, log_scale=3.0, seed=1, zero_col=False, repeat_col=True,
         negative_zeros=True, tiny_col=None, per_pair_max=linalg._PER_PAIR_MAX)
@example(d=33, k=40, log_scale=-3.0, seed=2, zero_col=True, repeat_col=False,
         negative_zeros=True, tiny_col=None, per_pair_max=linalg._PER_PAIR_MAX)
@example(d=257, k=32, log_scale=0.0, seed=3, zero_col=False, repeat_col=False,
         negative_zeros=False, tiny_col=None, per_pair_max=linalg._PER_PAIR_MAX)
@example(d=9, k=7, log_scale=0.0, seed=4, zero_col=True, repeat_col=False,
         negative_zeros=True, tiny_col=None, per_pair_max=linalg._PER_PAIR_MAX)
def test_svd_bits_match_reference_loop(d, k, log_scale, seed, zero_col, repeat_col,
                                       negative_zeros, tiny_col, per_pair_max):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((d, k)) * 10.0 ** log_scale
    if zero_col:
        w[:, rng.integers(k)] = 0.0
    if repeat_col:
        w[:, rng.integers(k)] = w[:, rng.integers(k)]
    if negative_zeros:
        # Row r and column c are -0.0 but for w[r, c], so column c is
        # orthogonal to the others, never rotated, and its -0.0 entries reach
        # u: a skipped pair rotated by c = 1, s = 0 would flip their signs.
        w[rng.random((d, k)) < 0.25] = -0.0
        r, c = rng.integers(d), rng.integers(k)
        w[r] = -0.0
        w[:, c] = -0.0
        w[r, c] = 10.0 ** log_scale
    if tiny_col is not None:
        w[:, rng.integers(k)] *= 10.0 ** -tiny_col
    # _levels caches the schedule of the patched limit; no other test sees it.
    linalg._levels.cache_clear()
    try:
        with mock.patch.object(linalg, "_PER_PAIR_MAX", per_pair_max):
            got = _svd_or_error(w)
    finally:
        linalg._levels.cache_clear()
    with mock.patch.object(linalg, "_jacobi_tall", _reference_jacobi_tall):
        want = _svd_or_error(w)
    if isinstance(want, str):
        # Among others: where the reference loop's u is not orthonormal
        # (a tiny column), _jacobi_svd raises with the same measured error.
        assert got == want
        return
    assert not isinstance(got, str), f"_jacobi_svd raised where the reference loop converges: {got}"
    for name in ("u", "sigma", "v"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.shape, a.strides, a.tobytes()) == (b.shape, b.strides, b.tobytes()), name


def _strided(values: np.ndarray, step: int) -> np.ndarray:
    """A copy of values whose last axis runs at a stride of step floats."""
    buf = np.zeros(values.shape + (step,))
    buf[..., 0] = values
    return buf[..., 0]


# _jacobi_tall holds each column of [m; v] as a row at a stride of two floats
# and takes every Gram entry from ndarray.dot or a stacked np.matmul of
# 1 x n . n x 1 items over such rows. Its bits equal the reference loop's only
# if BLAS dots those as it dots a column of a plain array, at any other
# non-unit stride: here k floats, as a column of an n x k array.
@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 300),
    k=st.integers(3, 70),
    log_scale=st.floats(-100.0, 100.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=300, k=64, log_scale=0.0, seed=0)
def test_dots_at_a_stride_of_two_floats_keep_the_bits_of_column_dots(n, k, log_scale, seed):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(1, k + 1))
    x, y = rng.standard_normal((2, q, n)) * 10.0 ** log_scale
    x2, y2 = _strided(x, 2), _strided(y, 2)
    # Columns of a C-order n x k array, as the items of a level's stack.
    xk, yk = np.zeros((2, n, k))
    xk[:, :q], yk[:, :q] = x.T, y.T
    xk, yk = xk[:, :q].T, yk[:, :q].T
    assert x2.strides == (16 * n, 16) and xk.strides == (8, 8 * k)
    for i in range(q):
        assert x2[i].dot(y2[i]).tobytes() == xk[i].dot(yk[i]).tobytes(), i
    # A level pairs a forward slice with a backward one.
    stacked = [np.matmul(a[:, None], b[::-1, :, None]).ravel() for a, b in ((x2, y2), (xk, yk))]
    dots = np.array([xk[i].dot(yk[q - 1 - i]) for i in range(q)])
    assert stacked[0].tobytes() == stacked[1].tobytes() == dots.tobytes()


# sha256 of u, sigma and v bytes of the factors make_task keeps of the
# teacher-student base weights, as the reference loop above factors them with
# the float64 BLAS dot of numpy's bundled OpenBLAS on x86-64. At 8 x 8,
# gradcheck_grid's shape, every level rotates per pair.
SVD_DIGESTS = {
    8: "6e52157ca6398f42ea113e1b680910d84fb24185411d59760f185c49f5242d61",
    16: "2bbfa68b9381f6b994257ccec3cde4d985d2ba12a16203e40a665f21092244f6",
    64: "daf427369851f333e0739335299f3c604b060b2c6be39e0a40a4350109a5c5f2",
}


@pytest.mark.parametrize("d", sorted(SVD_DIGESTS))
def test_svd_digest_of_task_weight_is_pinned(d):
    f = make_task("teacher_student", d, d, 2, 0.01, 42).w0_factors
    digest = hashlib.sha256(f.u.tobytes() + f.sigma.tobytes() + f.v.tobytes()).hexdigest()
    assert digest == SVD_DIGESTS[d]


@pytest.mark.parametrize("n", range(3, 25))
def test_svd_square_matrix_with_two_equal_rows_converges(n):
    # A near-null column's Gram entry reaches exactly 0.0 while its inner
    # product with another column stays subnormal.
    rng = np.random.default_rng(n)
    w = rng.standard_normal((n, n))
    i, j = rng.choice(n, 2, replace=False)
    w[i] = w[j]
    for factor in SVDS:
        for m in (w, w.T):
            f = factor(m)
            assert frobenius_norm(reconstruct(f) - m) <= 1e-13 * frobenius_norm(m)
            assert np.abs(f.u.T @ f.u - np.eye(n)).max() <= 1e-10
            assert np.abs(f.v.T @ f.v - np.eye(n)).max() <= 1e-10
            assert f.sigma[-1] <= 1e-13 * f.sigma[0]


def test_svd_zero_matrix_has_orthonormal_factors():
    # The factors are identity columns, bit for bit: no entry is -0.0, which
    # the Jacobi's QR completion leaves and it turns into +0.0.
    for factor in SVDS:
        for shape in [(4, 3), (3, 4), (1, 1), (5, 5)]:
            p = min(shape)
            f = factor(np.zeros(shape))
            assert f.sigma.tobytes() == np.zeros(p).tobytes()
            assert f.u.tobytes() == np.eye(shape[0], p).tobytes()
            assert f.v.tobytes() == np.eye(shape[1], p).tobytes()


def test_svd_rank_deficient():
    # Rank-1 outer product: second singular value collapses to ~0 and the
    # factors still reconstruct.
    u = np.array([1.0, 2.0, -1.0])
    v = np.array([0.5, -1.5])
    w = np.outer(u, v)
    f = svd(w)
    assert f.sigma[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-12)
    assert f.sigma[1] <= 1e-12 * f.sigma[0]
    assert frobenius_norm(reconstruct(f) - w) <= 1e-12 * frobenius_norm(w)


@pytest.mark.parametrize("shape", [(8, 8), (64, 64), (257, 32), (32, 257)])
def test_svd_completes_the_columns_of_zero_singular_values(shape):
    # A zero column, and equal columns 0 and 1, which the sweep's first
    # rotation turns into a second zero column (rows of a wide w, which is
    # iterated transposed): the Jacobi's QR completion fills two columns of u.
    w = np.random.default_rng(sum(shape)).standard_normal(shape)
    tall = w if shape[0] >= shape[1] else w.T
    tall[:, 5] = 0.0
    tall[:, 1] = tall[:, 0]
    f = linalg._jacobi_svd(w)
    assert np.count_nonzero(f.sigma == 0.0) == 2
    p = f.sigma.size
    assert np.abs(f.u.T @ f.u - np.eye(p)).max() <= linalg.ORTHONORMAL_TOL
    assert np.abs(f.v.T @ f.v - np.eye(p)).max() <= linalg.ORTHONORMAL_TOL
    assert frobenius_norm(reconstruct(f) - w) <= 1e-13 * frobenius_norm(w)
    with mock.patch.object(linalg, "_jacobi_tall", _reference_jacobi_tall):
        want = linalg._jacobi_svd(w)
    for name in ("u", "sigma", "v"):
        assert getattr(f, name).tobytes() == getattr(want, name).tobytes(), name


def test_svd_wide_matrix_uses_transposed_iteration():
    rng = np.random.default_rng(21)
    w = rng.standard_normal((3, 9))
    for factor in SVDS:
        f = factor(w)
        assert f.u.shape == (3, 3)
        assert f.v.shape == (9, 3)
        assert frobenius_norm(reconstruct(f) - w) <= 1e-10 * frobenius_norm(w)


def test_svd_one_dimensional_edge_cases():
    f = svd([[2.0, 0.0, 0.0]])
    assert np.allclose(f.sigma, [2.0])
    g = svd([[-5.0]])
    assert np.allclose(g.sigma, [5.0])
    assert frobenius_norm(reconstruct(g) - [[-5.0]]) <= 1e-12


# ---------------------------------------------------------------------------
# truncation

def test_truncate_full_rank_reconstructs():
    rng = np.random.default_rng(13)
    w = rng.standard_normal((6, 4))
    f = svd(w)
    t = truncate_svd(f, 4)
    approx = (t.u * t.sigma) @ t.v.T
    assert frobenius_norm(approx - w) / max(1.0, frobenius_norm(w)) <= 1e-10


def test_truncate_diagonal_by_hand():
    t = truncate_svd(svd(np.diag([3.0, 2.0])), 1)
    approx = (t.u * t.sigma) @ t.v.T
    assert np.allclose(approx, np.diag([3.0, 0.0]))
    assert frobenius_norm(np.diag([3.0, 2.0]) - approx) == pytest.approx(2.0, rel=1e-12)


def test_truncate_residual_equals_dropped_singular_value():
    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    f = svd(w)
    t = truncate_svd(f, 1)
    residual = frobenius_norm(w - (t.u * t.sigma) @ t.v.T)
    assert residual == pytest.approx(f.sigma[1], rel=1e-10)


def test_truncate_eckart_young_identity_random():
    rng = np.random.default_rng(17)
    for d, k in _random_shapes(rng, 30, lo=2):
        w = rng.standard_normal((d, k))
        f = svd(w)
        p = min(d, k)
        r = int(rng.integers(1, p + 1))
        t = truncate_svd(f, r)
        lhs = frobenius_norm(w - (t.u * t.sigma) @ t.v.T) ** 2
        rhs = float((f.sigma[r:] ** 2).sum())
        assert abs(lhs - rhs) <= 1e-8 * max(rhs, 1e-12 * frobenius_norm(w) ** 2)


def test_truncate_sigma_is_prefix():
    f = svd(np.random.default_rng(1).standard_normal((5, 5)))
    t = truncate_svd(f, 3)
    assert np.array_equal(t.sigma, f.sigma[:3])


def test_truncate_rank_out_of_range():
    f = svd(np.eye(3))
    with pytest.raises(ConfigError, match=r"field 'rank' must be <= 3, got 4"):
        truncate_svd(f, 4)
    with pytest.raises(ConfigError, match=r"field 'rank' must be >= 1, got 0"):
        truncate_svd(f, 0)
