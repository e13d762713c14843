import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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
from peftlab.trainer import make_task


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
    rng = np.random.default_rng(11)
    for d, k in _random_shapes(rng, 60):
        w = rng.standard_normal((d, k))
        f = svd(w)
        p = min(d, k)
        rel = frobenius_norm(reconstruct(f) - w) / max(1.0, frobenius_norm(w))
        assert rel <= 1e-10
        assert np.abs(f.u.T @ f.u - np.eye(p)).max() <= 1e-10
        assert np.abs(f.v.T @ f.v - np.eye(p)).max() <= 1e-10
        assert np.all(np.diff(f.sigma) <= 0.0)
        assert np.all(f.sigma >= 0.0)


def test_svd_matches_numpy_singular_values():
    rng = np.random.default_rng(3)
    for d, k in _random_shapes(rng, 40):
        w = rng.standard_normal((d, k))
        assert np.allclose(svd(w).sigma, np.linalg.svd(w, compute_uv=False), atol=1e-10)


def test_svd_sign_convention():
    rng = np.random.default_rng(5)
    for d, k in _random_shapes(rng, 20, lo=2, hi=12):
        f = svd(rng.standard_normal((d, k)))
        for i in range(f.sigma.size):
            col = f.u[:, i]
            assert col[np.argmax(np.abs(col))] > 0.0


def test_svd_deterministic_bitwise():
    rng = np.random.default_rng(9)
    w = rng.standard_normal((7, 5))
    f1 = svd(w)
    f2 = svd(w)
    assert f1.u.tobytes() == f2.u.tobytes()
    assert f1.sigma.tobytes() == f2.sigma.tobytes()
    assert f1.v.tobytes() == f2.v.tobytes()


@pytest.mark.parametrize("scale", [1e-200, 1e-100, 1e100, 1e200])
def test_svd_reconstructs_across_the_float_range(scale):
    w = np.random.default_rng(17).standard_normal((7, 5)) * scale
    f = svd(w)
    assert np.abs(reconstruct(f) - w).max() <= 1e-12 * np.abs(w).max()
    assert np.abs(f.u.T @ f.u - np.eye(5)).max() <= 1e-12
    assert np.abs(f.v.T @ f.v - np.eye(5)).max() <= 1e-12


def test_svd_power_of_two_scaling_is_exact():
    w = np.random.default_rng(19).standard_normal((4, 6))
    f = svd(w)
    for e in (-700, 700):
        g = svd(np.ldexp(w, e))
        assert g.u.tobytes() == f.u.tobytes()
        assert g.v.tobytes() == f.v.tobytes()
        assert g.sigma.tobytes() == np.ldexp(f.sigma, e).tobytes()


def test_svd_nonconvergence_reports_offdiagonal_residual(monkeypatch):
    import peftlab.linalg as linalg

    # One sweep is not enough for a generic matrix; the failure must carry
    # the worst remaining off-diagonal ratio.
    monkeypatch.setattr(linalg, "MAX_SWEEPS", 1)
    w = np.random.default_rng(2).standard_normal((6, 6))
    with pytest.raises(linalg.NumericError, match="off-diagonal ratio"):
        linalg.svd(w)


# The straightforward Jacobi loop the optimized linalg._jacobi_tall must match
# bit for bit: every Gram entry recomputed before each pair, m and v rotated
# as separate arrays.
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
                if abs(gij) <= JACOBI_TOL * math.sqrt(gii * gjj):
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
        else:
            u[:, idx] = linalg._orthonormal_completion(u)
    return u, sigma, v


def _svd_or_error(w):
    """svd(w), or the message of the NumericError it raised."""
    try:
        return svd(w)
    except NumericError as e:
        return str(e)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 24),
    k=st.integers(1, 24),
    log_scale=st.floats(-100.0, 100.0),
    seed=st.integers(0, 2**32 - 1),
    zero_col=st.booleans(),
    repeat_col=st.booleans(),
)
def test_svd_bits_match_reference_loop(d, k, log_scale, seed, zero_col, repeat_col):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((d, k)) * 10.0 ** log_scale
    if zero_col:
        w[:, rng.integers(k)] = 0.0
    if repeat_col:
        w[:, rng.integers(k)] = w[:, rng.integers(k)]
    got = _svd_or_error(w)
    with mock.patch.object(linalg, "_jacobi_tall", _reference_jacobi_tall):
        want = _svd_or_error(w)
    if isinstance(want, str) and "did not converge" in want:
        # The reference loop keeps rotating a pair whose Gram entry is 0.0
        # (square matrices with two equal rows); svd counts it as converged.
        assert not isinstance(got, str), got
        assert frobenius_norm(reconstruct(got) - w) <= 1e-10 * frobenius_norm(w)
        return
    if isinstance(want, str):
        assert got == want
        return
    for name in ("u", "sigma", "v"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.shape, a.strides, a.tobytes()) == (b.shape, b.strides, b.tobytes()), name


# sha256 of u, sigma and v bytes of the teacher-student base weights, as the
# reference loop above factors them with the float64 BLAS dot of numpy's
# bundled OpenBLAS on x86-64.
SVD_DIGESTS = {
    16: "2bbfa68b9381f6b994257ccec3cde4d985d2ba12a16203e40a665f21092244f6",
    64: "daf427369851f333e0739335299f3c604b060b2c6be39e0a40a4350109a5c5f2",
}


@pytest.mark.parametrize("d", sorted(SVD_DIGESTS))
def test_svd_digest_of_task_weight_is_pinned(d):
    f = svd(make_task("teacher_student", d, d, 2, 0.01, 42).w0)
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
    for m in (w, w.T):
        f = svd(m)
        assert frobenius_norm(reconstruct(f) - m) <= 1e-13 * frobenius_norm(m)
        assert np.abs(f.u.T @ f.u - np.eye(n)).max() <= 1e-10
        assert np.abs(f.v.T @ f.v - np.eye(n)).max() <= 1e-10
        assert f.sigma[-1] <= 1e-13 * f.sigma[0]


def test_svd_zero_matrix_has_orthonormal_factors():
    f = svd(np.zeros((4, 3)))
    assert np.array_equal(f.sigma, np.zeros(3))
    assert np.abs(f.u.T @ f.u - np.eye(3)).max() <= 1e-12
    assert np.abs(f.v.T @ f.v - np.eye(3)).max() <= 1e-12


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


def test_svd_wide_matrix_uses_transposed_iteration():
    rng = np.random.default_rng(21)
    w = rng.standard_normal((3, 9))
    f = svd(w)
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
