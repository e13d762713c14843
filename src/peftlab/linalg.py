"""Dense matrix helpers and two thin SVDs.

Everything operates on 2-D float64 numpy arrays. svd, which every caller but
make_task uses, is LAPACK's (np.linalg.svd). _jacobi_svd, a hand-rolled cyclic
one-sided Jacobi, serves make_task alone: the teacher weights and
Task.w0_factors, and through them the benchmark's reference losses and the
tests' factor digests, rest on its bits, so it stays until those are
regenerated. It is also the oracle the tests hold svd to. Both share one
wrapper: a power-of-two prescale, a fixed sign convention and an
orthonormality check, so each gives bit-reproducible factors. Jacobi enters
LAPACK only for an exactly rank-deficient input: one Householder QR completes
the left singular vectors of its zero singular values.

The sweeps rotate the row-cyclic pairs a level of equal i + j at a time,
with one stacked dot product and one slice rotation per level; _jacobi_tall
says why that keeps every bit of the pair-at-a-time loop.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigError",
    "NumericError",
    "SvdFactors",
    "as_matrix",
    "column_norms",
    "frobenius_norm",
    "svd",
    "truncate_svd",
]

# Sweep cap and relative off-diagonal tolerance for the Jacobi iteration.
MAX_SWEEPS = 100
JACOBI_TOL = 1e-12
# Largest entry of |u^T u - I| and |v^T v - I| that svd returns.
ORTHONORMAL_TOL = 1e-10

# Levels of at most this many pairs take one strided dot and one rotation
# per pair. A stacked np.matmul costs about 1.45 us against 0.7 us for one
# dot, and a slice rotation's 2-D ufunc loops about 3 us each against 1 us on
# one column: with 4-pair levels stacked (the longest at 8 columns), an
# 8-column SVD ran 3 % slower than per pair, while 5 lost 12 x 12's gain.
_PER_PAIR_MAX = 4


# Integer config values end up as array shapes, loop counts and seeds.
_INT_MAX = int(np.iinfo(np.int64).max)


class ConfigError(ValueError):
    """Invalid configuration or input, named in the message; CLI exit code 1."""


class NumericError(RuntimeError):
    """An iterative routine failed to converge or produced non-finite values."""


# Config value checks, shared by every constructor that takes the values. An
# error names the field in quotes as a run config spells it.

def _check_int(name: str, value, minimum: int, maximum: int = _INT_MAX) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"field '{name}' must be an integer, got {value!r}")
    if not minimum <= value <= maximum:
        bound = f">= {minimum}" if value < minimum else f"<= {maximum}"
        raise ConfigError(f"field '{name}' must be {bound}, got {value!r}")


def _check_number(name: str, value, minimum: float | None = None, strict: bool = False,
                  below: float | None = None) -> None:
    """A finite real number, > minimum if strict else >= minimum, and < below."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"field '{name}' must be a number, got {value!r}")
    # json.loads accepts Infinity, NaN and integers beyond the float range.
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"field '{name}' must be finite, got {value!r}")
    if minimum is not None and (value <= minimum if strict else value < minimum):
        raise ConfigError(f"field '{name}' must be {'>' if strict else '>='} {minimum}, "
                          f"got {value!r}")
    if below is not None and not value < below:
        raise ConfigError(f"field '{name}' must be < {below}, got {value!r}")


def _check_choice(name: str, value, choices) -> None:
    if value not in choices:
        raise ConfigError(f"field '{name}' must be one of {tuple(choices)}, got {value!r}")


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting empty dims and non-finite entries."""
    a = np.asarray(data, dtype=np.float64)
    if a.ndim != 2:
        raise ConfigError(f"{name} must be 2-D, got shape {a.shape}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ConfigError(f"{name} must have positive dimensions, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ConfigError(f"{name} contains non-finite entries")
    return a


def column_norms(w) -> np.ndarray:
    """Euclidean norm of every column of w."""
    w = np.asarray(w, dtype=np.float64)
    return np.linalg.norm(w, axis=0)


def frobenius_norm(w) -> float:
    w = np.asarray(w, dtype=np.float64)
    return float(np.sqrt((w * w).sum()))


@dataclass
class SvdFactors:
    """Thin SVD w = u @ diag(sigma) @ v.T with sigma sorted non-increasing.

    u is d x p and v is k x p with orthonormal columns, p = min(d, k), or
    p = r for the leading r factors that truncate_svd returns.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def svd(w) -> SvdFactors:
    """Thin SVD by LAPACK (np.linalg.svd, divide and conquer).

    Signs are normalized so the largest-magnitude entry of each left singular
    vector is positive (first such entry on ties), making the output
    deterministic and directly comparable across runs. Raises NumericError
    when LAPACK does not converge, or when u or v is not orthonormal to
    ORTHONORMAL_TOL.
    """
    return _factored(w, _lapack)


def _jacobi_svd(w) -> SvdFactors:
    """Thin SVD via cyclic one-sided Jacobi, in svd's sign convention.

    make_task's factors, whose bits the reference losses pin; every other
    caller uses svd. The iteration always runs on the tall orientation (the
    input is transposed internally when d < k). Raises NumericError when the
    sweeps do not converge, or when u or v is not orthonormal to
    ORTHONORMAL_TOL.
    """
    return _factored(w, _jacobi)


def _lapack(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    try:
        u, sigma, vt = np.linalg.svd(w, full_matrices=False)
    except np.linalg.LinAlgError as e:
        # LinAlgError is a ValueError, which the CLI reports as an input error.
        raise NumericError(f"LAPACK svd failed: {e}") from None
    return u, sigma, vt.T


def _jacobi(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if w.shape[0] >= w.shape[1]:
        return _jacobi_tall(w)
    v, sigma, u = _jacobi_tall(w.T)
    return u, sigma, v


def _factored(w, kernel) -> SvdFactors:
    """kernel's (u, sigma, v) of w, prescaled, sign-normalized and checked."""
    w = as_matrix(w)
    # Jacobi's Gram entries square w's entries and under- or overflow far inside
    # the float64 range, so factor w / 2**e with max|w / 2**e| in [0.5, 1): a
    # power-of-two scaling is exact, so u and v keep their bits at any scale.
    _, e = np.frexp(np.abs(w).max())
    u, sigma, v = kernel(np.ldexp(w, -e))
    sigma = np.ldexp(sigma, e)
    p = sigma.size
    flip = u[np.abs(u).argmax(axis=0), np.arange(p)] < 0.0
    np.negative(u, out=u, where=flip)
    np.negative(v, out=v, where=flip)
    # Jacobi's convergence test underflows when column norms differ by
    # about 1e-160 or more, and then returns factors that are not orthonormal.
    err = max(_orthonormality_error(u), _orthonormality_error(v))
    if not err <= ORTHONORMAL_TOL:
        raise NumericError(f"svd factors are not orthonormal: max(|u^T u - I|, "
                           f"|v^T v - I|) = {err:.3e} exceeds {ORTHONORMAL_TOL:g}")
    return SvdFactors(u, sigma, v)


def _orthonormality_error(f: np.ndarray) -> float:
    """max |f^T f - I|, in place in the one p x p product."""
    g = f.T @ f
    g.flat[::g.shape[0] + 1] -= 1.0
    return float(np.abs(g, out=g).max())


def _jacobi_tall(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-sided Jacobi on a tall matrix (rows >= cols): returns (u, sigma, v).

    A sweep rotates the row-cyclic pairs (0, 1), (0, 2), ..., (n-2, n-1) in
    levels of equal l = i + j (_levels). No column appears twice in a level,
    and every earlier pair on column i or j has a smaller i + j, every later
    one a larger. Rotations on disjoint pairs commute (as in Brent & Luk's
    parallel orderings), so each column meets the same rotations in the same
    order as in the row-cyclic loop, and every Gram entry, c and s keeps its
    bits.

    m (rows x n) and v (n x n) are stacked in one C-order array, so a single
    set of elementwise ops rotates both, while a column of m keeps the stride
    n * 8 bytes of a plain rows x n array. A level's i-columns are a forward
    slice and its j-columns a backward slice of m.T, views at that stride, so
    its dots are one np.matmul of 1 x rows . rows x 1 items, which numpy
    computes with the routine of ndarray.dot at the stride of a single column
    dot. (Gathering the columns into a contiguous copy would change the BLAS
    path and the bits.) Every factor bit thus depends only on w. The diagonal
    Gram entries are cached and recomputed, with the same dot, for the
    columns a level rotates.
    """
    rows, n_cols = w.shape
    mv = np.empty((rows + n_cols, n_cols))
    mv[:rows] = w
    mv[rows:] = np.eye(n_cols)
    m = mv[:rows]
    mt = m.T
    m_cols = [m[:, i] for i in range(n_cols)]
    mv_cols = [mv[:, i] for i in range(n_cols)]
    gram = [float(col.dot(col)) for col in m_cols]
    dots = np.empty((n_cols, 1, 1))
    s_old = np.empty(rows + n_cols)
    s_cj = np.empty(rows + n_cols)
    for _ in range(MAX_SWEEPS):
        rotated = False
        for l, lo, hi, pairs in _levels(n_cols):
            stacked = pairs is None
            if stacked:
                np.matmul(mt[lo:hi, None], mt[l - lo::-1][:hi - lo, :, None], out=dots[:hi - lo])
                gijs = dots[:hi - lo].ravel().tolist()
                pairs = zip(range(lo, hi), range(l - lo, l - hi, -1))
            runs = []  # [first i, c's, s's] of consecutive rotating pairs
            for i, j in pairs:
                gii = gram[i]
                gjj = gram[j]
                gij = gijs[i - lo] if stacked else float(m_cols[i].dot(m_cols[j]))
                # A column whose Gram entry underflows to 0.0 is converged: its
                # gij can stay subnormal, so the relative test below would never
                # hold and the same pair would rotate every sweep.
                if gii == 0.0 or gjj == 0.0 or abs(gij) <= JACOBI_TOL * math.sqrt(gii * gjj):
                    continue
                rotated = True
                # Rotation angle from t^2 + 2*tau*t - 1 = 0; the smaller
                # root in magnitude avoids cancellation.
                tau = (gjj - gii) / (2.0 * gij)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                if stacked:
                    if runs and runs[-1][0] + len(runs[-1][1]) == i:
                        runs[-1][1].append(c)
                        runs[-1][2].append(s)
                    else:
                        runs.append([i, [c], [s]])
                    continue
                # col_i, col_j = c*old - s*col_j, s*old + c*col_j, where old
                # is col_i before the update; each product rounds on its own.
                col_i = mv_cols[i]
                col_j = mv_cols[j]
                np.multiply(col_i, s, out=s_old)
                np.multiply(col_i, c, out=col_i)
                np.multiply(col_j, s, out=s_cj)
                np.subtract(col_i, s_cj, out=col_i)
                np.multiply(col_j, c, out=col_j)
                np.add(s_old, col_j, out=col_j)
                gram[i] = float(m_cols[i].dot(m_cols[i]))
                gram[j] = float(m_cols[j].dot(m_cols[j]))
            if not runs:
                continue
            # The same six ops on a run's columns as slices, with c and s as
            # arrays. A skipped pair is left alone: rotating it by c = 1,
            # s = 0 would turn -0.0 - 0.0*b into +0.0 for b < 0.
            for a, c, s in runs:
                q = len(c)
                c = np.array(c)
                s = np.array(s)
                cols_i = mv[:, a:a + q]
                cols_j = mv[:, l - a:l - a - q:-1]
                s_olds = cols_i * s
                np.multiply(cols_i, c, out=cols_i)
                np.subtract(cols_i, cols_j * s, out=cols_i)
                np.multiply(cols_j, c, out=cols_j)
                np.add(s_olds, cols_j, out=cols_j)
            # Every rotated column lies in [a, l - a]; an unrotated one gets
            # its cached entry back.
            a = runs[0][0]
            span = mt[a:l - a + 1]
            np.matmul(span[:, None], span[:, :, None], out=dots[:len(span)])
            gram[a:l - a + 1] = dots[:len(span)].ravel().tolist()
        if not rotated:
            break
    else:
        raise NumericError(
            "svd did not converge within "
            f"{MAX_SWEEPS} sweeps; worst off-diagonal ratio {_worst_offdiag(m):.3e}"
        )

    v = mv[rows:]
    norms = np.linalg.norm(m, axis=0)
    order = np.argsort(-norms, kind="stable")
    sigma = norms[order]
    v = v[:, order]
    # Zero norms sort last. Their columns of u, which only an exactly
    # rank-deficient w has, complete the first p to an orthonormal set: the
    # Q of a Householder QR is orthonormal by construction, and its first p
    # columns span u[:, :p]. Adding 0.0 turns Q's -0.0 entries into +0.0.
    p = np.count_nonzero(sigma)
    u = np.empty_like(m)
    np.divide(m[:, order[:p]], sigma[:p], out=u[:, :p])
    if p < n_cols:
        q = np.linalg.qr(np.hstack([u[:, :p], np.eye(rows, n_cols - p)]))[0]
        u[:, p:] = q[:, p:] + 0.0
    return u, sigma, v


@functools.cache
def _levels(n_cols: int) -> tuple:
    """The sweep's levels (l, lo, hi, pairs), l = 1 .. 2n-3. Level l holds
    the pairs (i, l - i) for i in range(lo, hi); pairs lists them for a
    per-pair level and is None for a stacked one."""
    levels = []
    for l in range(1, 2 * n_cols - 2):
        lo, hi = max(0, l - n_cols + 1), (l + 1) // 2
        pairs = tuple((i, l - i) for i in range(lo, hi)) if hi - lo <= _PER_PAIR_MAX else None
        levels.append((l, lo, hi, pairs))
    return tuple(levels)


def _worst_offdiag(m: np.ndarray) -> float:
    g = m.T @ m
    diag = np.sqrt(np.diag(g))
    scale = np.outer(diag, diag)
    ratios = np.abs(g) / np.where(scale > 0.0, scale, 1.0)
    np.fill_diagonal(ratios, 0.0)
    return float(ratios.max())


def truncate_svd(f: SvdFactors, r: int) -> SvdFactors:
    """Leading r columns/values of f; by Eckart-Young the best rank-r
    approximation. r is checked as the config field 'rank'."""
    _check_int("rank", r, 1, f.sigma.size)
    return SvdFactors(f.u[:, :r].copy(), f.sigma[:r].copy(), f.v[:, :r].copy())
