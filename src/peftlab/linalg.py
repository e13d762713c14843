"""Dense matrix helpers and a one-sided Jacobi SVD.

Everything operates on 2-D float64 numpy arrays. The SVD is hand-rolled
rather than delegated to LAPACK because the adapter initializations (and
their tests) need bit-reproducible factors with a fixed sign convention;
cyclic one-sided Jacobi is simple and extremely accurate at the matrix
sizes this package targets (tens of rows/columns).
"""

from __future__ import annotations

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
    """Thin SVD via cyclic one-sided Jacobi.

    The iteration always runs on the tall orientation (the input is
    transposed internally when d < k). Signs are normalized so the
    largest-magnitude entry of each left singular vector is positive
    (first such entry on ties), making the output deterministic and
    directly comparable across runs.
    """
    w = as_matrix(w)
    d, k = w.shape
    # Jacobi's Gram entries square w's entries and under- or overflow far inside
    # the float64 range, so iterate on w / 2**e with max|w / 2**e| in [0.5, 1):
    # a power-of-two scaling is exact, so u and v keep their bits at any scale.
    _, e = np.frexp(np.abs(w).max())
    w = np.ldexp(w, -e)
    if d >= k:
        u, sigma, v = _jacobi_tall(w)
    else:
        v, sigma, u = _jacobi_tall(w.T)
    sigma = np.ldexp(sigma, e)
    for i in range(sigma.size):
        col = u[:, i]
        if col[np.argmax(np.abs(col))] < 0.0:
            u[:, i] = -col
            v[:, i] = -v[:, i]
    return SvdFactors(u, sigma, v)


def _jacobi_tall(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-sided Jacobi on a tall matrix (rows >= cols): returns (u, sigma, v).

    m (rows x n) and v (n x n) are stacked in one C-order array, so a single
    set of elementwise ops rotates both, while a column of m keeps the stride
    n * 8 bytes of a plain rows x n array: every dot product takes the same
    BLAS path, and every factor bit depends only on w. The diagonal Gram
    entries are cached and recomputed, with the same dot, only for the two
    columns a rotation changes.
    """
    rows, n_cols = w.shape
    mv = np.empty((rows + n_cols, n_cols))
    mv[:rows] = w
    mv[rows:] = np.eye(n_cols)
    m = mv[:rows]
    m_cols = [m[:, i] for i in range(n_cols)]
    mv_cols = [mv[:, i] for i in range(n_cols)]
    gram = [float(col.dot(col)) for col in m_cols]
    s_old = np.empty(rows + n_cols)
    s_cj = np.empty(rows + n_cols)
    for _ in range(MAX_SWEEPS):
        rotated = False
        for i in range(n_cols - 1):
            mi = m_cols[i]
            for j in range(i + 1, n_cols):
                mj = m_cols[j]
                gii = gram[i]
                gjj = gram[j]
                gij = float(mi.dot(mj))
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
                gram[i] = float(mi.dot(mi))
                gram[j] = float(mj.dot(mj))
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
    u = np.zeros_like(m)
    for idx, col in enumerate(order):
        if sigma[idx] > 0.0:
            u[:, idx] = m[:, col] / sigma[idx]
        else:
            u[:, idx] = _orthonormal_completion(u)
    return u, sigma, v


def _worst_offdiag(m: np.ndarray) -> float:
    g = m.T @ m
    diag = np.sqrt(np.diag(g))
    scale = np.outer(diag, diag)
    ratios = np.abs(g) / np.where(scale > 0.0, scale, 1.0)
    np.fill_diagonal(ratios, 0.0)
    return float(ratios.max())


def _orthonormal_completion(u: np.ndarray) -> np.ndarray:
    """Deterministic unit vector orthogonal to the (partial) columns of u.

    Only reached for exactly rank-deficient inputs, where some columns of
    the rotated matrix are zero and carry no direction of their own.
    """
    best = None
    best_norm = 0.0
    for basis in range(u.shape[0]):
        cand = np.zeros(u.shape[0])
        cand[basis] = 1.0
        cand -= u @ (u.T @ cand)
        norm = float(np.linalg.norm(cand))
        if norm > best_norm + 1e-12:
            best, best_norm = cand, norm
    if best is None or best_norm == 0.0:
        raise NumericError("cannot extend singular basis: no orthogonal direction left")
    best /= best_norm
    # One re-orthogonalization pass keeps the completion at working precision.
    best -= u @ (u.T @ best)
    return best / np.linalg.norm(best)


def truncate_svd(f: SvdFactors, r: int) -> SvdFactors:
    """Leading r columns/values of f; by Eckart-Young the best rank-r
    approximation. r is checked as the config field 'rank'."""
    _check_int("rank", r, 1, f.sigma.size)
    return SvdFactors(f.u[:, :r].copy(), f.sigma[:r].copy(), f.v[:, :r].copy())
