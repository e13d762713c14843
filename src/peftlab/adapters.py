"""Construction, evaluation, and merging of low-rank adapters on a dense layer.

Supported methods over a d x k base weight:

  full    every entry of the weight trains
  lora    additive low-rank update b @ a; b starts at zero, a Kaiming-uniform
  dora    per-column magnitude times normalized direction, LoRA-style factors
  pissa   factors start from the top-r SVD of the weight, spectral residual frozen
  dude    dora's magnitude/direction split with pissa's SVD initialization
  dude_a  dude variant: singular values folded entirely into a (b = u_r)
  dude_b  dude variant: singular values folded entirely into b (a = v_r.T)

initialize builds every method from the _INIT table below and leaves the
effective weight equal to the original weight, so attaching an adapter never
changes the layer's output before training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ConfigError, SvdFactors, _check_choice, _check_int, _check_number
from .linalg import as_matrix, column_norms, svd, truncate_svd

__all__ = [
    "METHODS",
    "NORM_EPSILON",
    "AdapterConfig",
    "AdapterState",
    "kaiming_uniform",
    "initialize",
    "StepCache",
    "step_cache",
    "layer_forward",
    "effective_weight",
    "forward",
    "merge",
    "trainable_params",
]

METHODS = ("full", "lora", "dora", "pissa", "dude", "dude_a", "dude_b")

# Added to every column norm of the direction, n_j = ||v_j|| + NORM_EPSILON,
# so a zero column stays defined; also a zero column's initial magnitude.
NORM_EPSILON = 1e-12

# How initialize builds each method but full: (b_power, magnitude).
# b_power None: b = 0, a Kaiming-uniform, base = w0. Otherwise the top-r SVD
# of w0 is split as b = u_r * sigma_r**b_power, a = sigma_r**(1 - b_power) *
# v_r.T, base = w0 - scaling * b @ a. magnitude: m = column norms of w0, with
# zero columns set to NORM_EPSILON.
_INIT = {
    "lora": (None, False),
    "dora": (None, True),
    "pissa": (0.5, False),
    "dude": (0.5, True),
    "dude_a": (0.0, True),
    "dude_b": (1.0, True),
}


@dataclass
class AdapterConfig:
    method: str
    rank: int
    scaling: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _check_choice("method", self.method, METHODS)
        _check_int("rank", self.rank, 1)  # also for full, which ignores it
        _check_number("scaling", self.scaling, 0.0, strict=True)
        _check_int("seed", self.seed, 0)


@dataclass
class StepCache:
    """The direction of a dora/dude* weight at given trainables, the one
    thing a step derives besides products with the factors, since
    layer_forward and grad.param_grads never form W', g = dL/dW' or
    h = dL/dv: v = base + scaling * b @ a, sq = ||v_j||^2,
    n = ||v_j|| + NORM_EPSILON and mn = m / n. step_cache derives it once per
    layer and step as a new value, which both kernels take; nothing keeps it
    on the state. effective_weight and the finite-difference oracle derive
    theirs through the same formula (_direction).
    """

    v: np.ndarray | None = None
    sq: np.ndarray | None = None
    n: np.ndarray | None = None
    mn: np.ndarray | None = None


@dataclass
class AdapterState:
    """One adapted linear layer.

    base is d x k: the frozen original weight for lora/dora, the frozen residual
    w0 - scaling * b @ a for pissa/dude*, or the trainable weight for full.
    b (d x r) and a (r x k) are the low-rank factors; m (length k) is the
    per-column magnitude vector, present only for dora/dude*. A state is
    plain data: no entry point but trainer.train, which rebinds the
    trainables to views of its flat buffer, assigns to its fields.
    """

    base: np.ndarray
    b: np.ndarray
    a: np.ndarray
    m: np.ndarray | None
    config: AdapterConfig

    @property
    def method(self) -> str:
        return self.config.method


def kaiming_uniform(rows: int, cols: int, fan_in: int, seed: int) -> np.ndarray:
    """I.i.d. uniform on [-1/sqrt(fan_in), +1/sqrt(fan_in)], seeded."""
    _check_int("fan_in", fan_in, 1)
    bound = 1.0 / np.sqrt(fan_in)
    rng = np.random.default_rng(seed)
    return rng.uniform(-bound, bound, size=(rows, cols))


def initialize(w0, cfg: AdapterConfig, *, factors: SvdFactors | None = None) -> AdapterState:
    """Attach a cfg.method adapter to w0 following the _INIT table. The
    effective weight equals w0, up to the NORM_EPSILON guard of the
    magnitude methods; the base is read-only except for full.

    factors, if given, must be an SVD of w0 in svd's sign convention: the
    SVD-initialized methods use it instead of factoring w0 with svd, and the
    other methods ignore it. Its shapes are checked against w0; its values
    are not.
    """
    w0 = as_matrix(w0, "w0")
    d, k = w0.shape
    if factors is not None:
        p = min(d, k)
        got = (factors.u.shape, factors.sigma.shape, factors.v.shape)
        if got != ((d, p), (p,), (k, p)):
            raise ConfigError(f"factors (u, sigma, v) of shapes {got} do not match "
                              f"w0 of shape {w0.shape}")
    if cfg.method == "full":
        # The factors are inert zero placeholders; the whole base trains.
        return AdapterState(w0.copy(), np.zeros((d, 1)), np.zeros((1, k)), None, cfg)
    _check_int("rank", cfg.rank, 1, min(d, k))
    b_power, has_magnitude = _INIT[cfg.method]
    if b_power is None:
        b = np.zeros((d, cfg.rank))
        a = kaiming_uniform(cfg.rank, k, fan_in=k, seed=cfg.seed)
        base = w0.copy()
    else:
        t = truncate_svd(factors if factors is not None else svd(w0), cfg.rank)
        b = t.u * t.sigma ** b_power
        # ascontiguousarray: the C layout of train's flat views. BLAS picks its
        # kernel by layout, so a @ x rounds the same before and after training.
        a = np.ascontiguousarray((t.sigma ** (1.0 - b_power))[:, None] * t.v.T)
        base = w0 - cfg.scaling * (b @ a)
    base.setflags(write=False)
    m = None
    if has_magnitude:
        m = column_norms(w0)
        m[m == 0.0] = NORM_EPSILON
    return AdapterState(base, b, a, m, cfg)


def step_cache(state: AdapterState) -> StepCache | None:
    """The direction of a dora/dude* state at its current trainables, as a
    new StepCache; None for full, lora and pissa, whose kernels read the
    state alone."""
    if state.m is None:
        return None
    return _direction(state.base, state.b, state.a, state.m, state.config)


def _scaled(arr: np.ndarray, s: float) -> np.ndarray:
    """arr *= s in place and return arr; skipped at s == 1.0, where it is exact."""
    if s != 1.0:
        arr *= s
    return arr


def layer_forward(state: AdapterState, x: np.ndarray, cache: StepCache | None) -> np.ndarray:
    """z = W' @ x for a k x n input block, without forming W'; cache is
    step_cache(state).

    full: base @ x. lora/pissa: base @ x + scaling * b @ (a @ x).
    dora/dude*: v @ (x * m / n), the magnitudes folded into the input's rows.
    """
    if state.method == "full":
        return np.dot(state.base, x)
    if state.m is None:
        z = np.dot(state.base, x)
        z += _scaled(np.dot(state.b, np.dot(state.a, x)), state.config.scaling)
        return z
    return np.dot(cache.v, x * cache.mn[:, None])


def effective_weight(state: AdapterState) -> np.ndarray:
    """Collapsed d x k weight the layer realizes, as a new array.

    full: base. lora/pissa: base + scaling * b @ a. dora/dude*: each column
    of base + scaling * b @ a is normalized and rescaled by its magnitude,
    with NORM_EPSILON added to the denominator so zero columns stay defined.
    """
    if state.method == "full":
        return state.base.copy()
    return _weight(state.base, state.b, state.a, state.m, state.config)


# The weight formula of every method but full, shared by step_cache,
# effective_weight and the finite-difference oracle. Any argument may carry a
# leading stack axis (b: ... x d x r, a: ... x r x k, m: ... x k), and the
# result then holds one entry per stacked weight, each with the bits of the
# unstacked call: the oracle evaluates its displaced copies this way.

def _direction(base, b, a, m, cfg: AdapterConfig) -> StepCache:
    """v = base + scaling * b @ a and, when m is given, its column sums of
    squares sq (of v * v, summed as numpy.linalg.norm sums them),
    n = sqrt(sq) + NORM_EPSILON and mn = m / n, in new arrays."""
    # s * (b @ a) + base has the bits of base + s * (b @ a): both operations
    # commute.
    v = _scaled(np.matmul(b, a), cfg.scaling)
    v += base
    if m is None:
        return StepCache(v=v)
    sq = np.add.reduce(v * v, axis=-2)
    n = np.sqrt(sq)
    n += NORM_EPSILON
    return StepCache(v, sq, n, m / n)


def _weight(base, b, a, m, cfg: AdapterConfig) -> np.ndarray:
    """The effective weight, as a new array: v, with column j times
    m_j / n_j when m is given."""
    direction = _direction(base, b, a, m, cfg)
    if m is not None:
        direction.v *= direction.mn[..., None, :]
    return direction.v


def _as_vector(v, length: int, what: str) -> np.ndarray:
    """v as a float64 vector; ValueError naming what if it is not of the given
    length. The input check of forward, grad.backward and grad.finite_diff_grads."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (length,):
        raise ValueError(f"{what} length mismatch: expected {length}, got {v.shape}")
    return v


def forward(state: AdapterState, x) -> np.ndarray:
    x = _as_vector(x, state.base.shape[1], "input")
    return effective_weight(state) @ x


def merge(state: AdapterState) -> np.ndarray:
    """Deployment-time collapse: a plain dense weight equivalent to the adapter."""
    return effective_weight(state)


def trainable_params(state: AdapterState) -> list[tuple[str, np.ndarray]]:
    """Named trainable arrays, in fixed order; the base is frozen except for full."""
    if state.method == "full":
        return [("base", state.base)]
    params = [("b", state.b), ("a", state.a)]
    if state.m is not None:
        params.append(("m", state.m))
    return params
