import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layer_oracle import direction, guarded_norm, rel_frob
from peftlab.adapters import (
    METHODS,
    NORM_EPSILON,
    AdapterConfig,
    effective_weight,
    forward,
    initialize,
    kaiming_uniform,
    layer_forward,
    merge,
    step_cache,
    trainable_params,
)
from peftlab.linalg import ConfigError, NumericError, SvdFactors, frobenius_norm, svd


def random_state(method, d, k, r, seed, scaling=1.0):
    rng = np.random.default_rng(seed)
    w0 = rng.standard_normal((d, k)) / np.sqrt(k)
    cfg = AdapterConfig(method, r, scaling=scaling, seed=seed + 1)
    return w0, initialize(w0, cfg)


# ---------------------------------------------------------------------------
# kaiming init

def test_kaiming_entries_within_bound():
    w = kaiming_uniform(8, 12, fan_in=12, seed=0)
    assert np.abs(w).max() <= 1.0 / math.sqrt(12.0)


def test_kaiming_same_seed_identical():
    assert np.array_equal(kaiming_uniform(5, 7, 7, seed=3), kaiming_uniform(5, 7, 7, seed=3))
    assert not np.array_equal(kaiming_uniform(5, 7, 7, seed=3), kaiming_uniform(5, 7, 7, seed=4))


def test_kaiming_sample_mean_near_zero():
    # Uniform on [-b, b] has standard deviation b/sqrt(3), so the mean of
    # n draws is within 3*b/sqrt(3n) with overwhelming probability.
    n = 10_000
    bound = 1.0 / math.sqrt(25.0)
    w = kaiming_uniform(100, 100, fan_in=25, seed=11)
    assert abs(w.mean()) <= 3.0 * bound / math.sqrt(3.0 * n)


# ---------------------------------------------------------------------------
# initializers

def test_lora_init_is_exact_identity():
    w0, state = random_state("lora", 6, 5, 3, seed=0)
    assert np.array_equal(effective_weight(state), w0)
    assert np.array_equal(state.b, np.zeros((6, 3)))
    assert np.abs(state.a).max() <= 1.0 / math.sqrt(5.0)


def test_dora_init_magnitudes_are_column_norms():
    w0 = np.diag([3.0, 2.0])
    state = initialize(w0, AdapterConfig("dora", 1, seed=0))
    assert np.allclose(state.m, [3.0, 2.0])
    assert rel_frob(effective_weight(state), w0) <= 1e-10


def test_dora_zero_column_gets_epsilon_guard():
    w0 = np.array([[1.0, 0.0], [2.0, 0.0]])
    state = initialize(w0, AdapterConfig("dora", 1, seed=0))
    assert state.m[1] == NORM_EPSILON
    assert np.all(state.m > 0.0)
    assert np.allclose(effective_weight(state)[:, 1], 0.0)


@pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
@pytest.mark.parametrize("d, k", [(7, 4), (4, 7), (5, 5)])
def test_dora_init_magnitudes_are_the_norms_of_the_first_step(d, k, scale):
    # At init b = 0, so the step's direction v is w0: its sums of squares
    # and guarded norms, summed by the one column sum of squares behind
    # column_norms too, must give m's bits.
    w0 = np.random.default_rng(d * k).standard_normal((d, k)) * scale
    w0[:, 1] = 0.0
    state = initialize(w0, AdapterConfig("dora", 2, scaling=0.5, seed=1))
    cache = step_cache(state)
    live = cache.sq > 0.0
    assert np.array_equal(live, np.arange(k) != 1)
    assert state.m[live].tobytes() == np.sqrt(cache.sq[live]).tobytes()
    assert state.m[1] == NORM_EPSILON and cache.sq[1] == 0.0
    assert cache.n[live].tobytes() == guarded_norm(state.m[live]).tobytes()


def test_pissa_init_diagonal_by_hand():
    state = initialize(np.diag([3.0, 2.0]), AdapterConfig("pissa", 1, seed=0))
    root3 = math.sqrt(3.0)
    assert np.allclose(state.b.ravel(), [root3, 0.0])
    assert np.allclose(state.a.ravel(), [root3, 0.0])
    assert np.allclose(state.base, np.diag([0.0, 2.0]))


def test_pissa_residual_norm_is_dropped_singular_value():
    w0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    state = initialize(w0, AdapterConfig("pissa", 1, seed=0))
    sigma2 = math.sqrt(15.0 - math.sqrt(221.0))
    assert frobenius_norm(state.base) == pytest.approx(sigma2, rel=1e-10)
    assert rel_frob(direction(state).v, w0) <= 1e-10


def test_dude_init_diagonal_by_hand():
    w0 = np.diag([3.0, 2.0])
    root3 = math.sqrt(3.0)
    state = initialize(w0, AdapterConfig("dude", 1, seed=0))
    assert np.allclose(state.b.ravel(), [root3, 0.0])
    assert np.allclose(state.a.ravel(), [root3, 0.0])
    assert np.allclose(state.base, np.diag([0.0, 2.0]))
    assert np.allclose(state.m, [3.0, 2.0])
    assert rel_frob(effective_weight(state), w0) <= 1e-10


def test_dude_variants_split_singular_values_differently():
    w0 = np.diag([3.0, 2.0])
    va = initialize(w0, AdapterConfig("dude_a", 1, seed=0))
    vb = initialize(w0, AdapterConfig("dude_b", 1, seed=0))
    assert np.allclose(va.b.ravel(), [1.0, 0.0])
    assert np.allclose(va.a.ravel(), [3.0, 0.0])
    assert np.allclose(vb.b.ravel(), [3.0, 0.0])
    assert np.allclose(vb.a.ravel(), [1.0, 0.0])


def test_dude_variants_share_the_update_matrix():
    rng = np.random.default_rng(2)
    w0 = rng.standard_normal((9, 6))
    products = []
    for method in ("dude", "dude_a", "dude_b"):
        state = initialize(w0, AdapterConfig(method, 3, seed=0))
        products.append(state.b @ state.a)
    assert rel_frob(products[1], products[0]) <= 1e-10
    assert rel_frob(products[2], products[0]) <= 1e-10


def test_init_equivalence_all_methods_random():
    rng = np.random.default_rng(23)
    for _ in range(25):
        d = int(rng.integers(2, 17))
        k = int(rng.integers(2, 17))
        r = int(rng.integers(1, min(d, k) + 1))
        w0 = rng.standard_normal((d, k))
        for method in METHODS:
            cfg = AdapterConfig(method, r, seed=int(rng.integers(0, 2**31)))
            state = initialize(w0, cfg)
            assert rel_frob(effective_weight(state), w0) <= 1e-10, method
            if method in ("pissa", "dude", "dude_a", "dude_b"):
                assert rel_frob(direction(state).v, w0) <= 1e-10, method
            if state.m is not None:
                assert np.all(state.m > 0.0)


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 16),
    k=st.integers(1, 16),
    data=st.data(),
    scaling=st.floats(0.0, 4.0, exclude_min=True),
    log_scale=st.floats(-100.0, 100.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_initialize_properties(d, k, data, scaling, log_scale, seed):
    r = data.draw(st.integers(1, min(d, k)), label="rank")
    w0 = np.random.default_rng(seed).standard_normal((d, k)) * 10.0 ** log_scale
    norms = np.linalg.norm(w0, axis=0)

    def rel(x, y):
        # Max-abs, not Frobenius: squares of 1e-100 entries shrunk by the
        # epsilon guard underflow.
        return np.abs(x - y).max() / np.abs(y).max()

    updates = {}
    for method in METHODS:
        state = initialize(w0, AdapterConfig(method, r, scaling=scaling, seed=seed))
        expected = w0
        if state.m is not None:
            assert np.all(state.m > 0.0), method
            # The guard in the denominator of the normalization scales
            # column j by ||w0_j|| / guarded_norm(||w0_j||).
            expected = w0 * (norms / guarded_norm(norms))
        assert rel(effective_weight(state), expected) <= 1e-10, method
        if method in ("pissa", "dude", "dude_a", "dude_b"):
            assert rel(direction(state).v, w0) <= 1e-10, method
        if method.startswith("dude"):
            updates[method] = state.b @ state.a
        assert state.base.flags.writeable == (method == "full"), method
        for name, arr in trainable_params(state):
            assert arr.flags["C_CONTIGUOUS"], (method, name)
    for method in ("dude_a", "dude_b"):
        assert rel(updates[method], updates["dude"]) <= 1e-10, method


def test_rank_out_of_range_rejected():
    w0 = np.zeros((4, 3))
    with pytest.raises(ValueError, match="'rank' must be <= 3, got 4"):
        initialize(w0, AdapterConfig("lora", 4, seed=0))


def test_initialize_raises_on_a_non_finite_state_from_a_finite_w0():
    # m's column sums of squares overflow at entries of 1e160; pissa/dude*'s
    # base at scaling 1e308.
    w0 = np.random.default_rng(0).standard_normal((6, 5))
    with np.errstate(over="ignore"):
        for method in ("dora", "dude", "dude_a", "dude_b"):
            with pytest.raises(NumericError, match=f"{method} 'm' is not finite"):
                initialize(w0 * 1e160, AdapterConfig(method, 2))
        for method in ("pissa", "dude", "dude_a", "dude_b"):
            with pytest.raises(NumericError, match=f"{method} 'base' is not finite"):
                initialize(w0, AdapterConfig(method, 2, scaling=1e308))


@pytest.mark.parametrize("d, k", [(7, 4), (4, 7), (5, 5)])
def test_initialize_with_given_factors_is_bit_identical(d, k):
    w0 = np.random.default_rng(d * 10 + k).standard_normal((d, k))
    factors = svd(w0)
    for method in METHODS:
        cfg = AdapterConfig(method, 2, scaling=0.5, seed=3)
        want = initialize(w0, cfg)
        got = initialize(w0, cfg, factors=factors)
        for field in ("base", "b", "a", "m"):
            a, b = getattr(got, field), getattr(want, field)
            if b is None:
                assert a is None, (method, field)
            else:
                assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), (method, field)
    # initialize reads the factors and leaves them as they were.
    again = svd(w0)
    for name in ("u", "sigma", "v"):
        assert getattr(factors, name).tobytes() == getattr(again, name).tobytes()


@pytest.mark.parametrize("method", METHODS)
def test_initialize_rejects_factors_of_another_shape(method):
    w0 = np.random.default_rng(0).standard_normal((5, 3))
    f = svd(w0)
    for bad in (svd(w0.T), svd(w0[:4]), SvdFactors(f.u, f.sigma[:2], f.v)):
        with pytest.raises(ConfigError, match="do not match w0 of shape"):
            initialize(w0, AdapterConfig(method, 2, seed=0), factors=bad)


def test_config_rejects_unknown_method_and_bad_fields():
    with pytest.raises(ValueError, match="method"):
        AdapterConfig("qlora", 2)
    with pytest.raises(ValueError, match="rank"):
        AdapterConfig("lora", 0)
    with pytest.raises(ValueError, match="scaling"):
        AdapterConfig("lora", 2, scaling=0.0)


def test_state_method_follows_its_config():
    state = initialize(np.eye(3), AdapterConfig("dora", 1, seed=0))
    assert state.method == "dora"
    assert dataclasses.replace(state, config=AdapterConfig("dude", 1)).method == "dude"


def test_base_is_frozen_for_adapters_but_not_full():
    _, state = random_state("dude", 4, 4, 2, seed=0)
    with pytest.raises(ValueError):
        state.base[0, 0] = 1.0
    _, full_state = random_state("full", 4, 4, 1, seed=0)
    full_state.base[0, 0] = 1.0  # trainable, so writable


# ---------------------------------------------------------------------------
# effective weight properties

def test_column_scale_invariance_of_normalized_methods():
    # Scaling one column of v = base + b @ a by c > 0 leaves that column of
    # the effective weight unchanged (the normalization is 0-homogeneous).
    _, state = random_state("dude", 6, 5, 2, seed=3)
    before = effective_weight(state)
    for col, c in ((1, 7.0), (3, 0.25)):
        base = state.base.copy()
        a = state.a.copy()
        base[:, col] *= c
        a[:, col] *= c
        scaled = dataclasses.replace(state, base=base, a=a)
        after = effective_weight(scaled)
        assert np.abs(after[:, col] - before[:, col]).max() <= 1e-9


def test_magnitude_linearity_is_exact():
    _, state = random_state("dora", 5, 4, 2, seed=5)
    doubled = dataclasses.replace(state, m=2.0 * state.m)
    assert np.array_equal(effective_weight(doubled), 2.0 * effective_weight(state))


def test_lora_rank_one_ones():
    state = initialize(np.zeros((3, 4)), AdapterConfig("lora", 1, seed=0))
    state.b[:] = 1.0
    state.a[:] = 1.0
    assert np.array_equal(effective_weight(state), np.ones((3, 4)))


# ---------------------------------------------------------------------------
# forward / merge

def test_forward_zero_input():
    _, state = random_state("pissa", 4, 6, 2, seed=7)
    assert np.array_equal(forward(state, np.zeros(6)), np.zeros(4))


def test_forward_identity_weight():
    state = initialize(np.eye(3), AdapterConfig("lora", 1, seed=0))
    x = np.array([1.0, -2.0, 0.5])
    assert np.allclose(forward(state, x), x)


def test_forward_diagonal_by_hand():
    state = initialize(np.diag([3.0, 2.0]), AdapterConfig("dude", 1, seed=0))
    assert np.allclose(forward(state, [1.0, 1.0]), [3.0, 2.0])


def test_forward_length_mismatch():
    _, state = random_state("lora", 3, 5, 2, seed=0)
    with pytest.raises(ValueError, match="expected 5"):
        forward(state, np.zeros(4))


def test_merge_of_fresh_state_returns_w0():
    w0, state = random_state("dude_a", 7, 7, 3, seed=9)
    assert rel_frob(merge(state), w0) <= 1e-10


def test_merge_matches_adapter_forward_on_random_states():
    rng = np.random.default_rng(31)
    for method in METHODS:
        d, k = int(rng.integers(2, 10)), int(rng.integers(2, 10))
        r = int(rng.integers(1, min(d, k) + 1))
        _, state = random_state(method, d, k, r, seed=int(rng.integers(0, 2**31)))
        # Push the trainables away from the init point first.
        for _, arr in trainable_params(state):
            arr += 0.05 * rng.standard_normal(arr.shape)
        merged = merge(state)
        for _ in range(5):
            x = rng.standard_normal(k)
            assert np.abs(forward(state, x) - merged @ x).max() <= 1e-10


@settings(max_examples=150, deadline=None)
@given(
    method=st.sampled_from(METHODS),
    d=st.integers(1, 12),
    k=st.integers(1, 12),
    data=st.data(),
    n=st.integers(1, 4),
    scaling=st.floats(0.25, 4.0),
    exponent=st.sampled_from([0, 100, -100]),
    seed=st.integers(0, 2**32 - 1),
)
def test_merge_matches_layer_forward_at_extreme_input_scales(method, d, k, data, n, scaling,
                                                             exponent, seed):
    # merge(state) @ X and layer_forward(state, X) sum the same terms in
    # another order, so they may differ by rounding only. The bound is
    # relative to the sizes of those terms, |base| |X| + s |b| (|a| |X|),
    # with X's rows scaled by |m_j| / n_j for dora/dude*; not to |W'| |X|,
    # because pissa's base cancels most of s * b @ a.
    r = data.draw(st.integers(1, min(d, k)), label="rank")
    rng = np.random.default_rng(seed)
    _, state = random_state(method, d, k, r, seed, scaling=scaling)
    for _, arr in trainable_params(state):
        arr += 0.1 * rng.standard_normal(arr.shape)
    x = rng.standard_normal((k, n)) * 10.0 ** exponent
    x_abs = np.abs(x)
    if state.m is not None:
        x_abs = x_abs * np.abs(direction(state).mn)[:, None]
    size = np.abs(state.base) @ x_abs
    if method != "full":
        size += scaling * (np.abs(state.b) @ (np.abs(state.a) @ x_abs))
    got, want = merge(state) @ x, layer_forward(state, x, step_cache(state))
    assert np.all(np.isfinite(got)) and np.all(np.isfinite(size))
    assert np.all(np.abs(got - want) <= 1e-14 * size), np.abs(got - want).max()


def test_merged_column_norms_equal_magnitudes():
    rng = np.random.default_rng(37)
    for method in ("dora", "dude"):
        _, state = random_state(method, 8, 6, 2, seed=int(rng.integers(0, 2**31)))
        for _, arr in trainable_params(state):
            arr += 0.1 * rng.standard_normal(arr.shape)
        state.m[:] = np.abs(state.m) + 0.1  # keep magnitudes positive
        norms = np.linalg.norm(merge(state), axis=0)
        assert np.abs(norms - state.m).max() <= 1e-9


def test_trainable_arrays_are_c_contiguous():
    # The layout of train's flat views: BLAS picks its kernel by layout, so a
    # product with a factor rounds the same before and after training.
    for method in METHODS:
        _, state = random_state(method, 5, 7, 3, seed=2)
        for name, arr in trainable_params(state):
            assert arr.flags["C_CONTIGUOUS"], (method, name)


def test_trainable_params_per_method():
    _, lora_state = random_state("lora", 4, 4, 2, seed=0)
    _, dude_state = random_state("dude", 4, 4, 2, seed=0)
    _, full_state = random_state("full", 4, 4, 1, seed=0)
    assert [n for n, _ in trainable_params(lora_state)] == ["b", "a"]
    assert [n for n, _ in trainable_params(dude_state)] == ["b", "a", "m"]
    assert [n for n, _ in trainable_params(full_state)] == ["base"]
