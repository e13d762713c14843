import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peftlab.adapters import (
    METHODS,
    NORM_EPSILON,
    AdapterConfig,
    effective_weight,
    initialize,
    merge,
    trainable_params,
)
from peftlab.grad import backward, finite_diff_grads, grad_check
from peftlab.linalg import NumericError, svd
from peftlab.trainer import (
    _DRAW_BYTES,
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    DEFAULT_SEEDS,
    Layer,
    MetricsRecord,
    Model,
    OptState,
    Task,
    TrainConfig,
    _targets,
    cosine_lr,
    evaluate,
    loss_and_grads,
    make_model,
    make_task,
    model_forward,
    optimizer_step,
    summarize,
    train,
    training_stream,
)


# ---------------------------------------------------------------------------
# tasks

def test_default_seed_suite():
    assert DEFAULT_SEEDS == (42, 78, 512, 1234, 3407)


def test_teacher_perturbation_has_exact_rank():
    task = make_task("teacher_student", 10, 12, r_true=3, sigma=0.0, seed=5)
    sigma = svd(task.w_target - task.w0).sigma
    assert sigma[2] > 0.1  # genuinely rank 3, strengths are >= 0.5
    assert sigma[3] <= 1e-10 * sigma[0]


def test_zero_perturbation_gives_pure_noise_floor():
    # With no teacher perturbation the model at init is already exact, so
    # the expected loss is the summed noise variance sigma^2 * d.
    d, sigma = 8, 0.1
    task = make_task("teacher_student", d, 8, r_true=0, sigma=sigma, seed=3)
    model = make_model(task, "full", rank=1, seed=3)
    rng = training_stream(task, 0)
    loss, _ = loss_and_grads(model, task.sample_batch(rng, 4096))
    expected = sigma**2 * d
    # std of the mean of 4096 per-sample chi^2 losses
    tolerance = 5.0 * sigma**2 * math.sqrt(2.0 * d / 4096)
    assert abs(loss - expected) <= tolerance


def test_task_sampling_deterministic():
    t1 = make_task("teacher_student", 6, 6, r_true=2, sigma=0.05, seed=11)
    t2 = make_task("teacher_student", 6, 6, r_true=2, sigma=0.05, seed=11)
    assert t1.w0.tobytes() == t2.w0.tobytes()
    assert t1.w_target.tobytes() == t2.w_target.tobytes()
    assert t1.eval_x.tobytes() == t2.eval_x.tobytes()
    x1, y1 = t1.sample_batch(training_stream(t1, 7), 10)
    x2, y2 = t2.sample_batch(training_stream(t2, 7), 10)
    assert x1.tobytes() == x2.tobytes()
    assert y1.tobytes() == y2.tobytes()


def test_eval_set_disjoint_from_training_stream():
    task = make_task("teacher_student", 4, 4, r_true=1, sigma=0.0, seed=0)
    x, _ = task.sample_batch(training_stream(task, 0), task.eval_x.shape[1])
    assert not np.array_equal(x, task.eval_x)


def test_eval_set_owns_its_memory():
    # The eval set is a batch of the chunked draw; its x is copied out, so
    # the task keeps no draw buffer with a noise block beside it.
    task = make_task("teacher_student", 6, 5, r_true=2, sigma=0.1, seed=4)
    assert task.eval_x.base is None
    assert task.eval_x.shape == (5, 256)


def _draw_chunk(d, k, n, sigma):
    """Batches per teacher-student draw: x and, with sigma > 0, noise."""
    rows = k + d if sigma > 0.0 else k
    return max(1, _DRAW_BYTES // (rows * max(n, 1) * 8))


def _batch_bits(batches):
    return [(x.dtype, x.tobytes(), t.dtype, t.tobytes()) for x, t in batches]


def _per_step_batch(task, rng, n):
    """One batch drawn on its own: a teacher-student batch written out as
    x, then its targets' noise; a cluster batch from sample_batch."""
    if task.kind != "teacher_student":
        return task.sample_batch(rng, n)
    x = rng.standard_normal((task.k, n))
    t = task.w_target @ x
    if task.sigma > 0.0:
        t = t + task.sigma * rng.standard_normal((task.d, n))
    return x, t


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["teacher_student", "cluster_classify"]),
    d=st.integers(1, 70),
    k=st.integers(1, 70),
    n=st.integers(0, 40),
    sigma=st.sampled_from([0.0, 0.3]),
    count=st.integers(0, 3 * _DRAW_BYTES // 8),
    seed=st.integers(0, 2**16),
)
# 16 x 16, n = 8, sigma > 0: a chunk of 32 batches, and one batch to either side.
@example(kind="teacher_student", d=16, k=16, n=8, sigma=0.3, count=31, seed=1)
@example(kind="teacher_student", d=16, k=16, n=8, sigma=0.3, count=32, seed=1)
@example(kind="teacher_student", d=16, k=16, n=8, sigma=0.3, count=33, seed=1)
# One batch of 64 x 64 at n = 256 exceeds the draw budget, so a chunk is one batch.
@example(kind="teacher_student", d=64, k=64, n=256, sigma=0.3, count=3, seed=1)
@example(kind="teacher_student", d=64, k=64, n=256, sigma=0.0, count=2, seed=1)
def test_batches_are_the_bits_of_per_step_draws(kind, d, k, n, sigma, count, seed):
    # One standard_normal call equals consecutive calls whose sizes add up to
    # it, and a stacked np.matmul over the chunk's strided (c, k, n) view
    # computes each item as the 2-D product does: the chunked stream must
    # give the bytes and dtypes of count sample_batch calls and of count
    # batches drawn one by one, and leave the rng in their state. Counts
    # cover up to three chunks; 0 draws nothing, and so do batches of n = 0.
    count %= 3 * _draw_chunk(d, k, n, sigma) + 1
    task = make_task(kind, d, k, r_true=min(d, k, 2) if kind == "teacher_student" else 0,
                     sigma=sigma, seed=seed)
    chunked, sampled, written = (training_stream(task, seed) for _ in range(3))
    start = chunked.bit_generator.state
    got = _batch_bits(task.batches(chunked, n, count))
    assert got == _batch_bits(task.sample_batch(sampled, n) for _ in range(count))
    assert got == _batch_bits(_per_step_batch(task, written, n) for _ in range(count))
    assert chunked.bit_generator.state == sampled.bit_generator.state \
        == written.bit_generator.state
    if count == 0:
        assert chunked.bit_generator.state == start


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["teacher_student", "cluster_classify"]),
    d=st.integers(1, 40),
    k=st.integers(1, 40),
    n=st.integers(1, 40),
    sigma=st.sampled_from([0.0, 0.3]),
    count=st.integers(1, 2 * _DRAW_BYTES // 8),
    seed=st.integers(0, 2**16),
)
@example(kind="teacher_student", d=16, k=16, n=8, sigma=0.3, count=33, seed=1)
@example(kind="teacher_student", d=16, k=16, n=8, sigma=0.0, count=65, seed=2)
@example(kind="cluster_classify", d=5, k=16, n=8, sigma=0.0, count=3, seed=3)
def test_every_drawn_batch_passes_the_checks_of_a_training_step(kind, d, k, n, sigma, count, seed):
    # Each training step is loss_and_grads on a batch of Task.batches: each
    # must be a batch its checks pass and leave as it is, x a float64 k x n
    # block and t the model's targets (mse: float64 d x n; cross-entropy: n
    # integer labels in [0, d)), so train never raises on its own draws.
    # Counts reach past the first draw chunk.
    count = 1 + (count - 1) % (2 * _draw_chunk(d, k, n, sigma) + 1)
    task = make_task(kind, d, k, sigma=sigma, seed=seed)
    model = make_model(task, "lora", rank=1, seed=seed)
    drawn = 0
    for x, t in task.batches(training_stream(task, seed), n, count):
        assert type(x) is np.ndarray and x.dtype == np.float64 and x.shape == (k, n)
        assert np.asarray(x, dtype=np.float64) is x
        assert _targets(model, t, n) is t
        if kind == "teacher_student":
            assert t.dtype == np.float64 and t.shape == (d, n)
        else:
            assert np.issubdtype(t.dtype, np.integer) and t.shape == (n,)
            assert 0 <= t.min() and t.max() < d
        if drawn == 0:
            loss, _ = loss_and_grads(model, (x, t))
            assert math.isfinite(loss)
        drawn += 1
    assert drawn == count


@dataclasses.dataclass
class _CorruptedTask(Task):
    """A task whose every training batch is passed through corrupt(x, t)."""

    corrupt: object = None

    def batches(self, rng, n, count):
        for x, t in super().batches(rng, n, count):
            yield self.corrupt(x, t)


def _relabel(label):
    def corrupt(x, t):
        t = t.copy()
        t[-1] = label
        return x, t
    return corrupt


@pytest.mark.parametrize("kind, corrupt, message", [
    ("cluster_classify", _relabel(-1), r"labels must lie in \[0, 4\), got -1\."),
    ("cluster_classify", _relabel(4), r"labels must lie in \[0, 4\), got 0\.\.4"),
    ("cluster_classify", lambda x, t: (x, t.astype(np.float64)), "labels must be 4 integers"),
    ("teacher_student", lambda x, t: (x, t[:, :1]), r"targets must have the output's shape"),
    ("teacher_student", lambda x, t: (x, t[:-1]), r"targets must have the output's shape"),
    ("teacher_student", lambda x, t: (x[:, :0], t[:, :0]), "k x n block with n >= 1"),
])
def test_train_rejects_a_batch_that_fails_the_checks(kind, corrupt, message):
    # train steps through loss_and_grads, so a batch it rejects stops the run
    # with ValueError (the CLI's exit 1) before the first update. A label -1
    # would otherwise index class d - 1, and one column of targets would
    # broadcast across the batch, each run training without an error.
    task = make_task(kind, 4, 4, sigma=0.5, seed=1)
    model = make_model(task, "lora", rank=2, seed=1)
    before = [arr.tobytes() for _, arr in _all_params(model)]
    with pytest.raises(ValueError, match=message):
        train(model, _CorruptedTask(**vars(task), corrupt=corrupt),
              TrainConfig(steps=3, batch_size=4, seed=1))
    assert [arr.tobytes() for _, arr in _all_params(model)] == before


def test_train_names_the_step_of_a_batch_that_fails_the_checks():
    # Only the third batch carries a bad label, so the first two steps
    # update the model and the error names step 3.
    relabel, seen = _relabel(-1), []

    def third_batch(x, t):
        seen.append(None)
        return relabel(x, t) if len(seen) == 3 else (x, t)

    task = make_task("cluster_classify", 4, 4, sigma=0.5, seed=1)
    model = make_model(task, "lora", rank=2, seed=1)
    with pytest.raises(ValueError, match=r"step 3\b.*labels must lie in \[0, 4\), got -1\."):
        train(model, _CorruptedTask(**vars(task), corrupt=third_batch),
              TrainConfig(steps=5, batch_size=4, seed=1))
    assert len(seen) == 3


def test_task_loss_follows_its_kind():
    task = make_task("teacher_student", 4, 4, seed=0)
    assert make_model(task, "lora", 2).loss == "mse"
    task = make_task("cluster_classify", 3, 4, seed=0)
    assert make_model(task, "lora", 2).loss == "cross_entropy"


def test_make_task_validation():
    with pytest.raises(ValueError, match="'task'"):
        make_task("mnist", 4, 4)
    with pytest.raises(ValueError, match="'r_true'"):
        make_task("teacher_student", 4, 4, r_true=5)
    with pytest.raises(ValueError, match="'sigma'"):
        make_task("teacher_student", 4, 4, sigma=-1.0)
    with pytest.raises(ValueError, match="'d'"):
        make_task("teacher_student", 0, 4)


def test_model_validation():
    task = make_task("teacher_student", 4, 4, seed=0)
    s1 = initialize(task.w0, AdapterConfig("lora", 2, seed=0))
    s2 = initialize(np.zeros((3, 5)), AdapterConfig("lora", 2, seed=0))
    with pytest.raises(ValueError, match="incompatible"):
        Model([Layer(s1), Layer(s2)], loss="mse")
    s3 = initialize(np.zeros((3, 4)), AdapterConfig("dude", 2, seed=0))
    with pytest.raises(ValueError, match="share one method"):
        Model([Layer(s1), Layer(s3)], loss="mse")
    with pytest.raises(ValueError, match="loss"):
        Model([Layer(s1)], loss="huber")


def test_targets_that_do_not_fit_the_loss_are_rejected():
    # Class labels as mse targets would broadcast against the d x n output;
    # regression targets as labels would index rows. Both raise instead.
    cls = make_task("cluster_classify", 3, 4, sigma=0.5, seed=0)
    reg = make_task("teacher_student", 3, 4, seed=0)
    x, labels = cls.sample_batch(training_stream(cls, 0), 5)
    mse_over_labels = Model(make_model(cls, "lora", 2).layers, loss="mse")
    with pytest.raises(ValueError, match="mse targets"):
        loss_and_grads(mse_over_labels, (x, labels))
    with pytest.raises(ValueError, match="mse targets"):
        evaluate(mse_over_labels, cls)
    xent_over_reals = Model(make_model(reg, "lora", 2).layers, loss="cross_entropy")
    with pytest.raises(ValueError, match="cross_entropy labels"):
        evaluate(xent_over_reals, reg)
    with pytest.raises(ValueError, match="mse targets"):
        loss_and_grads(make_model(reg, "lora", 2), (x, np.zeros((3, 4))))


@pytest.mark.parametrize("labels", [[0, 1, -1], [0, 3, 1], [0, 1], [0.0, 1.0, 2.0],
                                    [[0, 1, 2]], [True, False, True]])
def test_cross_entropy_rejects_bad_labels(labels):
    # -1 would silently pick the last class and 3 is out of range for d = 3.
    task = make_task("cluster_classify", 3, 4, sigma=0.5, seed=0)
    model = make_model(task, "dora", 2)
    x = task.sample_batch(training_stream(task, 0), 3)[0]
    with pytest.raises(ValueError, match="cross_entropy labels"):
        loss_and_grads(model, (x, np.asarray(labels)))


# ---------------------------------------------------------------------------
# loss and gradients

def test_duplicated_samples_match_single_sample():
    task = make_task("teacher_student", 5, 4, r_true=1, sigma=0.1, seed=2)
    model = make_model(task, "dude", rank=2, seed=2)
    x, t = task.sample_batch(training_stream(task, 1), 1)
    loss1, grads1 = loss_and_grads(model, (x, t))
    xr = np.repeat(x, 3, axis=1)
    tr = np.repeat(t, 3, axis=1)
    loss3, grads3 = loss_and_grads(model, (xr, tr))
    assert loss3 == pytest.approx(loss1, rel=1e-12)
    assert np.allclose(grads1[0].db, grads3[0].db, rtol=1e-12, atol=1e-15)
    assert np.allclose(grads1[0].dm, grads3[0].dm, rtol=1e-12, atol=1e-15)


def test_finite_difference_through_two_layer_relu_model():
    # Seed chosen so every pre-activation is well away from the ReLU kink.
    task = make_task("cluster_classify", 3, 5, sigma=0.5, seed=1)
    model = make_model(task, "dude", rank=2, seed=1)
    batch = task.sample_batch(training_stream(task, 99), 4)
    pre = effective_weight(model.layers[0].state) @ batch[0]
    assert np.abs(pre).min() > 1e-2

    _, grads = loss_and_grads(model, batch)
    rng = np.random.default_rng(0)
    for layer_idx, (layer, gs) in enumerate(zip(model.layers, grads)):
        named = dict(trainable_params(layer.state))
        analytic = {"b": gs.db, "a": gs.da, "m": gs.dm}
        for name, arr in named.items():
            flat = arr.reshape(-1)
            for idx in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                theta = flat[idx]
                h = 1e-6 * (1.0 + abs(theta))
                flat[idx] = theta + h
                lp, _ = loss_and_grads(model, batch)
                flat[idx] = theta - h
                lm, _ = loss_and_grads(model, batch)
                flat[idx] = theta
                fd = (lp - lm) / (2.0 * h)
                ana = analytic[name].reshape(-1)[idx]
                err = abs(ana - fd) / max(1.0, abs(ana), abs(fd))
                assert err <= 1e-5, (layer_idx, name, idx)


def test_zero_batch_zero_targets_is_flat_for_lora():
    task = make_task("teacher_student", 4, 6, r_true=1, sigma=0.0, seed=0)
    model = make_model(task, "lora", rank=2, seed=0)
    x = np.zeros((6, 3))
    t = np.zeros((4, 3))
    loss, grads = loss_and_grads(model, (x, t))
    assert loss == 0.0
    assert np.array_equal(grads[0].db, np.zeros_like(grads[0].db))
    assert np.array_equal(grads[0].da, np.zeros_like(grads[0].da))


def test_loss_and_grads_skips_the_first_layers_input_gradient():
    # Nothing reads the first layer's dx; the second layer's dx feeds the first.
    task = make_task("cluster_classify", 3, 5, sigma=0.5, seed=1)
    model = make_model(task, "dora", rank=2, seed=1)
    x, t = task.sample_batch(training_stream(task, 0), 4)
    _, grads = loss_and_grads(model, (x, t))
    assert grads[0].dx is None
    assert grads[1].dx.shape == (5, 4)


def test_cross_entropy_loss_nonnegative():
    task = make_task("cluster_classify", 4, 6, sigma=1.0, seed=0)
    model = make_model(task, "lora", rank=2, seed=0)
    loss, _ = loss_and_grads(model, task.sample_batch(training_stream(task, 0), 32))
    assert loss >= 0.0


# ---------------------------------------------------------------------------
# schedule and optimizers

def test_cosine_lr_boundary_values():
    assert cosine_lr(0, 100, 0.1, 1.0) == 0.0
    assert abs(cosine_lr(100, 100, 0.1, 1.0)) <= 1e-12
    # midpoint of the post-warmup span
    assert cosine_lr(55, 100, 0.1, 1.0) == pytest.approx(0.5, abs=1e-12)
    # no warmup: starts at full lr
    assert cosine_lr(0, 100, 0.0, 1.0) == 1.0


def test_cosine_lr_warmup_ramp():
    warmup = math.ceil(0.2 * 50)
    values = [cosine_lr(s, 50, 0.2, 2.0) for s in range(warmup + 1)]
    assert values[0] == 0.0
    assert values[-1] == pytest.approx(2.0, rel=1e-12)
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_cosine_lr_validation():
    with pytest.raises(ValueError, match="step"):
        cosine_lr(-1, 10, 0.0, 1.0)
    with pytest.raises(ValueError, match="warmup_frac"):
        cosine_lr(0, 10, 1.0, 1.0)


def test_sgd_step_by_hand():
    p = np.array([1.0])
    optimizer_step(p, np.array([2.0]), OptState("sgd"), lr=0.1)
    assert p[0] == pytest.approx(0.8, rel=1e-15)


def test_adam_first_step_is_lr_times_sign():
    # Bias correction makes the first update lr * g / (|g| + eps) ~= lr.
    p = np.array([1.0])
    optimizer_step(p, np.array([2.0]), OptState("adam"), lr=0.1)
    assert p[0] == pytest.approx(0.9, rel=1e-8)


EPS = np.finfo(np.float64).eps


def adam_step_bound(lr, t):
    """The largest move of one coordinate at Adam's step t:
    lr (1 - b1) sqrt((1 - rho^t) / (1 - rho)) sqrt(1 - b2^t) / ((1 - b1^t) sqrt(1 - b2))
    with rho = b1^2 / b2. By Cauchy-Schwarz over the moment sums,
    |m_t| <= (1 - b1) sqrt((1 - rho^t) / (1 - rho)) sqrt(v_t / (1 - b2)), and
    the denominator's eps only shrinks the step. It is lr at t = 1."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    rho = b1 * b1 / b2
    return (lr * (1.0 - b1) * math.sqrt((1.0 - rho ** t) / (1.0 - rho)) * math.sqrt(1.0 - b2 ** t)
            / ((1.0 - b1 ** t) * math.sqrt(1.0 - b2)))


def adam_moves(grads, lr):
    """|step| of every coordinate at every step of Adam on the gradient rows
    of grads. p is reset to 0 before each step, so that -p is the step itself:
    0 - step rounds to nothing."""
    opt = OptState("adam")
    moves = []
    for g in grads:
        p = np.zeros(g.shape)
        optimizer_step(p, g, opt, lr)
        moves.append(np.abs(p))
    return np.array(moves)


def extremal_gradients(steps):
    """The sequence that makes the bound tight at the last step: Cauchy-Schwarz
    holds with equality when |g_i| is proportional to (b1 / b2)^(t - i), all
    of one sign."""
    return (ADAM_BETA1 / ADAM_BETA2) ** np.arange(steps - 1.0, -1.0, -1.0)


@settings(max_examples=200, deadline=None)
@given(
    steps=st.integers(1, 100),
    coords=st.integers(1, 4),
    kind=st.sampled_from(["normal", "signs", "sparse", "extremal"]),
    exponent=st.floats(-100.0, 100.0),
    lr=st.floats(1e-6, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(steps=1, coords=1, kind="signs", exponent=0.0, lr=1.0, seed=0)
@example(steps=100, coords=2, kind="extremal", exponent=100.0, lr=1e-3, seed=1)
@example(steps=100, coords=2, kind="sparse", exponent=-100.0, lr=2e-3, seed=2)
def test_adam_step_is_bounded_by_the_moment_budget(steps, coords, kind, exponent, lr, seed):
    # Gradient sequences at scale 10^exponent with random signs: normal
    # draws, constant magnitude, bursts after zeros, or the extremal
    # sequence. The moments round once or twice per step, so the bound gets
    # a margin of a few eps per step.
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=(steps, coords))
    if kind == "normal":
        g = rng.standard_normal((steps, coords))
    elif kind == "signs":
        g = signs
    elif kind == "sparse":
        g = signs * (rng.random((steps, coords)) < 0.1) * rng.exponential(size=(steps, coords))
    else:
        g = signs[0] * extremal_gradients(steps)[:, None]
    moves = adam_moves(g * 10.0 ** exponent, lr)
    for t, move in enumerate(moves, 1):
        assert move.max() <= adam_step_bound(lr, t) * (1.0 + 4.0 * (t + 2) * EPS), t


@pytest.mark.parametrize("steps", [1, 10, 600])
def test_adam_step_bound_is_attained(steps):
    move = adam_moves(extremal_gradients(steps)[:, None], 1.0)[-1, 0]
    assert 1.0 - 1e-6 <= move / adam_step_bound(1.0, steps) <= 1.0 + 4.0 * (steps + 2) * EPS


def test_zero_gradient_keeps_params():
    p = np.array([1.0, -2.0])
    optimizer_step(p, np.zeros(2), OptState("adam"), lr=0.5)
    assert np.array_equal(p, [1.0, -2.0])


def test_optimizer_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        optimizer_step(np.zeros(2), np.zeros(3), OptState("sgd"), lr=0.1)


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_optimizer_state_rejects_params_it_was_not_built_for(optimizer):
    # The buffers mirror the first call's param; a later call with a
    # reshaped param must fail, leaving it and the step count untouched.
    opt = OptState(optimizer)
    optimizer_step(np.ones(2), np.ones(2), opt, lr=0.1)
    p = np.ones(3)
    before = (p.tobytes(), opt.step)
    with pytest.raises(ValueError, match="optimizer state"):
        optimizer_step(p, np.ones(3), opt, lr=0.1)
    assert (p.tobytes(), opt.step) == before


def test_optimizer_state_takes_only_the_optimizer():
    with pytest.raises(TypeError):
        OptState("adam", 0.5)
    with pytest.raises(TypeError):
        OptState("adam", step=3)


# ---------------------------------------------------------------------------
# training loop

def _small_setup(method="dude", seed=0, **cfg_kwargs):
    task = make_task("teacher_student", 8, 8, r_true=2, sigma=0.01, seed=seed)
    model = make_model(task, method, rank=2, seed=seed)
    cfg = TrainConfig(seed=seed, **cfg_kwargs)
    return task, model, cfg


def test_zero_lr_freezes_parameters():
    task, model, cfg = _small_setup(steps=40, batch_size=4, base_lr=0.0)
    before = [arr.tobytes() for _, arr in _all_params(model)]
    records = train(model, task, cfg)
    after = [arr.tobytes() for _, arr in _all_params(model)]
    assert before == after
    assert all(math.isfinite(r.loss) for r in records)


def _all_params(model):
    return [(n, a) for layer in model.layers for n, a in trainable_params(layer.state)]


def test_training_is_bitwise_deterministic():
    task1, model1, cfg = _small_setup(steps=60, batch_size=4)
    r1 = train(model1, task1, cfg)
    task2, model2, _ = _small_setup(steps=60, batch_size=4)
    r2 = train(model2, task2, cfg)
    assert [(r.step, r.loss, r.grad_norm, r.lr, r.eval) for r in r1] == [
        (r.step, r.loss, r.grad_norm, r.lr, r.eval) for r in r2
    ]


def test_adapter_bases_stay_bit_identical_through_training():
    for method in ("lora", "dora", "pissa", "dude", "dude_a", "dude_b"):
        task, model, cfg = _small_setup(method=method, steps=120, batch_size=4)
        before = [layer.state.base.tobytes() for layer in model.layers]
        train(model, task, cfg)
        after = [layer.state.base.tobytes() for layer in model.layers]
        assert before == after, method


def test_full_finetuning_solves_noiseless_least_squares():
    # Independent oracle: a hand-rolled SGD loop on the same task reaches
    # ~zero loss, confirming the target is attainable; the trainer's full
    # method must match that behavior.
    task = make_task("teacher_student", 8, 8, r_true=2, sigma=0.0, seed=1)
    lr, batch, steps = 0.05, 8, 2000

    w = task.w0.copy()
    oracle_rng = np.random.default_rng(123)
    oracle_loss = None
    for _ in range(steps):
        x, t = task.sample_batch(oracle_rng, batch)
        r = w @ x - t
        oracle_loss = float((r * r).sum()) / batch
        w -= lr * (2.0 / batch) * (r @ x.T)
    assert oracle_loss <= 1e-6

    model = make_model(task, "full", rank=1, seed=1)
    cfg = TrainConfig(steps=steps, batch_size=batch, base_lr=lr, optimizer="sgd",
                      scheduler="constant", seed=1)
    records = train(model, task, cfg)
    assert records[-1].loss <= 1e-6


def test_grad_norm_matches_recomputation():
    task, model, cfg = _small_setup(steps=3, batch_size=4)
    records = train(model, task, cfg)

    fresh_task, fresh_model, _ = _small_setup(steps=3, batch_size=4)
    rng = training_stream(fresh_task, cfg.seed)
    batch = fresh_task.sample_batch(rng, cfg.batch_size)
    _, grads = loss_and_grads(fresh_model, batch)
    arrays = []
    for layer, gs in zip(fresh_model.layers, grads):
        arrays.extend([gs.db, gs.da] + ([gs.dm] if gs.dm is not None else []))
    norm = math.sqrt(sum(float((g * g).sum()) for g in arrays))
    assert abs(norm - records[0].grad_norm) <= 1e-12


def test_eval_recorded_on_cadence():
    task, model, cfg = _small_setup(steps=25, batch_size=4, eval_every=10)
    records = train(model, task, cfg)
    assert [r.step for r in records if r.eval is not None] == [10, 20]
    assert all(r.eval is None for r in records if r.step % 10 != 0)


@pytest.mark.filterwarnings("ignore:overflow")
def test_numeric_failure_reports_step():
    # full has no column normalization to rein in a diverging weight, so an
    # absurd learning rate overflows the loss within a few steps.
    task, model, _ = _small_setup(method="full", steps=50, batch_size=4)
    cfg = TrainConfig(steps=50, batch_size=4, base_lr=1e12, optimizer="sgd",
                      scheduler="constant", seed=0)
    with pytest.raises(NumericError, match=r"at step \d+"):
        train(model, task, cfg)


@pytest.mark.filterwarnings("ignore:overflow")
def test_normalized_methods_survive_huge_learning_rates():
    # The column normalization bounds the effective weight by the magnitude
    # vector, so even a wild run keeps producing finite losses.
    task, model, _ = _small_setup(method="dude", steps=30, batch_size=4)
    cfg = TrainConfig(steps=30, batch_size=4, base_lr=1e6, optimizer="sgd",
                      scheduler="constant", seed=0)
    records = train(model, task, cfg)
    assert all(math.isfinite(r.loss) for r in records)


def test_cluster_task_trains_to_high_accuracy():
    task = make_task("cluster_classify", 4, 6, sigma=1.0, seed=0)
    model = make_model(task, "dude", rank=2, seed=0)
    init_acc = evaluate(model, task)
    records = train(model, task, TrainConfig(steps=400, batch_size=16, base_lr=1e-2, seed=0))
    final_evals = [r.eval for r in records if r.eval is not None]
    assert final_evals[-1] >= 0.9 > init_acc


def test_convergence_trend_dude_vs_lora_three_seeds():
    finals = {}
    for method in ("lora", "dude"):
        losses = []
        for seed in (42, 78, 512):
            task = make_task("teacher_student", 16, 16, r_true=2, sigma=0.01, seed=seed)
            model = make_model(task, method, rank=2, seed=seed)
            cfg = TrainConfig(steps=600, batch_size=8, base_lr=2e-3, seed=seed)
            losses.append(train(model, task, cfg)[-1].loss)
        finals[method] = float(np.mean(losses))
    assert finals["dude"] <= finals["lora"]


# ---------------------------------------------------------------------------
# bit-identity oracle: the step from the formulas and the per-array optimizer

# A training step without step_cache or the flat buffer, kept as the
# oracle train must match bit for bit. It follows the factored formulas of
# grad.param_grads (see the grad module docstring) operation for operation;
# the forward, the gradients and the eval each compute v = base + s * b @ a
# and its column norms afresh, and the optimizer updates one trainable array
# at a time with numpy's temporaries.

def _ref_direction(state):
    """v, ||v_j||^2, n = ||v_j|| + eps and m / n as a column."""
    v = state.base + state.config.scaling * (state.b @ state.a)
    sq = (v * v).sum(axis=0)
    n = np.sqrt(sq) + NORM_EPSILON
    return v, sq, n, (state.m / n)[:, None]


def _ref_forward(state, x):
    if state.method == "full":
        return state.base @ x
    if state.m is None:
        return state.base @ x + state.config.scaling * (state.b @ (state.a @ x))
    v, _, _, mn = _ref_direction(state)
    return v @ (x * mn)


def _ref_param_grads(state, gz, x):
    """Gradients in trainable_params order, and dx."""
    s, b, a = state.config.scaling, state.b, state.a
    if state.method == "full":
        return [gz @ x.T], state.base.T @ gz
    if state.m is None:
        return ([s * (gz @ (a @ x).T), s * ((b.T @ gz) @ x.T)],
                state.base.T @ gz + s * (a.T @ (b.T @ gz)))
    v, sq, n, mn = _ref_direction(state)
    x_m = x * mn
    p = v.T @ gz
    proj = (x * p).sum(axis=1)
    c = mn[:, 0] * proj / np.where(sq > 0.0, sq, 1.0)
    db = s * (gz @ (a @ x_m).T - v @ (a * c).T)
    da = s * ((b.T @ gz) @ x_m.T - (b.T @ v) * c)
    return [db, da, proj / n], p * mn


def _ref_loss_and_grads(model, x, t):
    inputs, pre, cur = [], [], x
    for layer in model.layers:
        inputs.append(cur)
        z = _ref_forward(layer.state, cur)
        pre.append(z)
        cur = np.maximum(z, 0.0) if layer.relu else z
    n = cur.shape[1]
    if model.loss == "mse":
        r = cur - t
        loss, gy = float((r * r).sum()) / n, (2.0 / n) * r
    else:
        z = cur - cur.max(axis=0, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=0, keepdims=True))
        loss = -float(logp[t, np.arange(n)].sum()) / n
        gy = np.exp(logp)
        gy[t, np.arange(n)] -= 1.0
        gy = gy / n
    grads = [None] * len(model.layers)
    for idx in reversed(range(len(model.layers))):
        gz = gy * (pre[idx] > 0.0) if model.layers[idx].relu else gy
        grads[idx], gy = _ref_param_grads(model.layers[idx].state, gz, inputs[idx])
    return loss, [g for layer_grads in grads for g in layer_grads]


def _ref_evaluate(model, task):
    y = task.eval_x
    for layer in model.layers:
        y = _ref_forward(layer.state, y)
        if layer.relu:
            y = np.maximum(y, 0.0)
    if model.loss == "mse":
        r = y - task.eval_t
        return float((r * r).sum()) / y.shape[1]
    return float((y.argmax(axis=0) == task.eval_t).mean())


def _reference_train(model, task, cfg):
    """train's records, from the oracle step and a per-array Adam/SGD."""
    rng = training_stream(task, cfg.seed)
    params = [arr for layer in model.layers for _, arr in trainable_params(layer.state)]
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    base_lr = cfg.resolved_lr()
    records = []
    for step in range(1, cfg.steps + 1):
        x, t = task.sample_batch(rng, cfg.batch_size)
        loss, grads = _ref_loss_and_grads(model, x, t)
        if not math.isfinite(loss):
            raise NumericError(f"numeric failure at step {step}: non-finite loss")
        grad_norm = float(np.sqrt(np.add.reduce(np.concatenate([(g * g).ravel() for g in grads]))))
        if cfg.scheduler == "cosine":
            lr = cosine_lr(step - 1, cfg.steps, cfg.warmup_frac, base_lr)
        else:
            lr = base_lr
        for p, g, (m, v) in zip(params, grads, moments):
            if cfg.optimizer == "sgd":
                p -= lr * g
                continue
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * (g * g)
            p -= lr * (m / (1.0 - beta1 ** step)) / (np.sqrt(v / (1.0 - beta2 ** step)) + eps)
        score = _ref_evaluate(model, task) if step % cfg.eval_every == 0 else None
        records.append(MetricsRecord(step, loss, grad_norm, lr, score))
    return records


def _record_bits(records):
    return [(r.step,) + tuple(None if f is None else float(f).hex()
                              for f in (r.loss, r.grad_norm, r.lr, r.eval)) for r in records]


def _trainable_bits(model):
    return [(name, arr.shape, arr.tobytes())
            for layer in model.layers for name, arr in trainable_params(layer.state)]


@settings(max_examples=80, deadline=None)
@given(
    method=st.sampled_from(METHODS),
    kind=st.sampled_from(["teacher_student", "cluster_classify"]),
    optimizer=st.sampled_from(["adam", "sgd"]),
    scheduler=st.sampled_from(["cosine", "constant"]),
    d=st.integers(1, 6),
    k=st.integers(1, 6),
    r_true=st.integers(0, 6),
    rank=st.integers(1, 6),
    scaling=st.floats(0.25, 4.0),
    lr=st.sampled_from([None, 2e-3, 3e-2]),
    sigma=st.sampled_from([0.0, 0.1]),
    steps=st.integers(1, 12),
    batch=st.integers(1, 5),
    eval_every=st.integers(1, 5),
    seed=st.integers(0, 2**16),
    second_run_steps=st.integers(0, 4),
)
# The trend16 benchmark configuration, one of its five default seeds.
@example(method="dude", kind="teacher_student", optimizer="adam", scheduler="cosine",
         d=16, k=16, r_true=2, rank=2, scaling=1.0, lr=2e-3, sigma=0.01, steps=600, batch=8,
         eval_every=50, seed=42, second_run_steps=0)
# 64 x 64 at batch 1: without noise a draw chunk holds 128 batches of k rows,
# with noise 64 batches of k + d rows, so these runs cross several chunks (the
# second run, on its own stream, crosses one as well).
@example(method="dora", kind="teacher_student", optimizer="adam", scheduler="cosine",
         d=64, k=64, r_true=2, rank=4, scaling=1.0, lr=2e-3, sigma=0.0, steps=300, batch=1,
         eval_every=50, seed=7, second_run_steps=0)
@example(method="lora", kind="teacher_student", optimizer="sgd", scheduler="constant",
         d=64, k=64, r_true=2, rank=4, scaling=1.0, lr=2e-3, sigma=0.1, steps=300, batch=1,
         eval_every=50, seed=7, second_run_steps=70)
# The wide256 benchmark shape (two layers, 256 hidden units, rank 8, batch 32):
# 256-wide BLAS calls and d x k arrays of 128 KiB and 512 KiB.
@example(method="lora", kind="cluster_classify", optimizer="adam", scheduler="cosine",
         d=64, k=256, r_true=0, rank=8, scaling=1.0, lr=2e-3, sigma=4.0, steps=20, batch=32,
         eval_every=10, seed=42, second_run_steps=0)
@example(method="dora", kind="cluster_classify", optimizer="adam", scheduler="cosine",
         d=64, k=256, r_true=0, rank=8, scaling=1.0, lr=2e-3, sigma=4.0, steps=20, batch=32,
         eval_every=10, seed=42, second_run_steps=3)
@example(method="lora", kind="cluster_classify", optimizer="adam", scheduler="cosine",
         d=64, k=256, r_true=0, rank=8, scaling=0.5, lr=2e-3, sigma=4.0, steps=20, batch=32,
         eval_every=10, seed=78, second_run_steps=3)
@example(method="dora", kind="cluster_classify", optimizer="adam", scheduler="cosine",
         d=64, k=256, r_true=0, rank=8, scaling=0.5, lr=2e-3, sigma=4.0, steps=20, batch=32,
         eval_every=10, seed=78, second_run_steps=0)
def test_train_bits_match_reference(method, kind, optimizer, scheduler, d, k, r_true, rank,
                                    scaling, lr, sigma, steps, batch, eval_every, seed,
                                    second_run_steps):
    r_true = r_true % (min(d, k) + 1) if kind == "teacher_student" else 0
    rank = 1 + (rank - 1) % min(d, k)
    task = make_task(kind, d, k, r_true=r_true, sigma=sigma, seed=seed)
    model = make_model(task, method, rank, scaling=scaling, seed=seed)
    oracle = make_model(task, method, rank, scaling=scaling, seed=seed)
    runs = [TrainConfig(steps=steps, batch_size=batch, base_lr=lr, optimizer=optimizer,
                        scheduler=scheduler, eval_every=eval_every, seed=seed)]
    if second_run_steps:
        # A second train call on the same model continues from the first.
        runs.append(dataclasses.replace(runs[0], steps=second_run_steps, seed=seed + 1))
    for cfg in runs:
        # A diverging run must fail at the same step, with the same trainables.
        got = _outcome(train, model, task, cfg)
        want = _outcome(_reference_train, oracle, task, cfg)
        assert got == want
        assert _trainable_bits(model) == _trainable_bits(oracle)
        if isinstance(got, str):
            break


def _outcome(train_fn, model, task, cfg):
    """The records' bits, or the message of the NumericError that stopped training."""
    try:
        return _record_bits(train_fn(model, task, cfg))
    except NumericError as e:
        return str(e)


@pytest.mark.parametrize("method", ["lora", "pissa"])
def test_factored_step_forms_no_weight_sized_array(method):
    # A 256 x 256 layer at rank 8 and batch 32, without workspaces: the
    # forward and the gradients go through b and a, so the step allocates
    # less than one d x k array (forming b @ a alone would take 512 KiB).
    task = make_task("teacher_student", 256, 256, r_true=0, sigma=0.0, seed=1)
    model = make_model(task, method, rank=8, seed=1)
    batch = task.sample_batch(training_stream(task, 0), 32)
    tracemalloc.start()
    try:
        loss_and_grads(model, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 256 * 8, peak


@pytest.mark.parametrize("method", ["dora", "dude"])
def test_loss_and_grads_hands_on_the_x_m_of_its_own_input_block(method):
    # After a step on an earlier batch, the gradients must be those of this
    # batch alone, bit for bit: no step hands anything on to the next.
    task = make_task("cluster_classify", 4, 6, sigma=0.5, seed=3)
    model = make_model(task, method, rank=2, scaling=0.5, seed=3)
    rng = training_stream(task, 0)
    first, second = task.sample_batch(rng, 4), task.sample_batch(rng, 4)
    loss_and_grads(model, first)
    loss, grads = loss_and_grads(model, second)
    want_loss, want = _ref_loss_and_grads(model, *second)
    got = [getattr(gs, "d" + name) for layer, gs in zip(model.layers, grads)
           for name, _ in trainable_params(layer.state)]
    assert float(loss).hex() == float(want_loss).hex()
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("kind", ["teacher_student", "cluster_classify"])
def test_evaluate_with_caches_gives_the_cacheless_bits(method, kind):
    # The model last served a training batch, and the trainables have since
    # moved in place as an optimizer step moves them; evaluate must score
    # exactly as a copy of the model that has served nothing.
    task = make_task(kind, 4, 6, r_true=2 if kind == "teacher_student" else 0, sigma=0.5,
                     seed=3)
    model = make_model(task, method, rank=2, scaling=0.5, seed=3)
    loss_and_grads(model, task.sample_batch(training_stream(task, 3), 4))
    rng = np.random.default_rng(3)
    for layer in model.layers:
        for _, arr in trainable_params(layer.state):
            arr += 0.1 * rng.standard_normal(arr.shape)
    fresh = Model([Layer(dataclasses.replace(layer.state), layer.relu) for layer in model.layers],
                  model.loss)
    assert float(evaluate(model, task)).hex() == float(evaluate(fresh, task)).hex()
    assert model_forward(model, task.eval_x).tobytes() == \
        model_forward(fresh, task.eval_x).tobytes()


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("kind", ["teacher_student", "cluster_classify"])
def test_train_releases_every_layer_workspace(method, kind):
    # The step buffers live for one train call: a trained model's layer
    # states hold their trainables, bases and configs, and nothing else.
    task = make_task(kind, 4, 6, r_true=2 if kind == "teacher_student" else 0, sigma=0.5,
                     seed=3)
    model = make_model(task, method, rank=2, scaling=0.5, seed=3)
    train(model, task, TrainConfig(steps=5, batch_size=4, base_lr=3e-2, eval_every=2, seed=3))
    assert _workspace_buffers(model) == []


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("kind", ["teacher_student", "cluster_classify"])
def test_evaluate_and_backward_release_every_layer_workspace(method, kind):
    # A trained model scored by evaluate, and a layer differentiated by
    # backward, hold no step buffer afterwards, and neither do the
    # finite-difference oracle and grad_check.
    task = make_task(kind, 4, 6, r_true=2 if kind == "teacher_student" else 0, sigma=0.5,
                     seed=3)
    model = make_model(task, method, rank=2, scaling=0.5, seed=3)
    train(model, task, TrainConfig(steps=5, batch_size=4, base_lr=3e-2, eval_every=2, seed=3))
    evaluate(model, task)
    assert _workspace_buffers(model) == []
    rng = np.random.default_rng(3)
    for layer in model.layers:
        d, k = layer.state.base.shape
        backward(layer.state, rng.standard_normal(k), rng.standard_normal(d))
    assert _workspace_buffers(model) == []
    for layer in model.layers:
        d, k = layer.state.base.shape
        finite_diff_grads(layer.state, rng.standard_normal(k), rng.standard_normal(d))
        grad_check(layer.state, seed=3)
    assert _workspace_buffers(model) == []


def _workspace_buffers(model):
    """(layer, field) of every field a layer state holds beyond its data:
    base, b, a, m and config."""
    return [(i, name) for i, layer in enumerate(model.layers) for name in vars(layer.state)
            if name not in ("base", "b", "a", "m", "config")]


@pytest.mark.parametrize("method", METHODS)
def test_train_leaves_writeable_trainables_and_read_only_bases(method):
    # Two layers, and train called twice: every trainable stays a writeable
    # C-contiguous array after the rebinding, and every frozen base keeps its
    # init bits and its read-only flag.
    task = make_task("cluster_classify", 3, 5, sigma=0.5, seed=1)
    model = make_model(task, method, rank=2, seed=1)
    bases = [(layer.state.base.tobytes(), layer.state.base.flags.writeable)
             for layer in model.layers]
    assert all(writeable == (method == "full") for _, writeable in bases)
    for seed in (1, 2):
        records = train(model, task, TrainConfig(steps=5, batch_size=4, base_lr=1e-2, seed=seed))
        assert len(records) == 5
        for layer, (bits, writeable) in zip(model.layers, bases):
            for name, arr in trainable_params(layer.state):
                assert arr.flags.c_contiguous and arr.flags.writeable, (method, name)
            if method != "full":
                assert layer.state.base.tobytes() == bits
                assert not layer.state.base.flags.writeable


# ---------------------------------------------------------------------------
# exact risk of a teacher-student layer
#
# For x ~ N(0, I_k) and t = w_target x + sigma * noise, a layer W' has the
# expected per-sample loss ||W' - w_target||_F^2 + d sigma^2 exactly. Only
# the Monte-Carlo test needs a sampling bound.

def _trained_teacher_student(method, d, k, r_true, rank, scaling, sigma, steps, lr, seed):
    task = make_task("teacher_student", d, k, r_true, sigma, seed)
    model = make_model(task, method, rank, scaling, seed=seed)
    train(model, task, TrainConfig(steps=steps, batch_size=8, base_lr=lr, eval_every=steps,
                                   seed=seed))
    return task, model


def _excess_risk(model, task):
    """||merge - w_target||_F^2, summed as the mse loss sums."""
    r = merge(model.layers[0].state) - task.w_target
    return float(np.add.reduce(r * r, axis=None))


@settings(max_examples=60, deadline=None)
@given(
    method=st.sampled_from(METHODS),
    d=st.integers(1, 24),
    k=st.integers(1, 24),
    r_true=st.integers(1, 24),
    rank=st.integers(1, 24),
    scaling=st.sampled_from([1.0, 0.5, 2.0]),
    steps=st.integers(1, 30),
    seed=st.integers(0, 2**16),
)
@example(method="dude", d=16, k=16, r_true=2, rank=2, scaling=1.0, steps=30, seed=1)
@example(method="dora", d=3, k=20, r_true=3, rank=1, scaling=2.0, steps=1, seed=2)
def test_identity_batch_loss_is_the_exact_excess_risk(method, d, k, r_true, rank, scaling, steps,
                                                      seed):
    # The k unit vectors as one batch with targets w_target: the forward
    # reproduces merge column by column, so k times the mean loss is
    # ||merge - w_target||_F^2 up to the rounding of dividing by k and
    # multiplying back, eps/2 relative each.
    task, model = _trained_teacher_student(method, d, k, min(r_true, d, k), min(rank, d, k),
                                           scaling, 0.1, steps, 5e-3, seed)
    excess = _excess_risk(model, task)
    loss, _ = loss_and_grads(model, (np.eye(k), task.w_target))
    assert abs(loss * k - excess) <= 2 * np.finfo(float).eps * excess


@pytest.mark.parametrize("method", METHODS)
def test_monte_carlo_risk_agrees_with_the_exact_risk(method):
    # 2^16 samples from the task's own sampler: their mean loss lies within
    # 5 standard errors of ||W' - w_target||_F^2 + d sigma^2.
    d, sigma = 16, 0.3
    task, model = _trained_teacher_student(method, d, d, 2, 2, 1.0, sigma, 200, 2e-3, 7)
    exact = _excess_risk(model, task) + d * sigma**2
    x, t = task.sample_batch(np.random.default_rng(11), 2**16)
    r = model_forward(model, x) - t
    per_sample = (r * r).sum(axis=0)
    stderr = per_sample.std(ddof=1) / math.sqrt(per_sample.size)
    assert abs(per_sample.mean() - exact) <= 5.0 * stderr


@settings(max_examples=40, deadline=None)
@given(
    method=st.sampled_from(["lora", "pissa"]),
    d=st.integers(2, 16),
    k=st.integers(2, 16),
    r_true=st.integers(1, 16),
    rank=st.integers(1, 16),
    scaling=st.sampled_from([1.0, 0.5]),
    sigma=st.sampled_from([0.0, 0.1]),
    lr=st.sampled_from([5e-3, 2e-2]),
    seed=st.integers(0, 2**16),
)
@example(method="lora", d=16, k=16, r_true=4, rank=2, scaling=1.0, sigma=0.0, lr=2e-2, seed=1)
@example(method="pissa", d=16, k=16, r_true=4, rank=2, scaling=1.0, sigma=0.0, lr=2e-2, seed=1)
def test_trained_low_rank_layers_stay_above_the_eckart_young_floor(method, d, k, r_true, rank,
                                                                   scaling, sigma, lr, seed):
    # W' = base + s b a with rank(b a) <= r, so by Eckart-Young its excess
    # risk is at least the sum of sigma_i(w_target - base)^2 over i > r. The
    # margin covers the SVD's and the sums' rounding, 16 p eps of the total.
    rank = min(rank, d, k)
    task, model = _trained_teacher_student(method, d, k, min(r_true, d, k), rank, scaling, sigma,
                                           200, lr, seed)
    gap = svd(task.w_target - model.layers[0].state.base).sigma
    floor = float((gap[rank:] ** 2).sum())
    margin = 16 * gap.size * np.finfo(float).eps * float((gap**2).sum())
    assert _excess_risk(model, task) >= floor - margin


# ---------------------------------------------------------------------------
# closed-form oracles of train
#
# On the identity batch (I_k, w_target) full fine-tuning's mse gradient is
# (2/k)(W - w_target) entry by entry: the forward W @ I_k and the VJP
# gz @ I_k add only exact zeros. So SGD scales the error W - w_target by
# 1 - 2 lr_t / k a step, and Adam moves each entry by its own recursion.
# These check the schedule, the optimizer, the loss scaling, the flat
# buffer's rebinding and the batch plumbing end to end, with no reference file.

class _PopulationTask(Task):
    """A teacher_student task whose every training batch is the identity
    batch (I_k, w_target), whatever the batch size: its mse loss is the
    exact excess risk ||W' - w_target||_F^2 / k."""

    def batches(self, rng, n, count):
        for _ in range(count):
            yield np.eye(self.k), self.w_target


def _population_run(optimizer, d, k, r_true, steps, lr, scheduler, warmup, seed):
    task = _PopulationTask(**vars(make_task("teacher_student", d, k, min(r_true, d, k),
                                            seed=seed)))
    model = make_model(task, "full", rank=1, seed=seed)
    records = train(model, task, TrainConfig(
        steps=steps, base_lr=lr, optimizer=optimizer, scheduler=scheduler,
        warmup_frac=warmup, eval_every=steps, seed=seed))
    lrs = [cosine_lr(t, steps, warmup, lr) if scheduler == "cosine" else lr
           for t in range(steps)]
    assert [r.lr for r in records] == lrs
    return task, model.layers[0].state.base, records, lrs


_POPULATION_DRAWS = dict(
    d=st.integers(1, 16),
    k=st.integers(1, 16),
    r_true=st.integers(1, 16),
    steps=st.integers(1, 600),
    scheduler=st.sampled_from(["cosine", "constant"]),
    warmup=st.sampled_from([0.0, 0.03, 0.5]),
    seed=st.integers(0, 2**16),
)


@settings(max_examples=60, deadline=None)
@given(rate=st.floats(1e-4, 1.9), **_POPULATION_DRAWS)
@example(d=16, k=16, r_true=2, steps=600, rate=2.5e-3, scheduler="cosine", warmup=0.03, seed=1)
@example(d=16, k=16, r_true=2, steps=200, rate=6.25e-2, scheduler="constant", warmup=0.0, seed=2)
@example(d=16, k=16, r_true=2, steps=50, rate=0.375, scheduler="cosine", warmup=0.03, seed=3)
@example(d=5, k=3, r_true=3, steps=600, rate=1e-4, scheduler="constant", warmup=0.0, seed=4)
def test_sgd_full_finetuning_contracts_the_error_in_closed_form(d, k, r_true, steps, rate,
                                                                scheduler, warmup, seed):
    # lr = rate k / 2, so each step's factor 1 - rate lr_t / lr lies in
    # (-1, 1] and every iterate's entries stay below M = |w*| + |W_0 - w*|,
    # with |.| the largest entry. A step rounds W - w*, its scaling and the
    # update, at most 3.35 eps M between them, and rounding the factor moves
    # the product by eps |W_0 - w*|: after t steps the error is at most
    # 5 (t + 1) eps M. Rounding accumulates most at small rates, where 700
    # draws at up to 600 steps reached 54 eps |w*|.
    task, w, records, lrs = _population_run("sgd", d, k, r_true, steps, rate * k / 2,
                                            scheduler, warmup, seed)
    e0 = task.w0 - task.w_target
    factors = np.cumprod([1.0] + [1.0 - 2.0 * lr / k for lr in lrs])
    scale = np.finfo(float).eps * (np.abs(task.w_target).max() + np.abs(e0).max())
    assert np.abs((w - task.w_target) - factors[-1] * e0).max() <= 5 * (steps + 1) * scale
    # Step t records the loss of the error after t - 1 steps, ||E_t-1||_F^2 / k,
    # off by at most the error's rounding over sqrt(dk) entries and the sum's.
    norm0 = math.sqrt(float((e0 * e0).sum()))
    for t, r in enumerate(records):
        bound = math.sqrt(d * k) * (5 * (t + 1) + d * k) * scale
        assert abs(math.sqrt(k * r.loss) - abs(factors[t]) * norm0) <= bound, t


@settings(max_examples=40, deadline=None)
@given(lr=st.floats(1e-4, 0.5), **_POPULATION_DRAWS)
@example(d=16, k=16, r_true=2, steps=600, lr=2e-3, scheduler="cosine", warmup=0.03, seed=1)
@example(d=16, k=16, r_true=2, steps=100, lr=5e-2, scheduler="cosine", warmup=0.03, seed=2)
def test_adam_full_finetuning_is_an_elementwise_replica_bit_for_bit(d, k, r_true, steps, lr,
                                                                    scheduler, warmup, seed):
    # The bias-corrected Adam of Kingma & Ba (2015) on the gradient
    # (2/k)(W - w*), written entrywise with no product of matrices.
    task, got, _, lrs = _population_run("adam", d, k, r_true, steps, lr, scheduler, warmup,
                                        seed)
    w, m, v = task.w0, 0.0, 0.0
    for t, lr_t in enumerate(lrs, 1):
        g = (2.0 / k) * (w - task.w_target)
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
        m_hat, v_hat = m / (1.0 - ADAM_BETA1**t), v / (1.0 - ADAM_BETA2**t)
        w = w - lr_t * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    assert got.tobytes() == w.tobytes()


# ---------------------------------------------------------------------------
# summaries

def test_summarize_single_record():
    from peftlab.trainer import MetricsRecord

    rec = MetricsRecord(step=1, loss=0.5, grad_norm=1.0, lr=0.1, eval=0.8)
    s = summarize([rec])
    assert s.final_loss == 0.5
    assert s.best_eval == 0.8
    assert s.steps == 1
    assert s.tail_mean_loss == 0.5


def test_summarize_monotone_losses():
    from peftlab.trainer import MetricsRecord

    records = [MetricsRecord(i + 1, 1.0 / (i + 1), 0.0, 0.1, None) for i in range(20)]
    s = summarize(records)
    assert s.final_loss == min(r.loss for r in records)
    assert s.tail_mean_loss == pytest.approx(np.mean([r.loss for r in records[-2:]]))


def test_summarize_is_stable_and_rejects_empty():
    task, model, cfg = _small_setup(steps=30, batch_size=4, eval_every=10)
    records = train(model, task, cfg)
    assert summarize(records, higher_eval_is_better=False) == summarize(
        records, higher_eval_is_better=False
    )
    with pytest.raises(ValueError, match="empty"):
        summarize([])
