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
    layer_forward,
    step_cache,
    trainable_params,
)
from peftlab.grad import param_grads
from peftlab.linalg import NumericError, svd
from peftlab.trainer import (
    DEFAULT_SEEDS,
    Layer,
    MetricsRecord,
    Model,
    OptState,
    TrainConfig,
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


def test_task_loss_follows_its_kind():
    assert make_task("teacher_student", 4, 4, seed=0).loss == "mse"
    task = make_task("cluster_classify", 3, 4, seed=0)
    assert task.loss == "cross_entropy"
    assert dataclasses.replace(task, kind="teacher_student").loss == "mse"


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
    optimizer_step([p], [np.array([2.0])], OptState("sgd"), lr=0.1)
    assert p[0] == pytest.approx(0.8, rel=1e-15)


def test_adam_first_step_is_lr_times_sign():
    # Bias correction makes the first update lr * g / (|g| + eps) ~= lr.
    p = np.array([1.0])
    optimizer_step([p], [np.array([2.0])], OptState("adam"), lr=0.1)
    assert p[0] == pytest.approx(0.9, rel=1e-8)


def test_zero_gradient_keeps_params():
    p = np.array([1.0, -2.0])
    optimizer_step([p], [np.zeros(2)], OptState("adam"), lr=0.5)
    assert np.array_equal(p, [1.0, -2.0])


def test_optimizer_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        optimizer_step([np.zeros(2)], [np.zeros(3)], OptState("sgd"), lr=0.1)


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_optimizer_state_rejects_params_it_was_not_built_for(optimizer):
    # The buffers mirror the first call's params; a later call with more,
    # fewer or reshaped params must fail rather than skip or misalign any.
    opt = OptState(optimizer)
    p1, p2 = np.ones(2), np.ones(3)
    optimizer_step([p1], [np.ones(2)], opt, lr=0.1)
    before = (p1.tobytes(), p2.tobytes(), opt.step)
    for params in ([p1, p2], [], [p2]):
        with pytest.raises(ValueError, match="optimizer state"):
            optimizer_step(params, [np.ones_like(p) for p in params], opt, lr=0.1)
        assert (p1.tobytes(), p2.tobytes(), opt.step) == before


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
# bit-identity oracle: the step without workspaces and the per-array optimizer

# A training step without the step cache or the flat buffer, kept as the
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
    if task.loss == "mse":
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
        grad_norm = float(np.sqrt(sum((g * g).sum() for g in grads)))
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


def _step2_peak(method):
    """tracemalloc peak of step 2 of a train run at the wide256 benchmark
    shape: 64 x 256 and 256 x 256 layers, rank 8, batch 32."""
    task = make_task("cluster_classify", 64, 256, sigma=4.0, seed=42)
    model = make_model(task, method, rank=8, seed=42)
    draw, marks = task.sample_batch, []

    def sample_batch(rng, n):
        # Every step starts with one draw: close the previous step's window.
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return draw(rng, n)

    task.sample_batch = sample_batch
    tracemalloc.start()
    try:
        train(model, task, TrainConfig(steps=3, batch_size=32, base_lr=2e-3, seed=42))
    finally:
        tracemalloc.stop()
    # marks[2] holds the peak since the draw of step 2, marks[1] the memory before it.
    return marks[2][1] - marks[1][0]


def test_train_step_allocates_less_than_one_weight():
    # After the first step, v, its norms and the optimizer's intermediates
    # live in the per-layer caches and the optimizer state, so a whole dora
    # step peaks below one 256 x 256 float64 array (512 KiB); allocating each
    # of them per step peaks near 3 MiB.
    peak = _step2_peak("dora")
    assert peak < 256 * 256 * 8, peak


def test_full_train_step_allocates_less_than_one_weight():
    # full trains the whole weight: dL/dbase goes into the layer's cache and
    # Adam's intermediates into OptState's scratch buffers, where per-step
    # temporaries of the flat buffer peaked near 2 MiB.
    peak = _step2_peak("full")
    assert peak < 256 * 256 * 8, peak


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
    # layer_forward leaves x * m / n in each layer's cache and loss_and_grads
    # hands it to param_grads. On caches that still hold the x_m of an
    # earlier batch, the gradients must be those of this batch, bit for bit.
    task = make_task("cluster_classify", 4, 6, sigma=0.5, seed=3)
    model = make_model(task, method, rank=2, scaling=0.5, seed=3)
    caches = [step_cache(layer.state) for layer in model.layers]
    rng = training_stream(task, 0)
    first, second = task.sample_batch(rng, 4), task.sample_batch(rng, 4)
    loss_and_grads(model, first, caches)
    loss, grads = loss_and_grads(model, second, caches)
    want_loss, want = _ref_loss_and_grads(model, *second)
    got = [getattr(gs, "d" + name) for layer, gs in zip(model.layers, grads)
           for name, _ in trainable_params(layer.state)]
    assert float(loss).hex() == float(want_loss).hex()
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    # Without x_m, param_grads computes its own rather than reading the
    # cache's, which here holds the x_m of the other batch.
    state, cache = model.layers[0].state, caches[0]
    x, gz = second[0], np.ones((model.layers[0].state.base.shape[0], 4))
    layer_forward(state, first[0], cache)
    got = param_grads(state, gz, x, cache)
    want = param_grads(state, gz, x)
    assert [g.tobytes() for g in (got.db, got.da, got.dm, got.dx)] == \
        [w.tobytes() for w in (want.db, want.da, want.dm, want.dx)]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("kind", ["teacher_student", "cluster_classify"])
def test_evaluate_with_caches_gives_the_cacheless_bits(method, kind):
    # Caches made before training hold stale trainables; evaluate must
    # refresh them in place and score exactly as without them.
    task = make_task(kind, 4, 6, r_true=2 if kind == "teacher_student" else 0, sigma=0.5,
                     seed=3)
    model = make_model(task, method, rank=2, scaling=0.5, seed=3)
    stale = [step_cache(layer.state) for layer in model.layers]
    train(model, task, TrainConfig(steps=5, batch_size=4, base_lr=3e-2, seed=3))
    got = evaluate(model, task, stale)
    assert float(got).hex() == float(evaluate(model, task)).hex()
    caches = [step_cache(layer.state) for layer in model.layers]
    assert model_forward(model, task.eval_x, caches).tobytes() == \
        model_forward(model, task.eval_x).tobytes()


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
