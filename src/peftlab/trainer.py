"""Synthetic tasks and a deterministic, step-based training loop.

Two desk-scale tasks exercise the adapters end to end:

  teacher_student   regression against a teacher weight that differs from the
                    model's base weight by a perturbation of known low rank,
                    plus Gaussian observation noise. This isolates the thing
                    adapters are supposed to do: recover a low-rank weight
                    update without touching the frozen base.
  cluster_classify  classification of Gaussian clusters through a two-layer
                    ReLU model with cross-entropy loss.

All randomness flows from (task seed, train seed) through named substreams,
so identical configurations reproduce bit-identical metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adapters import AdapterConfig, AdapterState, initialize, layer_forward, step_cache
from .adapters import trainable_params
from .grad import GradientSet, param_grads
from .linalg import _INT_MAX, NumericError, SvdFactors, _check_choice, _check_int, _check_number
from .linalg import _jacobi_svd, truncate_svd

__all__ = [
    "DEFAULT_SEEDS",
    "EVAL_SIZE",
    "Task",
    "Layer",
    "Model",
    "TrainConfig",
    "OptState",
    "MetricsRecord",
    "Summary",
    "make_task",
    "make_model",
    "model_forward",
    "loss_and_grads",
    "evaluate",
    "cosine_lr",
    "optimizer_step",
    "training_stream",
    "train",
    "summarize",
]

# Default multi-seed suite for robustness comparisons.
DEFAULT_SEEDS = (42, 78, 512, 1234, 3407)

EVAL_SIZE = 256

TASK_KINDS = ("teacher_student", "cluster_classify")
OPTIMIZERS = ("sgd", "adam")

# Adam's moment decay rates and denominator guard (Kingma & Ba 2015 defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Substream tags hung off the task seed; keeping them distinct guarantees the
# eval set is disjoint from the training stream.
_STREAM_SETUP = 0
_STREAM_EVAL = 1
_STREAM_MODEL = 2
_STREAM_TRAIN = 3

# Largest teacher-student draw Task.batches makes at once, in bytes: 64 KiB
# holds 32 batches of the 16 x 16 trend config at batch 8.
_DRAW_BYTES = 64 * 1024


def _substream(*entropy: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass
class Task:
    """A seeded synthetic data source with a fixed held-out eval set.

    w0_factors is the SVD of w0 that make_task built the teacher from
    (teacher_student with r_true > 0), by linalg._jacobi_svd, whose bits the
    benchmark's reference losses pin. make_model hands it to initialize, so a
    run factors w0 once and its SVD-initialized adapter starts from the
    teacher's own factors.

    A run's batches come from batches, which draws teacher_student batches a
    chunk at a time; sample_batch draws one batch with the same bits, so
    replaying a stream with per-step sample_batch calls reproduces train's
    batches bit for bit.
    """

    kind: str
    d: int
    k: int
    r_true: int
    sigma: float
    seed: int
    w0: np.ndarray | None = None
    w_target: np.ndarray | None = None
    centers: np.ndarray | None = None
    eval_x: np.ndarray = field(default=None, repr=False)
    eval_t: np.ndarray = field(default=None, repr=False)
    w0_factors: SvdFactors | None = field(default=None, repr=False)

    def sample_batch(self, rng: np.random.Generator, n: int):
        """Draw n samples; returns (x, t) with x of shape k x n: the first
        batch of batches(rng, n, 1), with its own copy of x, so a kept batch
        (such as the eval set) holds no draw buffer."""
        if self.kind == "teacher_student":
            x, t = next(self.batches(rng, n, 1))
            return x.copy(), t
        labels = rng.integers(0, self.d, size=n)
        x = self.centers[:, labels]
        if self.sigma > 0.0:
            x = x + self.sigma * rng.standard_normal((self.k, n))
        return x, labels

    def batches(self, rng: np.random.Generator, n: int, count: int):
        """Yield count batches of n samples, bit for bit those of count
        sample_batch calls on the same rng, which it leaves in the same state.

        A teacher_student batch is x, then (if sigma > 0) the noise of its
        targets, all standard normals, so a run's draws are one stream that a
        single standard_normal call of any size reproduces. Up to _DRAW_BYTES
        of consecutive batches are drawn with one call, their targets formed
        with one stacked matmul, and each batch yielded as views of the
        chunk. A cluster_classify batch draws integer labels between its
        normals, so its batches are drawn one sample_batch at a time.
        """
        if self.kind != "teacher_student":
            for _ in range(count):
                yield self.sample_batch(rng, n)
            return
        k = self.k
        rows = k + self.d if self.sigma > 0.0 else k
        per_chunk = max(1, _DRAW_BYTES // (rows * max(n, 1) * 8))
        for start in range(0, count, per_chunk):
            draw = rng.standard_normal((min(per_chunk, count - start), rows, n))
            x = draw[:, :k]
            t = np.matmul(self.w_target, x)
            if self.sigma > 0.0:
                noise = draw[:, k:]
                noise *= self.sigma
                t += noise
            yield from zip(x, t)


def make_task(kind: str, d: int, k: int, r_true: int = 0, sigma: float = 0.0,
              seed: int = 0) -> Task:
    """Build a seeded task.

    teacher_student: the base weight has N(0, 1/k) entries; the teacher adds
    a rank-r_true perturbation along the base weight's own top singular
    directions, with strengths uniform in [0.5, 1.5]. The adaptation to
    recover is therefore exactly low-rank and reuses the base's principal
    directions, which keeps the task representable for every method at
    rank r_true. Targets carry sigma-scaled Gaussian noise.

    cluster_classify: d Gaussian clusters in R^k with unit-scale random
    centers spread by a factor 3; sigma is the within-cluster deviation.
    """
    _check_choice("task", kind, TASK_KINDS)
    _check_int("d", d, 1)
    _check_int("k", k, 1)
    # Only the teacher reads r_true, so only it bounds r_true by the shape.
    _check_int("r_true", r_true, 0, min(d, k) if kind == "teacher_student" else _INT_MAX)
    _check_number("sigma", sigma, 0.0)
    _check_int("seed", seed, 0)
    rng = _substream(seed, _STREAM_SETUP)
    if kind == "teacher_student":
        w0 = rng.standard_normal((d, k)) / np.sqrt(k)
        w_target = w0.copy()
        factors = None
        if r_true > 0:
            factors = _jacobi_svd(w0)
            top = truncate_svd(factors, r_true)
            strengths = rng.uniform(0.5, 1.5, size=r_true)
            w_target = w0 + (top.u * strengths) @ top.v.T
        task = Task(kind, d, k, r_true, sigma, seed,
                    w0=w0, w_target=w_target, w0_factors=factors)
    else:
        centers = 3.0 * rng.standard_normal((k, d))
        task = Task(kind, d, k, r_true, sigma, seed, centers=centers)
    eval_rng = _substream(seed, _STREAM_EVAL)
    task.eval_x, task.eval_t = task.sample_batch(eval_rng, EVAL_SIZE)
    return task


@dataclass
class Layer:
    state: AdapterState
    relu: bool = False


@dataclass
class Model:
    layers: list[Layer]
    loss: str

    def __post_init__(self):
        if not self.layers:
            raise ValueError("model needs at least one layer")
        _check_choice("loss", self.loss, ("mse", "cross_entropy"))
        methods = {layer.state.method for layer in self.layers}
        if len(methods) > 1:
            raise ValueError(f"all layers must share one method, got {sorted(methods)}")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            d_prev = prev.state.base.shape[0]
            k_next = nxt.state.base.shape[1]
            if d_prev != k_next:
                raise ValueError(
                    f"layer dims incompatible: output {d_prev} feeds input {k_next}"
                )


def _layer_seed(seed: int, idx: int) -> int:
    return int(np.random.SeedSequence((seed, _STREAM_MODEL, idx)).generate_state(1)[0])


def make_model(task: Task, method: str, rank: int, scaling: float = 1.0,
               seed: int = 0) -> Model:
    """Adapted model matched to the task: a single linear layer on the
    teacher-student task, a two-layer ReLU net on the cluster task."""
    if task.kind == "teacher_student":
        cfg = AdapterConfig(method, rank, scaling=scaling, seed=_layer_seed(seed, 0))
        return Model([Layer(initialize(task.w0, cfg, factors=task.w0_factors))], loss="mse")
    rng = _substream(task.seed, _STREAM_MODEL)
    hidden = task.k
    w_hidden = rng.standard_normal((hidden, task.k)) / np.sqrt(task.k)
    w_out = rng.standard_normal((task.d, hidden)) / np.sqrt(hidden)
    cfg0 = AdapterConfig(method, rank, scaling=scaling, seed=_layer_seed(seed, 0))
    cfg1 = AdapterConfig(method, rank, scaling=scaling, seed=_layer_seed(seed, 1))
    return Model(
        [Layer(initialize(w_hidden, cfg0), relu=True), Layer(initialize(w_out, cfg1))],
        loss="cross_entropy",
    )


def _walk(model: Model, x: np.ndarray):
    """The forward of training and evaluation: every layer applied to the
    k x n block x with the direction adapters.step_cache derives once for it,
    then its ReLU in place, so no pre-activation outlives its layer. Returns
    the activations (x first) and the directions."""
    acts, caches = [x], []
    for layer in model.layers:
        caches.append(step_cache(layer.state))
        z = layer_forward(layer.state, acts[-1], caches[-1])
        acts.append(np.maximum(z, 0.0, out=z) if layer.relu else z)
    return acts, caches


def model_forward(model: Model, x: np.ndarray) -> np.ndarray:
    """Every layer applied to a k x n input block, as loss_and_grads applies them."""
    return _walk(model, x)[0][-1]


def _mse_loss_gy(y: np.ndarray, t: np.ndarray):
    # Per-sample squared error summed over outputs, averaged over the batch.
    # np.add.reduce over every axis is what ndarray.sum calls.
    n = y.shape[1]
    r = y - t
    return float(np.add.reduce(r * r, axis=None)) / n, (2.0 / n) * r


def _targets(model: Model, t, n: int) -> np.ndarray:
    """t checked against model.loss for an output block of n columns (else
    ValueError): mse takes targets of the output's shape, cross-entropy n
    integer labels in [0, d) for d outputs."""
    d = model.layers[-1].state.base.shape[0]
    if model.loss == "mse":
        t = np.asarray(t, dtype=np.float64)
        if t.shape != (d, n):
            raise ValueError(f"mse targets must have the output's shape {(d, n)}, got {t.shape}")
        return t
    t = np.asarray(t)
    if t.shape != (n,) or not np.issubdtype(t.dtype, np.integer):
        raise ValueError(f"cross_entropy labels must be {n} integers, got {t.dtype} {t.shape}")
    if np.any((t < 0) | (t >= d)):
        raise ValueError(f"cross_entropy labels must lie in [0, {d}), got {t.min()}..{t.max()}")
    return t


def _xent_loss_gy(y: np.ndarray, labels: np.ndarray):
    n = y.shape[1]
    z = y - y.max(axis=0, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=0, keepdims=True))
    loss = -float(logp[labels, np.arange(n)].sum()) / n
    gy = np.exp(logp)
    gy[labels, np.arange(n)] -= 1.0
    return loss, gy / n


def loss_and_grads(model: Model, batch, *, out=None) -> tuple[float, list[GradientSet]]:
    """Mean batch loss and per-layer gradients.

    The backward pass sums each layer's gradients over the batch through the
    factored VJP (grad.param_grads), chains input gradients through ReLUs
    (subgradient 0 at exactly 0; relu(z) > 0 exactly where z > 0), and
    returns mean gradients so the learning rate is comparable across batch sizes.
    Each layer's direction (adapters.step_cache) is derived once, for the
    forward and the VJP both. The first layer's dx is None: nothing reads
    it. x must be a k x n block with n >= 1, and the targets are checked
    against model.loss (ValueError). out, one GradientSet per layer, is each
    layer's grad.param_grads out.
    """
    x, t = batch
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError(f"batch must be a k x n block with n >= 1, got shape {x.shape}")
    t = _targets(model, t, x.shape[1])
    acts, caches = _walk(model, x)
    loss, gy = (_mse_loss_gy if model.loss == "mse" else _xent_loss_gy)(acts[-1], t)
    if not math.isfinite(loss):
        raise NumericError("non-finite loss")
    grads: list[GradientSet] = [None] * len(model.layers)
    for idx in reversed(range(len(model.layers))):
        gz = gy * (acts[idx + 1] > 0.0) if model.layers[idx].relu else gy
        grads[idx] = param_grads(model.layers[idx].state, gz, acts[idx], caches[idx],
                                 input_grad=idx > 0, out=None if out is None else out[idx])
        gy = grads[idx].dx
    return loss, grads


def evaluate(model: Model, task: Task) -> float:
    """Held-out score: mean squared error for regression (lower is better),
    accuracy for classification (higher is better). The targets are checked
    against model.loss (ValueError)."""
    t = _targets(model, task.eval_t, task.eval_x.shape[1])
    y = model_forward(model, task.eval_x)
    if model.loss == "mse":
        return _mse_loss_gy(y, t)[0]
    pred = y.argmax(axis=0)
    return float((pred == t).mean())


def cosine_lr(step: int, total_steps: int, warmup_frac: float, base_lr: float) -> float:
    """Linear ramp over ceil(warmup_frac * total_steps) steps, then cosine
    decay from base_lr to 0 at total_steps."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} out of range 0..{total_steps}")
    if not 0.0 <= warmup_frac < 1.0:
        raise ValueError(f"warmup_frac must be in [0, 1), got {warmup_frac}")
    warmup = math.ceil(warmup_frac * total_steps)
    if warmup > 0 and step < warmup:
        return base_lr * step / warmup
    span = total_steps - warmup
    if span <= 0:
        return 0.0
    progress = (step - warmup) / span
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


@dataclass
class OptState:
    """SGD or bias-corrected Adam (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) of one
    parameter array: the first optimizer_step records its shape, which every
    later step must match, and creates the moments m and v (Adam only)."""

    optimizer: str
    step: int = field(default=0, init=False)
    shape: tuple[int, ...] | None = field(default=None, init=False)
    m: np.ndarray | None = field(default=None, init=False)
    v: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self):
        _check_choice("optimizer", self.optimizer, OPTIMIZERS)


def optimizer_step(p: np.ndarray, g: np.ndarray, opt: OptState, lr: float) -> None:
    """One in-place update of p from its gradient g. p must have the shape of
    the first call's on opt."""
    if opt.shape is None:
        opt.shape = p.shape
        if opt.optimizer == "adam":
            opt.m, opt.v = np.zeros_like(p), np.zeros_like(p)
    if not p.shape == g.shape == opt.shape:
        raise ValueError(f"shape mismatch: param {p.shape}, grad {g.shape}, "
                         f"optimizer state {opt.shape}")
    opt.step += 1
    if opt.optimizer == "sgd":
        p -= lr * g
        return
    bc1 = 1.0 - ADAM_BETA1 ** opt.step
    bc2 = 1.0 - ADAM_BETA2 ** opt.step
    opt.m *= ADAM_BETA1
    opt.m += (1.0 - ADAM_BETA1) * g
    opt.v *= ADAM_BETA2
    opt.v += (1.0 - ADAM_BETA2) * (g * g)
    p -= lr * (opt.m / bc1) / (np.sqrt(opt.v / bc2) + ADAM_EPS)


@dataclass
class TrainConfig:
    steps: int = 500
    batch_size: int = 8
    base_lr: float | None = None  # default 1e-3 for adam, 1e-2 for sgd
    optimizer: str = "adam"
    scheduler: str = "cosine"
    warmup_frac: float = 0.03
    eval_every: int = 50
    seed: int = 0

    def __post_init__(self):
        # Errors name each field as a run config spells it.
        _check_int("steps", self.steps, 1)
        _check_int("batch", self.batch_size, 1)
        if self.base_lr is not None:
            _check_number("lr", self.base_lr, 0.0)
        _check_choice("optimizer", self.optimizer, OPTIMIZERS)
        _check_choice("scheduler", self.scheduler, ("cosine", "constant"))
        _check_number("warmup_frac", self.warmup_frac, 0.0, below=1.0)
        _check_int("eval_every", self.eval_every, 1)
        _check_int("seed", self.seed, 0)

    def resolved_lr(self) -> float:
        if self.base_lr is not None:
            return self.base_lr
        return 1e-3 if self.optimizer == "adam" else 1e-2


@dataclass
class MetricsRecord:
    step: int
    loss: float
    grad_norm: float
    lr: float
    eval: float | None


def training_stream(task: Task, seed: int) -> np.random.Generator:
    """The batch-draw RNG a training run consumes, exposed for replay:
    train takes its batches from task.batches on it, and one sample_batch
    call per step on a second training_stream(task, seed) reproduces them
    bit for bit."""
    return _substream(task.seed, _STREAM_TRAIN, seed)


def train(model: Model, task: Task, cfg: TrainConfig) -> list[MetricsRecord]:
    """Run cfg.steps optimization steps on trainables rebound to views of one
    buffer, updated by one optimizer_step per step from a gradient twin of
    that buffer, which grad.param_grads writes through views of the same
    shapes. The optimizer state and the gradient buffer live for the call;
    nothing else is kept between steps.

    Batches come from task.batches on training_stream(task, cfg.seed), so
    teacher_student runs draw them a chunk at a time, with the bits of one
    sample_batch call per step.

    Every step records the pre-update batch loss, the global L2 norm over
    all trainable gradients, and the learning rate used; the held-out eval
    score is recorded every cfg.eval_every steps (after the update). Each
    step is loss_and_grads, so a batch it rejects raises ValueError, and a
    loss that stops being finite NumericError, each naming the step.
    """
    rng = training_stream(task, cfg.seed)
    named = [(i, name, arr) for i, layer in enumerate(model.layers)
             for name, arr in trainable_params(layer.state)]
    flat = np.concatenate([arr.reshape(-1) for *_, arr in named])
    gflat = np.empty_like(flat)
    cuts = np.cumsum([arr.size for *_, arr in named])[:-1]
    grads = [GradientSet() for _ in model.layers]
    for (i, name, arr), view, gview in zip(named, np.split(flat, cuts), np.split(gflat, cuts)):
        setattr(model.layers[i].state, name, view.reshape(arr.shape))
        setattr(grads[i], "d" + name, gview.reshape(arr.shape))
    opt = OptState(cfg.optimizer)
    base_lr = cfg.resolved_lr()
    records: list[MetricsRecord] = []
    for step, batch in enumerate(task.batches(rng, cfg.batch_size, cfg.steps), 1):
        try:
            loss, _ = loss_and_grads(model, batch, out=grads)
        except NumericError as e:
            raise NumericError(f"numeric failure at step {step}: {e}") from e
        except ValueError as e:
            raise type(e)(f"batch at step {step}: {e}") from e
        grad_norm = math.sqrt(np.add.reduce(gflat * gflat))
        if cfg.scheduler == "cosine":
            lr = cosine_lr(step - 1, cfg.steps, cfg.warmup_frac, base_lr)
        else:
            lr = base_lr
        optimizer_step(flat, gflat, opt, lr)
        score = evaluate(model, task) if step % cfg.eval_every == 0 else None
        records.append(MetricsRecord(step, loss, grad_norm, lr, score))
    return records


@dataclass
class Summary:
    final_loss: float
    best_eval: float | None
    steps: int
    tail_mean_loss: float  # mean loss over the final 10% of steps


def summarize(records: list[MetricsRecord], higher_eval_is_better: bool = True) -> Summary:
    if not records:
        raise ValueError("cannot summarize an empty record list")
    losses = [r.loss for r in records]
    evals = [r.eval for r in records if r.eval is not None]
    best = None
    if evals:
        best = max(evals) if higher_eval_is_better else min(evals)
    tail = losses[-max(1, len(losses) // 10):]
    return Summary(
        final_loss=losses[-1],
        best_eval=best,
        steps=records[-1].step,
        tail_mean_loss=float(np.mean(tail)),
    )
