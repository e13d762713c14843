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

from .adapters import AdapterConfig, AdapterState, StepCache, initialize, layer_forward
from .adapters import step_cache, trainable_params
from .grad import GradientSet, param_grads
from .linalg import NumericError, SvdFactors, _check_choice, _check_int, _check_number
from .linalg import svd, truncate_svd

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


def _substream(*entropy: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass
class Task:
    """A seeded synthetic data source with a fixed held-out eval set.

    w0_factors is svd(w0) when make_task factored w0 (teacher_student with
    r_true > 0); make_model hands it to initialize, so a run factors w0 once.
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

    @property
    def loss(self) -> str:
        return "mse" if self.kind == "teacher_student" else "cross_entropy"

    def sample_batch(self, rng: np.random.Generator, n: int):
        """Draw n samples; returns (x, t) with x of shape k x n."""
        if self.kind == "teacher_student":
            x = rng.standard_normal((self.k, n))
            t = self.w_target @ x
            if self.sigma > 0.0:
                t = t + self.sigma * rng.standard_normal((self.d, n))
            return x, t
        labels = rng.integers(0, self.d, size=n)
        x = self.centers[:, labels]
        if self.sigma > 0.0:
            x = x + self.sigma * rng.standard_normal((self.k, n))
        return x, labels


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
    _check_int("r_true", r_true, 0, min(d, k))
    _check_number("sigma", sigma, 0.0)
    _check_int("seed", seed, 0)
    rng = _substream(seed, _STREAM_SETUP)
    if kind == "teacher_student":
        w0 = rng.standard_normal((d, k)) / np.sqrt(k)
        w_target = w0.copy()
        factors = None
        if r_true > 0:
            factors = svd(w0)
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


def model_forward(model: Model, x: np.ndarray,
                  caches: list[StepCache] | None = None) -> np.ndarray:
    """Apply every layer to a k x n input block. caches, one step_cache per
    layer, are refreshed in place; without them every call uses new ones."""
    cur = x
    for layer, cache in zip(model.layers, caches or [None] * len(model.layers)):
        cur = layer_forward(layer.state, cur, step_cache(layer.state, cache))
        if layer.relu:
            cur = np.maximum(cur, 0.0)
    return cur


def _mse_loss_gy(y: np.ndarray, t: np.ndarray):
    # Per-sample squared error summed over outputs, averaged over the batch.
    n = y.shape[1]
    r = y - t
    return float((r * r).sum()) / n, (2.0 / n) * r


def _xent_loss_gy(y: np.ndarray, labels: np.ndarray):
    n = y.shape[1]
    z = y - y.max(axis=0, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=0, keepdims=True))
    loss = -float(logp[labels, np.arange(n)].sum()) / n
    gy = np.exp(logp)
    gy[labels, np.arange(n)] -= 1.0
    return loss, gy / n


def loss_and_grads(model: Model, batch,
                   caches: list[StepCache] | None = None) -> tuple[float, list[GradientSet]]:
    """Mean batch loss and per-layer gradients.

    The backward pass sums each layer's gradients over the batch through the
    factored VJP (grad.param_grads), chains input gradients through ReLUs
    (subgradient 0 at exactly 0; relu(z) > 0 exactly where z > 0), and
    returns mean gradients so the learning rate is comparable across batch sizes.
    The first layer's dx is None: nothing reads it. dora/dude* layers hand
    x * m / n from the forward to the VJP instead of computing it twice.

    caches, one step_cache per layer, are refreshed in place; full's dbase is
    then a view of its cache, valid until the next call with the same caches.
    Without them every call uses new ones.
    """
    x, t = batch
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError(f"batch must be a k x n block with n >= 1, got shape {x.shape}")
    if caches is None:
        caches = [None] * len(model.layers)
    caches = [step_cache(layer.state, c) for layer, c in zip(model.layers, caches)]
    acts = [x]
    for layer, cache in zip(model.layers, caches):
        z = layer_forward(layer.state, acts[-1], cache)
        acts.append(np.maximum(z, 0.0) if layer.relu else z)
    if model.loss == "mse":
        loss, gy = _mse_loss_gy(acts[-1], np.asarray(t, dtype=np.float64))
    else:
        loss, gy = _xent_loss_gy(acts[-1], np.asarray(t))
    if not math.isfinite(loss):
        raise NumericError("non-finite loss")
    grads: list[GradientSet] = [None] * len(model.layers)
    for idx in reversed(range(len(model.layers))):
        gz = gy * (acts[idx + 1] > 0.0) if model.layers[idx].relu else gy
        grads[idx] = param_grads(model.layers[idx].state, gz, acts[idx], caches[idx],
                                 input_grad=idx > 0, x_m=caches[idx].xm)
        gy = grads[idx].dx
    return loss, grads


def evaluate(model: Model, task: Task, caches: list[StepCache] | None = None) -> float:
    """Held-out score: mean squared error for regression (lower is better),
    accuracy for classification (higher is better). caches as for model_forward."""
    y = model_forward(model, task.eval_x, caches)
    if task.loss == "mse":
        r = y - task.eval_t
        return float((r * r).sum()) / y.shape[1]
    pred = y.argmax(axis=0)
    return float((pred == task.eval_t).mean())


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
    """SGD or bias-corrected Adam (ADAM_BETA1, ADAM_BETA2, ADAM_EPS); the
    moment buffers and the two scratch buffers per parameter that hold every
    intermediate of an update are created by the first optimizer_step to
    mirror its parameters, which every later step must match."""

    optimizer: str
    step: int = field(default=0, init=False)
    m: list[np.ndarray] = field(default_factory=list, init=False)
    v: list[np.ndarray] = field(default_factory=list, init=False)
    scratch: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list, init=False)

    def __post_init__(self):
        _check_choice("optimizer", self.optimizer, OPTIMIZERS)


def optimizer_step(params: list[np.ndarray], grads: list[np.ndarray],
                   opt: OptState, lr: float) -> None:
    """One in-place update of every parameter array; allocates nothing
    after the first call. The params must match, in count and shapes, those
    of the first call on opt."""
    if not opt.scratch:
        opt.scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
        if opt.optimizer == "adam":
            opt.m = [np.zeros_like(p) for p in params]
            opt.v = [np.zeros_like(p) for p in params]
    if not len(params) == len(grads) == len(opt.scratch):
        raise ValueError(f"got {len(params)} params, {len(grads)} grads and optimizer "
                         f"state for {len(opt.scratch)}")
    for p, g, (t, _) in zip(params, grads, opt.scratch):
        if not p.shape == g.shape == t.shape:
            raise ValueError(f"shape mismatch: param {p.shape}, grad {g.shape}, "
                             f"optimizer state {t.shape}")
    opt.step += 1
    if opt.optimizer == "sgd":
        for p, g, (t, _) in zip(params, grads, opt.scratch):
            p -= np.multiply(g, lr, out=t)
        return
    bc1 = 1.0 - ADAM_BETA1 ** opt.step
    bc2 = 1.0 - ADAM_BETA2 ** opt.step
    # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), element for element, with
    # the moments m = beta1 * m + (1 - beta1) * g, v = beta2 * v + (1 - beta2) * g * g.
    for p, g, m, v, (t, u) in zip(params, grads, opt.m, opt.v, opt.scratch):
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=t)
        v *= ADAM_BETA2
        v += np.multiply(np.multiply(g, g, out=t), 1.0 - ADAM_BETA2, out=t)
        np.multiply(np.divide(m, bc1, out=t), lr, out=t)
        np.sqrt(np.divide(v, bc2, out=u), out=u)
        u += ADAM_EPS
        p -= np.divide(t, u, out=t)


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
    """The batch-draw RNG a training run consumes, exposed for replay."""
    return _substream(task.seed, _STREAM_TRAIN, seed)


def train(model: Model, task: Task, cfg: TrainConfig) -> list[MetricsRecord]:
    """Run cfg.steps optimization steps on trainables rebound to views of one
    buffer, with one step_cache per layer reused by every step.

    Every step records the pre-update batch loss, the global L2 norm over
    all trainable gradients, and the learning rate used; the held-out eval
    score is recorded every cfg.eval_every steps (after the update). Raises
    NumericError naming the step if the loss stops being finite.
    """
    rng = training_stream(task, cfg.seed)
    named = [(i, name, arr) for i, layer in enumerate(model.layers)
             for name, arr in trainable_params(layer.state)]
    flat = np.concatenate([arr.reshape(-1) for *_, arr in named])
    gflat = np.empty_like(flat)
    gsq = np.empty_like(flat)
    cuts = np.cumsum([arr.size for *_, arr in named])[:-1]
    gsq_segments = np.split(gsq, cuts)
    grad_views = []
    for (i, name, arr), view, gview in zip(named, np.split(flat, cuts), np.split(gflat, cuts)):
        setattr(model.layers[i].state, name, view.reshape(arr.shape))
        grad_views.append((i, "d" + name, gview.reshape(arr.shape)))
    caches = [step_cache(layer.state) for layer in model.layers]
    opt = OptState(cfg.optimizer)
    base_lr = cfg.resolved_lr()
    records: list[MetricsRecord] = []
    for step in range(1, cfg.steps + 1):
        batch = task.sample_batch(rng, cfg.batch_size)
        try:
            loss, grads = loss_and_grads(model, batch, caches)
        except NumericError as e:
            raise NumericError(f"numeric failure at step {step}: {e}") from e
        for i, key, view in grad_views:
            view[...] = getattr(grads[i], key)
        # Summed trainable by trainable: one sum over gsq would round differently.
        np.multiply(gflat, gflat, out=gsq)
        grad_norm = float(np.sqrt(sum(np.add.reduce(seg) for seg in gsq_segments)))
        if cfg.scheduler == "cosine":
            lr = cosine_lr(step - 1, cfg.steps, cfg.warmup_frac, base_lr)
        else:
            lr = base_lr
        optimizer_step([flat], [gflat], opt, lr)
        score = evaluate(model, task, caches) if step % cfg.eval_every == 0 else None
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
