"""peftlab: a desk-scale lab for parameter-efficient adapters on dense layers.

Four adaptation methods (plus a full-finetuning reference and two
initialization variants) over a single frozen weight matrix, with exact
analytic gradients, a finite-difference oracle, and a deterministic
training harness for side-by-side convergence comparisons.
"""

from .adapters import (
    METHODS,
    AdapterConfig,
    AdapterState,
    effective_weight,
    forward,
    initialize,
    kaiming_uniform,
    merge,
    trainable_params,
)
from .grad import GradCheckReport, GradientSet, backward, finite_diff_grads, grad_check
from .linalg import (
    ConfigError,
    NumericError,
    SvdFactors,
    TruncatedSvd,
    column_norms,
    frobenius_norm,
    svd,
    truncate_svd,
)
from .trainer import (
    DEFAULT_SEEDS,
    MetricsRecord,
    Model,
    OptState,
    Task,
    TrainConfig,
    cosine_lr,
    loss_and_grads,
    make_model,
    make_task,
    optimizer_step,
    summarize,
    train,
)

__version__ = "0.1.0"
