"""Config checks of the library constructors: every field a run config can
set is checked where the library takes it, and the error names the field as
the config file spells it."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peftlab.adapters import AdapterConfig
from peftlab.linalg import ConfigError
from peftlab.trainer import TrainConfig, make_task

# (constructor, valid keyword arguments, keyword under test, name in the
# error, integer field?)
FIELDS = [
    (AdapterConfig, {"method": "lora", "rank": 2}, "rank", "rank", True),
    (AdapterConfig, {"method": "lora", "rank": 2}, "scaling", "scaling", False),
    (AdapterConfig, {"method": "lora", "rank": 2}, "norm_epsilon", "norm_epsilon", False),
    (AdapterConfig, {"method": "lora", "rank": 2}, "seed", "seed", True),
    (TrainConfig, {}, "steps", "steps", True),
    (TrainConfig, {}, "batch_size", "batch", True),
    (TrainConfig, {}, "base_lr", "lr", False),
    (TrainConfig, {}, "warmup_frac", "warmup_frac", False),
    (TrainConfig, {}, "eval_every", "eval_every", True),
    (TrainConfig, {}, "seed", "seed", True),
    (make_task, {"kind": "teacher_student", "d": 4, "k": 4}, "d", "d", True),
    (make_task, {"kind": "teacher_student", "d": 4, "k": 4}, "k", "k", True),
    (make_task, {"kind": "teacher_student", "d": 4, "k": 4}, "r_true", "r_true", True),
    (make_task, {"kind": "teacher_student", "d": 4, "k": 4}, "sigma", "sigma", False),
    (make_task, {"kind": "teacher_student", "d": 4, "k": 4}, "seed", "seed", True),
]
FIELD_IDS = [f"{ctor.__name__}-{kw}" for ctor, _, kw, _, _ in FIELDS]

# Python's json module reads Infinity, NaN and 400-digit integers.
NEVER_VALID = st.sampled_from([math.inf, -math.inf, math.nan, 10**400, -10**400, True, False])


@pytest.mark.parametrize("ctor, valid, keyword, name, integer", FIELDS, ids=FIELD_IDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_constructors_reject_bad_numbers_naming_the_field(ctor, valid, keyword, name,
                                                          integer, data):
    bad = NEVER_VALID
    if integer:
        bad = st.one_of(bad, st.floats(), st.floats().map(np.float64))
    value = data.draw(bad, label=keyword)
    with pytest.raises(ConfigError, match=f"'{name}'"):
        ctor(**{**valid, keyword: value})


@pytest.mark.parametrize("ctor, valid, keyword, name, integer", FIELDS, ids=FIELD_IDS)
def test_constructors_accept_numpy_scalars(ctor, valid, keyword, name, integer):
    value = np.int64(1) if integer else np.float64(0.5)
    ctor(**{**valid, keyword: value})


@pytest.mark.parametrize("call, name", [
    (lambda: make_task("teacher_student", 4, 4, sigma=math.nan), "sigma"),
    (lambda: make_task("teacher_student", 4, 4, sigma=math.inf), "sigma"),
    (lambda: AdapterConfig("lora", 2, scaling=math.inf), "scaling"),
    (lambda: AdapterConfig("lora", 2, norm_epsilon=math.nan), "norm_epsilon"),
    (lambda: AdapterConfig("lora", 1.5), "rank"),
    (lambda: TrainConfig(base_lr=math.inf), "lr"),
    (lambda: TrainConfig(steps=2.5), "steps"),
    (lambda: TrainConfig(batch_size=True), "batch"),
    (lambda: TrainConfig(optimizer="rmsprop"), "optimizer"),
    (lambda: TrainConfig(scheduler="linear"), "scheduler"),
    (lambda: TrainConfig(warmup_frac=1.0), "warmup_frac"),
])
def test_constructors_reject_examples_naming_the_field(call, name):
    with pytest.raises(ConfigError, match=f"'{name}'"):
        call()
