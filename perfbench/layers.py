"""Which public functions of each peftlab module the traced run wraps, and the
per-layer metrics derived from one traced pass.

Layers are the package modules. A function is wrapped in every peftlab
namespace that holds it (e.g. `svd` in linalg, adapters, trainer and cli),
so calls made from inside the package are traced too.
"""

from __future__ import annotations

import hashlib
import os
from collections import Counter

import numpy as np

import peftlab
from peftlab import adapters, cli, grad, linalg, trainer

from tracing import Patch, Tracer, median, percentile, self_times


def _svd_input(args, kwargs, result):
    w = np.ascontiguousarray(args[0] if args else kwargs["w"], dtype=np.float64)
    return hashlib.blake2b(repr(w.shape).encode() + w.tobytes(), digest_size=16).digest()


def _train_shape(args, kwargs, result):
    model, _, tc = args
    magnitude = sum(layer.state.m is not None for layer in model.layers)
    return tc.steps * len(model.layers), tc.steps * magnitude


def _csv_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _run_seeds(args, kwargs, result):
    return len(result.config["seeds"])


def _check_failed(args, kwargs, result):
    return not result.passed


# layer -> [(function, note)]; "Task.sample_batch" is a method of trainer.Task.
TRACED = {
    "linalg": [("svd", _svd_input)],
    "adapters": [("initialize", None), ("effective_weight", None), ("forward", None)],
    "grad": [("param_grads", None), ("direction_gradient", None), ("backward", None),
             ("finite_diff_grads", None), ("grad_check", _check_failed)],
    "trainer": [("make_task", None), ("make_model", None), ("Task.sample_batch", None),
                ("loss_and_grads", None), ("optimizer_step", None), ("evaluate", None),
                ("train", _train_shape)],
    "cli": [("main", None), ("validate_config", None), ("run_experiment", _run_seeds),
            ("write_metrics_csv", _csv_bytes), ("compare", None)],
}

# Per-layer metrics: name -> (unit, better).
PER_LAYER = {
    "linalg.svd.calls": ("count", "lower"),
    "linalg.svd.calls_per_run": ("count", "lower"),
    "linalg.svd.self_s": ("s", "lower"),
    "linalg.svd.ms_p50": ("ms", "lower"),
    "linalg.svd.distinct_input_ratio": ("ratio", "higher"),
    "adapters.initialize.calls": ("count", "lower"),
    "adapters.initialize.self_s": ("s", "lower"),
    "adapters.effective_weight.calls": ("count", "lower"),
    "adapters.effective_weight.self_s": ("s", "lower"),
    "adapters.effective_weight.calls_per_step": ("count", "lower"),
    "adapters.forward.calls": ("count", "lower"),
    "adapters.forward.self_s": ("s", "lower"),
    "grad.param_grads.calls": ("count", "lower"),
    "grad.param_grads.self_s": ("s", "lower"),
    "grad.param_grads.calls_per_step": ("count", "lower"),
    "grad.direction_gradient.calls": ("count", "lower"),
    "grad.direction_gradient.self_s": ("s", "lower"),
    "grad.direction_gradient.calls_per_step": ("count", "lower"),
    "grad.backward.self_s": ("s", "lower"),
    "grad.finite_diff_grads.self_s": ("s", "lower"),
    "grad.grad_check.failed": ("count", "lower"),
    "trainer.make_task.self_s": ("s", "lower"),
    "trainer.make_model.self_s": ("s", "lower"),
    "trainer.sample_batch.self_s": ("s", "lower"),
    "trainer.loss_and_grads.self_s": ("s", "lower"),
    "trainer.optimizer_step.self_s": ("s", "lower"),
    "trainer.evaluate.calls": ("count", "lower"),
    "trainer.evaluate.self_s": ("s", "lower"),
    "trainer.train.self_s": ("s", "lower"),
    "trainer.step_us.p50": ("us", "lower"),
    "trainer.step_us.p99": ("us", "lower"),
    "cli.validate_config.self_s": ("s", "lower"),
    "cli.run_experiment.self_s": ("s", "lower"),
    "cli.write_metrics_csv.self_s": ("s", "lower"),
    "cli.write_metrics_csv.bytes": ("bytes", "lower"),
    "cli.compare.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

_NAMESPACES = (peftlab, linalg, adapters, grad, trainer, cli)


def install(tracer: Tracer) -> Patch:
    """Wrap every TRACED function; restore with the returned Patch."""
    patch = Patch()
    for layer, entries in TRACED.items():
        module = getattr(peftlab, layer)
        for qualname, note in entries:
            owner_name, _, fn_name = qualname.rpartition(".")
            span = f"{layer}.{fn_name}"
            if owner_name:
                owner = getattr(module, owner_name)
                patch.set(owner, fn_name, tracer.wrap(span, vars(owner)[fn_name], note))
            else:
                fn = getattr(module, fn_name)
                patch.replace(_NAMESPACES, fn, tracer.wrap(span, fn, note))
    return patch


def pass_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass (everything in PER_LAYER except
    trace.overhead_s), and the sample counts behind the percentiles."""
    names = tracer.names
    ids = {n: i for i, n in enumerate(names)}
    start, end, parent, name = tracer.start, tracer.end, tracer.parent, tracer.name
    own = self_times(start, end, parent)
    train_id, run_id = ids.get("trainer.train", -1), ids.get("cli.run_experiment", -1)

    # in_train / in_run: the span or one of its ancestors is train / run_experiment.
    n = len(start)
    in_train = [False] * n
    in_run = [False] * n
    calls = Counter()
    calls_in_train = Counter()
    self_ns = Counter()
    svd_ms, svd_inputs, steps_us = [], set(), []
    svd_in_run = 0
    last_sample = {}
    for i in range(n):
        p, nm = parent[i], names[name[i]]
        in_train[i] = name[i] == train_id or (p >= 0 and in_train[p])
        in_run[i] = name[i] == run_id or (p >= 0 and in_run[p])
        calls[nm] += 1
        self_ns[nm] += own[i]
        if in_train[i]:
            calls_in_train[nm] += 1
        if nm == "linalg.svd":
            svd_ms.append((end[i] - start[i]) / 1e6)
            svd_inputs.add(tracer.notes.get(i))
            svd_in_run += in_run[i]
        elif nm == "trainer.sample_batch" and p >= 0 and name[p] == train_id:
            # One step runs from one batch draw to the next (or to train's end).
            if p in last_sample:
                steps_us.append((start[i] - last_sample[p]) / 1e3)
            last_sample[p] = start[i]
    for p, s in last_sample.items():
        steps_us.append((end[p] - s) / 1e3)

    # Notes exist only for calls that returned.
    notes = tracer.notes

    def noted(span_name):
        return [notes[i] for i in range(n) if names[name[i]] == span_name and i in notes]

    trained = noted("trainer.train")
    layer_steps = sum(t[0] for t in trained)
    magnitude_steps = sum(t[1] for t in trained)
    runs = sum(noted("cli.run_experiment"))

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for key in PER_LAYER:
        fn, _, stat = key.rpartition(".")
        if stat == "calls":
            m[key] = calls[fn]
        elif stat == "self_s":
            m[key] = self_ns[fn] / 1e9
    m.update({
        "linalg.svd.calls_per_run": ratio(svd_in_run, runs),
        "linalg.svd.ms_p50": median(svd_ms) if svd_ms else 0.0,
        "linalg.svd.distinct_input_ratio": ratio(len(svd_inputs), len(svd_ms)),
        "adapters.effective_weight.calls_per_step":
            ratio(calls_in_train["adapters.effective_weight"], layer_steps),
        "grad.param_grads.calls_per_step": ratio(calls_in_train["grad.param_grads"], layer_steps),
        "grad.direction_gradient.calls_per_step":
            ratio(calls_in_train["grad.direction_gradient"], magnitude_steps),
        "grad.grad_check.failed": sum(noted("grad.grad_check")),
        "trainer.step_us.p50": median(steps_us) if steps_us else 0.0,
        "trainer.step_us.p99": percentile(steps_us, 99) if steps_us else 0.0,
        "cli.write_metrics_csv.bytes": sum(noted("cli.write_metrics_csv")),
    })
    samples = {"linalg.svd.ms_p50": len(svd_ms), "trainer.step_us.p50": len(steps_us),
               "trainer.step_us.p99": len(steps_us)}
    return m, samples
