"""Acceptance suite: one test per release criterion.

Each test prints a single `[criterion N] label: PASS/FAIL (elapsed)` line so
the whole gate can be read off `pytest tests/test_acceptance.py -s`. The
tolerances and runtime budgets are pinned here and are not negotiable
elsewhere in the suite.
"""

import json
import math
import time

import numpy as np

from peftlab.adapters import (
    METHODS,
    NORM_EPSILON,
    AdapterConfig,
    effective_weight,
    forward,
    initialize,
    merge,
    step_cache,
    trainable_params,
)
from peftlab.cli import compare, main
from peftlab.grad import GRAD_CHECK_TOLERANCE, direction_gradient, grad_check
from peftlab.linalg import frobenius_norm, svd, truncate_svd
from peftlab.trainer import DEFAULT_SEEDS, TrainConfig, make_model, make_task, train

ADAPTER_METHODS = tuple(m for m in METHODS if m != "full")
GRAD_SHAPES = ((2, 2), (5, 4), (4, 7), (16, 16))


def report(number: int, label: str, ok: bool, started: float, budget: float | None = None):
    elapsed = time.perf_counter() - started
    print(f"[criterion {number}] {label}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s budget ({elapsed:.2f}s)"
    return elapsed


def rel_frob(a, b):
    return frobenius_norm(a - b) / max(1.0, frobenius_norm(b))


def test_criterion_1_svd_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    ok = True
    for _ in range(200):
        d = int(rng.integers(1, 17))
        k = int(rng.integers(1, 17))
        w = rng.standard_normal((d, k))
        f = svd(w)
        p = min(d, k)
        recon = (f.u * f.sigma) @ f.v.T
        ok &= rel_frob(recon, w) <= 1e-10
        ok &= np.abs(f.u.T @ f.u - np.eye(p)).max() <= 1e-10
        ok &= np.abs(f.v.T @ f.v - np.eye(p)).max() <= 1e-10
        r = int(rng.integers(1, p + 1))
        t = truncate_svd(f, r)
        lhs = frobenius_norm(w - (t.u * t.sigma) @ t.v.T) ** 2
        rhs = float((f.sigma[r:] ** 2).sum())
        ok &= abs(lhs - rhs) <= 1e-8 * max(rhs, 1e-12 * frobenius_norm(w) ** 2)
    report(1, "svd reconstruction/orthogonality/eckart-young on 200 matrices", ok, started, 10.0)
    assert ok


def test_criterion_2_init_equivalence():
    # The magnitude methods' column-norm guard, on which the 1e-10 below
    # depends, is a module constant: pin it here so it cannot grow unseen.
    assert NORM_EPSILON == 1e-12
    started = time.perf_counter()
    rng = np.random.default_rng(1002)
    ok = True
    for _ in range(100):
        d = int(rng.integers(2, 17))
        k = int(rng.integers(2, 17))
        r = int(rng.integers(1, min(d, k) + 1))
        w0 = rng.standard_normal((d, k))
        for method in METHODS:
            state = initialize(w0, AdapterConfig(method, r, seed=int(rng.integers(0, 2**31))))
            if rel_frob(effective_weight(state), w0) > 1e-10:
                ok = False
    report(2, "all seven methods reproduce the base weight at init", ok, started, 5.0)
    assert ok


def _grad_cases():
    for d, k in GRAD_SHAPES:
        for r in sorted({1, 2, min(d, k)}):
            for seed in (0, 1, 2):
                yield d, k, r, seed


def test_criterion_3_gradient_oracle():
    # grad_check's tolerance is a module constant: pin it at this criterion's 1e-5.
    assert GRAD_CHECK_TOLERANCE == 1e-5
    started = time.perf_counter()
    ok = True
    worst = 0.0
    for d, k, r, seed in _grad_cases():
        rng = np.random.default_rng(10_000 + 97 * seed + d * 31 + k * 7 + r)
        w0 = rng.standard_normal((d, k)) / np.sqrt(k)
        for method in METHODS:
            state = initialize(w0, AdapterConfig(method, r, seed=seed))
            report_ = grad_check(state, seed=seed + 5)
            worst = max(worst, max(report_.errors.values()))
            ok &= report_.passed
    print(f"    worst gradient error across {4 * 3 * 3 * len(METHODS)} cases: {worst:.3e}")
    report(3, "analytic gradients match central differences at 1e-5", ok, started, 30.0)
    assert ok


def _direction_gradient(state, v, g):
    """h = dL/dv for g = dL/dW', built column by column from the coefficients
    c that direction_gradient returns: h_j = (m_j / n_j) g_j - c_j v_j."""
    n = np.linalg.norm(v, axis=0) + NORM_EPSILON
    c = direction_gradient(step_cache(state), (v * g).sum(axis=0))
    return (state.m / n) * g - c * v


def test_criterion_4_projection_property():
    started = time.perf_counter()
    rng = np.random.default_rng(1004)
    ok = True
    for i in range(100):
        method = ("dude", "dora")[i % 2]
        d = int(rng.integers(1, 13))
        k = int(rng.integers(2, 13))
        r = int(rng.integers(1, min(d, k) + 1))
        w0 = rng.standard_normal((d, k))
        state = initialize(w0, AdapterConfig(method, r, seed=i))
        for _, arr in trainable_params(state):
            arr += 0.1 * rng.standard_normal(arr.shape)
        x = rng.standard_normal(k)
        gy = rng.standard_normal(d)
        g = np.outer(gy, x)
        v = state.base + state.config.scaling * (state.b @ state.a)
        h = _direction_gradient(state, v, g)
        for j in range(k):
            # Relative to (m_j / n_j) * ||g_j||, the scale of h_j's rounding
            # error: at d = 1 the exact h_j is 0, so ||h_j|| is that error.
            n_j = np.linalg.norm(v[:, j]) + NORM_EPSILON
            scale = abs(state.m[j]) / n_j * np.linalg.norm(g[:, j])
            bound = 1e-10 * np.linalg.norm(v[:, j]) * scale
            if abs(float(v[:, j] @ h[:, j])) > max(bound, 1e-30):
                ok = False
    report(4, "direction gradients orthogonal to their columns", ok, started, 5.0)
    assert ok


def test_criterion_5_frozen_residual():
    started = time.perf_counter()
    ok = True
    for method in ADAPTER_METHODS:
        task = make_task("teacher_student", 8, 8, r_true=2, sigma=0.01, seed=42)
        model = make_model(task, method, rank=2, seed=42)
        before = [layer.state.base.tobytes() for layer in model.layers]
        train(model, task, TrainConfig(steps=500, batch_size=4, seed=42))
        after = [layer.state.base.tobytes() for layer in model.layers]
        ok &= before == after
    report(5, "bases bit-identical after 500 training steps", ok, started)
    assert ok


def test_criterion_6_convergence_trend():
    started = time.perf_counter()
    means = {}
    for method in ("full", "lora", "dora", "dude"):
        finals = []
        for seed in DEFAULT_SEEDS:
            task = make_task("teacher_student", 16, 16, r_true=2, sigma=0.01, seed=seed)
            model = make_model(task, method, rank=2, seed=seed)
            cfg = TrainConfig(steps=600, batch_size=8, base_lr=2e-3, optimizer="adam",
                              scheduler="cosine", warmup_frac=0.03, eval_every=100,
                              seed=seed)
            finals.append(train(model, task, cfg)[-1].loss)
        means[method] = float(np.mean(finals))
    for method, mean in sorted(means.items(), key=lambda kv: kv[1]):
        print(f"    {method:5s} mean final loss over {len(DEFAULT_SEEDS)} seeds: {mean:.5g}")
    ok = (
        means["dude"] <= means["lora"]
        and means["dude"] <= means["dora"]
        and all(means["full"] <= means[m] for m in ("lora", "dora", "dude"))
    )
    report(6, "dude converges ahead of lora/dora, full ahead of adapters", ok, started, 120.0)
    assert ok, means


def test_criterion_7_variant_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(1007)
    ok = True
    for i in range(20):
        d = int(rng.integers(2, 13))
        k = int(rng.integers(2, 13))
        r = int(rng.integers(1, min(d, k) + 1))
        w0 = rng.standard_normal((d, k))
        states = {
            m: initialize(w0, AdapterConfig(m, r, seed=i))
            for m in ("dude", "dude_a", "dude_b")
        }
        reference = states["dude"].b @ states["dude"].a
        for m, state in states.items():
            ok &= rel_frob(state.b @ state.a, reference) <= 1e-10
            ok &= rel_frob(effective_weight(state), w0) <= 1e-10  # criterion 2
            ok &= grad_check(state, seed=i).passed  # criterion 3
            v = state.base + state.b @ state.a
            g = np.outer(rng.standard_normal(d), rng.standard_normal(k))
            h = _direction_gradient(state, v, g)
            for j in range(k):  # criterion 4
                bound = 1e-10 * np.linalg.norm(v[:, j]) * np.linalg.norm(h[:, j])
                ok &= abs(float(v[:, j] @ h[:, j])) <= max(bound, 1e-30)
    report(7, "dude variants share B@A and satisfy criteria 2-4", ok, started)
    assert ok


def test_criterion_8_determinism(tmp_path):
    started = time.perf_counter()
    config = {
        "task": "teacher_student", "method": "dude", "d": 8, "k": 8,
        "r_true": 2, "sigma": 0.01, "rank": 2, "steps": 50, "batch": 4,
        "eval_every": 10, "seeds": [42, 78],
    }
    paths = {}
    for tag in ("a", "b"):
        cfg = dict(config, out_dir=str(tmp_path / tag))
        cfg_path = tmp_path / f"cfg_{tag}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 0
        paths[tag] = tmp_path / tag
    ok = all(
        (paths["a"] / f"metrics_{seed}.csv").read_bytes()
        == (paths["b"] / f"metrics_{seed}.csv").read_bytes()
        for seed in (42, 78)
    )

    for i, loss in enumerate((1.0, 3.0)):
        d = tmp_path / f"hand_{i}"
        d.mkdir()
        (d / "summary.json").write_text(json.dumps({
            "format_version": 1, "method": "lora", "config": {},
            "runs": [{"method": "lora", "seed": i, "final_loss": loss,
                      "best_eval": None, "steps": 10}],
        }))
    rows = compare([tmp_path / "hand_0", tmp_path / "hand_1"], tmp_path / "cmp.csv")
    ok &= rows[0]["mean_final_loss"] == 2.0 and rows[0]["std_final_loss"] == 1.0
    report(8, "byte-identical reruns and exact compare statistics", ok, started)
    assert ok


def test_criterion_9_merge_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(1009)
    ok = True
    for i in range(100):
        method = METHODS[i % len(METHODS)]
        d = int(rng.integers(2, 13))
        k = int(rng.integers(2, 13))
        r = int(rng.integers(1, min(d, k) + 1))
        w0 = rng.standard_normal((d, k))
        state = initialize(w0, AdapterConfig(method, r, seed=i))
        for _, arr in trainable_params(state):
            arr += 0.1 * rng.standard_normal(arr.shape)
        merged = merge(state)
        x = rng.standard_normal(k)
        y = forward(state, x)
        if np.abs(y - merged @ x).max() > 1e-10 * max(1.0, float(np.abs(y).max())):
            ok = False
    report(9, "forward through merged weight matches adapter forward", ok, started)
    assert ok
