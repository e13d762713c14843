"""Every training run the benchmark makes, pinned to its stored numbers.

For each workload of perfbench/workloads.RUN_SETTINGS, each method trains
each run seed through the library, as `peftlab run` does, and its final loss
and every eval score must match perfbench/reference.json within the
benchmark's own relative tolerance, workloads.REL_TOL.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

from peftlab.trainer import TrainConfig, make_model, make_task, train  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())

CASES = [(workload, op.method, seed) for workload in workloads.RUN_SETTINGS
         for op in workloads.run_ops(workload) for seed in op.seeds]


@pytest.mark.parametrize("workload, method, seed", CASES)
def test_training_matches_the_benchmark_reference(workload, method, seed):
    cfg = workloads.RUN_SETTINGS[workload][0]
    task = make_task(cfg["task"], cfg["d"], cfg["k"], cfg["r_true"], cfg["sigma"], seed=seed)
    model = make_model(task, method, cfg["rank"], cfg["scaling"], seed=seed)
    records = train(model, task, TrainConfig(
        steps=cfg["steps"], batch_size=cfg["batch"], base_lr=cfg["lr"],
        optimizer=cfg["optimizer"], scheduler=cfg["scheduler"],
        warmup_frac=cfg["warmup_frac"], eval_every=cfg["eval_every"], seed=seed))
    ref = REFERENCE[workload][method][str(seed)]
    evals = [r.eval for r in records if r.eval is not None]
    assert len(evals) == len(ref["evals"])
    pairs = [(records[-1].loss, ref["final_loss"])] + list(zip(evals, ref["evals"]))
    drift = max(workloads._rel(value, want) for value, want in pairs)
    assert drift <= workloads.REL_TOL, drift
