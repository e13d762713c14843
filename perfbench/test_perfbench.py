"""Tests for the benchmark's own code: aggregation, span self time, failure
counting, and that tracing changes no result."""

from __future__ import annotations

import json
import statistics
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracing import Patch, Tracer, percentile, quartiles, self_times  # noqa: E402


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
    q1, q2, q3 = quartiles(values)
    assert (q1, q2, q3) == (2.75, 5.5, 8.25)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert percentile(values, 99) == 99
    assert percentile(values, 50) == 50
    assert percentile(values, 100) == 100
    assert percentile([7], 99) == 7


def test_self_time_subtracts_nested_children():
    # root [0, 100] > a [10, 30], b [40, 70] > c [45, 50]
    start = [0, 10, 40, 45]
    end = [100, 30, 70, 50]
    parent = [-1, 0, 0, 2]
    assert self_times(start, end, parent) == [50, 20, 25, 5]


def test_self_time_merges_overlapping_and_clips_children():
    # Children [10, 30] and [20, 40] overlap; [90, 120] reaches past the parent.
    start = [0, 10, 20, 90]
    end = [100, 30, 40, 120]
    parent = [-1, 0, 0, 0]
    assert self_times(start, end, parent)[0] == 100 - 30 - 10


def test_tracer_records_tree_notes_and_run_ids():
    tracer = Tracer()
    inner = tracer.wrap("m.inner", lambda x: x * 2, note=lambda a, k, r: r)

    def outer(x):
        return inner(x) + inner(x + 1)

    outer = tracer.wrap("m.outer", outer)
    tracer.run_id = 7
    assert outer(1) == 6
    assert [tracer.names[i] for i in tracer.name] == ["m.outer", "m.inner", "m.inner"]
    assert list(tracer.parent) == [-1, 0, 0]
    assert list(tracer.run) == [7, 7, 7]
    assert tracer.notes == {1: 2, 2: 4}
    own = self_times(tracer.start, tracer.end, tracer.parent)
    assert sum(own) == tracer.end[0] - tracer.start[0]
    assert all(t >= 0 for t in own)


def test_patch_rebinds_every_alias_and_restores():
    def f():
        return "original"

    a, b = types.ModuleType("a"), types.ModuleType("b")
    a.f, b.g, b.other = f, f, len
    patch = Patch()
    patch.replace([a, b], f, lambda: "patched")
    assert a.f() == b.g() == "patched" and b.other is len
    patch.restore()
    assert a.f is f and b.g is f


def _fake_main(outcomes):
    """A stand-in for cli.main answering gradchecks from a script."""
    calls = iter(outcomes)

    def main(argv):
        outcome = next(calls)
        if outcome == "raise":
            raise RuntimeError("boom")
        print("gradcheck PASS (tolerance 1e-05)" if outcome == "pass" else "gradcheck FAIL")
        return 0 if outcome in ("pass", "silent-fail") else 2

    return main


def test_failure_counting(tmp_path, capsys):
    # A gradcheck fails on a nonzero exit, an exception, or output without PASS.
    checks = [workloads.GradcheckOp("lora", 3, 2, 1, s) for s in range(5)]
    plan = workloads.Plan("gradcheck_grid", runs=[], gradchecks=checks)
    main = _fake_main(["pass", "fail", "raise", "silent-fail", "pass"])
    result = workloads.run_pass(plan, refs={}, workdir=tmp_path / "p", baseline=None, main=main)
    assert (result.tally.attempted, result.tally.failed) == (5, 3)
    assert result.gradchecks == 5
    assert len(result.tally.problems) == 3
    assert "RuntimeError: boom" in capsys.readouterr().err


def test_reference_drift():
    text = "step,loss,grad_norm,lr,eval\n1,2.0,1,0.1,\n2,1.0,1,0.1,0.5\n"
    ref = {"final_loss": 1.0, "evals": [0.5]}
    assert workloads.reference_drift(ref, text) == (0.0, 2)
    drift, n = workloads.reference_drift({"final_loss": 1.0, "evals": [0.25]}, text)
    assert (drift, n) == (1.0, 2)
    assert workloads.reference_drift({"final_loss": 1.0, "evals": []}, text)[0] == float("inf")


def test_plan_depends_only_on_seed():
    a, b = workloads.make_plan("trend16", 3), workloads.make_plan("trend16", 3)
    assert a == b
    assert len(a.gradchecks) == 20
    assert {op.method for op in a.runs} == {"full", "lora", "dora", "dude"}
    grid = workloads.make_plan("gradcheck_grid", 3)
    assert len(grid.gradchecks) == 3 + 6 * (8 + 8 + 12)
    with pytest.raises(ValueError):
        workloads.make_plan("nope", 1)


def _library_reference(cfg: dict) -> dict:
    """Final loss and evals of a run config, computed with the library directly."""
    from peftlab.trainer import TrainConfig, make_model, make_task, train

    seed = cfg["seeds"][0]
    task = make_task(cfg["task"], cfg["d"], cfg["k"], cfg["r_true"], cfg["sigma"], seed=seed)
    model = make_model(task, cfg["method"], cfg["rank"], cfg["scaling"], seed=seed)
    records = train(model, task, TrainConfig(
        steps=cfg["steps"], batch_size=cfg["batch"], base_lr=cfg["lr"],
        optimizer=cfg["optimizer"], scheduler=cfg["scheduler"],
        warmup_frac=cfg["warmup_frac"], eval_every=cfg["eval_every"], seed=seed))
    evals = [r.eval for r in records if r.eval is not None]
    return {cfg["method"]: {str(seed): {"final_loss": records[-1].loss, "evals": evals}}}


def test_traced_pass_changes_no_result_and_counts_layers(tmp_path):
    config = dict(workloads.RUN_SETTINGS["wide256"][0], d=4, k=6, rank=2, steps=6,
                  eval_every=3, seeds=[42], method="dora")
    plan = workloads.Plan("tiny", runs=[workloads.RunOp("dora", config)],
                          gradchecks=[workloads.GradcheckOp("dude", 4, 3, 2, 1)])
    refs = {"tiny": _library_reference(config)}
    untraced = workloads.run_pass(plan, refs, tmp_path / "u", baseline=None)
    tracer = Tracer()
    patch = layers.install(tracer)
    try:
        traced = workloads.run_pass(plan, refs, tmp_path / "t", baseline=untraced.csv)
    finally:
        patch.restore()
    # The traced pass reproduced the untraced pass's CSV byte for byte.
    assert traced.tally.failed == untraced.tally.failed == 0
    assert (untraced.tally.attempted, untraced.drift) == (2, 0.0)
    metrics, _ = layers.pass_metrics(tracer)
    # Two dora layers: one param_grads and one direction_gradient per layer-step.
    assert metrics["grad.param_grads.calls_per_step"] == 1.0
    assert metrics["grad.direction_gradient.calls_per_step"] == 1.0
    assert metrics["trainer.evaluate.calls"] == 2
    assert metrics["linalg.svd.calls"] == 1  # the dude gradcheck's init only
    assert metrics["linalg.svd.calls_per_run"] == 0.0
    assert metrics["cli.write_metrics_csv.bytes"] == len(untraced.csv[("dora", 42)])
    assert metrics["trainer.step_us.p50"] > 0

    altered = {key: text + "\n" for key, text in untraced.csv.items()}
    differs = workloads.run_pass(plan, refs, tmp_path / "d", baseline=altered)
    assert differs.tally.failed == 1
    assert "differs from the first pass" in differs.tally.problems[0]


def test_reference_covers_every_run():
    refs = json.loads((HERE / "reference.json").read_text())
    for workload in workloads.RUN_SETTINGS:
        for op in workloads.run_ops(workload):
            assert set(refs[workload][op.method]) == {str(s) for s in op.seeds}


def test_benchmark_json_matches_the_code():
    import run

    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WHY)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == layers.PER_LAYER
