"""peftlab benchmark: drive one workload through `peftlab.cli.main` for a
fixed time, check every output, and print the metrics.

    python3 perfbench/run.py --workload trend16 --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a source checkout; the package is imported from
the checkout's `src/`. One process, one BLAS thread. The workload repeats in
passes until --seconds have elapsed (at least MIN_PASSES). --trace 0 reports
the end-to-end metrics (medians over passes); --trace 1 alternates untraced
and traced passes and reports the per-layer metrics (medians over traced
passes) plus the tracing overhead. A human-readable report comes first; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Scratch files go to `.perfbench_out/` in the checkout and
are removed at exit, except the traced run's spans, written there once at
exit as `spans_<workload>.npz`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

from tracing import Tracer, median, quartiles, slowdown, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_PASSES = 3  # passes per run; a traced run makes at least two of each kind
CAL_REPEATS = 5  # calibration kernel timings per machine-speed reading

# End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "train_steps_per_s": ("1/s", "higher"),
    "gradchecks_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pins": {var: os.environ[var] for var in THREAD_VARS},
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }


def measure(plan, refs, workdir: Path, seconds: float, trace: bool):
    """Run passes until `seconds` have elapsed; odd passes are traced when
    `trace`. Returns [(tracer or None, PassResult)]."""
    import layers
    from workloads import KERNEL, run_pass

    results = []
    baseline = None
    deadline = time.perf_counter() + seconds
    min_passes = 4 if trace else MIN_PASSES
    while len(results) < min_passes or time.perf_counter() < deadline:
        tracer = Tracer() if trace and len(results) % 2 == 1 else None
        patch = layers.install(tracer) if tracer is not None else None
        try:
            on_op = (lambda k: setattr(tracer, "run_id", k)) if tracer is not None else None
            result = run_pass(plan, refs, workdir / f"pass{len(results)}", baseline,
                              on_op=on_op,
                              slowdown=lambda: slowdown(KERNEL[plan.workload], CAL_REPEATS))
        finally:
            if patch:
                patch.restore()
        if baseline is None:
            baseline = result.csv
        results.append((tracer, result))
    return results


def _row(name, values, unit, note=""):
    q1, q2, q3 = quartiles(values)
    return f"  {name:42s} {q2:14.6g} {unit:6s} n={len(values):<6d} q1={q1:.6g} q3={q3:.6g}{note}"


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0  # nothing completed: a failed pass


def _series(passes, times):
    return {
        "wall_s": [times(r)["wall_s"] for r in passes],
        "setup_s": [times(r)["setup_s"] for r in passes],
        "train_steps_per_s": [_rate(r.train_steps, times(r)["train_s"]) for r in passes],
        "gradchecks_per_s": [_rate(r.gradchecks, times(r)["gradcheck_s"]) for r in passes],
    }


def end_to_end(results) -> tuple[dict, list[str]]:
    """Medians over untraced passes, at unit machine speed."""
    passes = [r for t, r in results if t is None]
    series = _series(passes, lambda r: r.norm)
    raw = _series(passes, lambda r: r.raw)
    series["peak_rss_mb"] = raw["peak_rss_mb"] = [
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
    metrics = {k: {"value": median(v), "unit": END_TO_END[k][0]} for k, v in series.items()}
    lines = [_row(k, v, END_TO_END[k][0], f" raw={median(raw[k]):.6g}")
             for k, v in series.items()]
    return metrics, lines


def per_layer(results) -> tuple[dict, list[str]]:
    """Medians over traced passes; times scaled to unit machine speed by each
    pass's ratio of normalized to measured wall time."""
    from layers import PER_LAYER, pass_metrics

    traced = []
    for tracer, r in results:
        if tracer is None:
            continue
        m, samples = pass_metrics(tracer)
        scale = r.norm["wall_s"] / r.raw["wall_s"]
        m = {k: v * scale if PER_LAYER[k][0] in ("s", "ms", "us") else v for k, v in m.items()}
        traced.append((m, samples, r))
    untraced_wall = [r.norm["wall_s"] for t, r in results if t is None]
    series = {key: [m[key] for m, _, _ in traced]
              for key in PER_LAYER if key != "trace.overhead_s"}
    overhead = median([r.norm["wall_s"] for _, _, r in traced]) - median(untraced_wall)
    metrics = {k: {"value": median(v), "unit": PER_LAYER[k][0]} for k, v in series.items()}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    lines = []
    for key, values in series.items():
        counts = [s[key] for _, s, _ in traced if key in s]
        note = f" ({sum(counts)} samples)" if counts else ""
        lines.append(_row(key, values, PER_LAYER[key][0], note))
    lines.append(f"  {'trace.overhead_s':42s} {overhead:14.6g} s      "
                 f"(median traced wall_s - median untraced wall_s, "
                 f"{len(traced)} + {len(untraced_wall)} passes)")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "peftlab" / "__init__.py").is_file():
        print(f"error: no peftlab sources under {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads its BLAS
    sys.path.insert(0, str(src))
    import peftlab

    if Path(peftlab.__file__).resolve().parent != (src / "peftlab").resolve():
        print(f"error: imported peftlab from {peftlab.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WHY, make_plan

    if args.workload not in WHY:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WHY)}",
              file=sys.stderr)
        return 2
    plan = make_plan(args.workload, args.seed)
    refs = json.loads((HERE / "reference.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        results = measure(plan, refs, workdir, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = [r for _, r in results]
    attempted = sum(r.tally.attempted for r in passes)
    failed = sum(r.tally.failed for r in passes)
    problems = [p for r in passes for p in r.tally.problems + r.checks_failed]
    drift = max(r.drift for r in passes)
    print(f"peftlab benchmark: workload {args.workload} ({WHY[args.workload]})")
    print("env " + json.dumps(environment(args.workload, args.seed), sort_keys=True))
    run_seeds = sum(len(op.seeds) for op in plan.runs)
    print(f"passes: {len(passes)}, operations per pass: {passes[0].tally.attempted} "
          f"({len(plan.gradchecks)} gradchecks, {run_seeds} run seeds)")
    if args.trace:
        metrics, lines = per_layer(results)
        spans = OUT_DIR / f"spans_{args.workload}.npz"
        write_spans(spans, [t for t, _ in results if t is not None])
        print(f"per-layer metrics (traced passes; spans in {spans}):")
    else:
        metrics, lines = end_to_end(results)
        print("end-to-end metrics (untraced passes):")
    print("\n".join(lines))
    print(f"  {'fail_frac':42s} {failed / attempted:14.6g} ratio  n={attempted} operations")
    print(f"  {'final_loss_rel_drift':42s} {drift:14.6g} rel    "
          f"n={sum(r.drift_values for r in passes)} values vs reference.json")
    for problem in problems[:20]:
        print(f"FAIL {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
