"""The benchmark's workloads and the pass that drives one through the CLI.

A plan is built from the workload name and the benchmark seed. Every pass of
a run executes the same plan through `peftlab.cli.main`, in one process, and
checks every output:

- each `cli.main` call returns 0;
- each run seed's final loss and eval scores match `reference.json` within
  REL_TOL (relative);
- each adapter base is bit-identical to its init after training;
- each gradcheck prints PASS;
- trend16's comparison orders as full < dude < lora, dora;
- every pass writes byte-identical metrics CSVs (so a traced pass matches an
  untraced one).

An operation is one run seed or one gradcheck. It fails on a nonzero exit,
an exception, or a failed check of its own output.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import peftlab.cli as cli

from tracing import Patch

REL_TOL = 1e-12
METHODS = ("full", "lora", "dora", "pissa", "dude", "dude_a", "dude_b")

_COMMON = {"scaling": 1.0, "warmup_frac": 0.03, "scheduler": "cosine", "optimizer": "adam"}

# Run settings per workload: (config with its seeds, methods). Every method
# runs the same seeds, as a comparison does; trend16 runs the program's
# default five-seed suite, the one its order check is claimed for. Run seeds
# are fixed so that every run of a workload does the same work (the Jacobi
# SVD's sweep count depends on the matrix) and reference.json holds every
# result. Each method is also gradchecked once per run seed, at the config's
# d x k and rank (for wide256 that is the output layer's shape).
RUN_SETTINGS = {
    "trend16": (
        dict(_COMMON, task="teacher_student", d=16, k=16, r_true=2, rank=2, sigma=0.01,
             lr=2e-3, steps=600, batch=8, eval_every=50, seeds=[42, 78, 512, 1234, 3407]),
        ("full", "lora", "dora", "dude")),
    "svd_init64": (
        dict(_COMMON, task="teacher_student", d=64, k=64, r_true=4, rank=4, sigma=0.01,
             lr=2e-3, steps=200, batch=8, eval_every=50, seeds=[42]),
        ("pissa", "dude", "dude_a", "dude_b")),
    "wide256": (
        dict(_COMMON, task="cluster_classify", d=64, k=256, r_true=0, rank=8, sigma=4.0,
             lr=2e-3, steps=150, batch=32, eval_every=50, seeds=[42, 78]),
        ("lora", "dora")),
    # Short runs of every method beside the grid, so training is measured here too.
    "gradcheck_grid": (
        dict(_COMMON, task="teacher_student", d=8, k=8, r_true=2, rank=2, sigma=0.01,
             lr=2e-3, steps=200, batch=8, eval_every=100, seeds=[42]),
        METHODS),
}

# Gradcheck grid shapes (d, k): tall, wide, square; every rank 1..min(d, k).
GRID_SHAPES = ((32, 8), (8, 32), (12, 12))

# Calibration kernel per workload (see tracing.KERNELS and _Segments):
# wide256 spends its time in 256-wide BLAS calls and array arithmetic, the
# others in the interpreter and small numpy calls.
KERNEL = {"trend16": "interpreter", "svd_init64": "interpreter", "wide256": "blas",
          "gradcheck_grid": "interpreter"}

WHY = {
    "trend16": "README convergence comparison at d=k=16: per-step Python dispatch in "
               "trainer/grad/adapters, the 16x16 SVD a minority share",
    "svd_init64": "SVD-initialized methods at d=k=64 with short training: set-up bound "
                  "by the Jacobi SVD, trainer nearly idle",
    "wide256": "two-layer cluster_classify, 256 inputs, rank 8, batch 32: BLAS-sized "
               "magnitude recompute, cross-entropy, zero SVDs",
    "gradcheck_grid": "gradcheck of all seven methods on tall/wide/square shapes at every "
                      "rank: thousands of single-vector forwards from the FD oracle",
}


@dataclass(frozen=True)
class RunOp:
    """One `peftlab run` of one method over a list of seeds."""

    method: str
    config: dict

    @property
    def seeds(self) -> list[int]:
        return self.config["seeds"]


@dataclass(frozen=True)
class GradcheckOp:
    method: str
    d: int
    k: int
    rank: int
    seed: int

    def argv(self) -> list[str]:
        return ["gradcheck", "--method", self.method, "--d", str(self.d), "--k", str(self.k),
                "--rank", str(self.rank), "--seed", str(self.seed)]


@dataclass
class Plan:
    workload: str
    runs: list[RunOp]
    gradchecks: list[GradcheckOp]
    trend_order: bool = False


def run_ops(workload: str) -> list[RunOp]:
    """One `peftlab run` per method of the workload, in canonical order."""
    config, methods = RUN_SETTINGS[workload]
    return [RunOp(m, dict(config, method=m)) for m in methods]


def make_plan(workload: str, seed: int) -> Plan:
    """The workload's operations, drawn from the benchmark seed: the order of
    the runs and of the gradchecks, and, for gradcheck_grid, the seed from
    which each `peftlab gradcheck` draws its matrix and probe vectors."""
    if workload not in RUN_SETTINGS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(RUN_SETTINGS)}")
    rng = random.Random(f"{workload}:{seed}")
    config, methods = RUN_SETTINGS[workload]
    runs = run_ops(workload)
    rng.shuffle(runs)
    if workload == "gradcheck_grid":
        checks = [GradcheckOp(m, d, k, r, rng.randrange(2**31))
                  for d, k in GRID_SHAPES for m in METHODS
                  for r in (range(1, min(d, k) + 1) if m != "full" else [1])]
    else:
        checks = [GradcheckOp(m, config["d"], config["k"], config["rank"], s)
                  for m in methods for s in config["seeds"]]
    rng.shuffle(checks)
    return Plan(workload, runs, checks, trend_order=workload == "trend16")


# ---------------------------------------------------------------------------
# one pass

@dataclass
class Tally:
    """Operations attempted and failed, with a reason per failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problem: str | None = None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)


TIMES = ("wall_s", "setup_s", "train_s", "gradcheck_s")

# Least length of a calibration segment, in seconds, and the number of
# calibration readings each is smoothed over (see _Segments).
SEGMENT_S = 0.3
SMOOTH = 5


@dataclass
class PassResult:
    """One pass: measured seconds (`raw`), the same at unit machine speed
    (`norm`), counts, and the outcome of every check."""

    raw: dict = field(default_factory=lambda: dict.fromkeys(TIMES, 0.0))
    norm: dict = field(default_factory=lambda: dict.fromkeys(TIMES, 0.0))
    train_steps: int = 0
    gradchecks: int = 0
    tally: Tally = field(default_factory=Tally)
    drift: float = 0.0
    drift_values: int = 0
    checks_failed: list[str] = field(default_factory=list)
    csv: dict = field(default_factory=dict)  # (method, seed) -> metrics CSV text


class _Segments:
    """Converts measured times to unit machine speed.

    The machine's speed drifts by tens of percent within seconds. Operations
    are grouped into segments of at least SEGMENT_S; the calibration kernel
    (`slowdown`) is timed between segments, never inside an operation. One
    reading samples only a few milliseconds, so each is smoothed to the
    median of the SMOOTH readings around it, and a segment's times are
    divided by the mean smoothed reading at its two ends.
    """

    def __init__(self, result: PassResult, slowdown):
        self.result = result
        self.slowdown = slowdown or (lambda: 1.0)
        self.readings = [self.slowdown()]
        self.closed: list[dict] = []
        self.open = dict.fromkeys(TIMES, 0.0)
        self.since = time.perf_counter()

    def add(self, key: str, seconds: float) -> None:
        self.open[key] += seconds
        self.result.raw[key] += seconds

    def close(self, force: bool = False) -> None:
        if not force and time.perf_counter() - self.since < SEGMENT_S:
            return
        self.readings.append(self.slowdown())
        self.closed.append(self.open)
        self.open = dict.fromkeys(TIMES, 0.0)
        self.since = time.perf_counter()

    def finish(self) -> None:
        self.close(force=True)
        r, half = self.readings, SMOOTH // 2
        smooth = [statistics.median(r[max(0, j - half):j + half + 1]) for j in range(len(r))]
        for i, segment in enumerate(self.closed):
            factor = (smooth[i] + smooth[i + 1]) / 2
            for key, seconds in segment.items():
                self.result.norm[key] += seconds / factor


def invoke(main, argv: list[str]) -> tuple[int | None, str, float]:
    """Call main(argv) with stdout captured: (exit code, or None if it
    raised; captured stdout; seconds)."""
    out = io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    except Exception:
        traceback.print_exc()
        code = None
    return code, out.getvalue(), time.perf_counter() - started


class _Probes:
    """Light wrappers on the CLI's setup and training entry points, installed
    in every pass: set-up and training time, step counts, and a snapshot of
    each adapter base to compare after training."""

    def __init__(self, result: PassResult, segments: _Segments):
        self.result = result
        self.segments = segments
        self.bases: dict[int, list[bytes]] = {}
        self.base_changed: set[tuple[str, int]] = set()
        self._patch = Patch()

    def install(self) -> None:
        for name in ("make_task", "make_model", "initialize"):
            self._patch.set(cli, name, self._timed_setup(vars(cli)[name], name == "make_model"))
        self._patch.set(cli, "train", self._timed_train(vars(cli)["train"]))

    def restore(self) -> None:
        self._patch.restore()

    def _timed_setup(self, fn, snapshot: bool):
        def probe(*args, **kwargs):
            started = time.perf_counter()
            out = fn(*args, **kwargs)
            self.segments.add("setup_s", time.perf_counter() - started)
            if snapshot:
                self.bases[id(out)] = [layer.state.base.tobytes() for layer in out.layers]
            return out
        return probe

    def _timed_train(self, fn):
        def probe(model, task, tc):
            started = time.perf_counter()
            out = fn(model, task, tc)
            self.segments.add("train_s", time.perf_counter() - started)
            self.result.train_steps += tc.steps
            before = self.bases.pop(id(model))
            after = [layer.state.base.tobytes() for layer in model.layers]
            method = model.layers[0].state.method
            if method != "full" and before != after:
                self.base_changed.add((method, tc.seed))
            return out
        return probe


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref) if ref != 0.0 else abs(value)


def read_run_csv(text: str) -> tuple[float, list[float]]:
    """(final loss, eval scores) of a metrics CSV."""
    rows = [line.split(",") for line in text.splitlines()[1:]]
    return float(rows[-1][1]), [float(r[4]) for r in rows if r[4]]


def reference_drift(ref: dict, text: str) -> tuple[float, int]:
    """Max relative difference of a metrics CSV's final loss and evals from
    its reference entry, and the number of values compared."""
    final, evals = read_run_csv(text)
    if len(evals) != len(ref["evals"]):
        return float("inf"), 1 + len(evals)
    pairs = [(final, ref["final_loss"])] + list(zip(evals, ref["evals"]))
    return max(_rel(v, r) for v, r in pairs), len(pairs)


def run_pass(plan: Plan, refs: dict, workdir: Path, baseline: dict | None,
             main=None, on_op=None, slowdown=None) -> PassResult:
    """Execute every operation of `plan` once and check its outputs.

    `baseline` is the first pass's CSV texts, which this pass's must equal;
    without one, this pass keeps its own in `result.csv`.
    `main` defaults to the current `peftlab.cli.main` (looked up per call,
    so a traced rebinding takes effect); `on_op(i)` is called before each.
    `slowdown()` measures the machine's current speed (see _Segments); by
    default every time counts as measured.
    """
    main = main or (lambda argv: cli.main(argv))
    result = PassResult()
    tally = result.tally
    segments = _Segments(result, slowdown)
    probes = _Probes(result, segments)
    probes.install()
    workdir.mkdir(parents=True)
    op_index = 0
    try:
        run_dirs = []
        for op in plan.runs:
            out_dir = workdir / op.method
            config_path = workdir / f"{op.method}.json"
            config_path.write_text(json.dumps(dict(op.config, out_dir=str(out_dir))))
            segments.close()
            if on_op:
                on_op(op_index)
            op_index += 1
            code, _, seconds = invoke(main, ["run", "--config", str(config_path)])
            segments.add("wall_s", seconds)
            run_dirs.append(str(out_dir))
            for seed in op.seeds:
                problem = _check_run_seed(plan, op, seed, code, out_dir, refs, baseline,
                                          probes, result)
                tally.record(f"run {op.method} seed {seed}: {problem}" if problem else None)
        if plan.runs:
            _compare(plan, run_dirs, workdir, main, result, segments)
        for check in plan.gradchecks:
            segments.close()
            if on_op:
                on_op(op_index)
            op_index += 1
            code, out, seconds = invoke(main, check.argv())
            segments.add("wall_s", seconds)
            segments.add("gradcheck_s", seconds)
            result.gradchecks += 1
            passed = code == 0 and "gradcheck PASS" in out
            tally.record(None if passed else
                         f"gradcheck {' '.join(check.argv()[1:])}: exit {code}, no PASS")
        segments.finish()
    finally:
        probes.restore()
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def _check_run_seed(plan: Plan, op: RunOp, seed: int, code, out_dir: Path, refs: dict,
                    baseline: dict | None, probes: _Probes, result: PassResult) -> str | None:
    """What is wrong with one run seed's output, or None."""
    if code != 0:
        return f"exit {code}"
    try:
        text = (out_dir / f"metrics_{seed}.csv").read_text()
        ref = refs.get(plan.workload, {}).get(op.method, {}).get(str(seed))
        if ref is None:
            return "no reference value"
        drift, n = reference_drift(ref, text)
    except (OSError, ValueError, IndexError) as e:
        return f"unreadable metrics CSV: {e}"
    if baseline is None:
        result.csv[(op.method, seed)] = text  # kept by the first pass only
    result.drift = max(result.drift, drift)
    result.drift_values += n
    if not drift <= REL_TOL:
        return f"final loss/evals drift {drift:.3g} from reference"
    if (op.method, seed) in probes.base_changed:
        return "adapter base changed during training"
    if baseline is not None and baseline.get((op.method, seed)) != text:
        return "metrics CSV differs from the first pass"
    return None


def _compare(plan: Plan, run_dirs: list[str], workdir: Path, main, result: PassResult,
             segments: _Segments) -> None:
    out_path = workdir / "compare.csv"
    code, _, seconds = invoke(main, ["compare", *run_dirs, "--out", str(out_path)])
    segments.add("wall_s", seconds)
    if code != 0:
        result.checks_failed.append(f"compare: exit {code}")
        return
    try:
        rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
        mean = {r[0]: float(r[1]) for r in rows}
        n_seeds = {r[0]: int(r[5]) for r in rows}
    except (OSError, ValueError, IndexError) as e:
        result.checks_failed.append(f"compare: unreadable output: {e}")
        return
    expected = {op.method: len(op.seeds) for op in plan.runs}
    if n_seeds != expected:
        result.checks_failed.append(f"compare: seed counts {n_seeds}, expected {expected}")
    elif plan.trend_order and not (
            mean["full"] < mean["dude"] < mean["lora"] and mean["dude"] < mean["dora"]):
        result.checks_failed.append(f"trend order full < dude < lora, dora broken: {mean}")
