"""Command-line harness: seeded experiment runs, run comparison, gradient
checks, and SVD inspection.

Exit codes are a stable scripting contract: 0 success, 1 configuration or
input error (the message names the offending field or file), 2 numeric
failure (the message names the failing step).

`main(argv)` returns the exit code and may be called repeatedly in one
process; it builds its argument parser on the first call and reuses it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .adapters import AdapterConfig, initialize
from .grad import GRAD_CHECK_TOLERANCE, grad_check
from .linalg import ConfigError, NumericError, _check_int, _check_number
from .linalg import as_matrix, frobenius_norm, svd, truncate_svd
from .trainer import (
    DEFAULT_SEEDS,
    MetricsRecord,
    TrainConfig,
    make_model,
    make_task,
    summarize,
    train,
)

__all__ = ["ConfigError", "RunArtifact", "run_experiment", "compare", "main"]

FORMAT_VERSION = 1
METRICS_HEADER = "step,loss,grad_norm,lr,eval"
COMPARE_HEADER = "method,mean_final_loss,std_final_loss,best_final_loss,worst_final_loss,n_seeds"
_COMPARE_COLUMNS = COMPARE_HEADER.split(",")


def _fmt(x: float) -> str:
    # 17 significant digits round-trip any float64, keeping files byte-stable.
    return format(x, ".17g")


# ---------------------------------------------------------------------------
# experiment configs

# Config key -> TrainConfig field, which also gives the key's default.
_TRAIN_FIELDS = {"lr": "base_lr", "steps": "steps", "batch": "batch_size",
                 "warmup_frac": "warmup_frac", "scheduler": "scheduler",
                 "optimizer": "optimizer", "eval_every": "eval_every"}

_CONFIG_DEFAULTS = {
    "d": 16,
    "k": 16,
    "r_true": 2,
    "sigma": 0.01,
    "rank": 2,
    "scaling": 1.0,
    "seeds": list(DEFAULT_SEEDS),
    **{key: getattr(TrainConfig(), name) for key, name in _TRAIN_FIELDS.items()},
}

_REQUIRED_FIELDS = ("task", "method", "out_dir")


def load_config(path: str | Path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return raw


def validate_config(raw: dict) -> dict:
    """Reject unknown and missing keys, fill defaults, and check the seeds and
    out_dir. Every other field is checked by the library constructor that
    takes it: TrainConfig, make_task, AdapterConfig or initialize."""
    known = set(_CONFIG_DEFAULTS) | set(_REQUIRED_FIELDS) | {"seed"}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config field '{key}'")
    for key in _REQUIRED_FIELDS:
        if key not in raw:
            raise ConfigError(f"missing required config field '{key}'")
    # A list of its own: changing the result must not change the defaults.
    cfg = dict(_CONFIG_DEFAULTS, seeds=list(_CONFIG_DEFAULTS["seeds"]))
    cfg.update(raw)
    if "seed" in cfg:
        if "seeds" in raw:
            raise ConfigError("field 'seed' conflicts with 'seeds'; give one")
        seed = cfg.pop("seed")
        _check_int("seed", seed, 0)
        cfg["seeds"] = [seed]
    # Every seed is checked here, before the first one trains.
    seeds = cfg["seeds"]
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError(f"field 'seeds' must be a non-empty list of integers, got {seeds!r}")
    for seed in seeds:
        _check_int("seeds", seed, 0)
    # A repeated seed would overwrite its metrics file and count twice in compare.
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"field 'seeds' must not repeat a seed, got {seeds!r}")
    if not isinstance(cfg["out_dir"], str) or not cfg["out_dir"]:
        raise ConfigError(f"field 'out_dir' must be a non-empty string, got {cfg['out_dir']!r}")
    return cfg


def _write_atomic(path: Path, text: str) -> None:
    """Write text to path through a temporary file in the same directory and
    os.replace, so path holds its old or its new contents, never a part.
    Missing parent directories are created first."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_metrics_csv(path: Path, records: list[MetricsRecord]) -> None:
    lines = [METRICS_HEADER]
    for r in records:
        ev = _fmt(r.eval) if r.eval is not None else ""
        lines.append(f"{r.step},{_fmt(r.loss)},{_fmt(r.grad_norm)},{_fmt(r.lr)},{ev}")
    _write_atomic(path, "\n".join(lines) + "\n")


@dataclass
class RunArtifact:
    summary_path: Path
    config: dict


def run_experiment(config_path: str | Path, overrides: dict | None = None) -> RunArtifact:
    """Train once per seed and persist metrics_<seed>.csv plus summary.json."""
    raw = load_config(config_path)
    if overrides:
        if "seed" in overrides:
            raw.pop("seeds", None)  # a seed override replaces the whole suite
        raw.update(overrides)
    cfg = validate_config(raw)
    tc = TrainConfig(**{name: cfg[key] for key, name in _TRAIN_FIELDS.items()})
    out_dir = Path(cfg["out_dir"])
    summary_path = out_dir / "summary.json"

    run_entries = []
    for seed in cfg["seeds"]:
        task = make_task(cfg["task"], cfg["d"], cfg["k"], cfg["r_true"],
                         cfg["sigma"], seed=seed)
        model = make_model(task, cfg["method"], cfg["rank"], cfg["scaling"], seed=seed)
        # The library has now accepted every config value, so a bad one leaves
        # out_dir untouched. A stale summary from an earlier run must not
        # outlive a failing rerun, or compare would report it as current.
        summary_path.unlink(missing_ok=True)
        records = train(model, task, replace(tc, seed=seed))
        path = out_dir / f"metrics_{seed}.csv"
        write_metrics_csv(path, records)
        summary = summarize(records, higher_eval_is_better=model.loss == "cross_entropy")
        run_entries.append({"method": cfg["method"], "seed": seed, **asdict(summary)})
        print(f"seed {seed}: final_loss={summary.final_loss:.6g} -> {path}")

    payload = {
        "format_version": FORMAT_VERSION,
        "method": cfg["method"],
        "config": cfg,
        "runs": run_entries,
    }
    _write_atomic(summary_path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return RunArtifact(summary_path, cfg)


# ---------------------------------------------------------------------------
# comparison across runs

def _load_summary_runs(dir_path: Path) -> tuple[Path, list[dict]]:
    path = dir_path / "summary.json"
    if not path.is_file():
        raise ConfigError(f"missing summary file: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(f"corrupt summary file {path}: {e}") from e
    runs = data.get("runs") if isinstance(data, dict) else None
    if not isinstance(runs, list) or not runs:
        raise ConfigError(f"corrupt summary file {path}: missing 'runs' list")
    version = data.get("format_version")
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise ConfigError(f"summary file {path} has format_version {version!r}, "
                          f"expected {FORMAT_VERSION}")
    for entry in runs:
        if not isinstance(entry, dict) or not {"method", "seed", "final_loss"} <= entry.keys():
            raise ConfigError(f"corrupt summary file {path}: run entry lacks "
                              "method/seed/final_loss")
        try:
            _check_int("seed", entry["seed"], 0)
            _check_number("final_loss", entry["final_loss"])
        except ConfigError as e:
            raise ConfigError(f"corrupt summary file {path}: {e}") from None
    return path, runs


def compare(run_dirs: list[str | Path], out_path: str | Path) -> list[dict]:
    """Aggregate final losses per method across run dirs into one row per
    method, keyed by COMPARE_HEADER's columns (std is the population std).
    A (method, seed) pair found twice, in one summary file or two, is an
    error: it would count one run twice."""
    by_method: dict[str, list[float]] = {}
    seen: dict[tuple[str, int], Path] = {}
    for d in run_dirs:
        path, runs = _load_summary_runs(Path(d))
        for entry in runs:
            method, seed = str(entry["method"]), int(entry["seed"])
            if (method, seed) in seen:
                raise ConfigError(f"method {method!r} seed {seed} appears in both "
                                  f"{seen[method, seed]} and {path}")
            seen[method, seed] = path
            by_method.setdefault(method, []).append(float(entry["final_loss"]))
    rows = []
    for method in sorted(by_method):
        losses = np.asarray(by_method[method])
        stats = (losses.mean(), losses.std(), losses.min(), losses.max())
        rows.append(dict(zip(_COMPARE_COLUMNS, (method, *map(float, stats), losses.size))))
    lines = [COMPARE_HEADER] + [_compare_line(row, ".17g") for row in rows]
    _write_atomic(Path(out_path), "\n".join(lines) + "\n")
    return rows


def _compare_line(row: dict, spec: str) -> str:
    """row's values in COMPARE_HEADER's order, each float formatted by spec."""
    return ",".join(format(row[col], spec) if isinstance(row[col], float) else str(row[col])
                    for col in _COMPARE_COLUMNS)


# ---------------------------------------------------------------------------
# csv matrices for the svd subcommand

def read_matrix_csv(path: str | Path) -> np.ndarray:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"matrix file not found: {path}")
    rows: list[list[float]] = []
    with open(path, encoding="utf-8") as f:
        for i, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            vals = []
            for j, cell in enumerate(line.split(","), start=1):
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise ConfigError(
                        f"non-numeric value at row {i}, column {j}: {cell.strip()!r}"
                    ) from None
            if rows and len(vals) != len(rows[0]):
                raise ConfigError(
                    f"ragged csv at row {i}: {len(vals)} values, expected {len(rows[0])}"
                )
            rows.append(vals)
    if not rows:
        raise ConfigError(f"matrix file is empty: {path}")
    return as_matrix(rows, name=str(path))


def _write_matrix_csv(path: Path, w: np.ndarray) -> None:
    lines = [",".join(_fmt(v) for v in row) for row in w]
    _write_atomic(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_run(args) -> int:
    overrides = {key: getattr(args, key) for key in ("seed", "method", "rank", "lr")
                 if getattr(args, key) is not None}
    artifact = run_experiment(args.config, overrides)
    print(f"summary -> {artifact.summary_path}")
    return 0


def _cmd_compare(args) -> int:
    rows = compare(args.run_dirs, args.out)
    print("\n".join([COMPARE_HEADER] + [_compare_line(row, ".6g") for row in rows]))
    return 0


def _cmd_gradcheck(args) -> int:
    _check_int("d", args.d, 1)
    _check_int("k", args.k, 1)
    _check_int("seed", args.seed, 0)
    rng = np.random.default_rng(args.seed)
    w0 = rng.standard_normal((args.d, args.k)) / np.sqrt(args.k)
    state = initialize(w0, AdapterConfig(args.method, args.rank, seed=args.seed))
    report = grad_check(state, seed=args.seed + 1)
    for name, err in sorted(report.errors.items()):
        print(f"{name}: max relative error {err:.3e}")
    print(f"gradcheck {'PASS' if report.passed else 'FAIL'} "
          f"(tolerance {GRAD_CHECK_TOLERANCE:g})")
    return 0 if report.passed else 2


def _cmd_svd(args) -> int:
    w = read_matrix_csv(args.in_path)
    t = truncate_svd(svd(w), args.rank)
    prefix = Path(args.out_prefix)
    _write_matrix_csv(Path(f"{prefix}_U.csv"), t.u)
    _write_atomic(Path(f"{prefix}_sigma.csv"), "\n".join(_fmt(s) for s in t.sigma) + "\n")
    _write_matrix_csv(Path(f"{prefix}_V.csv"), t.v)
    residual = frobenius_norm(w - (t.u * t.sigma) @ t.v.T)
    _write_atomic(Path(f"{prefix}_residual.txt"), _fmt(residual) + "\n")
    print(f"rank-{args.rank} residual: {_fmt(residual)}")
    return 0


class _Parser(argparse.ArgumentParser):
    # Argparse exits with 2 on usage errors, which would collide with the
    # numeric-failure code; remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # --help shows the docstring without its last paragraph, which is for
    # Python callers of main.
    parser = _Parser(prog="peftlab", description=__doc__.rsplit("\n\n", 1)[0],
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment per seed")
    p_run.add_argument("--config", required=True, help="JSON experiment config")
    p_run.add_argument("--seed", type=int, default=None, help="override: single seed")
    p_run.add_argument("--method", default=None, help="override: adapter method")
    p_run.add_argument("--rank", type=int, default=None, help="override: adapter rank")
    p_run.add_argument("--lr", type=float, default=None, help="override: learning rate")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="tabulate mean/std of final losses across runs")
    p_cmp.add_argument("run_dirs", nargs="+", help="run directories with summary.json")
    p_cmp.add_argument("--out", required=True, help="output CSV path")
    p_cmp.set_defaults(func=_cmd_compare)

    p_gc = sub.add_parser("gradcheck", help="analytic vs finite-difference gradients")
    p_gc.add_argument("--method", required=True)
    p_gc.add_argument("--d", type=int, required=True)
    p_gc.add_argument("--k", type=int, required=True)
    p_gc.add_argument("--rank", type=int, required=True)
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.set_defaults(func=_cmd_gradcheck)

    p_svd = sub.add_parser("svd", help="decompose a CSV matrix and write the factors")
    p_svd.add_argument("--in", dest="in_path", required=True, help="matrix CSV, no header")
    p_svd.add_argument("--rank", type=int, required=True)
    p_svd.add_argument("--out", dest="out_prefix", required=True, help="output file prefix")
    p_svd.set_defaults(func=_cmd_svd)
    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code. May be called repeatedly
    in one process: the parser is built on the first call and reused, and
    `parse_args` keeps no state on it, so each call prints and returns what a
    fresh process would. `args.func` is the `_cmd_*` handler as bound at the
    first call; nothing rebinds the handlers."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
