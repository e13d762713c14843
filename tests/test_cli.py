import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import peftlab
from peftlab import adapters, cli, linalg, trainer
from peftlab.cli import (
    ConfigError,
    compare,
    main,
    read_matrix_csv,
    run_experiment,
    validate_config,
)
from peftlab.linalg import svd

BASE_CONFIG = {
    "task": "teacher_student",
    "method": "dude",
    "d": 8,
    "k": 8,
    "r_true": 2,
    "sigma": 0.01,
    "rank": 2,
    "steps": 40,
    "batch": 4,
    "eval_every": 10,
    "seeds": [42, 78],
}


def write_config(tmp_path, name="config.json", **overrides):
    cfg = dict(BASE_CONFIG)
    cfg.update(overrides)
    cfg.setdefault("out_dir", str(tmp_path / "out"))
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def write_summary(dir_path, method, final_losses, first_seed=0):
    dir_path.mkdir(parents=True, exist_ok=True)
    runs = [
        {"method": method, "seed": i, "final_loss": loss, "best_eval": None, "steps": 10}
        for i, loss in enumerate(final_losses, start=first_seed)
    ]
    (dir_path / "summary.json").write_text(
        json.dumps({"format_version": 1, "method": method, "config": {}, "runs": runs})
    )


# ---------------------------------------------------------------------------
# config validation

def test_validate_fills_defaults():
    # Every default, as README's config table states it (lr None: 1e-3 for
    # adam, 1e-2 for sgd).
    cfg = validate_config({"task": "teacher_student", "method": "dude", "out_dir": "x"})
    assert cfg == {
        "task": "teacher_student", "method": "dude", "out_dir": "x",
        "d": 16, "k": 16, "r_true": 2, "sigma": 0.01, "rank": 2, "scaling": 1.0,
        "lr": None, "steps": 500, "batch": 8, "warmup_frac": 0.03, "scheduler": "cosine",
        "optimizer": "adam", "seeds": [42, 78, 512, 1234, 3407], "eval_every": 50,
    }


def test_validate_returns_a_seed_list_of_its_own():
    raw = {"task": "teacher_student", "method": "dude", "out_dir": "x"}
    validate_config(raw)["seeds"].append(7)
    assert validate_config(raw)["seeds"] == [42, 78, 512, 1234, 3407]


def test_validate_full_ignores_rank_limit():
    cfg = validate_config(dict(BASE_CONFIG, out_dir="x", method="full", rank=9))
    assert cfg["rank"] == 9


def test_validate_rejects_unknown_key():
    with pytest.raises(ConfigError, match="'momentum'"):
        validate_config(dict(BASE_CONFIG, out_dir="x", momentum=0.9))


def test_validate_requires_out_dir():
    cfg = {k: v for k, v in BASE_CONFIG.items()}
    with pytest.raises(ConfigError, match="'out_dir'"):
        validate_config(cfg)


def test_validate_scalar_seed_becomes_seed_list():
    cfg = {k: v for k, v in BASE_CONFIG.items() if k != "seeds"}
    cfg.update(out_dir="x", seed=7)
    assert validate_config(cfg)["seeds"] == [7]


# ---------------------------------------------------------------------------
# run subcommand

def test_run_writes_metrics_and_summary(tmp_path):
    path = write_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    out = tmp_path / "out"
    for seed in (42, 78):
        lines = (out / f"metrics_{seed}.csv").read_text().splitlines()
        assert lines[0] == "step,loss,grad_norm,lr,eval"
        assert len(lines) == 1 + BASE_CONFIG["steps"]
        # eval column blank off-cadence, populated on cadence
        row2 = lines[2].split(",")
        row10 = lines[10].split(",")
        assert row2[4] == ""
        assert row10[4] != ""
    summary = json.loads((out / "summary.json").read_text())
    assert summary["format_version"] == 1
    assert summary["method"] == "dude"
    assert summary["config"]["steps"] == 40
    assert {r["seed"] for r in summary["runs"]} == {42, 78}
    for run in summary["runs"]:
        assert set(run) >= {"method", "seed", "final_loss", "best_eval", "steps"}
        assert math.isfinite(run["final_loss"])


def test_run_twice_is_byte_identical(tmp_path):
    p1 = write_config(tmp_path, name="c1.json", out_dir=str(tmp_path / "a"))
    p2 = write_config(tmp_path, name="c2.json", out_dir=str(tmp_path / "b"))
    assert main(["run", "--config", str(p1)]) == 0
    assert main(["run", "--config", str(p2)]) == 0
    for seed in (42, 78):
        b1 = (tmp_path / "a" / f"metrics_{seed}.csv").read_bytes()
        b2 = (tmp_path / "b" / f"metrics_{seed}.csv").read_bytes()
        assert b1 == b2


def test_run_unknown_method_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, method="qlora")
    assert main(["run", "--config", str(path)]) == 1
    assert "'method'" in capsys.readouterr().err


def test_run_oversized_rank_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, rank=9)
    assert main(["run", "--config", str(path)]) == 1
    assert "'rank'" in capsys.readouterr().err


def test_run_checks_r_true_against_the_shape_for_teacher_student_only(tmp_path, capsys):
    # cluster_classify never reads r_true, so the default of 2 is no error at
    # d = 3, k = 1; the teacher-student task still rejects it there.
    small = dict(d=3, k=1, rank=1, steps=2, seeds=[42])
    path = write_config(tmp_path, task="cluster_classify", **small)
    assert main(["run", "--config", str(path)]) == 0
    path = write_config(tmp_path, "ts.json", task="teacher_student", **small)
    assert main(["run", "--config", str(path)]) == 1
    assert "'r_true'" in capsys.readouterr().err


def test_run_numeric_failure_exits_2_naming_step(tmp_path, capsys):
    path = write_config(tmp_path, method="full", lr=1e12, optimizer="sgd",
                        scheduler="constant", seeds=[42])
    with np.errstate(all="ignore"):
        code = main(["run", "--config", str(path)])
    assert code == 2
    assert "step" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, argv, field", [
    ({"sigma": math.inf}, [], "sigma"),
    ({"scaling": math.inf}, [], "scaling"),
    ({"lr": math.inf}, [], "lr"),
    ({}, ["--lr", "inf"], "lr"),
    ({"sigma": 10**400}, [], "sigma"),
], ids=["sigma", "scaling", "lr", "lr-flag", "sigma-huge-int"])
def test_run_non_finite_number_exits_1_naming_field(tmp_path, capsys, overrides, argv, field):
    # json.dumps writes math.inf as Infinity, which json.loads accepts back;
    # 10**400 stays an int there and overflows float conversion.
    path = write_config(tmp_path, **overrides)
    assert main(["run", "--config", str(path), *argv]) == 1
    assert f"'{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, field", [
    ({"rank": 1.5}, "rank"),
    ({"batch": True}, "batch"),
    ({"d": 2.5}, "d"),
    ({"rank": 9}, "rank"),
    ({"seeds": [42, -1]}, "seeds"),
    ({"seeds": [42, 78, 42]}, "seeds"),
], ids=["AdapterConfig", "TrainConfig", "make_task", "initialize", "validate_config",
        "repeated-seed"])
def test_run_bad_value_exits_1_before_any_output(tmp_path, capsys, overrides, field):
    # Each value is checked by the library constructor that takes it; the run
    # must still fail before it trains or writes anything.
    path = write_config(tmp_path, **overrides)
    assert main(["run", "--config", str(path)]) == 1
    assert f"'{field}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("method, r_true, calls", [
    (m, r, 1) for m in ("pissa", "dude", "dude_a", "dude_b") for r in (0, 2)
] + [("lora", 2, 1), ("lora", 0, 0), ("full", 0, 0)])
def test_run_factors_w0_at_most_once(tmp_path, monkeypatch, method, r_true, calls):
    # make_task factors w0 for the teacher (r_true > 0) with the Jacobi, and
    # make_model hands the factors on; without a teacher, only an
    # SVD-initialized method factors, with svd.
    seen = []

    def counting(name, factor):
        def counted(w):
            seen.append(name)
            return factor(w)
        return counted

    for module in (linalg, adapters, cli):
        monkeypatch.setattr(module, "svd", counting("svd", svd))
    monkeypatch.setattr(trainer, "_jacobi_svd", counting("jacobi", linalg._jacobi_svd))
    path = write_config(tmp_path, method=method, r_true=r_true, seeds=[42], steps=2)
    run_experiment(path)
    assert seen == ([] if calls == 0 else ["jacobi" if r_true > 0 else "svd"])


def test_run_trains_each_seeds_model_once_in_seed_order(tmp_path, monkeypatch):
    # perfbench wraps cli.make_model and cli.train: it counts tc.steps per
    # train call and looks up the base it snapshotted at make_model by
    # id(model), so every seed's model must reach cli.train once, positionally.
    made, trained = [], []
    real_make_model, real_train = cli.make_model, cli.train

    def recording_make_model(*args, **kwargs):
        model = real_make_model(*args, **kwargs)
        seed = inspect.signature(real_make_model).bind(*args, **kwargs).arguments["seed"]
        made.append((seed, model))
        return model

    def recording_train(*args, **kwargs):
        trained.append((args, kwargs))
        return real_train(*args, **kwargs)

    monkeypatch.setattr(cli, "make_model", recording_make_model)
    monkeypatch.setattr(cli, "train", recording_train)
    seeds = [78, 42]
    run_experiment(write_config(tmp_path, seeds=seeds, steps=3))
    assert [seed for seed, _ in made] == seeds
    assert len(trained) == len(seeds)
    for (seed, model), (args, kwargs) in zip(made, trained):
        assert kwargs == {} and len(args) == 3
        assert args[0] is model
        assert isinstance(args[1], trainer.Task) and args[1].seed == seed
        assert (args[2].seed, args[2].steps) == (seed, 3)


def test_failed_rerun_leaves_no_summary_for_compare(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, method="lora"))]) == 0
    assert (out / "summary.json").is_file()
    path = write_config(tmp_path, name="rerun.json", lr=1e300, optimizer="sgd",
                        scheduler="constant", seeds=[42])
    with np.errstate(all="ignore"):
        assert main(["run", "--config", str(path)]) == 2
    capsys.readouterr()
    assert main(["compare", str(out), "--out", str(tmp_path / "c.csv")]) == 1
    assert "missing summary file" in capsys.readouterr().err


def test_interrupted_artifact_writes_keep_the_previous_files(tmp_path, monkeypatch):
    # Every artifact goes to a temporary file that os.replace moves into
    # place; when the write or the move fails, the old file stays whole.
    def fail_replace(src, dst):
        raise OSError("disk full")

    path = write_config(tmp_path, seeds=[42])
    assert main(["run", "--config", str(path)]) == 0
    out = tmp_path / "out"
    compare_path = tmp_path / "c.csv"
    assert main(["compare", str(out), "--out", str(compare_path)]) == 0
    artifacts = [out / "metrics_42.csv", out / "summary.json", compare_path]
    before = {p: p.read_bytes() for p in artifacts}

    monkeypatch.setattr(os, "replace", fail_replace)
    assert main(["compare", str(out), "--out", str(compare_path)]) == 1
    with pytest.raises(OSError, match="disk full"):
        cli.write_metrics_csv(out / "metrics_42.csv", [])
    monkeypatch.undo()
    # A lone surrogate cannot be encoded: the write itself raises partway.
    with pytest.raises(UnicodeEncodeError):
        cli._write_atomic(out / "summary.json", '{"runs": []}\ud800')
    assert {p: p.read_bytes() for p in artifacts} == before
    assert not list(tmp_path.rglob("*.tmp"))


def test_interrupted_summary_write_keeps_no_stale_summary(tmp_path, monkeypatch):
    path = write_config(tmp_path, seeds=[42])
    assert main(["run", "--config", str(path)]) == 0
    real_replace = os.replace

    def fail_on_summary(src, dst):
        if Path(dst).name == "summary.json":
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", fail_on_summary)
    assert main(["run", "--config", str(path)]) == 1
    # The rerun removed the old summary before training; the failed write
    # left neither a new one nor a temporary file.
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["metrics_42.csv"]


def test_run_overrides_take_precedence(tmp_path):
    path = write_config(tmp_path, out_dir=str(tmp_path / "ov"))
    artifact = run_experiment(path, {"seed": 7, "method": "lora", "rank": 1, "lr": 0.005})
    assert artifact.config["seeds"] == [7]
    assert artifact.config["method"] == "lora"
    assert artifact.config["rank"] == 1
    assert artifact.config["lr"] == 0.005
    assert (tmp_path / "ov" / "metrics_7.csv").exists()


def test_run_missing_config_exits_1(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
    assert "not found" in capsys.readouterr().err


def test_cli_usage_error_exits_1():
    assert main(["run"]) == 1  # missing --config
    assert main(["frobnicate"]) == 1


# ---------------------------------------------------------------------------
# compare subcommand

def test_compare_two_runs_by_hand(tmp_path, capsys):
    write_summary(tmp_path / "r1", "lora", [1.0])
    write_summary(tmp_path / "r2", "lora", [3.0], first_seed=1)
    out = tmp_path / "cmp.csv"
    rows = compare([tmp_path / "r1", tmp_path / "r2"], out)
    assert rows == [{
        "method": "lora",
        "mean_final_loss": 2.0,
        "std_final_loss": 1.0,  # population std
        "best_final_loss": 1.0,
        "worst_final_loss": 3.0,
        "n_seeds": 2,
    }]
    lines = out.read_text().splitlines()
    assert lines[0].startswith("method,mean_final_loss,std_final_loss")
    assert lines[1].startswith("lora,2,1,1,3,2")
    # The table printed by the subcommand has the CSV's header.
    capsys.readouterr()
    assert main(["compare", str(tmp_path / "r1"), str(tmp_path / "r2"), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == lines[0] == cli.COMPARE_HEADER


def test_compare_creates_the_output_directory(tmp_path, capsys):
    write_summary(tmp_path / "r1", "lora", [1.0])
    out = tmp_path / "new" / "deeper" / "cmp.csv"
    assert main(["compare", str(tmp_path / "r1"), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == cli.COMPARE_HEADER
    assert sorted(p.name for p in out.parent.iterdir()) == ["cmp.csv"]


def test_compare_single_run_has_zero_std(tmp_path):
    write_summary(tmp_path / "solo", "dude", [0.25])
    rows = compare([tmp_path / "solo"], tmp_path / "cmp.csv")
    assert rows[0]["std_final_loss"] == 0.0
    assert rows[0]["n_seeds"] == 1


def test_compare_rows_sorted_by_method(tmp_path):
    write_summary(tmp_path / "rb", "lora", [1.0])
    write_summary(tmp_path / "ra", "dora", [2.0])
    write_summary(tmp_path / "rc", "dude", [3.0])
    rows = compare([tmp_path / "rb", tmp_path / "ra", tmp_path / "rc"], tmp_path / "cmp.csv")
    assert [r["method"] for r in rows] == ["dora", "dude", "lora"]


def test_compare_missing_summary_names_path(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    code = main(["compare", str(tmp_path / "empty"), "--out", str(tmp_path / "c.csv")])
    assert code == 1
    assert str(tmp_path / "empty" / "summary.json") in capsys.readouterr().err


@pytest.mark.parametrize("mutate, message", [
    (lambda s: s.update(format_version=99), "format_version 99"),
    (lambda s: s["runs"][0].update(final_loss=math.nan), "'final_loss' must be finite"),
    (lambda s: s["runs"][0].update(final_loss="abc"), "'final_loss' must be a number"),
    (lambda s: s["runs"][0].pop("seed"), "lacks method/seed/final_loss"),
    (lambda s: s["runs"][0].update(seed=[1]), "'seed' must be an integer"),
], ids=["format-version", "nan-loss", "string-loss", "no-seed", "list-seed"])
def test_compare_rejects_bad_summary_naming_file(tmp_path, capsys, mutate, message):
    write_summary(tmp_path / "r", "lora", [1.0])
    path = tmp_path / "r" / "summary.json"
    data = json.loads(path.read_text())
    mutate(data)
    path.write_text(json.dumps(data))  # writes NaN, which json.loads reads back
    assert main(["compare", str(tmp_path / "r"), "--out", str(tmp_path / "c.csv")]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and message in err
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("second, seed", [("a", 0), ("b", 1)], ids=["same-dir", "other-dir"])
def test_compare_rejects_a_run_counted_twice(tmp_path, capsys, second, seed):
    # Counting one (method, seed) twice would shrink the std and inflate n_seeds.
    write_summary(tmp_path / "a", "lora", [1.0, 2.0])
    write_summary(tmp_path / "b", "lora", [5.0], first_seed=1)
    code = main(["compare", str(tmp_path / "a"), str(tmp_path / second),
                 "--out", str(tmp_path / "c.csv")])
    assert code == 1
    first, again = tmp_path / "a" / "summary.json", tmp_path / second / "summary.json"
    assert f"method 'lora' seed {seed} appears in both {first} and {again}" \
        in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


def test_compare_corrupt_summary_names_path(tmp_path, capsys):
    d = tmp_path / "bad"
    d.mkdir()
    (d / "summary.json").write_text("{not json")
    assert main(["compare", str(d), "--out", str(tmp_path / "c.csv")]) == 1
    assert "summary.json" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gradcheck subcommand

def gradcheck_argv(method="dude", d=5, k=4, rank=2, seed=0):
    return ["gradcheck", "--method", method, "--d", str(d), "--k", str(k), "--rank", str(rank),
            "--seed", str(seed)]


def test_gradcheck_dude_passes(capsys):
    assert main(gradcheck_argv(seed=42)) == 0
    out = capsys.readouterr().out
    assert "gradcheck PASS (tolerance 1e-05)" in out.splitlines()
    assert "max relative error" in out


def test_gradcheck_all_methods_pass():
    # Beside 6 x 5, shapes at which the FD oracle's 128 KiB chunks cover part
    # of an array (at rank 1 each scalar of b has a row of its own), which
    # tests/test_determinism.py also runs at one and two BLAS threads.
    for d, k, rank, seed in [(6, 5, 2, 3), (64, 256, 8, 1), (256, 64, 8, 1),
                             (32, 257, 8, 1), (64, 256, 1, 1)]:
        for method in adapters.METHODS:
            assert main(gradcheck_argv(method, d, k, rank, seed)) == 0, (method, d, k, rank)


def test_gradcheck_invalid_dims_exit_1(capsys):
    assert main(gradcheck_argv(d=0)) == 1
    assert "field 'd' must be >= 1, got 0" in capsys.readouterr().err
    assert main(gradcheck_argv(k=-1)) == 1
    assert "field 'k' must be >= 1, got -1" in capsys.readouterr().err
    assert main(gradcheck_argv(seed=-1)) == 1
    assert "field 'seed' must be >= 0, got -1" in capsys.readouterr().err


def test_gradcheck_bad_method_exit_1():
    assert main(gradcheck_argv("nope")) == 1


def test_gradcheck_oversized_rank_exit_1():
    assert main(gradcheck_argv("lora", 4, 4, 5)) == 1


# ---------------------------------------------------------------------------
# svd subcommand

def svd_main(tmp_path, text, rank, out="f"):
    """Write text to tmp_path / "m.csv" and run `peftlab svd` on it with the
    output prefix tmp_path / out; the exit code."""
    (tmp_path / "m.csv").write_text(text)
    return main(["svd", "--in", str(tmp_path / "m.csv"), "--rank", str(rank),
                 "--out", str(tmp_path / out)])


def test_svd_identity_full_rank_residual_zero(tmp_path):
    assert svd_main(tmp_path, "1,0\n0,1\n", 2, "fac") == 0
    residual = float((tmp_path / "fac_residual.txt").read_text())
    assert residual <= 1e-10
    u = read_matrix_csv(tmp_path / "fac_U.csv")
    v = read_matrix_csv(tmp_path / "fac_V.csv")
    sigma = [float(s) for s in (tmp_path / "fac_sigma.csv").read_text().split()]
    assert u.shape == (2, 2) and v.shape == (2, 2)
    assert sigma == [1.0, 1.0]


def test_svd_rank_one_residual_is_sigma_two(tmp_path):
    sigma2 = math.sqrt(15.0 - math.sqrt(221.0))
    # The second prefix lies in directories that do not exist yet.
    for out in ("fac", "new/deeper/fac"):
        assert svd_main(tmp_path, "1,2\n3,4\n", 1, out) == 0
        residual = float((tmp_path / f"{out}_residual.txt").read_text())
        assert residual == pytest.approx(sigma2, rel=1e-10)
    assert sorted(p.name for p in (tmp_path / "new" / "deeper").iterdir()) == [
        "fac_U.csv", "fac_V.csv", "fac_residual.txt", "fac_sigma.csv"]


def test_svd_non_numeric_cell_names_location(tmp_path, capsys):
    assert svd_main(tmp_path, "1,2\n3,oops\n", 1) == 1
    err = capsys.readouterr().err
    assert "row 2" in err and "column 2" in err


def test_svd_ragged_rows_exit_1(tmp_path, capsys):
    assert svd_main(tmp_path, "1,2\n3\n", 1) == 1
    assert "ragged" in capsys.readouterr().err


def test_svd_rank_out_of_range_exit_1(tmp_path, capsys):
    assert svd_main(tmp_path, "1,2\n3,4\n", 3) == 1
    assert "field 'rank' must be <= 2, got 3" in capsys.readouterr().err
    assert svd_main(tmp_path, "1,2\n3,4\n", 0) == 1
    assert "field 'rank' must be >= 1, got 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "m.csv"]


def test_svd_tiny_column_exits_0_with_orthonormal_factors(tmp_path):
    # A column 1e-160 times smaller than the others defeats the Jacobi's
    # convergence test, but not LAPACK's, which the svd subcommand calls.
    w = np.random.default_rng(0).standard_normal((5, 3))
    w[:, 2] *= 1e-160
    text = "".join(",".join(repr(float(x)) for x in row) + "\n" for row in w)
    assert svd_main(tmp_path, text, 2) == 0
    for name in ("U", "V"):
        f = read_matrix_csv(tmp_path / f"f_{name}.csv")
        assert np.abs(f.T @ f - np.eye(2)).max() <= 1e-12, name


def test_svd_lapack_failure_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch):
    # np.linalg.LinAlgError is a ValueError, which would exit 1; svd raises
    # NumericError instead, and no factor file is written.
    def failing_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    assert svd_main(tmp_path, "1,2\n3,4\n", 1) == 2
    assert "SVD did not converge" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "m.csv"]


def test_svd_overflowing_singular_value_exits_2_and_writes_nothing(tmp_path, capsys):
    # Finite entries whose sigma_1, sqrt(6) * 1e308, is not.
    assert svd_main(tmp_path, "1e308,1e308,1e308\n1e308,1e308,1e308\n", 1) == 2
    assert "overflows float64" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "m.csv"]


def test_svd_of_large_entries_writes_a_finite_residual(tmp_path):
    # Entries whose squares overflow float64 while the residual does not.
    w = np.array([[1e200, -2e200, 3e200], [-3e200, 1e200, 2e200]])
    text = "".join(",".join(repr(float(x)) for x in row) + "\n" for row in w)
    assert svd_main(tmp_path, text, 1) == 0
    residual = float((tmp_path / "f_residual.txt").read_text())
    sigma2 = np.linalg.svd(w / 1e200, compute_uv=False)[1] * 1e200
    assert math.isfinite(residual)
    assert residual == pytest.approx(sigma2, rel=1e-10)


def test_read_matrix_rejects_nan_text(tmp_path):
    src = tmp_path / "m.csv"
    src.write_text("1,nan\n")
    with pytest.raises(ConfigError, match="non-finite"):
        read_matrix_csv(src)


# ---------------------------------------------------------------------------
# module entry point

def run_module(argv):
    """`python -m peftlab argv` in a fresh process: (exit code, stdout bytes,
    stderr bytes). It runs the same package this process imported,
    installed or not."""
    src = str(Path(peftlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "peftlab", *argv],
                          capture_output=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_python_dash_m_entry_point():
    code, out, err = run_module(gradcheck_argv("pissa", 4, 4, 2, seed=1))
    assert code == 0, err
    assert b"PASS" in out


USAGE_ERROR = ["gradcheck", "--method", "dude", "--d", "5"]  # no --k, --rank


def main_in_process(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err.encode()


def test_main_builds_its_parser_once_per_process(capsys):
    cli._build_parser.cache_clear()
    argvs = [gradcheck_argv(seed=42), USAGE_ERROR, gradcheck_argv(seed=7), USAGE_ERROR,
             gradcheck_argv(seed=42)]
    results = [main_in_process(argv, capsys) for argv in argvs]
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 4)
    # A repeated argv gives what its first call gave; another seed does not.
    assert results[0] == results[4]
    assert results[1] == results[3]
    assert results[0] != results[2]
    assert results[0][0] == 0 and results[1][0] == 1


def test_repeated_main_calls_match_fresh_processes(capsys, monkeypatch):
    # Help and usage lines wrap at the terminal width; pin it for both sides.
    monkeypatch.setenv("COLUMNS", "80")
    argvs = [USAGE_ERROR, ["--help"], gradcheck_argv(seed=42), USAGE_ERROR]
    in_process = [main_in_process(argv, capsys) for argv in argvs]
    fresh = [run_module(argv) for argv in argvs]
    assert [r[0] for r in fresh] == [1, 0, 0, 1]
    assert in_process == fresh
