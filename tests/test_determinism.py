"""Bits do not depend on the BLAS thread count: SVD factors, training
records and CLI output hash the same at one and at two threads. Across
OpenBLAS CPU kernels, the Jacobi's factors keep their bits and the
benchmark's reference numbers hold to 1e-13."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import peftlab

# Run in a fresh process, since BLAS reads its thread count when numpy loads.
# Prints one sha256 over the factors of svd (LAPACK) and make_task's Jacobi at
# four shapes and at a 256 x 64 input whose zero column and equal columns 0
# and 1 send two columns of the Jacobi's u through the QR completion; the
# records of 30-step runs of lora and dora (64 x 256 cluster_classify) and of
# dude (make_task's 64 x 64); and the stdout and files of cli.main for every
# method's gradcheck at the wide and tall shapes of tests/test_cli.py and for
# svd --rank 64 at 64 x 256. Each call must exit 0, as gradcheck does on PASS.
CHILD = """
import contextlib
import hashlib
import io
import tempfile
from pathlib import Path
import numpy as np
from peftlab.adapters import METHODS
from peftlab.cli import main
from peftlab.linalg import _jacobi_svd, svd
from peftlab.trainer import TrainConfig, make_model, make_task, train

digest = hashlib.sha256()
rng = np.random.default_rng(11)
inputs = [rng.standard_normal(shape) for shape in [(64, 64), (256, 64), (32, 257), (128, 128)]]
deficient = rng.standard_normal((256, 64))
deficient[:, 5] = 0.0
deficient[:, 1] = deficient[:, 0]
for factor in (svd, _jacobi_svd):
    for w in inputs + [deficient]:
        f = factor(w)
        for arr in (f.u, f.sigma, f.v):
            digest.update(arr.tobytes())
for kind, d, k, method, rank in [("cluster_classify", 64, 256, "dora", 8),
                                 ("cluster_classify", 64, 256, "lora", 8),
                                 ("teacher_student", 64, 64, "dude", 4)]:
    task = make_task(kind, d, k, r_true=4 if kind == "teacher_student" else 0, sigma=0.5, seed=3)
    model = make_model(task, method, rank, scaling=0.5, seed=3)
    records = train(model, task, TrainConfig(steps=30, batch_size=32, eval_every=10, seed=3))
    for r in records:
        fields = (r.loss, r.grad_norm, r.lr) + (() if r.eval is None else (r.eval,))
        digest.update(repr((r.step,) + tuple(float(f).hex() for f in fields)).encode())

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0, argv
    digest.update(out.getvalue().encode())

for d, k, rank in [(64, 256, 8), (256, 64, 8), (32, 257, 8), (64, 256, 1)]:
    for method in METHODS:
        run("gradcheck", "--method", method, "--d", str(d), "--k", str(k), "--rank", str(rank),
            "--seed", "1")
with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    np.savetxt(tmp / "w.csv", np.random.default_rng(0).standard_normal((64, 256)),
               delimiter=",", fmt="%.17g")
    run("svd", "--in", str(tmp / "w.csv"), "--rank", "64", "--out", str(tmp / "f"))
    for name in ("U.csv", "sigma.csv", "V.csv", "residual.txt"):
        digest.update((tmp / f"f_{name}").read_bytes())
print(digest.hexdigest())
"""


def run_child(code: str, **env: str) -> subprocess.CompletedProcess:
    """Run code in a fresh python whose environment adds env and puts this
    tree's peftlab first on the path."""
    src = str(Path(peftlab.__file__).resolve().parents[1])
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, text=True)


def digest_at(threads: int) -> str:
    proc = run_child(CHILD, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_bits_do_not_depend_on_the_blas_thread_count():
    one = digest_at(1)
    assert len(one) == 64
    assert digest_at(2) == one


# Runs every case of tests/test_reference.py with its tolerance tightened to
# CI smoke's 1e-13 headroom, and test_svd_digest_of_task_weight_is_pinned of
# tests/test_linalg.py for each of its SVD_DIGESTS, and prints one JSON line
# naming each check that failed.
KERNEL_CHILD = """
import json
import sys
sys.path.insert(0, {tests!r})
import test_linalg
import test_reference

test_reference.workloads.REL_TOL = 1e-13
checks = [(test_reference.test_training_matches_the_benchmark_reference, case)
          for case in test_reference.CASES]
checks += [(test_linalg.test_svd_digest_of_task_weight_is_pinned, (d,))
           for d in sorted(test_linalg.SVD_DIGESTS)]
failed = []
for check, args in checks:
    try:
        check(*args)
    except AssertionError as e:
        failed.append(f"{{check.__name__}}{{args}}: {{e}}")
print(json.dumps({{"checks": len(checks), "failed": failed}}))
"""


@pytest.mark.parametrize("kernel", ["Haswell", "Sandybridge"])
def test_reference_numbers_hold_on_another_blas_kernel(kernel):
    # OPENBLAS_CORETYPE picks the kernel of a DYNAMIC_ARCH OpenBLAS, which
    # OPENBLAS_VERBOSE=2 names on a "Core:" line of stderr as it loads.
    proc = run_child(KERNEL_CHILD.format(tests=str(Path(__file__).resolve().parent)),
                     OPENBLAS_CORETYPE=kernel, OPENBLAS_VERBOSE="2", OPENBLAS_NUM_THREADS="1")
    assert proc.returncode == 0, proc.stderr
    cores = [line.split(":", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("Core:")]
    if cores != [kernel]:
        pytest.skip(f"OPENBLAS_CORETYPE={kernel} did not select that kernel of numpy's BLAS "
                    f"(Core: lines {cores}); it needs a DYNAMIC_ARCH OpenBLAS")
    report = json.loads(proc.stdout)
    assert report["checks"] == 38
    assert not report["failed"], "\n".join(report["failed"])
