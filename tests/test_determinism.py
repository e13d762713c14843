"""Bits do not depend on the BLAS thread count: SVD factors, training
records and CLI output hash the same at one and at two threads."""

import os
import subprocess
import sys
from pathlib import Path

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


def digest_at(threads: int) -> str:
    src = str(Path(peftlab.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, env=env, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_bits_do_not_depend_on_the_blas_thread_count():
    one = digest_at(1)
    assert len(one) == 64
    assert digest_at(2) == one
