"""Span tracing by rebinding module-level names, and the statistics the
benchmark reports.

A traced function is replaced, in every namespace that holds it, by a wrapper
that records one span per call: name, start, end (perf_counter_ns), parent
span and run id. Spans live in flat in-memory arrays and are written once, at
exit. The package under test is not modified; `Patch.restore` undoes every
rebinding.

numpy is imported inside functions only: the benchmark pins BLAS threads
before numpy loads.
"""

from __future__ import annotations

import functools
import statistics
import time
from array import array


def median(values):
    return statistics.median(values)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, p: float):
    """Nearest-rank percentile, p in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


class Patch:
    """Rebinds names in modules or classes and restores them afterwards."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, replacement) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def replace(self, namespaces, original, replacement) -> None:
        """Rebind every name in `namespaces` that refers to `original`."""
        for owner in namespaces:
            for name, value in list(vars(owner).items()):
                if value is original:
                    self.set(owner, name, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class Tracer:
    """In-memory span recorder for single-threaded code.

    Span i is allocated when its call starts, so spans are numbered in start
    order and a parent always precedes its children. `notes[i]` holds what a
    wrapper's `note(args, kwargs, result)` returned for span i.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("q")
        self.end = array("q")
        self.notes: dict[int, object] = {}
        self.run_id = 0
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, note=None):
        nid = self.name_id(name)
        names, parents, runs = self.name, self.parent, self.run
        starts, ends, notes, stack = self.start, self.end, self.notes, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                notes[idx] = note(args, kwargs, result)
            return result

        return traced


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    Spans must be in start order. Overlapping children are merged, and a
    child reaching outside its parent counts only inside the parent.
    """
    n = len(start)
    covered = [0] * n
    reach = list(start)
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def write_spans(path, tracers) -> None:
    """Write the spans of every tracer (one per traced pass) to one .npz file."""
    import numpy as np

    names = sorted({n for t in tracers for n in t.names})
    cols = {"pass": [], "name": [], "run": [], "parent": [], "start_ns": [], "end_ns": []}
    for k, t in enumerate(tracers):
        remap = [names.index(n) for n in t.names]
        cols["pass"].append(np.full(len(t), k, dtype=np.int32))
        cols["name"].append(np.asarray([remap[i] for i in t.name], dtype=np.int16))
        cols["run"].append(np.frombuffer(t.run, dtype=np.int32))
        cols["parent"].append(np.frombuffer(t.parent, dtype=np.int32))
        cols["start_ns"].append(np.frombuffer(t.start, dtype=np.int64))
        cols["end_ns"].append(np.frombuffer(t.end, dtype=np.int64))
    arrays = {key: np.concatenate(parts) if parts else np.zeros(0) for key, parts in cols.items()}
    np.savez_compressed(path, names=np.asarray(names), **arrays)


# Calibration kernels, and the seconds each takes at unit speed (a fast
# state of a 2-vCPU Xeon VM with one BLAS thread). The machine's speed drift
# slows interpreter-bound code and 256-wide array arithmetic differently, so
# each workload is timed against the kernel that resembles its own work.


def _interpreter_kernel() -> float:
    """Interpreter work and small numpy calls, like a d=16 training step."""
    import numpy as np

    small, vec = np.full((16, 16), 0.01), np.ones((16, 8))
    big, block = np.full((256, 256), 1e-3), np.ones((256, 32))
    acc = 0.0
    for i in range(800):
        acc += float(np.linalg.norm(small @ vec, axis=0)[0])
        for j in range(20):
            acc += (i ^ j) & 3
    for _ in range(16):
        acc += float((big @ block)[0, 0])
    return acc


def _blas_kernel() -> float:
    """A 256-wide magnitude/direction weight and a batched matmul, like a
    d=256 training step."""
    import numpy as np

    base, m = np.full((256, 256), 1e-3), np.ones(256)
    b, a, block = np.ones((256, 8)), np.ones((8, 256)), np.ones((256, 32))
    acc = 0.0
    for _ in range(24):
        v = base + b @ a
        w = v * (m / (np.linalg.norm(v, axis=0) + 1e-12))
        acc += float((w @ block)[0, 0])
    return acc


KERNELS = {"interpreter": (_interpreter_kernel, 0.01), "blas": (_blas_kernel, 0.01)}


def slowdown(kernel: str, repeats: int) -> float:
    """How much slower than unit speed the machine runs a calibration kernel
    right now (median of `repeats` timings)."""
    fn, unit_s = KERNELS[kernel]
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return median(samples) / unit_s
