"""Regenerate reference.json: the final loss and eval scores of every run the
benchmark makes, from the current sources.

    python3 perfbench/make_reference.py

Only regenerate when a change is meant to alter training results, and say so;
the benchmark fails any run that drifts from these values by more than
REL_TOL relative.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(HERE.parent / "src"))
    import peftlab.cli as cli
    from workloads import RUN_SETTINGS, invoke, read_run_csv, run_ops

    refs = {}
    scratch = HERE.parent / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for workload in RUN_SETTINGS:
            refs[workload] = {}
            for op in run_ops(workload):
                out_dir = Path(tmp) / workload / op.method
                config_path = Path(tmp) / f"{workload}-{op.method}.json"
                config_path.write_text(json.dumps(dict(op.config, out_dir=str(out_dir))))
                code, _, _ = invoke(cli.main, ["run", "--config", str(config_path)])
                if code != 0:
                    print(f"error: {workload} {op.method} exited {code}", file=sys.stderr)
                    return 1
                refs[workload][op.method] = {}
                for seed in op.seeds:
                    final, evals = read_run_csv((out_dir / f"metrics_{seed}.csv").read_text())
                    refs[workload][op.method][str(seed)] = {"final_loss": final, "evals": evals}
                print(f"{workload} {op.method}: {len(op.seeds)} seeds")
    (HERE / "reference.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
