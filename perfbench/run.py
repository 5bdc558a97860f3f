"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-pipeline --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). Exits 2 without a result when the program's sources are
not beside the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("paper-pipeline", "fleet-sparse", "schedule-drift", "serve-open-loop")


def cap_blas_threads() -> tuple[int, dict[str, str]]:
    """Cap BLAS threads at the CPUs this process may use (before numpy)."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in BLAS_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 0 < int(cur) <= nproc:
            os.environ[var] = str(nproc)
    return nproc, {var: os.environ[var] for var in BLAS_VARS}


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc, blas = cap_blas_threads()
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import numpy as np

    import repro
    from perfbench import workloads
    from perfbench.layers import PER_LAYER

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "blas_threads": blas,
        "worker_processes": 0,
    }
    print(json.dumps({"provenance": provenance}))
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    ctx = workloads.Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        work=work,
    )
    try:
        values = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        spec = PER_LAYER
        OUT.mkdir(exist_ok=True)
        for i, tracer in enumerate(ctx.tracers):
            tracer.dump(
                OUT / f"trace-{args.workload}-seed{args.seed}-{i}.jsonl",
                meta={**provenance, "written": time.time()},
            )
    else:
        spec = {name: (unit, better) for name, (unit, better, _) in workloads.END_TO_END.items()}
        values["peak_rss_mb"] = workloads.peak_rss_mb()
    metrics = {}
    for name, (unit, better) in spec.items():
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:32s} {value:>16.6g} {unit:8s} ({better} is better)")
    for note in ctx.notes:
        print(f"failed check: {note}")
    print(
        json.dumps(
            {
                "correct": ctx.failed == 0,
                "attempted": max(ctx.attempted, 1),
                "failed": ctx.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
