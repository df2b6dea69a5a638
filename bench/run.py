"""Benchmark entry point for planar3rrr.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): census, fk_sweep,
path_monitor, octree_algebra. Each is a closed loop with one caller: the
next call starts when the previous one returns.

The workload runs in a fresh child process (``worker.py``) with BLAS pinned
to one thread and the checkout's ``src`` on the import path; this process
imports nothing but the standard library, so the children's peak RSS is the
workload's own. Everything is written below ``.bench_out/`` in the checkout:
the report of each run goes to ``.bench_out/reports/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, measured untraced:

* ``setup_s``: package import plus the median (the mean) of two set-ups;
* ``peak_rss_mib``: peak RSS of the child process;
* ``ok_rate``: share of attempted operations and checks that passed;
* ``call_p50_ms``: median latency of one workload call (one ``aspects``
  call, one ``forward_kinematics`` call, one CLI ``trajectory`` call, one
  octree algebra pass);
* ``call_tail_ms``: the highest percentile of call latency with at least ten
  calls beyond it (p99 from 1000 calls, p90 from 100, else the median); the
  report names it and gives the sample count;
* ``work_per_s``: work items of one pass over the median pass time (pose
  cells, FK calls, path samples, octree leaves).

The times are given at the reference speed of ``worker.py``'s calibration
kernel (see there); the report keeps the raw wall times as well.

With ``--trace 1`` they are the per-layer metrics of ``worker.PER_LAYER``.
Exits non-zero without printing a result when the run cannot be made, for
instance when ``src/planar3rrr`` is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
WORKLOADS = ("census", "fk_sweep", "path_monitor", "octree_algebra")
CHILD_TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="planar3rrr benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "planar3rrr" / "__init__.py").is_file():
        print("bench: no src/planar3rrr in this checkout", file=sys.stderr)
        return 2
    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
    )
    cmd = [
        sys.executable,
        str(ROOT / "bench" / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(out),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"bench: worker exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"bench: worker exited with {proc.returncode}", file=sys.stderr)
        return 4
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        print("bench: worker printed no result", file=sys.stderr)
        return 5
    result = json.loads(lines[-1])
    report = result.pop("report")
    # ru_maxrss is in KiB on Linux; the worker is the only child waited for.
    rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    report["peak_rss_mib"] = rss_mib
    if not args.trace:
        result["metrics"]["peak_rss_mib"] = {"value": rss_mib, "unit": "MiB"}
    report.update({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})
    reports = OUT / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(reports / name, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
