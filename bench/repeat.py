"""Repeat benchmark runs: run-to-run spread and the identical-counts self-check.

    python3 bench/repeat.py --workload NAME
    python3 bench/repeat.py --workload NAME --same-seed 7 [--trace 1]

By default the workload runs once on each of the seeds 1 to 10 and, for each
metric, the median and the distance between the first and third quartiles
(``statistics.quantiles(n=4)``) as a share of the median are printed next to
the metric's bound from ``BENCHMARK.json``. With ``--same-seed S`` it runs
twice on seed S and fails unless both runs report identical deterministic
counts (and, traced, identical layer counters). The summary is also written
to ``.bench_out/repeat-<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True)
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    report_path = ROOT / ".bench_out" / "reports" / f"{workload}-seed{seed}-trace{trace}.json"
    with open(report_path, "r", encoding="utf-8") as fh:
        return result, json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--same-seed", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    summary = {"workload": args.workload, "trace": args.trace, "seconds": seconds}

    if args.same_seed is not None:
        runs = [run_once(args.workload, args.same_seed, seconds, args.trace) for _ in range(2)]
        keys = ["counts"] + (["trace_counters"] if args.trace else [])
        # Counters accumulate over the traced passes, whose number follows the clock.
        per_pass = [
            {k: (r[k] if k == "counts" else {c: v / r["traced_passes"] for c, v in r[k].items()})
             for k in keys}
            for _, r in runs
        ]
        same = per_pass[0] == per_pass[1] and all(res["correct"] for res, _ in runs)
        summary.update(seed=args.same_seed, identical=same, counts=per_pass)
        print(f"{args.workload} seed {args.same_seed}: counts "
              f"{'identical' if same else 'DIFFER'} across two runs")
    else:
        seeds = range(1, 11)
        values: dict[str, list[float]] = {}
        correct = True
        for seed in seeds:
            result, _ = run_once(args.workload, seed, seconds, args.trace)
            correct &= result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        stats = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                           "bound": bound, "values": vals}
            flag = "" if bound is None else ("ok" if spread < bound / 3 else
                                             "within bound" if spread <= bound else "TOO WIDE")
            print(f"{name:14s} median {med:12.6g}  spread {spread:6.4f}  bound {bound}  {flag}")
        summary.update(seeds=list(seeds), correct=correct, metrics=stats)
        same = correct
    out = ROOT / ".bench_out" / f"repeat-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
