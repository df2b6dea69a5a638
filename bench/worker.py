"""One benchmark run of one workload, in a process of its own.

Started by ``run.py`` with BLAS pinned to one thread and ``src`` on the
import path. Prints one JSON object (the result plus a ``report`` section) as
the last line of standard output.

Set-up is timed as the package import plus the median (the mean) of two
runs of the workload's ``setup()``. An untimed warm-up then runs the
workload's ``warmup_ops`` (by default the ops of one pass) in order until all
have run or ``WARMUP_S`` have passed (always at least one op), so that lazy
imports, allocator pools and caches are filled before any call is timed. The
timed loop then runs whole passes until ``--seconds`` have elapsed and at
least ``MIN_PASSES`` have run. With ``--trace 1`` passes alternate between
untraced and traced (the first is untraced); per-layer metrics come from the
traced passes and the tracing overhead is the difference of the two kinds'
median pass times.

Times are reported at a fixed reference speed. The shared host this
benchmark was built on changes its speed by up to 1.7x within a minute, for
every workload alike, which no run length averages away. So the run
measures the host's current speed with a fixed calibration kernel
(``calibration_kernel``: small-array numpy ufuncs driven by a Python loop,
the same kind of work as the package's), run by a timer in the midst of the
work for ``CAL_SHARE`` of its time (``Calibrator``; the kernel's time is
taken out of every measured time), and scales every time by
``CAL_NOMINAL_S`` over the kernel's mean time: a reported time is what the
call would take on a host where the kernel takes ``CAL_NOMINAL_S``. Each
timed call is scaled by the kernels run during it and within ``CAL_WINDOW_S``
of it (``local_scales``), set-up by the kernels run during and right after
the set-ups. Traced passes run without the kernel. The raw times and the
scale factors are in the report.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 2
WARMUP_S = 2.0
#: At least two timed passes: a median of more than one call per op, and
#: with ``--trace 1`` one untraced and one traced pass.
MIN_PASSES = 2
#: Calibration kernel: iterations, and the time it is scaled to.
CAL_ITERS = 300
CAL_NOMINAL_S = 0.002
#: Timer interval, and kernel time run per second of work (and of set-up).
CAL_TICK_S = 0.02
CAL_SHARE = 0.10
#: Kernels run after the set-ups and before the timed loop, and untimed ones
#: before the first.
CAL_LEAST = 100
CAL_UNTIMED = 5
#: A call is scaled by the kernels within this time of it, or else by the
#: nearest this many.
CAL_WINDOW_S = 0.1
CAL_NEAR = 10

#: Per-layer metrics: (name, unit, better). Values are per traced pass, except
#: rates (work over the layer's inclusive time) and ratios.
PER_LAYER = [
    ("batch.mode_determinants.self_s", "s", "lower"),
    ("batch.mode_determinants.points_per_s", "1/s", "higher"),
    ("batch.fk_roots.self_s", "s", "lower"),
    ("batch.fk_roots.triples_per_s", "1/s", "higher"),
    ("batch.fk_roots.roots", "count", "lower"),
    ("batch.fk_roots.distinct_ratio", "ratio", "higher"),
    ("batch.scan_roots.self_s", "s", "lower"),
    ("batch.scan_roots.calls", "count", "lower"),
    ("kinematics.forward_kinematics.self_s", "s", "lower"),
    ("kinematics.forward_kinematics.calls", "count", "lower"),
    ("kinematics.forward_kinematics.poses", "count", "higher"),
    ("kinematics.inverse_kinematics.self_s", "s", "lower"),
    ("kinematics.inverse_kinematics.calls", "count", "lower"),
    ("jacobians.jacobians.self_s", "s", "lower"),
    ("jacobians.jacobians.calls", "count", "lower"),
    ("octree.grid_to_tree.self_s", "s", "lower"),
    ("octree.grid_to_tree.calls", "count", "lower"),
    ("octree.grid_to_tree.leaves", "count", "lower"),
    ("octree.components_from_grid.self_s", "s", "lower"),
    ("octree.dumps.self_s", "s", "lower"),
    ("octree.dumps.bytes", "B", "lower"),
    ("octree.loads.self_s", "s", "lower"),
    ("octree.loads.leaves", "count", "lower"),
    ("octree.binary_op.self_s", "s", "lower"),
    ("octree.binary_op.leaves_out", "count", "lower"),
    ("octree.connected_components.self_s", "s", "lower"),
    ("octree.connected_components.leaves", "count", "lower"),
    ("aspects.enumerate_aspects.self_s", "s", "lower"),
    ("aspects.write_manifest.self_s", "s", "lower"),
    ("trajectory.monitor.self_s", "s", "lower"),
    ("trajectory.monitor.calls", "count", "lower"),
    ("trajectory.monitor.samples", "count", "lower"),
    ("trajectory.verify_assembly_mode_change.self_s", "s", "lower"),
    ("trajectory.write_profile.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.counters.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.uncovered_share", "ratio", "lower"),
]

#: Rates and ratios: metric suffix -> (numerator counter, denominator).
DERIVED = {
    "points_per_s": ("points", "total_s"),
    "triples_per_s": ("triples", "total_s"),
    "distinct_ratio": ("distinct", "roots"),
}


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, keyed by library file name."""
    import ctypes

    found = {}
    with open("/proc/self/maps", "r", encoding="ascii", errors="replace") as fh:
        paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "blas_threads": blas_threads(),
    }


def calibration_kernel(np, x) -> float:
    """The fixed reference work: 64-element ufuncs and a dot per iteration."""
    acc = 0.0
    for i in range(CAL_ITERS):
        v = np.sin(x * i) + np.cos(x)
        acc += float(np.dot(v, v))
    return acc


class Calibrator:
    """Runs the calibration kernel while the workload runs, and keeps its times.

    Inside ``with calib:`` an interval timer interrupts the process every
    ``CAL_TICK_S``; the handler runs kernels for ``CAL_SHARE`` of the time
    since the last tick (a long numpy call delays the tick, and the kernels
    it owes run when it returns). So the kernel samples the same seconds as
    the work, whatever the length of a call, and ``paused`` sums the
    kernels' time, which the worker takes out of every time it measures.
    """

    def __init__(self, np):
        self.np = np
        self.x = np.linspace(0.0, 1.0, 64)
        for _ in range(CAL_UNTIMED):  # the first calls of a fresh process are slower
            calibration_kernel(np, self.x)
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self.paused = 0.0
        self.owed = 0.0
        self.busy = True  # no kernels outside ``with calib:``
        self.mark = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)

    def kernels(self, count: int) -> None:
        """Run ``count`` kernels now (outside any timed span)."""
        for _ in range(count):
            t = time.perf_counter()
            calibration_kernel(self.np, self.x)
            self.samples.append((t, time.perf_counter() - t))

    def _tick(self, signum, frame) -> None:
        if self.busy:  # a tick inside the kernels, or a late one, returns at once
            return
        self.busy = True
        start = time.perf_counter()
        self.owed += CAL_SHARE * (start - self.mark)
        while self.owed > 0.0:
            t = time.perf_counter()
            calibration_kernel(self.np, self.x)
            dt = time.perf_counter() - t
            self.samples.append((t, dt))
            self.owed -= dt
        self.mark = time.perf_counter()
        self.paused += self.mark - start
        self.busy = False

    def __enter__(self):
        self.mark = time.perf_counter()
        self.busy = False
        signal.setitimer(signal.ITIMER_REAL, CAL_TICK_S, CAL_TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.busy = True

    def take(self) -> list[tuple[float, float]]:
        """The kernels (start, duration) since the last take."""
        samples, self.samples = self.samples, []
        return samples


def local_scales(samples):
    """Scale of a call from ``start`` to ``end``: ``CAL_NOMINAL_S`` over the
    mean time of the kernels that started within ``CAL_WINDOW_S`` of the
    call, widened to the nearest ``CAL_NEAR`` kernels when fewer did. So a
    burst of host load slows a call and the kernels beside it alike, and a
    median of short calls is not scaled by a mean that includes bursts the
    median never saw."""
    starts = [t for t, _ in samples]
    cum = [0.0]
    for _, dt in samples:
        cum.append(cum[-1] + dt)

    def scale(start: float, end: float) -> float:
        lo = bisect.bisect_left(starts, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(starts, end + CAL_WINDOW_S)
        while hi - lo < CAL_NEAR and (lo > 0 or hi < len(starts)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(starts))
        return CAL_NOMINAL_S * (hi - lo) / (cum[hi] - cum[lo])

    return scale


def layer_metrics(recorder, traced_passes: int, traced_wall: float, overhead: float) -> dict:
    """Every PER_LAYER metric whose span exists, per traced pass."""
    self_s, total_s = recorder.layer_times()
    counters = recorder.counters
    metrics = {}
    covered = 0.0
    for name, value in self_s.items():
        if not name.startswith("trace."):
            covered += value
    for metric, unit, _ in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if layer == "trace":
            value = {
                "overhead_s": overhead,
                "uncovered_share": 1.0 - covered / traced_wall if traced_wall > 0 else 0.0,
            }[stat]
        elif layer in recorder.missing:
            continue
        elif stat == "self_s":
            value = self_s.get(layer, 0.0) / traced_passes
        elif stat in DERIVED:
            num, den = DERIVED[stat]
            top = counters.get(f"{layer}.{num}", 0.0)
            bottom = total_s.get(layer, 0.0) if den == "total_s" else counters.get(f"{layer}.{den}", 0.0)
            value = top / bottom if bottom > 0 else 0.0
        else:
            value = counters.get(metric, 0.0) / traced_passes
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import numpy as np

    import planar3rrr
    import planar3rrr.cli  # noqa: F401  (loads every layer)

    import_s = time.perf_counter() - t0
    here = Path(planar3rrr.__file__).resolve().parent
    if here.parent != (ROOT / "src").resolve():
        print(f"planar3rrr was imported from {here}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    from spans import COUNTER_SPAN, SpanRecorder
    from workloads import WORKLOADS

    out = Path(args.out)
    workload = WORKLOADS[args.workload](args.seed, out)
    calib = Calibrator(np)
    setups = []
    with calib:
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            paused = calib.paused
            workload.setup()
            setups.append(time.perf_counter() - t - (calib.paused - paused))
    # A short set-up gets few ticks: kernels right after it make up the sample.
    calib.kernels(CAL_LEAST)
    setup_cal = calib.take()

    warmup_start = time.perf_counter()
    warmup_calls = 0
    for op in getattr(workload, "warmup_ops", workload.ops):
        try:
            op()
        except Exception:  # the timed passes count it
            pass
        warmup_calls += 1
        if time.perf_counter() - warmup_start >= WARMUP_S:
            break
    calib.kernels(CAL_LEAST)

    recorder = SpanRecorder() if args.trace else None
    op_times = []
    op_bounds = []
    pass_time = {True: [], False: []}
    errors = []
    attempted = failed = 0
    first_counts = None
    passes = 0
    loop_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and passes % 2 == 1
        outputs = []
        times = []
        bounds = []
        # Traced passes run without the kernel, which would land in spans.
        with recorder if traced else calib:
            for op in workload.ops:
                t = time.perf_counter()
                paused = calib.paused
                try:
                    output = op()
                except Exception as exc:  # counted as a failed operation
                    output = exc
                end = time.perf_counter()
                times.append(end - t - (calib.paused - paused))
                bounds.append((t, end))
                outputs.append(output)
        workload.begin_pass()
        pass_failed = failed
        for i, output in enumerate(outputs):
            attempted += 1
            if isinstance(output, Exception):
                err = f"op {i}: {type(output).__name__}: {output}"
            else:
                try:
                    err = workload.check(i, output)
                except Exception as exc:  # a check that cannot run is a failure
                    err = f"op {i}: check raised {type(exc).__name__}: {exc}"
            if err:
                failed += 1
                errors.append(f"pass {passes}: {err}")
        counts = workload.pass_counts() if failed == pass_failed else None
        if passes == 0:
            first_counts = counts
        else:
            attempted += 1
            if counts != first_counts:
                failed += 1
                errors.append(f"pass {passes}: counts differ from pass 0")
        pass_time[traced].append(sum(times))
        if not traced:
            op_times.append(times)
            op_bounds.append(bounds)
        passes += 1
        if time.perf_counter() - loop_start >= args.seconds and passes >= MIN_PASSES:
            break
    loop_s = time.perf_counter() - loop_start
    loop_cal = calib.take()
    scale = CAL_NOMINAL_S / statistics.fmean(dt for _, dt in loop_cal)
    setup_scale = CAL_NOMINAL_S / statistics.fmean(dt for _, dt in setup_cal)
    local = local_scales(loop_cal)
    # Per untraced pass, each call's time at the reference speed.
    scaled = [
        [raw * local(*span) for raw, span in zip(times, bounds)]
        for times, bounds in zip(op_times, op_bounds)
    ]

    for label, err in workload.once():
        attempted += 1
        if err:
            failed += 1
            errors.append(f"{label}: {err}")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "import_s": import_s,
        "warmup_calls": warmup_calls,
        "setup_runs_s": setups,
        "setup_raw_s": import_s + statistics.median(setups),
        "calibration": {
            "nominal_s": CAL_NOMINAL_S,
            "share": CAL_SHARE,
            "setup_kernels": len(setup_cal),
            "setup_scale": setup_scale,
            "loop_kernels": len(loop_cal),
            "scale": scale,
            "call_scale_range": [
                min(local(*span) for bounds in op_bounds for span in bounds),
                max(local(*span) for bounds in op_bounds for span in bounds),
            ],
        },
        "passes": passes,
        "loop_s": loop_s,
        "calls": sum(len(times) for times in op_times),
        "work_unit": workload.work_unit,
        "counts": first_counts,
        "errors": errors[:20],
    }
    if args.trace:
        overhead = scale * (
            statistics.median(pass_time[True]) - statistics.median(pass_time[False])
        )
        traced_wall = sum(pass_time[True])
        metrics = layer_metrics(recorder, len(pass_time[True]), traced_wall, overhead)
        spans_path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        recorder.write(spans_path)
        self_s, total_s = recorder.layer_times()
        report.update(
            {
                "traced_passes": len(pass_time[True]),
                "traced_pass_s": pass_time[True],
                "untraced_pass_s": pass_time[False],
                "trace_overhead_s_per_pass": overhead,
                "trace_uncovered_s": traced_wall - sum(
                    v for k, v in self_s.items() if k != COUNTER_SPAN
                ),
                "layer_self_s": self_s,
                "layer_total_s": total_s,
                "trace_counters": dict(recorder.counters),
                "missing_spans": recorder.missing,
                "spans_file": str(spans_path.relative_to(ROOT)),
            }
        )
    else:
        arr = np.concatenate(op_times)
        ref = np.concatenate(scaled)
        # The highest percentile with at least ten calls beyond it.
        tail_q = 99 if arr.size >= 1000 else 90 if arr.size >= 100 else 50
        raw = {
            "call_p50_ms": float(np.median(arr)) * 1e3,
            "call_tail_ms": float(np.percentile(arr, tail_q)) * 1e3,
            "work_per_s": workload.work / statistics.median(pass_time[False]),
        }
        metrics = {
            "setup_s": {"value": setup_scale * report["setup_raw_s"], "unit": "s"},
            "ok_rate": {"value": (attempted - failed) / attempted, "unit": "ratio"},
            "call_p50_ms": {"value": float(np.median(ref)) * 1e3, "unit": "ms"},
            "call_tail_ms": {"value": float(np.percentile(ref, tail_q)) * 1e3, "unit": "ms"},
            "work_per_s": {
                "value": workload.work / statistics.median(sum(p) for p in scaled),
                "unit": "1/s",
            },
        }
        report["call_tail"] = f"p{tail_q} of {arr.size} calls"
        report["raw_metrics"] = raw
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": report,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
