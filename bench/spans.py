"""Span recorder for the traced benchmark run.

The recorder wraps the module-level functions that form each layer of
``planar3rrr``. Modules import each other's functions by name (``cli`` holds
its own binding of ``enumerate_aspects``, ``aspects`` of ``_grid_to_tree``),
so every binding of a wrapped function in every loaded ``planar3rrr`` module
is replaced, and restored afterwards. A name that no longer exists is
reported as missing; its metrics are then absent rather than zero.

Spans (name, start, end, parent index) are kept in memory and written out
once at the end. A layer's self time is its span's duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np


def _distinct_roots(idx, x, y, theta) -> int:
    """Assembly poses per triple after merging records closer than 1e-7."""
    if len(idx) == 0:
        return 0
    t = np.mod(theta, 2.0 * np.pi)
    t = np.where(t > 2.0 * np.pi - 5e-8, 0.0, t)
    key = np.stack([idx.astype(float), np.round(x, 7), np.round(y, 7), np.round(t, 7)], axis=1)
    return int(np.unique(key, axis=0).shape[0])


def _fk_roots_counts(args, kwargs, result):
    idx, x, y, theta = result
    return {
        "triples": len(np.atleast_2d(args[1])),
        "roots": len(idx),
        "distinct": _distinct_roots(idx, x, y, theta),
    }


#: Span of the recorder's own counting, a child of the caller's span.
COUNTER_SPAN = "trace.counters"

#: Span name -> (module, attribute, counter of (args, kwargs, result)).
TARGETS = {
    "cli.main": ("planar3rrr.cli", "main", None),
    "aspects.enumerate_aspects": ("planar3rrr.aspects", "enumerate_aspects", None),
    "aspects.write_manifest": ("planar3rrr.aspects", "write_manifest", None),
    "batch.mode_determinants": (
        "planar3rrr.batch",
        "mode_determinants",
        lambda a, k, r: {"points": np.broadcast(*a[1:4]).size},
    ),
    "batch.fk_roots": ("planar3rrr.batch", "fk_roots", _fk_roots_counts),
    "batch.scan_roots": ("planar3rrr.batch", "scan_roots", None),
    "kinematics.forward_kinematics": (
        "planar3rrr.kinematics",
        "forward_kinematics",
        lambda a, k, r: {"poses": len(r)},
    ),
    "kinematics.inverse_kinematics": ("planar3rrr.kinematics", "inverse_kinematics", None),
    "jacobians.jacobians": ("planar3rrr.jacobians", "jacobians", None),
    "octree.grid_to_tree": (
        "planar3rrr.octree",
        "_grid_to_tree",
        lambda a, k, r: {"leaves": r.n_leaves},
    ),
    "octree.components_from_grid": ("planar3rrr.octree", "_components_from_grid", None),
    "octree.dumps": ("planar3rrr.octree", "dumps", lambda a, k, r: {"bytes": len(r)}),
    "octree.loads": ("planar3rrr.octree", "loads", lambda a, k, r: {"leaves": r.n_leaves}),
    "octree.binary_op": (
        "planar3rrr.octree",
        "_binary_op",
        lambda a, k, r: {"leaves_out": r.n_leaves},
    ),
    "octree.connected_components": (
        "planar3rrr.octree",
        "connected_components",
        lambda a, k, r: {"leaves": a[0].n_leaves},
    ),
    "trajectory.monitor": (
        "planar3rrr.trajectory",
        "monitor",
        lambda a, k, r: {"samples": len(r.records)},
    ),
    "trajectory.verify_assembly_mode_change": (
        "planar3rrr.trajectory",
        "verify_assembly_mode_change",
        None,
    ),
    "trajectory.write_profile": ("planar3rrr.trajectory", "write_profile", None),
}


class SpanRecorder:
    """In-memory spans and counters for the functions in ``TARGETS``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, tuple[object, object]] = {}
        for name, (modname, attr, counter) in TARGETS.items():
            try:
                fn = getattr(importlib.import_module(modname), attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            self._wrappers[name] = (fn, self._wrap(name, fn, counter))

    def _wrap(self, name, fn, counter):
        spans = self.spans
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            counters[name + ".calls"] += 1
            if counter is not None:
                # Counting is the recorder's own work: a span of its own keeps
                # it out of the caller's self time.
                cindex = len(spans)
                spans.append([COUNTER_SPAN, clock(), 0.0, stack[-1] if stack else -1])
                for key, value in counter(args, kwargs, result).items():
                    counters[f"{name}.{key}"] += value
                spans[cindex][2] = clock()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace every binding of each target in the loaded package modules."""
        originals = {id(fn): wrapper for fn, wrapper in self._wrappers.values()}
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "planar3rrr" or modname.startswith("planar3rrr.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def layer_times(self) -> tuple[dict, dict]:
        """Per span name: (self seconds, inclusive seconds)."""
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        for k in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent = self.spans[k]
            dur = end - start
            total_s[name] += dur
            self_s[name] += dur - child[k]
            if parent >= 0:
                child[parent] += dur
        return dict(self_s), dict(total_s)

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for k, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps({"id": k, "name": name, "start": start, "end": end, "parent": parent})
                    + "\n"
                )
