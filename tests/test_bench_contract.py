"""The benchmark's traced run wraps package functions by name.

``bench/spans.py`` lists the layer functions it wraps; a function that is
renamed or deleted drops that layer's metrics from the traced run. These
tests load the span recorder read-only and check that every target still
resolves and that its counters accept the package's results.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import ALPHA_EMPTY, ALPHA_REF, VIA_POSTURE, posture
from planar3rrr import aspects, batch, kinematics, trajectory
from planar3rrr.geometry import Pose, WorkingMode

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves_to_a_callable(spans):
    unresolved = [
        name
        for name, (modname, attr, _) in spans.TARGETS.items()
        if not callable(getattr(importlib.import_module(modname), attr, None))
    ]
    assert unresolved == []
    assert spans.SpanRecorder().missing == []


def test_fk_roots_counter_accepts_a_real_result(spans, ref_geom):
    alphas = np.array([ALPHA_REF, ALPHA_EMPTY])
    result = batch.fk_roots(ref_geom, alphas)
    counts = spans._fk_roots_counts((ref_geom, alphas), {}, result)
    assert counts == {"triples": 2, "roots": 4, "distinct": 4}


def test_traced_forward_kinematics_records_solver_spans(spans, ref_geom):
    fk_roots = batch.fk_roots
    with spans.SpanRecorder() as recorder:
        poses = kinematics.forward_kinematics(ref_geom, ALPHA_REF)
    assert batch.fk_roots is fk_roots
    names = {span[0] for span in recorder.spans}
    assert {"kinematics.forward_kinematics", "batch.fk_roots", "batch.scan_roots"} <= names
    assert recorder.counters["kinematics.forward_kinematics.poses"] == len(poses) == 4
    assert recorder.counters["batch.fk_roots.distinct"] == 4


def test_traced_census_books_its_labeling_to_named_layers(spans, ref_geom):
    # A census stage that no target covers grows the traced run's
    # trace.uncovered_share without any metric naming it.
    with spans.SpanRecorder() as recorder:
        aspects.enumerate_aspects(ref_geom, depth=4)
    names = {span[0] for span in recorder.spans}
    layers = {"octree.connected_components", "octree.grid_to_tree", "batch.mode_determinants"}
    assert layers <= names
    assert recorder.counters["octree.connected_components.calls"] == 32


def test_monitor_counter_accepts_a_real_result(spans, ref_geom):
    via = Pose(VIA_POSTURE[0], VIA_POSTURE[1], math.radians(VIA_POSTURE[2]))
    spec = trajectory.PathSpec(
        waypoints=(posture(1), via, posture(4)), mode=WorkingMode.C, samples_per_segment=30
    )
    result = trajectory.monitor(ref_geom, spec)
    counter = spans.TARGETS["trajectory.monitor"][2]
    assert counter((ref_geom, spec), {}, result) == {"samples": 59}


def test_mode_determinants_counter_accepts_real_arguments(spans, ref_geom):
    # The census's brick layout: per brick, its x, y and theta corner axes.
    xs = np.linspace(-12.0, 12.0, 6).reshape(2, 3, 1, 1)
    ys = np.linspace(-12.0, 12.0, 10).reshape(2, 1, 5, 1)
    ts = np.linspace(0.0, 6.0, 8).reshape(2, 1, 1, 4)
    args = (ref_geom, xs, ys, ts, batch.MODE_ORDER)
    reach, dets = batch.mode_determinants(*args)
    assert reach.shape == (2, 3, 5, 4) and len(dets) == 8
    counter = spans.TARGETS["batch.mode_determinants"][2]
    assert counter(args, {}, (reach, dets)) == {"points": 120}
