"""The benchmark's traced run wraps package functions by name.

``bench/spans.py`` lists the layer functions it wraps; a function that is
renamed or deleted drops that layer's metrics from the traced run. These
tests load the span recorder read-only and check that every target still
resolves and that its counters accept the package's results.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from conftest import ALPHA_EMPTY, ALPHA_REF
from planar3rrr import aspects, batch, kinematics

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
