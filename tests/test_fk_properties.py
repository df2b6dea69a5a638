"""Property tests of the direct solver over random geometries.

The solver rests on a degree claim: the scan function N = f * det(M)^2 is a
trigonometric polynomial of degree 3 in theta and det(M) one of degree 1.
These tests check the claim, and the solver's output, on geometries drawn
well away from the reference one.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from planar3rrr import batch
from planar3rrr.geometry import GeometryConfig, angle_difference

TRIPLES_PER_GEOMETRY = 8
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def geometries(draw):
    """l != m; small, large or nearly congruent platforms; permuted phases."""
    l = draw(st.floats(1.0, 10.0))
    m = draw(st.floats(1.0, 10.0).filter(lambda v: abs(v - l) > 1e-2))
    r = draw(st.floats(2.0, 12.0))
    size = draw(st.sampled_from(("small", "large", "near_congruent")))
    if size == "small":
        s = draw(st.floats(0.02, 0.5))
    elif size == "large":
        s = draw(st.floats(0.5, 2.0)) * r
    else:
        s = r * (1.0 + draw(st.floats(1e-3, 2e-2)) * draw(st.sampled_from((-1.0, 1.0))))
    start = draw(st.floats(0.0, 2.0 * math.pi))
    gaps = draw(st.lists(st.floats(0.3, 2.5), min_size=2, max_size=2))
    base = (start, start + gaps[0], start + gaps[0] + gaps[1])
    order = draw(st.permutations((0, 1, 2)))
    turn = draw(st.floats(0.0, 2.0 * math.pi))
    platform = tuple(base[k] + turn for k in order)
    return GeometryConfig(l=l, m=m, r=r, s=s, base_phase=base, platform_phase=platform)


def _triples(seed):
    return np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, (TRIPLES_PER_GEOMETRY, 3))


@PROPERTY_SETTINGS
@given(geom=geometries(), seed=st.integers(0, 2**32 - 1))
def test_scan_and_reduction_degrees(geom, seed):
    bx, by = batch.elbow_points(geom, _triples(seed))
    grid = np.arange(64) * (2.0 * math.pi / 64)
    gamma = np.abs(np.fft.rfft(batch._fk_scan(geom, bx, by, grid[None, :]), axis=1))
    assert (gamma[:, 4:] <= 1e-12 * gamma.max(axis=1, keepdims=True)).all()
    det = batch._fk_system_pieces(geom, bx, by, grid[None, :])[2]
    delta = np.abs(np.fft.rfft(det, axis=1))
    assert (delta[:, 2:] <= 1e-12 * delta.max(axis=1, keepdims=True)).all()


def _alpha_gap(geom, alpha, x, y, theta):
    """Largest angle between a leg's actuated angle and the nearer IK branch of the pose."""
    worst = 0.0
    for i, (cx, cy) in enumerate(oracles.platform_joints(geom, x, y, theta)):
        ax = geom.r * math.cos(geom.base_phase[i])
        ay = geom.r * math.sin(geom.base_phase[i])
        d = math.hypot(cx - ax, cy - ay)
        cos_d = (d * d + geom.l**2 - geom.m**2) / (2.0 * geom.l * d)
        spread = math.acos(max(-1.0, min(1.0, cos_d)))
        base = math.atan2(cy - ay, cx - ax)
        worst = max(
            worst,
            min(abs(angle_difference(base + sg * spread, alpha[i])) for sg in (1.0, -1.0)),
        )
    return worst


@PROPERTY_SETTINGS
@given(geom=geometries(), seed=st.integers(0, 2**32 - 1))
def test_fk_roots_poses_distinct_closed_and_reproduce_the_triple(geom, seed):
    alphas = _triples(seed)
    idx, x, y, theta = batch.fk_roots(geom, alphas)
    assert (np.bincount(idx, minlength=len(alphas)) <= 6).all()
    for k, px, py, pt in zip(idx, x, y, theta):
        mine = idx == k
        others = np.maximum(np.abs(x[mine] - px), np.abs(y[mine] - py))
        others = np.maximum(others, np.abs(np.angle(np.exp(1j * (theta[mine] - pt)))))
        assert np.count_nonzero(others <= batch.MERGE_TOL) == 1
        b = oracles.elbow_points(geom, alphas[k])
        for i, (cx, cy) in enumerate(oracles.platform_joints(geom, px, py, pt)):
            assert abs(math.hypot(cx - b[i, 0], cy - b[i, 1]) - geom.m) < 1e-9
        assert _alpha_gap(geom, alphas[k], px, py, pt) < 1e-6
