"""The shared leg kernels: platform joints, the rows of A and the loop-closure rule.

``geometry.platform_joints`` evaluates all three legs with one cos and one
sin; ``oracles`` keeps the one-leg-at-a-time form, which it must reproduce
bit for bit at the census's slab shapes and at the (N,) shapes of the path
monitor and the solvers. det(A) is built once, as row 1 . (row 2 x row 3);
it must equal the cofactor expansion bit for bit. ``geometry.loop_gaps`` is
the one loop-closure rule, shared by ``solve_legs`` and ``FullConfiguration``.
"""

import math

import numpy as np
import pytest

import oracles
from planar3rrr import batch
from planar3rrr.geometry import (
    LOOP_TOL, FullConfiguration, GeometryConfig, Pose, WorkingMode, platform_joints
)

GEOMETRIES = {
    "reference": GeometryConfig.reference(),
    "congruent": GeometryConfig(r=5, s=5),
    "random": GeometryConfig(
        l=3.7,
        m=8.2,
        r=6.1,
        s=2.3,
        base_phase=(0.4, 2.9, 4.1),
        platform_phase=(5.3, 1.2, 3.3),
    ),
}


def _slab(rng):
    """Pose coordinates in the census's (r,1,1) x (1,ny,1) x (1,1,nz) layout."""
    x = rng.uniform(-12.0, 12.0, (5, 1, 1))
    y = rng.uniform(-12.0, 12.0, (1, 7, 1))
    theta = rng.uniform(0.0, 2.0 * math.pi, (1, 1, 9))
    return x, y, theta


def _flat(rng):
    return rng.uniform(-12.0, 12.0, 50), rng.uniform(-12.0, 12.0, 50), rng.uniform(-7.0, 7.0, 50)


@pytest.mark.parametrize("geom", GEOMETRIES.values(), ids=GEOMETRIES.keys())
@pytest.mark.parametrize("layout", [_slab, _flat])
def test_platform_joints_match_per_leg_oracle(geom, layout, rng):
    x, y, theta = layout(rng)
    cx, cy = platform_joints(geom, x, y, theta)
    for i, (want_x, want_y) in enumerate(oracles.platform_joints(geom, x, y, theta)):
        assert cx[i].shape == want_x.shape and cy[i].shape == want_y.shape
        assert np.array_equal(cx[i], want_x)
        assert np.array_equal(cy[i], want_y)


def test_platform_joints_of_a_scalar_pose_are_the_one_leg_expression(ref_geom):
    cx, cy = platform_joints(ref_geom, 1.5, -2.0, 0.3)
    assert cx.shape == cy.shape == (3,)
    for i, psi in enumerate(ref_geom.platform_phase):
        want = (1.5 + ref_geom.s * math.cos(0.3 + psi), -2.0 + ref_geom.s * math.sin(0.3 + psi))
        assert (cx[i], cy[i]) == want


def test_shared_det_matches_cofactor_expansion(rng):
    r1, r2, r3 = rng.normal(size=(3, 3, 200_000)) * rng.uniform(0.0, 40.0, (3, 1, 200_000))
    assert np.array_equal(batch._dot(r1, batch._cross(r2, r3)), oracles.det_cofactor((r1, r2, r3)))


@pytest.mark.parametrize("geom", GEOMETRIES.values(), ids=GEOMETRIES.keys())
def test_jacobian_rows_det_matches_cofactor_expansion(geom, rng):
    alphas = rng.uniform(-math.pi, math.pi, (400, 3))
    x, y = rng.uniform(-8.0, 8.0, (2, 400))
    theta = rng.uniform(-7.0, 7.0, 400)
    rows, det, _, _ = batch.jacobian_rows(geom, alphas, x, y, theta)
    assert np.array_equal(det, oracles.det_cofactor(np.moveaxis(rows, 0, -1)))


def _near_reach_circles(geom, rng, n):
    """Poses with one leg 1e-9 to 1e-5 of l + m off a reach circle, inside or out."""
    i = rng.integers(0, 3, n)
    radius = np.where(rng.random(n) < 0.5, geom.reach_min, geom.reach_max)
    offset = rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-9.0, -5.0, n) * geom.reach_max
    d = np.abs(radius + offset)
    phi, theta = rng.uniform(-math.pi, math.pi, (2, n))
    a = geom.base_points[i]
    ang = theta + np.asarray(geom.platform_phase)[i]
    x = a[:, 0] + d * np.cos(phi) - geom.s * np.cos(ang)
    y = a[:, 1] + d * np.sin(phi) - geom.s * np.sin(ang)
    return [Pose(*v) for v in zip(x.tolist(), y.tolist(), theta.tolist())]


@pytest.mark.parametrize("geom", GEOMETRIES.values(), ids=GEOMETRIES.keys())
def test_full_configuration_accepts_exactly_the_rows_that_close(geom, rng):
    # One loop-closure rule: a row of solve_legs with angles on every leg,
    # folds included, makes a FullConfiguration iff its loop gaps are within
    # LOOP_TOL, and every leg beyond that bound is LEG_BOUNDARY.
    poses = _near_reach_circles(geom, rng, 400)
    x, y, theta = np.array([p.as_tuple() for p in poses]).T
    verdicts = []
    for mode in (WorkingMode.A, WorkingMode.D, WorkingMode.G):
        legs = batch.solve_legs(geom, x, y, theta, mode)
        assert (legs.status[legs.loop_gap > LOOP_TOL] == batch.LEG_BOUNDARY).all()
        for k in np.flatnonzero(np.isfinite(legs.alpha).all(axis=1)).tolist():
            closes = bool((legs.loop_gap[k] <= LOOP_TOL).all())
            try:
                FullConfiguration(geom, poses[k], legs.alpha[k], legs.beta[k])
                accepted = True
            except ValueError:
                accepted = False
            verdicts.append((closes, accepted))
    assert all(closes == accepted for closes, accepted in verdicts)
    # With l = m the inner reach circle is a point, and near it the elbow
    # formula misses closure on some solved rows.
    assert any(accepted for _, accepted in verdicts)
    assert any(not accepted for _, accepted in verdicts) == (geom.l == geom.m)
