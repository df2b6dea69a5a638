"""The shared leg kernels: platform joints and the rows of A.

``geometry.platform_joints`` evaluates all three legs with one cos and one
sin; ``oracles`` keeps the one-leg-at-a-time form, which it must reproduce
bit for bit at the census's slab shapes and at the (N,) shapes of the path
monitor and the solvers. det(A) is built once, as row 1 . (row 2 x row 3);
it must equal the cofactor expansion bit for bit.
"""

import math

import numpy as np
import pytest

import oracles
from planar3rrr import batch
from planar3rrr.geometry import GeometryConfig, platform_joints

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
