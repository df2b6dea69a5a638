import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planar3rrr import batch
from planar3rrr.geometry import (
    TWO_PI,
    GeometryConfig,
    Pose,
    WorkingMode,
    parse_mode,
    platform_points,
    pose_gaps,
    wrap_angle,
)


def test_default_geometry_values(default_geom):
    assert (default_geom.l, default_geom.m, default_geom.r, default_geom.s) == (6, 6, 10, 5)
    assert default_geom.base_phase == pytest.approx(
        (math.pi / 2, math.pi / 2 + 2 * math.pi / 3, math.pi / 2 + 4 * math.pi / 3)
    )
    assert default_geom.base_phase == default_geom.platform_phase


@pytest.mark.parametrize("field", ["l", "m", "r", "s"])
def test_lengths_must_be_positive(field):
    with pytest.raises(ValueError):
        GeometryConfig(**{field: 0.0})
    with pytest.raises(ValueError):
        GeometryConfig(**{field: -1.0})


def test_phases_must_be_distinct_mod_2pi():
    with pytest.raises(ValueError):
        GeometryConfig(base_phase=(0.1, 0.1 + 2 * math.pi, 1.0))
    with pytest.raises(ValueError):
        GeometryConfig(platform_phase=(0.0, 0.0, 1.0))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_phases_and_poses_refused(value):
    # NaN fails every comparison, so it would pass the distinct-phase test.
    with pytest.raises(ValueError, match="finite"):
        GeometryConfig(base_phase=(value, 1.0, 2.0))
    with pytest.raises(ValueError, match="finite"):
        GeometryConfig(platform_phase=(0.0, 1.0, value))
    for pose in ((value, 0.0, 0.0), (0.0, value, 0.0), (0.0, 0.0, value)):
        with pytest.raises(ValueError, match="finite"):
            Pose(*pose)


def test_geometry_dict_round_trip(ref_geom):
    again = GeometryConfig.from_dict(ref_geom.to_dict())
    assert again.base_phase == pytest.approx(ref_geom.base_phase)
    with pytest.raises(ValueError):
        GeometryConfig.from_dict({"bogus": 1})


def test_pose_normalization():
    assert Pose(0, 0, math.pi).theta == math.pi
    assert Pose(0, 0, -math.pi).theta == math.pi
    assert Pose(0, 0, 3 * math.pi).theta == pytest.approx(math.pi)
    assert Pose(0, 0, -0.5).theta == -0.5
    assert wrap_angle(2 * math.pi) == 0.0


def test_platform_points_identity_placement(default_geom):
    c, p = platform_points(default_geom, Pose(0.0, 0.0, 0.0))
    assert np.allclose(p, 0.0)
    for i, psi in enumerate(default_geom.platform_phase):
        assert np.hypot(c[i, 0], c[i, 1]) == pytest.approx(5.0)
        assert math.atan2(c[i, 1], c[i, 0]) == pytest.approx(wrap_angle(psi))


def test_platform_points_periodicity(default_geom):
    c0, _ = platform_points(default_geom, Pose(0.0, 0.0, 0.0))
    c1, _ = platform_points(default_geom, Pose(0.0, 0.0, 2 * math.pi))
    assert np.array_equal(c0, c1)


def test_platform_points_pinned_values(default_geom):
    # Frozen from the brute-force residual oracle run at the benchmark pose.
    c, p = platform_points(default_geom, Pose(1.102, 1.956, math.radians(57.50)))
    expected = np.array(
        [
            [-3.1149572290644274, 4.64249804173412],
            [0.8839030631733195, -3.0392411079092887],
            [5.53705416589111, 4.264743066175166],
        ]
    )
    assert np.allclose(c, expected, atol=1e-12)
    assert np.allclose(np.hypot(c[:, 0] - p[0], c[:, 1] - p[1]), 5.0, atol=1e-12)


def test_working_mode_table():
    table = {
        "a": (1, 1, 1),
        "b": (1, -1, 1),
        "c": (1, 1, -1),
        "d": (1, -1, -1),
        "e": (-1, -1, 1),
        "f": (-1, 1, 1),
        "g": (-1, -1, -1),
        "h": (-1, 1, -1),
    }
    assert len(WorkingMode) == 8
    for label, signs in table.items():
        mode = WorkingMode.from_label(label)
        assert mode.signs == signs
        assert WorkingMode.from_signs(signs) is mode
    assert len({m.signs for m in WorkingMode}) == 8


def test_parse_mode_forms():
    assert parse_mode("e") is WorkingMode.E
    assert parse_mode("NNP") is WorkingMode.E
    assert parse_mode("+-+") is WorkingMode.B
    with pytest.raises(ValueError):
        parse_mode("xyz")


def test_unknown_mode_label_refused():
    with pytest.raises(ValueError, match=r"^unknown working mode label 'z'$"):
        WorkingMode.from_label("z")
    with pytest.raises(ValueError, match=r"^unknown working mode label 'i'$"):
        parse_mode("i")


def test_full_configuration_needs_three_angles(ref_geom):
    from planar3rrr.geometry import FullConfiguration
    from planar3rrr.kinematics import inverse_kinematics

    cfg = inverse_kinematics(ref_geom, Pose(1.0, 1.0, 0.2), WorkingMode.A)
    for alpha, beta in ((cfg.alpha[:2], cfg.beta), (cfg.alpha, (*cfg.beta, 0.0))):
        with pytest.raises(ValueError, match=r"^alpha and beta must each contain three angles$"):
            FullConfiguration(geom=ref_geom, pose=cfg.pose, alpha=alpha, beta=beta)


def test_full_configuration_rejects_inconsistent_angles(ref_geom):
    from planar3rrr.kinematics import inverse_kinematics
    from planar3rrr.geometry import FullConfiguration

    cfg = inverse_kinematics(ref_geom, Pose(1.0, 1.0, 0.2), WorkingMode.A)
    with pytest.raises(ValueError):
        FullConfiguration(
            geom=ref_geom,
            pose=cfg.pose,
            alpha=(cfg.alpha[0] + 0.1, cfg.alpha[1], cfg.alpha[2]),
            beta=cfg.beta,
        )
    # A NaN gap fails the closure test instead of passing it.
    nan_alpha = (math.nan, *cfg.alpha[1:])
    nan_beta = (math.nan, *cfg.beta[1:])
    for alpha, beta in ((nan_alpha, cfg.beta), (cfg.alpha, nan_beta)):
        with pytest.raises(ValueError):
            FullConfiguration(geom=ref_geom, pose=cfg.pose, alpha=alpha, beta=beta)


_coord = st.floats(-20.0, 20.0)
_turn = st.floats(-4.0 * math.pi, 4.0 * math.pi)
_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


@_SETTINGS
@given(st.tuples(_coord, _coord, _turn), st.tuples(_coord, _coord, _turn))
def test_pose_gaps_is_one_symmetric_wrapped_metric(p, q):
    gap = pose_gaps(*p, *q)
    assert gap == pose_gaps(*q, *p)
    # The orientation gap is the shorter way round, to the rounding of 2 pi.
    d = abs(p[2] - q[2]) % TWO_PI
    turn = pose_gaps(0.0, 0.0, p[2], 0.0, 0.0, q[2])
    assert turn <= math.pi and abs(turn - min(d, TWO_PI - d)) <= 8e-15
    assert gap == max(abs(p[0] - q[0]), abs(p[1] - q[1]), turn)
    a, b = Pose(*p), Pose(*q)
    assert a.distance(b) == pose_gaps(*a.as_tuple(), *b.as_tuple())
    assert a.distance(b) == b.distance(a)


@_SETTINGS
@given(st.floats(0.0, 1e-3), st.floats(0.0, 1e-3))
def test_pose_gaps_wraps_at_the_seam(a, b):
    # a and 2 pi - b are a + b apart across theta = 0, not 2 pi - a - b.
    for t1, t2 in ((a, TWO_PI - b), (-a, b), (TWO_PI - a, b), (a, -b)):
        assert abs(pose_gaps(1.0, 2.0, t1, 1.0, 2.0, t2) - (a + b)) <= 8e-15


def test_same_pose_is_the_solver_merge_rule():
    # A gap of exactly MERGE_TOL is one pose, on any coordinate and across the seam.
    tol = batch.MERGE_TOL
    above = np.nextafter(tol, 1.0)
    for step in ((tol, 0, 0), (0, tol, 0), (0, 0, tol)):
        assert batch.same_pose(0.0, 0.0, 0.0, *step)
        assert not batch.same_pose(0.0, 0.0, 0.0, *(above if v else 0.0 for v in step))
    assert batch.same_pose(0.0, 0.0, 0.5 * tol, 0.0, 0.0, TWO_PI - 0.25 * tol)
    assert not batch.same_pose(0.0, 0.0, tol, 0.0, 0.0, TWO_PI - tol)
