import math

import numpy as np
import pytest

from conftest import ALPHA_REF, posture
from planar3rrr import batch
from planar3rrr.errors import SerialBoundaryError, UnreachableError
from planar3rrr.geometry import Pose, WorkingMode, angle_difference, platform_points
from planar3rrr.jacobians import jacobians
from planar3rrr.kinematics import inverse_kinematics, inverse_kinematics_all

import oracles


def test_centered_pose_reachable(default_geom):
    # Aligned concentric triangles: every leg target sits at r - s = 5.
    c, _ = platform_points(default_geom, Pose(0.0, 0.0, 0.0))
    a = default_geom.base_points
    for i in range(3):
        assert np.hypot(*(c[i] - a[i])) == pytest.approx(5.0)
    for mode in WorkingMode:
        cfg = inverse_kinematics(default_geom, Pose(0.0, 0.0, 0.0), mode)
        pair = jacobians(cfg)
        assert tuple(np.sign(pair.b_diag)) == mode.signs


def test_far_pose_unreachable(default_geom):
    with pytest.raises(UnreachableError):
        inverse_kinematics(default_geom, Pose(100.0, 0.0, 0.0), WorkingMode.A)


def test_reference_posture_alphas(ref_geom):
    # The benchmark joint triple is recovered at posture (1) in mode PPN.
    cfg = inverse_kinematics(ref_geom, posture(1), WorkingMode.C)
    for got, want in zip(cfg.alpha, ALPHA_REF):
        assert abs(angle_difference(got, want)) < 1e-9


def test_leg_chain_consistency_oracle(ref_geom, rng):
    # IK output reproduces the target points through the plain two-bar chain.
    for _ in range(50):
        pose = Pose(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi))
        cfgs = inverse_kinematics_all(ref_geom, pose)
        c, _ = platform_points(ref_geom, pose)
        for cfg in cfgs.values():
            for leg in range(3):
                (bx, by), (cx, cy) = oracles.two_bar_positions(
                    ref_geom, leg, cfg.alpha[leg], cfg.beta[leg]
                )
                assert math.hypot(cx - c[leg, 0], cy - c[leg, 1]) < 1e-9


def test_all_modes_generic_pose(ref_geom):
    result = inverse_kinematics_all(ref_geom, Pose(1.0, 0.5, 0.3))
    assert len(result) == 8
    assert set(result) == set(WorkingMode)
    for mode, cfg in result.items():
        pair = jacobians(cfg)
        assert tuple(np.sign(pair.b_diag)) == mode.signs


def test_all_modes_unreachable_pose(ref_geom):
    assert inverse_kinematics_all(ref_geom, Pose(100.0, 0.0, 0.0)) == {}


def test_folded_leg_is_boundary():
    # With unequal bar lengths the inner reach boundary |l - m| is positive;
    # at (0, 3, 0) leg 1's target distance is exactly l - m = 2.
    from planar3rrr.geometry import GeometryConfig

    geom = GeometryConfig(l=7.0, m=5.0)
    pose = Pose(0.0, 3.0, 0.0)
    c, _ = platform_points(geom, pose)
    assert np.hypot(*(c[0] - geom.base_points[0])) == 2.0
    with pytest.raises(SerialBoundaryError) as err:
        inverse_kinematics(geom, pose, WorkingMode.A)
    assert err.value.leg == 1
    # The folded leg has one elbow position, keyed '+'.
    result = inverse_kinematics_all(geom, pose)
    assert len(result) == 4
    assert {mode.signs[0] for mode in result} == {1}


def test_stretched_leg_collapses_branches(default_geom):
    # At (0, -7, 0) leg 1 target distance is exactly l + m = 12.
    pose = Pose(0.0, -7.0, 0.0)
    c, _ = platform_points(default_geom, pose)
    assert np.hypot(*(c[0] - default_geom.base_points[0])) == 12.0
    result = inverse_kinematics_all(default_geom, pose)
    assert len(result) == 4
    with pytest.raises(SerialBoundaryError):
        inverse_kinematics(default_geom, pose, WorkingMode.A)
    # The collapsed leg-1 branch is keyed under '+' and shared by all four.
    assert {mode.signs[0] for mode in result} == {1}
    assert len({cfg.alpha[0] for cfg in result.values()}) == 1


def test_just_outside_reach_boundary_is_unreachable(default_geom):
    # Leg 1 lies 1e-9 beyond l + m: inside the boundary tolerance, but no
    # elbow position reaches it, so the pose has no inverse branch.
    assert inverse_kinematics_all(default_geom, Pose(0.0, -7.0 - 1e-9, 0.0)) == {}


def test_branch_flip_flips_exactly_one_sign(ref_geom, rng):
    pose = Pose(0.8, -0.4, 0.25)
    base = inverse_kinematics(ref_geom, pose, WorkingMode.A)
    base_signs = np.sign(jacobians(base).b_diag)
    flips = {0: WorkingMode.F, 1: WorkingMode.B, 2: WorkingMode.C}
    for leg, mode in flips.items():
        other = inverse_kinematics(ref_geom, pose, mode)
        signs = np.sign(jacobians(other).b_diag)
        diff = [i for i in range(3) if signs[i] != base_signs[i]]
        assert diff == [leg]
        same = [i for i in range(3) if i != leg]
        for i in same:
            assert other.alpha[i] == pytest.approx(base.alpha[i], abs=1e-12)


#: A reference-geometry pose whose leg 1 platform joint lies 1e-6 from its base
#: joint. With l = m the leg's two bars nearly fold onto each other, and the
#: float elbow formula misses loop closure there by 4.4e-9.
FOLD_POSE = Pose(-5.262325670470374, -1.3320179042132647, math.radians(17.188733853924695))


def test_fold_pose_is_a_serial_boundary_in_every_mode(ref_geom):
    c, _ = platform_points(ref_geom, FOLD_POSE)
    assert np.hypot(*(c[0] - ref_geom.base_points[0])) == pytest.approx(1e-6, rel=1e-6)
    for mode in WorkingMode:
        with pytest.raises(SerialBoundaryError) as err:
            inverse_kinematics(ref_geom, FOLD_POSE, mode)
        assert err.value.leg == 1
    with pytest.raises(SerialBoundaryError):
        inverse_kinematics_all(ref_geom, FOLD_POSE)


@pytest.mark.parametrize("k", range(8))
def test_coincident_joints_in_the_band_are_a_serial_boundary(default_geom, k):
    # Leg 1's platform joint 1.2e-8 from its base joint, in direction k pi / 4:
    # inside the reach band, where the '+' angles miss loop closure (this was
    # an untyped ValueError).
    geom = default_geom
    theta, phi = 0.3, k * math.pi / 4
    ang = theta + geom.platform_phase[0]
    (ax, ay), s = geom.base_points[0], geom.s
    pose = Pose(
        ax + 1.2e-8 * math.cos(phi) - s * math.cos(ang),
        ay + 1.2e-8 * math.sin(phi) - s * math.sin(ang),
        theta,
    )
    with pytest.raises(SerialBoundaryError) as err:
        inverse_kinematics_all(geom, pose)
    assert err.value.leg == 1


def test_a_fold_is_reported_after_an_unreachable_leg(ref_geom):
    # Leg 1's platform joint lies 2.1e-7 from its base joint, a fold, and
    # legs 2 and 3 are out of reach: the pose is reported as unreachable.
    pose = Pose(-13.63897145638385, -5.4608380833891506, 2.7102924546826994)
    legs = batch.solve_legs(ref_geom, *([v] for v in pose.as_tuple()), WorkingMode.A)
    assert legs.status[0].tolist() == [batch.LEG_BOUNDARY] + [batch.LEG_UNREACHABLE] * 2
    with pytest.raises(UnreachableError) as err:
        inverse_kinematics(ref_geom, pose, WorkingMode.A)
    assert err.value.leg == 2
