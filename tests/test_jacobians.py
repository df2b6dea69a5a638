import dataclasses
import math

import numpy as np
import pytest

from conftest import ALPHA_REF, FK_REF_INDICES, FK_REF_POSES, posture
from planar3rrr import batch
from planar3rrr.errors import ParallelSingularError, SerialSingularError
from planar3rrr.geometry import (
    FullConfiguration,
    Pose,
    WorkingMode,
    angle_difference,
    platform_points,
)
from planar3rrr.jacobians import (
    E,
    forward_velocity,
    inverse_velocity,
    jacobians,
    singularity_report,
    working_mode_of,
)
from planar3rrr.kinematics import inverse_kinematics, inverse_kinematics_all
from oracles import serial_alignment, velocity_residual


def _benchmark_config(geom, k):
    cfgs = inverse_kinematics_all(geom, posture(k))
    return min(
        cfgs.values(),
        key=lambda c: max(abs(angle_difference(a, b)) for a, b in zip(c.alpha, ALPHA_REF)),
    )


def test_rotation_matrix():
    assert np.array_equal(E, [[0.0, -1.0], [1.0, 0.0]])
    v = np.array([1.0, 0.0])
    assert np.allclose(E @ v, [0.0, 1.0])


def test_jacobian_det_matches_numpy(ref_geom, rng):
    # det(A) of batch.jacobian_rows against numpy's LU.
    alphas = rng.uniform(-math.pi, math.pi, (20, 3))
    x, y, theta = rng.normal(size=(3, 20))
    rows, det, _, _ = batch.jacobian_rows(ref_geom, alphas, x, y, theta)
    for k in range(20):
        assert det[k] == pytest.approx(np.linalg.det(rows[k]), rel=1e-10)


def test_benchmark_indices_regression(ref_geom):
    # Frozen det(A) and B_ii at the four assembly poses of the benchmark
    # joint triple; magnitudes agree with the published values to 0.4%.
    for pose, expected in zip(FK_REF_POSES, FK_REF_INDICES):
        cfgs = inverse_kinematics_all(ref_geom, pose)
        cfg = min(
            cfgs.values(),
            key=lambda c: max(abs(angle_difference(a, b)) for a, b in zip(c.alpha, ALPHA_REF)),
        )
        pair = jacobians(ref_geom, cfg)
        assert pair.det_a == pytest.approx(expected[0], rel=1e-9)
        assert pair.b_diag == pytest.approx(expected[1:], rel=1e-9)


def test_row_structure_matches_definition(ref_geom):
    cfg = _benchmark_config(ref_geom, 1)
    pair = jacobians(ref_geom, cfg)
    c, p = platform_points(ref_geom, cfg.pose)
    b = cfg.b
    a = ref_geom.base_points
    for i in range(3):
        e1 = c[i] - b[i]
        assert pair.a_mat[i, :2] == pytest.approx(e1)
        assert pair.a_mat[i, 2] == pytest.approx(-float(e1 @ E @ (p - c[i])))
        assert pair.b_diag[i] == pytest.approx(float(e1 @ E @ (b[i] - a[i])))
    assert np.count_nonzero(pair.b_mat - np.diag(pair.b_diag)) == 0


def test_leg_pythagorean_identity(ref_geom, rng):
    # B_ii^2 + ((b-a).(c-b))^2 = (l m)^2 = 1296 with the default lengths.
    lm2 = (ref_geom.l * ref_geom.m) ** 2
    assert lm2 == 1296.0
    for _ in range(30):
        pose = Pose(rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(-math.pi, math.pi))
        for cfg in inverse_kinematics_all(ref_geom, pose).values():
            pair = jacobians(ref_geom, cfg)
            for leg in range(3):
                dot = serial_alignment(ref_geom, cfg, leg + 1)
                assert pair.b_diag[leg] ** 2 + dot**2 == pytest.approx(lm2, rel=1e-9)


def test_working_mode_of_examples(ref_geom):
    pose = Pose(1.0, 0.5, 0.3)
    for mode in (WorkingMode.A, WorkingMode.G):
        cfg = inverse_kinematics(ref_geom, pose, mode)
        assert working_mode_of(jacobians(ref_geom, cfg)) is mode
    fake = jacobians(ref_geom, inverse_kinematics(ref_geom, pose, WorkingMode.A))
    broken = dataclasses.replace(fake, b_diag=(fake.b_diag[0], 0.0, fake.b_diag[2]))
    with pytest.raises(SerialSingularError) as err:
        working_mode_of(broken)
    assert err.value.leg == 2


def test_serial_singularity_stretched_leg(default_geom):
    # Leg 1 exactly stretched: B_11 = 0 and (b-a).(c-b) = +l*m.
    pose = Pose(0.0, -7.0, 0.0)
    cfg = inverse_kinematics_all(default_geom, pose)[WorkingMode.A]
    pair = jacobians(default_geom, cfg)
    rep = singularity_report(pair)
    assert rep.is_serial_singular
    assert abs(pair.b_diag[0]) < 1e-9
    assert serial_alignment(default_geom, cfg, 1) == pytest.approx(36.0, abs=1e-9)


def test_parallel_singularity_concurrent_lines(default_geom):
    # Exact construction: platform at the origin rotated so every elbow sits
    # at radius 11; all distal bars then point straight at the origin.
    theta = math.acos(185.0 / 220.0)
    pose = Pose(0.0, 0.0, theta)
    c, p = platform_points(default_geom, pose)
    alpha = []
    beta = []
    for i, phi in enumerate(default_geom.base_phase):
        bx = 11.0 * math.cos(theta + phi)
        by = 11.0 * math.sin(theta + phi)
        ax, ay = default_geom.base_points[i]
        assert math.hypot(bx - ax, by - ay) == pytest.approx(6.0, abs=1e-12)
        alpha.append(math.atan2(by - ay, bx - ax))
        beta.append(math.atan2(c[i, 1] - by, c[i, 0] - bx))
    cfg = FullConfiguration(geom=default_geom, pose=pose, alpha=tuple(alpha), beta=tuple(beta))
    # The three distal lines pass through the origin by construction.
    b = cfg.b
    for i in range(3):
        cross = b[i, 0] * (c[i, 1] - b[i, 1]) - b[i, 1] * (c[i, 0] - b[i, 0])
        assert abs(cross) < 1e-9
    pair = jacobians(default_geom, cfg)
    rep = singularity_report(pair)
    assert rep.is_parallel_singular
    assert abs(pair.det_a) / pair.row_norm_scale < 1e-9
    assert working_mode_of(pair) is WorkingMode.A


def test_generic_config_not_singular(ref_geom):
    pair = jacobians(ref_geom, _benchmark_config(ref_geom, 1))
    rep = singularity_report(pair)
    assert not rep.is_serial_singular
    assert not rep.is_parallel_singular
    assert min(abs(v) for v in rep.serial_margins) > 30.0
    assert abs(rep.parallel_margin) > 300.0


def test_velocity_round_trip(ref_geom, rng):
    cfg = _benchmark_config(ref_geom, 1)
    pair = jacobians(ref_geom, cfg)
    assert np.allclose(forward_velocity(pair, np.zeros(3)), 0.0)
    for _ in range(20):
        qd = rng.normal(size=3)
        t = forward_velocity(pair, qd)
        assert velocity_residual(pair, t, qd) < 1e-10
        back = inverse_velocity(pair, t)
        assert np.allclose(back, qd, atol=1e-9)


def test_velocity_guards(default_geom):
    stretched = inverse_kinematics_all(default_geom, Pose(0.0, -7.0, 0.0))[WorkingMode.A]
    pair = jacobians(default_geom, stretched)
    with pytest.raises(SerialSingularError):
        inverse_velocity(pair, np.array([0.1, 0.0, 0.0]))
    theta = math.acos(185.0 / 220.0)
    sing = inverse_kinematics(default_geom, Pose(0.0, 0.0, theta), WorkingMode.A)
    spair = jacobians(default_geom, sing)
    with pytest.raises(ParallelSingularError):
        forward_velocity(spair, np.array([0.1, 0.0, 0.0]))


def test_velocity_matches_finite_differences(ref_geom, rng):
    # Central difference of the mode-consistent inverse problem along an
    # analytic pose path agrees with the velocity relation to 1e-6.
    h = 1e-5
    for _ in range(25):
        pose = Pose(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-1.5, 1.5))
        twist = rng.normal(size=3)
        mode = WorkingMode(tuple(rng.choice([-1, 1], size=3).tolist()))
        try:
            cfg = inverse_kinematics(ref_geom, pose, mode)
        except Exception:
            continue
        pair = jacobians(ref_geom, cfg)
        qd = inverse_velocity(pair, twist)

        def alpha_at(t):
            p = Pose(pose.x + t * twist[0], pose.y + t * twist[1], pose.theta + t * twist[2])
            return inverse_kinematics(ref_geom, p, mode).alpha

        ap = alpha_at(h)
        am = alpha_at(-h)
        fd = [(angle_difference(a, b)) / (2 * h) for a, b in zip(ap, am)]
        assert np.allclose(fd, qd, atol=1e-6)
