import math

import numpy as np
import pytest

from conftest import ALPHA_EMPTY, ALPHA_REF, FK_REF_POSES, NEAR_TANGENT_CLUSTERS, TABLE_POSES
from planar3rrr import batch
from planar3rrr.errors import DegenerateLinearSystemError
from planar3rrr.geometry import DEFAULT_PHASES, GeometryConfig, Pose, WorkingMode, angle_difference
from planar3rrr.jacobians import jacobians, working_mode_of
from planar3rrr.kinematics import forward_kinematics, inverse_kinematics, inverse_kinematics_all

import oracles


def closure_residual(geom, alpha, pose):
    b = oracles.elbow_points(geom, alpha)
    worst = 0.0
    for i, (cx, cy) in enumerate(oracles.platform_joints(geom, pose.x, pose.y, pose.theta)):
        worst = max(worst, abs(math.hypot(cx - b[i, 0], cy - b[i, 1]) - geom.m))
    return worst


def test_benchmark_joints_give_four_published_poses(ref_geom):
    sols = forward_kinematics(ref_geom, ALPHA_REF)
    assert len(sols) == 4
    matched = set()
    for tx, ty, tdeg in TABLE_POSES.values():
        hits = [
            s
            for s in sols
            if abs(s.x - tx) < 5e-3
            and abs(s.y - ty) < 5e-3
            and abs(math.degrees(s.theta) - tdeg) < 0.05
        ]
        assert len(hits) == 1
        matched.add(hits[0])
    assert len(matched) == 4


def test_benchmark_solutions_regression(ref_geom):
    sols = forward_kinematics(ref_geom, ALPHA_REF)
    assert len(sols) == len(FK_REF_POSES)
    for got, want in zip(sols, FK_REF_POSES):
        assert got.distance(want) < 1e-9


def test_solutions_sorted_and_closed(ref_geom):
    sols = forward_kinematics(ref_geom, ALPHA_REF)
    keys = [(s.theta, s.x) for s in sols]
    assert keys == sorted(keys)
    for s in sols:
        assert closure_residual(ref_geom, ALPHA_REF, s) < 1e-9


def test_empty_solution_set(ref_geom):
    assert forward_kinematics(ref_geom, ALPHA_EMPTY) == []


def test_round_trip_fk_of_ik_contains_pose(ref_geom, rng):
    count = 0
    while count < 25:
        pose = Pose(rng.uniform(-8, 8), rng.uniform(-8, 8), rng.uniform(-math.pi, math.pi))
        cfgs = inverse_kinematics_all(ref_geom, pose)
        if len(cfgs) < 8:
            continue
        count += 1
        for mode, cfg in cfgs.items():
            sols = forward_kinematics(ref_geom, cfg.alpha)
            assert min(s.distance(pose) for s in sols) < 1e-9


def test_ik_of_fk_recovers_alpha(ref_geom, rng):
    # Each assembly pose, classified by its B_ii signs, re-derives the input
    # joint angles through the inverse problem in that working mode.
    for _ in range(10):
        alpha = rng.uniform(0, 2 * math.pi, 3)
        for sol in forward_kinematics(ref_geom, alpha):
            branches = inverse_kinematics_all(ref_geom, sol)
            best = min(
                branches.values(),
                key=lambda c: max(
                    abs(angle_difference(a, b)) for a, b in zip(c.alpha, alpha)
                ),
            )
            mode = working_mode_of(jacobians(ref_geom, best))
            cfg = inverse_kinematics(ref_geom, sol, mode)
            for got, want in zip(cfg.alpha, alpha):
                assert abs(angle_difference(got, want)) < 1e-9


def test_solution_count_bound_and_parity(ref_geom, rng):
    seen = set()
    for _ in range(60):
        alpha = rng.uniform(0, 2 * math.pi, 3)
        sols = forward_kinematics(ref_geom, alpha)
        assert len(sols) <= 6
        seen.add(len(sols))
    assert max(seen) <= 6


def test_solutions_pass_grid_minimum_oracle(ref_geom, rng):
    for _ in range(8):
        alpha = rng.uniform(0, 2 * math.pi, 3)
        for sol in forward_kinematics(ref_geom, alpha):
            assert oracles.solution_near_grid_minimum(ref_geom, alpha, sol)


def test_solutions_complete_against_descent_oracle(ref_geom, rng):
    # Independent completeness check: every zero-residual minimum found by
    # descent from coarse seeds is a returned solution and vice versa.
    cases = [np.asarray(ALPHA_REF)] + [rng.uniform(0, 2 * math.pi, 3) for _ in range(4)]
    for alpha in cases:
        sols = forward_kinematics(ref_geom, alpha)
        oracle = [Pose(x, y, t) for x, y, t in oracles.assembly_poses_by_descent(ref_geom, alpha)]
        assert len(oracle) == len(sols)
        for p in oracle:
            assert min((s.distance(p) for s in sols), default=np.inf) < 1e-4
        for s in sols:
            assert min((s.distance(p) for p in oracle), default=np.inf) < 1e-4


@pytest.mark.parametrize("alpha, count", NEAR_TANGENT_CLUSTERS, ids=[f"alpha{k}" for k in range(5)])
def test_near_tangent_root_clusters(ref_geom, alpha, count):
    sols = forward_kinematics(ref_geom, alpha)
    assert len(sols) == count
    for s in sols:
        assert closure_residual(ref_geom, alpha, s) < 1e-9
    for k, s in enumerate(sols):
        assert all(s.distance(q) > batch.MERGE_TOL for q in sols[:k])
    # The descent oracle finds the same poses.
    oracle_poses = oracles.assembly_poses_by_descent(ref_geom, np.asarray(alpha))
    assert len(oracle_poses) == count
    for x, y, t in oracle_poses:
        assert min(s.distance(Pose(x, y, t)) for s in sols) < 1e-4


def test_degenerate_reduction_raises():
    # The platform triangle mirrors the base one at equal size, so the elbow
    # triangle of equal actuated angles mirrors the platform and the 2x2
    # difference system is singular for every orientation.
    p = DEFAULT_PHASES
    geom = GeometryConfig(r=5, s=5, base_phase=p, platform_phase=(p[0], p[2], p[1]))
    with pytest.raises(DegenerateLinearSystemError) as info:
        forward_kinematics(geom, (0.3, 0.3, 0.3))
    assert info.value.theta_hi - info.value.theta_lo > math.pi


def test_mirrored_platform_solves_generic_triples():
    # The geometry of the test above: only special triples make det(M)
    # vanish identically, so the IK image of a generic pose is solved.
    p = DEFAULT_PHASES
    geom = GeometryConfig(r=5, s=5, base_phase=p, platform_phase=(p[0], p[2], p[1]))
    pose = Pose(0.5, -0.3, 0.4)
    sols = forward_kinematics(geom, inverse_kinematics(geom, pose, WorkingMode.A).alpha)
    assert len(sols) == 2
    assert min(s.distance(pose) for s in sols) < 1e-9
