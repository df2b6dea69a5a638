import math

import numpy as np
import pytest

from conftest import ALPHA_EMPTY, ALPHA_REF, FK_REF_POSES, NEAR_TANGENT_CLUSTERS, TABLE_POSES
from planar3rrr import batch
from planar3rrr.errors import DegenerateLinearSystemError, KinematicError
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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_alpha_refused(ref_geom, bad):
    # A NaN angle would give an empty pose list, as if no pose existed.
    with pytest.raises(ValueError, match="finite"):
        forward_kinematics(ref_geom, (0.2, bad, 0.3))
    with pytest.raises(ValueError, match="three"):
        forward_kinematics(ref_geom, (0.2, 0.3))


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
            mode = working_mode_of(jacobians(best))
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


#: Near a det(A) = 0 wall, triples where two legs' circles of platform
#: positions nearly coincide at the clustered orientations (a row of the 2x2
#: reduction shorter than ``batch.SHORT_ROW`` * m). There the Cramer point
#: slides along the circles with rounding-level changes of theta, and the
#: poses that only the rank-1 line candidates reach were dropped: from the
#: ``fk_sweep`` benchmark, seed 2 triple 2618 (3 of 4 found), seed 35 triple
#: 790 (3 of 4) and seed 30 triple 2602 (3 of 6); seed 5 triple 295 and seed
#: 20 triple 2731 lost one pose to the real scan alone.
COINCIDENT_CIRCLE_TRIPLES = [
    ((1.3133083049434806, 1.2627869657227286, -1.422040485657619), 4),
    ((0.8177298635833843, -2.742556324274858, -2.796288302825381), 4),
    ((0.9133250442241151, 3.007595921797302, -1.1810252380678818), 6),
    ((0.9141132550779644, 3.0089299751036163, -1.1812905355572276), 6),
    ((0.09136477734698994, -2.3404106479812037, -2.4679723455365794), 4),
]


def _closures(mpmath, geom, alpha):
    """The three closure equations |c_i - b_i|^2 - m^2 of ``alpha`` in mpmath."""
    mpf = mpmath.mpf
    elbows = [
        (
            geom.r * mpmath.cos(mpf(phase)) + geom.l * mpmath.cos(mpf(a)),
            geom.r * mpmath.sin(mpf(phase)) + geom.l * mpmath.sin(mpf(a)),
        )
        for phase, a in zip(geom.base_phase, alpha)
    ]

    def f(x, y, t):
        return [
            (x + geom.s * mpmath.cos(t + psi) - bx) ** 2
            + (y + geom.s * mpmath.sin(t + psi) - by) ** 2
            - geom.m**2
            for (bx, by), psi in zip(elbows, geom.platform_phase)
        ]

    return f


@pytest.mark.parametrize(
    "alpha, count", COINCIDENT_CIRCLE_TRIPLES, ids=[f"alpha{k}" for k in range(5)]
)
def test_nearly_coincident_leg_circles_keep_every_pose(ref_geom, alpha, count):
    mpmath = pytest.importorskip("mpmath")
    sols = forward_kinematics(ref_geom, alpha)
    assert len(sols) == count
    roots = []
    with mpmath.workdps(50):
        f = _closures(mpmath, ref_geom, alpha)
        for s in sols:
            assert closure_residual(ref_geom, alpha, s) < 1e-12
            # A 50-digit Newton from the pose lands on a root next to it (the
            # close pair of the last triple is 2e-5 apart, its Jacobian
            # nearly singular, so the pose is 2e-8 from its root).
            root = mpmath.findroot(f, (s.x, s.y, s.theta), solver="mdnewton")
            assert max(abs(v) for v in f(*root)) < 1e-40
            assert max(abs(r - v) for r, v in zip(root, (s.x, s.y, s.theta))) < 1e-7
            roots.append(root)
        # ... and every pose on a root of its own.
        for k, p in enumerate(roots):
            assert all(max(abs(a - b) for a, b in zip(p, q)) > batch.MERGE_TOL for q in roots[:k])


def test_degenerate_reduction_raises():
    # The platform triangle mirrors the base one at equal size, so the elbow
    # triangle of equal actuated angles mirrors the platform and the 2x2
    # difference system is singular for every orientation.
    p = DEFAULT_PHASES
    geom = GeometryConfig(r=5, s=5, base_phase=p, platform_phase=(p[0], p[2], p[1]))
    with pytest.raises(DegenerateLinearSystemError) as info:
        forward_kinematics(geom, (0.3, 0.3, 0.3))
    assert info.value.alpha == (0.3, 0.3, 0.3)
    assert str(info.value).endswith("position system singular at every orientation")


def test_degenerate_error_names_stage_and_triple():
    p = DEFAULT_PHASES
    geom = GeometryConfig(r=5, s=5, base_phase=p, platform_phase=(p[0], p[2], p[1]))
    with pytest.raises(DegenerateLinearSystemError) as info:
        forward_kinematics(geom, (0.3, 0.3, 0.3))
    assert info.value.alpha == (0.3, 0.3, 0.3)
    assert info.value.row is None
    assert str(info.value) == (
        "direct kinematics, alpha = (0.3, 0.3, 0.3): "
        "position system singular at every orientation"
    )


@pytest.mark.xfail(
    raises=pytest.fail.Exception,
    reason="self-motion is returned as isolated poses, with no refusal (ROADMAP item 4)",
)
def test_self_motion_is_refused():
    # The mode-A IK of pose (0.3, 0.2, 0) on the congruent geometry: the
    # platform can translate on a circle at theta = 0 with these actuated
    # angles, besides the isolated poses at theta = +-1.287. The solver
    # returns 5 poses, three of them arbitrary points of that circle.
    with pytest.raises(KinematicError):
        forward_kinematics(GeometryConfig(r=5, s=5), (-0.9527429399314791,) * 3)


def test_mirrored_platform_solves_generic_triples():
    # The geometry of the test above: only special triples make det(M)
    # vanish identically, so the IK image of a generic pose is solved.
    p = DEFAULT_PHASES
    geom = GeometryConfig(r=5, s=5, base_phase=p, platform_phase=(p[0], p[2], p[1]))
    pose = Pose(0.5, -0.3, 0.4)
    sols = forward_kinematics(geom, inverse_kinematics(geom, pose, WorkingMode.A).alpha)
    assert len(sols) == 2
    assert min(s.distance(pose) for s in sols) < 1e-9
