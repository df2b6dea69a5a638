"""The direct solver's closure kernels and its full-system Newton.

The kernels evaluate all three legs at once; ``oracles`` keeps their
one-leg-at-a-time form, which they must reproduce bit for bit at every
theta shape their callers pass. The Newton stops a row at the rounding
floor as well as at a step below 1e-13; on simple roots it must follow the
step-only loop bit for bit, and every row of a batch must come out as it
does alone, however the other rows stop. Its Jacobian is 2A from the shared
row builder.
Each scan root gets one kind of position candidate: one Cramer point or two
rank-1 line points.
"""

import math

import numpy as np
import pytest

import oracles
from conftest import NEAR_TANGENT_CLUSTERS
from planar3rrr import batch
from planar3rrr.errors import DegenerateLinearSystemError, KinematicError
from planar3rrr.geometry import DEFAULT_PHASES, GeometryConfig, Pose, WorkingMode, platform_joints
from planar3rrr.kinematics import forward_kinematics, inverse_kinematics

K = 17

GEOMETRIES = {
    "reference": GeometryConfig.reference(),
    "congruent": GeometryConfig(r=5, s=5),
    "l_ne_m": GeometryConfig(l=5, m=7, r=9, s=4),
    "random": GeometryConfig(
        l=3.7,
        m=8.2,
        r=6.1,
        s=2.3,
        base_phase=(0.4, 2.9, 4.1),
        platform_phase=(5.3, 1.2, 3.3),
    ),
}

#: The platform triangle mirrors the base one at equal size: equal actuated
#: angles make the 2x2 reduction singular at every theta.
MIRRORED = GeometryConfig(r=5, s=5, platform_phase=tuple(DEFAULT_PHASES[i] for i in (0, 2, 1)))


def _elbows(geom, rng, k=K):
    return batch.elbow_points(geom, rng.uniform(-math.pi, math.pi, (k, 3)))


@pytest.mark.parametrize("geom", GEOMETRIES.values(), ids=GEOMETRIES.keys())
@pytest.mark.parametrize("shape", [(1, 8), (K, 1), (K, 3), (1, 3), (K,)])
def test_system_pieces_match_per_leg_oracle(geom, shape, rng):
    bx, by = _elbows(geom, rng)
    theta = rng.uniform(-7.0, 7.0, shape)
    got = batch._fk_system_pieces(geom, bx, by, theta)
    want = oracles.fk_system_pieces_per_leg(geom, bx, by, theta.reshape(len(theta), -1))
    flat_got = [*got[0], *got[1], *got[2:]]
    flat_want = [*want[0], *want[1], *want[2:]]
    if theta.ndim == 1:
        flat_want = [v[:, 0] for v in flat_want]
    for g, w in zip(flat_got, flat_want):
        assert g.shape == w.shape
        assert np.array_equal(g, w)


@pytest.mark.parametrize("geom", [*GEOMETRIES.values(), MIRRORED], ids=[*GEOMETRIES, "mirrored"])
def test_elbow_screen_matches_per_row_oracle(geom, rng):
    # Uniform triples, and equal-angle triples (degenerate on the mirrored
    # geometry, self-motion candidates on the congruent one).
    equal = np.repeat(rng.uniform(-math.pi, math.pi, (20, 1)), 3, axis=1)
    alphas = np.vstack((rng.uniform(-math.pi, math.pi, (500, 3)), equal))
    bx, by = batch.elbow_points(geom, alphas)
    live, degenerate = batch._screen_elbows(geom, bx, by)
    want_live, want_degenerate = oracles.elbow_screen_per_row(geom, bx, by)
    assert np.array_equal(live, np.flatnonzero(want_live))
    assert np.array_equal(degenerate, np.flatnonzero(want_degenerate))
    assert degenerate.tolist() == (list(range(500, 520)) if geom is MIRRORED else [])


@pytest.mark.parametrize("geom", GEOMETRIES.values(), ids=GEOMETRIES.keys())
def test_full_system_and_closure_error_match_per_leg_oracle(geom, rng):
    # The Newton's closure Jacobian is 2A, from the one row builder.
    alphas = rng.uniform(-math.pi, math.pi, (K, 3))
    bx, by = batch.elbow_points(geom, alphas)
    x, y = rng.uniform(-6.0, 6.0, (2, K))
    theta = rng.uniform(-7.0, 7.0, K)
    g_want, jac_want = oracles.full_system_per_leg(geom, bx, by, x, y, theta)
    rows = batch.jacobian_rows(geom, alphas, x, y, theta)[0]
    assert np.array_equal(jac_want, 2 * rows)
    ex, ey = rows[..., 0], rows[..., 1]
    assert np.array_equal(g_want, ex * ex + ey * ey - geom.m * geom.m)
    assert np.array_equal(
        batch._closure_error(geom, bx, by, x, y, theta),
        oracles.closure_error_per_leg(geom, bx, by, x, y, theta),
    )


@pytest.mark.parametrize("geom", GEOMETRIES.values(), ids=GEOMETRIES.keys())
def test_newton_follows_step_floor_loop_on_simple_roots(geom, rng):
    # Candidates 1e-3 off the poses of mode-A IK images. Where the closure
    # Jacobian at the pose is well conditioned the root is simple, Newton
    # converges quadratically and the two loops agree bit for bit; elsewhere
    # they may part at the rounding floor.
    alphas, poses = [], []
    while len(poses) < 200:
        pose = Pose(*rng.uniform(-3.0, 3.0, 2), rng.uniform(-1.0, 1.0))
        try:
            alphas.append(inverse_kinematics(geom, pose, WorkingMode.A).alpha)
        except KinematicError:
            continue
        poses.append(pose.as_tuple())
    bx, by = batch.elbow_points(geom, np.array(alphas))
    exact = np.array(poses)
    # cond(2A) = cond(A).
    simple = np.linalg.cond(batch.jacobian_rows(geom, np.array(alphas), *exact.T)[0]) < 100.0
    assert simple.sum() > 150
    x, y, theta = (exact + rng.normal(0.0, 1e-3, exact.shape)).T
    got = np.array(batch._newton_full_batch(geom, bx, by, x, y, theta))
    want = np.array(oracles.newton_full_step_floor(geom, bx, by, x, y, theta))
    assert np.array_equal(got[:, simple], want[:, simple])
    assert np.abs(got - want).max() < 1e-10


#: Pose whose mode-A IK image gives the candidates of ``_zero_row_batch``.
ZERO_ROW_POSE = Pose(0.3, 0.2, 0.1)


def _zero_row_batch(geom):
    """Newton inputs (bx, by, x, y, theta) of two candidates of ZERO_ROW_POSE's triple.

    Elbow 1 of candidate 0 sits on its platform joint, so leg 1's row of A
    is exactly zero there; candidate 1 is 1e-3 off the pose.
    """
    pose = ZERO_ROW_POSE
    alpha = inverse_kinematics(geom, pose, WorkingMode.A).alpha
    bx, by = batch.elbow_points(geom, np.array([alpha, alpha]))
    x = np.array([1.0, pose.x + 1e-3])
    y = np.array([-0.5, pose.y - 1e-3])
    theta = np.array([0.7, pose.theta + 1e-3])
    cx, cy = platform_joints(geom, x[0], y[0], theta[0])
    bx[0, 0], by[0, 0] = cx[0], cy[0]
    return bx, by, x, y, theta


def test_newton_zero_row_falls_back_and_leaves_other_rows_alone(ref_geom, monkeypatch):
    # Leg 1's row of A of candidate 0 is exactly zero: the batched solve
    # raises LinAlgError, and the fallback gives that candidate a zero step
    # and solves the other one as alone.
    pose = ZERO_ROW_POSE
    bx, by, x, y, theta = _zero_row_batch(ref_geom)
    fallback = []
    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda a: fallback.append(len(a)) or det(a))
    got = np.array(batch._newton_full_batch(ref_geom, bx, by, x, y, theta))
    assert fallback == [2]
    solo = np.array(batch._newton_full_batch(ref_geom, bx[1:], by[1:], x[1:], y[1:], theta[1:]))
    assert np.array_equal(got[:, 0], (x[0], y[0], theta[0]))
    assert np.array_equal(got[:, 1:], solo)
    assert np.abs(got[:, 1] - pose.as_tuple()).max() < 1e-12


@pytest.mark.parametrize("geom", GEOMETRIES.values(), ids=GEOMETRIES.keys())
def test_positions_give_each_row_cramer_or_line_candidates(geom, rng):
    # Rows with 1e-4 < |det M| / scale <= 1e-1 once got the Cramer point and
    # both line points; now every row is either a Cramer row or a line row.
    k = 4096
    bx, by = _elbows(geom, rng, k)
    theta = rng.uniform(-math.pi, math.pi, k)
    (m11, m12, m21, m22), _, det, *_ = batch._fk_system_pieces(geom, bx, by, theta)
    n1 = np.hypot(m11, m12)
    n2 = np.hypot(m21, m22)
    ratio = np.abs(det) / (n1 * n2)
    line = (ratio <= 1e-1) | (np.minimum(n1, n2) <= batch.SHORT_ROW * geom.m)
    rows, _, _ = batch._positions_batch(geom, bx, by, theta)
    count = np.bincount(rows, minlength=k)
    assert (count[~line] == 1).all()
    assert set(count[line].tolist()) <= {0, 2}
    assert (count[(ratio > 1e-4) & (ratio <= 1e-1)] == 2).any()


def _rows_evaluated(monkeypatch, module, name, arg):
    """Count the rows each call of ``module.name`` evaluates: the length of argument ``arg``."""
    rows = []
    fn = getattr(module, name)

    def counted(*args):
        rows.append(len(args[arg]))
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return rows


def test_near_tangent_clusters_keep_their_poses_with_fewer_newton_rows(ref_geom, monkeypatch):
    alphas = np.array([alpha for alpha, _ in NEAR_TANGENT_CLUSTERS])
    # Inside fk_roots only the full-system Newton builds rows of A.
    new_rows = _rows_evaluated(monkeypatch, batch, "_a_row", 0)
    idx, x, y, theta = batch.fk_roots(ref_geom, alphas)
    old_rows = _rows_evaluated(monkeypatch, oracles, "full_system_per_leg", 1)
    monkeypatch.setattr(batch, "_newton_full_batch", oracles.newton_full_step_floor)
    idx0, x0, y0, theta0 = batch.fk_roots(ref_geom, alphas)
    assert np.bincount(idx, minlength=len(alphas)).tolist() == [c for _, c in NEAR_TANGENT_CLUSTERS]
    assert np.array_equal(idx, idx0)
    for j in range(len(idx)):
        # Records are ordered by closure error within a triple: match by distance.
        same = idx0 == idx[j]
        gap = np.maximum(np.abs(x0 - x[j]), np.abs(y0 - y[j]))
        gap = np.maximum(gap, np.abs(np.angle(np.exp(1j * (theta0 - theta[j])))))
        assert gap[same].min() < 1e-5
        b = oracles.elbow_points(ref_geom, alphas[idx[j]])
        for i, (cx, cy) in enumerate(oracles.platform_joints(ref_geom, x[j], y[j], theta[j])):
            assert abs(math.hypot(cx - b[i, 0], cy - b[i, 1]) - ref_geom.m) < 1e-9
    assert 0 < sum(new_rows) < sum(old_rows)


def test_newton_rows_are_polished_as_alone_under_mixed_stops(ref_geom, monkeypatch):
    # One batch mixes every way a row stops: the candidates of the
    # near-tangent clusters, some stopping on a step below 1e-13 at different
    # iterations, some at the rounding floor (before the step-only loop of
    # the oracle would stop them), one at the 30-step cap, and the exactly
    # singular row of the zero-row test. In any order, each row must come out
    # bit for bit as polished alone, at the cost of its own iterations: a
    # row written back at the wrong index or after the wrong step fails.
    calls = []
    newton = batch._newton_full_batch
    monkeypatch.setattr(batch, "_newton_full_batch", lambda *a: calls.append(a) or newton(*a))
    batch.fk_roots(ref_geom, np.array([alpha for alpha, _ in NEAR_TANGENT_CLUSTERS]))
    monkeypatch.setattr(batch, "_newton_full_batch", newton)
    (_, *cluster), = calls
    zero = [v[:1] for v in _zero_row_batch(ref_geom)]
    bx, by, x, y, theta = (np.concatenate((c, z)) for c, z in zip(cluster, zero))
    rows = _rows_evaluated(monkeypatch, batch, "_a_row", 0)
    oracle_rows = _rows_evaluated(monkeypatch, oracles, "full_system_per_leg", 1)
    alone, steps, oracle_steps = [], [], []
    for k in range(len(x)):
        one = [v[k : k + 1] for v in (bx, by, x, y, theta)]
        before, oracle_before = sum(rows), sum(oracle_rows)
        alone.append(np.array(batch._newton_full_batch(ref_geom, *one))[:, 0])
        oracles.newton_full_step_floor(ref_geom, *one)
        steps.append(sum(rows) - before)
        oracle_steps.append(sum(oracle_rows) - oracle_before)
    steps = np.array(steps)
    floor_stops = (steps < 30) & (steps < oracle_steps)
    step_stops = (steps < 30) & (steps == oracle_steps)
    assert floor_stops.any() and (steps == 30).any()
    assert len(set(steps[step_stops].tolist())) > 3
    assert steps[-1] == 1 and np.array_equal(alone[-1], (x[-1], y[-1], theta[-1]))
    rng = np.random.default_rng(29)
    for _ in range(2):
        order = rng.permutation(len(x))
        rows.clear()
        batch_in = (v[order] for v in (bx, by, x, y, theta))
        got = np.array(batch._newton_full_batch(ref_geom, *batch_in))
        for j, k in enumerate(order):
            assert np.array_equal(got[:, j], alone[k])
        assert sum(rows) == steps.sum()


@pytest.mark.parametrize("seed", range(6))
def test_mirrored_equal_angle_elbows_are_degenerate(seed):
    # An equilateral platform mirrored against the base at equal size: with
    # equal actuated angles the elbow triangle mirrors the platform, and
    # det(M) vanishes at every orientation; one angle off, it does not.
    rng = np.random.default_rng(seed)
    start = rng.uniform(0.0, 2.0 * math.pi)
    base = tuple(start + k * 2.0 * math.pi / 3.0 for k in range(3))
    size = rng.uniform(2.0, 12.0)
    geom = GeometryConfig(
        l=rng.uniform(1.0, 10.0),
        m=rng.uniform(1.0, 10.0),
        r=size,
        s=size,
        base_phase=base,
        platform_phase=(base[0], base[2], base[1]),
    )
    alpha = rng.uniform(-math.pi, math.pi)
    with pytest.raises(DegenerateLinearSystemError):
        forward_kinematics(geom, (alpha, alpha, alpha))
    forward_kinematics(geom, (alpha, alpha, alpha + 1e-3))


def test_close_root_pair_is_two_poses(ref_geom):
    # Two true roots 1.03e-6 apart (Chebyshev; found in 50-digit arithmetic
    # at theta = -0.6750086825 and -0.6750086182), just over MERGE_TOL. The
    # Jacobian there has condition 6e7, so a row stopped at closure values
    # of 1e-10 sits up to 5e-8 off its root and the two copies merged.
    alpha = (-0.24416521671644098, 2.239582234459359, -0.26788043782152915)
    sols = forward_kinematics(ref_geom, alpha)
    assert len(sols) == 4
    pair = [s for s in sols if abs(s.theta + 0.67500865) < 1e-6]
    assert len(pair) == 2
    assert 1e-6 < pair[0].distance(pair[1]) < 2e-6
    b = oracles.elbow_points(ref_geom, alpha)
    for s in sols:
        for i, (cx, cy) in enumerate(oracles.platform_joints(ref_geom, s.x, s.y, s.theta)):
            assert abs(math.hypot(cx - b[i, 0], cy - b[i, 1]) - ref_geom.m) < 1e-9


def test_two_root_cluster_has_no_spurious_third_pose(ref_geom):
    # fk_sweep seed 34, triple 583: the sextic has exactly two real roots
    # (checked at 40 digits). A Cramer point at an unsharpened seed near
    # theta = 5.6807, where M has a short row, polishes to a third pose at
    # theta = -0.2340940 with closure error 1.7e-10, under RESIDUAL_TOL.
    alpha = (0.7900056765594622, -3.033432731933553, 2.7384389411240515)
    sols = forward_kinematics(ref_geom, alpha)
    assert len(sols) == 2
    roots = (-0.234091351549583, -0.234085064057311)
    for s, root in zip(sorted(sols, key=lambda s: s.theta), roots):
        assert abs(s.theta - root) < 1e-7
