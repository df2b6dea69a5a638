import math

import numpy as np
import pytest

from planar3rrr import batch
from planar3rrr.errors import DegenerateLinearSystemError
from planar3rrr.geometry import DEFAULT_PHASES, GeometryConfig, Pose, WorkingMode, angle_difference
from planar3rrr.jacobians import jacobians
from planar3rrr.kinematics import forward_kinematics, inverse_kinematics, inverse_kinematics_all
from test_fk_kernels import GEOMETRIES


def test_strict_reach_matches_leg_distances(ref_geom, rng):
    xs = rng.uniform(-14, 14, 200)
    ys = rng.uniform(-14, 14, 200)
    ts = rng.uniform(0, 2 * math.pi, 200)
    got, _ = batch.mode_determinants(ref_geom, xs, ys, ts)
    for k in range(200):
        expect = len(inverse_kinematics_all(ref_geom, Pose(xs[k], ys[k], ts[k]))) == 8
        assert bool(got[k]) == expect


def test_mode_determinants_match_scalar(ref_geom, rng):
    xs = rng.uniform(-4, 4, 60)
    ys = rng.uniform(-4, 4, 60)
    ts = rng.uniform(0, 2 * math.pi, 60)
    reach, dets = batch.mode_determinants(ref_geom, xs, ys, ts)
    assert reach.any()
    for mi, mode in enumerate(batch.MODE_ORDER):
        assert dets[mi].shape == (np.count_nonzero(reach),)
        for k, det in zip(np.flatnonzero(reach), dets[mi].tolist()):
            cfg = inverse_kinematics(ref_geom, Pose(xs[k], ys[k], ts[k]), mode)
            pair = jacobians(cfg)
            assert det == pytest.approx(pair.det_a, rel=1e-9, abs=1e-9)


def test_mode_determinants_of_requested_modes(ref_geom, rng):
    xs = rng.uniform(-4, 4, 60)
    ys = rng.uniform(-4, 4, 60)
    ts = rng.uniform(0, 2 * math.pi, 60)
    reach, dets = batch.mode_determinants(ref_geom, xs, ys, ts)
    modes = [WorkingMode.H, WorkingMode.C]
    reach_sub, sub = batch.mode_determinants(ref_geom, xs, ys, ts, modes)
    assert np.array_equal(reach, reach_sub)
    for mode, det in zip(modes, sub):
        assert np.array_equal(det, dets[batch.MODE_ORDER.index(mode)])


def test_one_finite_det_per_sample_in_reach(ref_geom, rng):
    # Samples reach well beyond the outer reach circle of every leg.
    xs = rng.uniform(-20, 20, 3000)
    ys = rng.uniform(-20, 20, 3000)
    ts = rng.uniform(0, 2 * math.pi, 3000)
    for geom in (ref_geom, GeometryConfig(l=5, m=7, r=9, s=4)):
        for args in ((xs, ys, ts), (xs[:20, None, None], ys[None, :25, None], ts[None, None, :30])):
            reach, dets = batch.mode_determinants(geom, *args)
            assert reach.any() and not reach.all()
            for det in dets:
                assert det.shape == (np.count_nonzero(reach),)
                assert np.isfinite(det).all()
            # The dets follow the reach mask's order: the samples in reach,
            # passed alone, give the same values.
            inside = [np.broadcast_to(v, reach.shape)[reach] for v in args]
            all_in, same = batch.mode_determinants(geom, *inside)
            assert all_in.all()
            for det, again in zip(dets, same):
                assert np.array_equal(det, again)


def test_ik_alpha_matches_scalar(ref_geom, rng):
    xs = rng.uniform(-3, 3, 40)
    ys = rng.uniform(-3, 3, 40)
    ts = rng.uniform(-math.pi, math.pi, 40)
    for mode in (WorkingMode.A, WorkingMode.E, WorkingMode.H):
        al = batch.solve_legs(ref_geom, xs, ys, ts, mode).alpha.T
        for k in range(40):
            try:
                cfg = inverse_kinematics(ref_geom, Pose(xs[k], ys[k], ts[k]), mode)
            except Exception:
                assert not np.isfinite(al[:, k]).all()
                continue
            for leg in range(3):
                assert abs(angle_difference(float(al[leg, k]), cfg.alpha[leg])) < 1e-9


def test_fk_roots_rows_are_independent(rng, monkeypatch):
    # Every row of a batch, across FK_CHUNK blocks, is bit for bit that row
    # solved alone, so no result depends on how the rows were blocked.
    monkeypatch.setattr(batch, "FK_CHUNK", 16)
    for geom in GEOMETRIES.values():
        alphas = rng.uniform(-math.pi, math.pi, (40, 3))
        idx, *whole = batch.fk_roots(geom, alphas)
        for k in range(40):
            alone = batch.fk_roots(geom, alphas[k : k + 1])
            sel = idx == k
            assert np.array_equal(alone[0], np.zeros(np.count_nonzero(sel), dtype=int))
            for got, want in zip(whole, alone[1:]):
                assert np.array_equal(got[sel], want)


def test_solution_signs_match_jacobians(ref_geom, rng):
    alphas = rng.uniform(0, 2 * math.pi, (20, 3))
    idx, x, y, th = batch.fk_roots(ref_geom, alphas)
    _, det, b_diag, _ = batch.jacobian_rows(ref_geom, alphas[idx], x, y, th)
    sgn = np.sign(b_diag).astype(int)
    for r in range(len(idx)):
        pose = Pose(float(x[r]), float(y[r]), float(th[r]))
        cfgs = inverse_kinematics_all(ref_geom, pose)
        cfg = min(
            cfgs.values(),
            key=lambda c: max(
                abs(angle_difference(a, b)) for a, b in zip(c.alpha, alphas[idx[r]])
            ),
        )
        pair = jacobians(cfg)
        assert tuple(sgn[r]) == tuple(np.sign(pair.b_diag).astype(int))
        assert det[r] == pytest.approx(pair.det_a, rel=1e-6)


def test_assembly_modes_match_direct_classification(ref_geom, rng):
    # Per triple, the (mode, det sign) pairs of the shared classifier equal
    # those found by the scalar solvers.
    alphas = rng.uniform(0, 2 * math.pi, (30, 3))
    idx, _, _, _, mode_idx, det_sign = batch.assembly_modes(ref_geom, alphas)
    for k in range(30):
        sel = idx == k
        got = {(batch.MODE_ORDER[m], int(sg)) for m, sg in zip(mode_idx[sel], det_sign[sel])}
        expect = set()
        for pose in forward_kinematics(ref_geom, alphas[k]):
            for mode, cfg in inverse_kinematics_all(ref_geom, pose).items():
                if max(
                    abs(angle_difference(a, b)) for a, b in zip(cfg.alpha, alphas[k])
                ) < 1e-6:
                    pair = jacobians(cfg)
                    expect.add((mode, 1 if pair.det_a > 0 else -1))
        assert got == expect


def test_scan_roots_of_sampled_trig_polynomials():
    # N = cos(2 theta) - 1/2 (no degree-3 term) has roots at odd multiples of
    # pi/6; N = 0 has no isolated roots; N = cos(3 theta) has six, and
    # N = sin(3 theta) six at multiples of pi/3, two of them (0 and pi) on
    # scan angles: there the sextic's variable t is 0 or the largest sample
    # sits next to a root.
    grid = np.arange(batch.SCAN_SAMPLES) * (2 * math.pi / batch.SCAN_SAMPLES)
    samples = np.array(
        [np.cos(2 * grid) - 0.5, np.zeros_like(grid), np.cos(3 * grid), np.sin(3 * grid)]
    )
    rows, theta = batch.scan_roots(samples)
    expect = {
        0: np.array([1, 5, 7, 11]) * math.pi / 6,
        2: np.arange(1, 12, 2) * math.pi / 6,
        3: np.arange(6) * math.pi / 3,
    }
    assert set(rows.tolist()) == set(expect)
    for row, roots in expect.items():
        got = theta[rows == row]
        assert got.shape == roots.shape
        assert ((got >= 0.0) & (got < 2 * math.pi)).all()
        gap = np.abs(np.angle(np.exp(1j * (got[:, None] - roots[None, :]))))
        assert (gap.min(axis=0) < 1e-12).all()


# The platform triangle mirrors the base one at equal size, so equal actuated
# angles make the direct problem's 2x2 reduction singular at every theta.
MIRRORED = GeometryConfig(
    r=5, s=5, base_phase=DEFAULT_PHASES, platform_phase=tuple(DEFAULT_PHASES[i] for i in (0, 2, 1))
)
# Rows 0 and 2 round the mode-A IK of (0.5, -0.3, 0.4) and (-0.4, 0.2, 1.0).
BATCH_WITH_DEGENERATE_ROW = np.array(
    [[2.153, -0.437, 2.457], [0.3, 0.3, 0.3], [2.434, -0.085, 2.477]]
)


@pytest.mark.parametrize("solver", [batch.fk_roots, batch.assembly_modes])
def test_degenerate_row_refuses_the_batch(solver):
    with pytest.raises(DegenerateLinearSystemError, match=r"row 1 = \(0\.3, 0\.3, 0\.3\)") as info:
        solver(MIRRORED, BATCH_WITH_DEGENERATE_ROW)
    assert info.value.row == 1
    assert info.value.alpha == (0.3, 0.3, 0.3)
    idx = solver(MIRRORED, BATCH_WITH_DEGENERATE_ROW[[0, 2]])[0]
    assert np.bincount(idx).tolist() == [2, 4]


def test_degenerate_row_of_a_later_chunk_keeps_its_batch_index(monkeypatch):
    monkeypatch.setattr(batch, "FK_CHUNK", 2)
    alphas = np.roll(BATCH_WITH_DEGENERATE_ROW, 2, axis=0)
    with pytest.raises(DegenerateLinearSystemError) as info:
        batch.fk_roots(MIRRORED, np.vstack((alphas, alphas)))
    assert info.value.row == 0
    with pytest.raises(DegenerateLinearSystemError) as info:
        batch.fk_roots(MIRRORED, np.vstack((alphas[1:], alphas[1:], alphas)))
    assert info.value.row == 4


@pytest.mark.parametrize("solver", [batch.fk_roots, batch.assembly_modes])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_row_refused(ref_geom, solver, bad):
    # A NaN row used to give no poses, as if the triple had no assembly.
    alphas = np.array([[0.1, 0.2, 0.3], [0.2, 0.3, 0.4], [0.2, bad, 0.3], [0.1, bad, 0.3]])
    with pytest.raises(ValueError, match="alpha row 2 = .* is not three finite angles"):
        solver(ref_geom, alphas)


def test_rows_of_two_angles_refused(ref_geom):
    # Used to fail inside elbow_points: "operands could not be broadcast".
    with pytest.raises(ValueError, match="alpha row 0 = .* is not three finite angles"):
        batch.fk_roots(ref_geom, np.zeros((4, 2)))


def test_empty_batch_returns_four_empty_arrays(ref_geom):
    idx, x, y, theta = batch.fk_roots(ref_geom, np.empty((0, 3)))
    assert idx.dtype.kind == "i"
    assert idx.size == x.size == y.size == theta.size == 0
