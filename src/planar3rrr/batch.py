"""Vectorized kinematic kernels.

Array-oriented versions of the leg reach test, branch selection, det(A)
evaluation and direct-kinematics root isolation, on one leg geometry: every
kernel takes its platform joints from ``geometry.platform_joints`` (legs
along a leading axis, one cos and one sin), its reach annulus from the
geometry's ``reach_min`` and ``reach_max``, and its rows of A from
``_a_row``, with det(A) as row 1 . (row 2 x row 3) (``_cross``, ``_dot``).
``jacobian_rows`` is the one builder of A, det(A) and B_ii from actuated
angles and poses; ``solve_legs`` and ``jacobians.jacobians`` call it.

``solve_legs`` is the one inverse-kinematic leg solver:
``kinematics.inverse_kinematics``, ``inverse_kinematics_all`` and
``trajectory.monitor`` call it, and its leg status, which reads
``geometry.loop_gaps``, is their only refusal. Its angles reproduce the
scalar operation order bit for bit, with ``math.hypot`` and ``math.atan2``
mapped over the flattened leg axis, because the monitor's profile and
evidence files are byte-identical artifacts. The census needs only det(A) signs
(``mode_determinants``): it tests reach first (``leg_reach``), then builds
both elbow branches of every leg without an arctangent, only at the samples
all three legs reach, and reuses the cross product of rows 2 and 3 across
modes. ``fk_roots`` is the only direct-kinematics solver and raises all its
refusals; ``kinematics.forward_kinematics`` calls it for one triple. It isolates
orientations with the eigenvalues of one real sextic per triple
(``scan_roots``), gives each orientation root either one Cramer position or
two rank-1 line positions, never both, and keeps the full-system polish of
each candidate as the candidate. Its closure kernels evaluate the three
legs with one cos and one sin, in the per-leg operation order. Its
full-system Newton steps on 2A, the closure Jacobian, from ``_a_row``, and
stops a row at the rounding floor, not only at a step below 1e-13.

``classify`` is the one singularity rule and the only kernel that eps
enters; the reach band of ``solve_legs`` is the fixed ``REACH_BAND``, and
``same_pose``, the solver's merge rule, is the one pose identity.

Shapes follow numpy broadcasting; x, y, theta must broadcast against each
other. Actuated angles come as (K, 3) rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (
    DegenerateLinearSystemError, KinematicError, SerialBoundaryError, UnreachableError
)
from .geometry import (
    EPS_SING,
    LOOP_TOL,
    TWO_PI,
    GeometryConfig,
    WorkingMode,
    elbow_points,
    loop_gaps,
    platform_joints,
    platform_offsets,
    pose_gaps,
    wrap_angles,
)

#: Enum order used whenever modes are indexed 0..7.
MODE_ORDER = tuple(WorkingMode)


def _a_row(x, y, cx, cy, bx, by):
    """Row (ex, ey, w) of A: e = c - b and w = -(c - b)^T E (p - c)."""
    ex = cx - bx
    ey = cy - by
    return ex, ey, (y - cy) * ex - (x - cx) * ey


def _cross(r2, r3):
    """Cross product r2 x r3 of two rows of A."""
    return (
        r2[1] * r3[2] - r2[2] * r3[1],
        r2[2] * r3[0] - r2[0] * r3[2],
        r2[0] * r3[1] - r2[1] * r3[0],
    )


def _dot(r1, v):
    """Dot product of a row of A with a vector, term by term from the first."""
    return r1[0] * v[0] + r1[1] * v[1] + r1[2] * v[2]


def leg_reach(geom: GeometryConfig, x, y, theta):
    """Strict reach mask of all three legs, and the platform joints.

    Returns (reach, (cx, cy)), the joints as ``platform_joints`` gives them.
    A leg is in reach when its base-to-platform distance lies strictly
    inside the annulus (reach_min, reach_max).
    """
    a = geom.base_points
    lo2 = geom.reach_min**2
    hi2 = geom.reach_max**2
    cx, cy = platform_joints(geom, x, y, theta)
    reach = None
    for i in range(3):
        dx = cx[i] - a[i, 0]
        dy = cy[i] - a[i, 1]
        d2 = dx * dx + dy * dy
        ok = (d2 > lo2) & (d2 < hi2)
        reach = ok if reach is None else (reach & ok)
    return reach, (cx, cy)


def _branch_rows(geom: GeometryConfig, i: int, x, y, cx, cy):
    """Rows of A of leg i for both elbow branches, without an arctangent.

    x, y and the leg's platform joint (cx, cy) are 1-D arrays of samples
    that ``leg_reach`` accepted. Branch index 0 is the positive elbow sign.
    """
    ax, ay = geom.base_points[i]
    l, m = geom.l, geom.m
    dx = cx - ax
    dy = cy - ay
    d2 = dx * dx + dy * dy
    d = np.sqrt(d2)
    inv = 1.0 / d
    cos_d = (d2 - l * l - m * m) / (2.0 * l * m)
    sin_d = np.sqrt(np.maximum(0.0, 1.0 - cos_d * cos_d))
    cphi = (l + m * cos_d) * inv
    sphi = (m * sin_d) * inv
    dhx = dx * inv
    dhy = dy * inv
    # u(alpha) = R(-phi_signed) applied to the unit target vector.
    return [
        _a_row(x, y, cx, cy, ax + l * (dhx * cphi + dhy * sp), ay + l * (-dhx * sp + dhy * cphi))
        for sp in (sphi, -sphi)
    ]


def mode_determinants(geom: GeometryConfig, x, y, theta, modes=MODE_ORDER):
    """(reach, dets) with dets[j] = det(A) for modes[j] at the samples in reach.

    Each det is 1-D, one value per True entry of the reach mask, in the
    order of ``x[reach]``. The rows of A are built only at those samples,
    gathered once per leg, and each cross product of rows 2 and 3 serves
    every mode that uses its branch pair.
    """
    reach, (cx, cy) = leg_reach(geom, x, y, theta)

    def gather(v):
        return np.broadcast_to(v, reach.shape)[reach]

    xs, ys = gather(x), gather(y)
    rows = [_branch_rows(geom, i, xs, ys, gather(cx[i]), gather(cy[i])) for i in range(3)]
    cross = {}
    dets = []
    for mode in modes:
        j1, j2, j3 = (0 if sg > 0 else 1 for sg in mode.signs)
        if (j2, j3) not in cross:
            cross[j2, j3] = _cross(rows[1][j2], rows[2][j3])
        dets.append(_dot(rows[0][j1], cross[j2, j3]))
    return reach, dets


#: Relative width of the reach band of ``solve_legs``, in units of l + m: a fixed
#: geometric tolerance, not the singularity margin eps of ``classify``.
REACH_BAND = 1e-8

#: Per-leg status codes of ``solve_legs``.
LEG_OK = 0
LEG_BOUNDARY = 1  # in the reach band, or angles that miss LOOP_TOL: SerialBoundaryError
LEG_UNREACHABLE = 2  # outside the reachable annulus: UnreachableError


def _in_reach_band(d, lo: float, hi: float):
    """Mask of leg distances within REACH_BAND * hi of either reach circle."""
    tol = REACH_BAND * hi
    return (np.abs(d - hi) < tol) | (np.abs(d - lo) < tol)


def _math_map(fn, *columns: list) -> np.ndarray:
    """``fn`` from ``math`` over equal-length lists, bit for bit its scalar result.

    numpy's hypot and arctan2 differ from the C library's in the last bit
    for about a quarter of the samples of a path.
    """
    return np.fromiter(map(fn, *columns), dtype=float, count=len(columns[0]))


@dataclass(frozen=True)
class LegSolution:
    """Inverse kinematics and the matrix pair of N poses in one working mode.

    Per-leg arrays have shape (N, 3). ``alpha`` and ``beta`` are wrapped to
    (-pi, pi] and NaN only on legs outside the reachable annulus; ``dist``
    is the base-to-platform joint distance of each leg. ``scale`` is the
    product of the norms of the rows of A. ``loop_gap`` is
    ``geometry.loop_gaps`` of each leg. ``lo`` and ``hi`` are the radii of
    the reachable annulus.
    """

    alpha: np.ndarray
    beta: np.ndarray
    status: np.ndarray
    dist: np.ndarray
    det: np.ndarray
    b_diag: np.ndarray
    scale: np.ndarray
    loop_gap: np.ndarray
    lo: float
    hi: float

    def error(self, k: int) -> KinematicError | None:
        """The error of sample k's lowest failing leg, or None if all legs solve.

        Folds, legs refused only for their loop gap, come after the others.
        """
        fold = (self.status[k] == LEG_BOUNDARY) & ~_in_reach_band(self.dist[k], self.lo, self.hi)
        for i in np.argsort(fold, kind="stable").tolist():
            code = self.status[k, i]
            if code == LEG_BOUNDARY:
                return SerialBoundaryError(i + 1, float(self.dist[k, i]))
            if code == LEG_UNREACHABLE:
                return UnreachableError(i + 1, float(self.dist[k, i]), self.lo, self.hi)
        return None


def solve_legs(geom: GeometryConfig, x, y, theta, mode: WorkingMode):
    """Solve every leg of N poses in ``mode`` and evaluate A, B there.

    x, y, theta are (N,) arrays. A leg is LEG_BOUNDARY within
    ``REACH_BAND * reach_max`` of either reach circle (checked first) or
    where its angles miss loop closure by more than LOOP_TOL, a fold the
    float elbow formula cannot resolve (with l = m, a platform joint within
    about 5e-6 of its base joint); LEG_UNREACHABLE outside the annulus. The
    arithmetic follows the scalar two-bar solution term by term, so one
    sample gives the same floats as solving it alone.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    theta = np.asarray(theta, dtype=float)
    a = geom.base_points
    l, m = geom.l, geom.m
    lo, hi = geom.reach_min, geom.reach_max
    cx, cy = platform_joints(geom, x, y, theta)
    dx_list = (cx - a[:, :1]).ravel().tolist()
    dy_list = (cy - a[:, 1:]).ravel().tolist()
    d = _math_map(math.hypot, dx_list, dy_list).reshape(3, -1)
    cos_d = np.clip((d * d - l * l - m * m) / (2.0 * l * m), -1.0, 1.0)
    sin_d = np.reshape(mode.signs, (3, 1)) * np.sqrt(np.maximum(0.0, 1.0 - cos_d * cos_d))
    al = _math_map(math.atan2, dy_list, dx_list) - _math_map(
        math.atan2, (m * sin_d).ravel().tolist(), (l + m * cos_d).ravel().tolist()
    )
    be = al + _math_map(math.atan2, sin_d.ravel().tolist(), cos_d.ravel().tolist())
    outside = ((d > hi) | (d < lo)).T
    alpha = np.where(outside, np.nan, wrap_angles(al).reshape(3, -1).T)
    beta = np.where(outside, np.nan, wrap_angles(be).reshape(3, -1).T)
    rows, det, b_diag, scale = jacobian_rows(geom, alpha, x, y, theta)
    loop_gap = loop_gaps(m, rows[:, :, 0], rows[:, :, 1], beta)  # rows[..., :2] = c_i - b_i
    boundary = _in_reach_band(d.T, lo, hi) | (loop_gap > LOOP_TOL)
    status = np.where(boundary, LEG_BOUNDARY, np.where(outside, LEG_UNREACHABLE, LEG_OK))
    return LegSolution(
        alpha=alpha,
        beta=beta,
        status=status.astype(np.int8),
        dist=d.T,
        det=det,
        b_diag=b_diag,
        scale=scale,
        loop_gap=loop_gap,
        lo=lo,
        hi=hi,
    )


def jacobian_rows(geom: GeometryConfig, alphas: np.ndarray, x, y, theta):
    """Rows of A, det(A), B_ii and the row-norm scale at poses with known angles.

    ``alphas`` has shape (N, 3) aligned with the (N,) pose arrays. Returns
    (rows (N, 3, 3), det (N,), b_diag (N, 3), scale (N,)); row i of A is
    [(c_i - b_i)^T, -(c_i - b_i)^T E (p - c_i)] and B_ii = (c_i - b_i)^T E (b_i - a_i).
    """
    a = geom.base_points
    bx, by = (v.T for v in elbow_points(geom, alphas))
    cx, cy = platform_joints(geom, x, y, theta)
    ex, ey, w = _a_row(x, y, cx, cy, bx, by)
    b_diag = (bx - a[:, :1]) * ey - (by - a[:, 1:]) * ex
    # Leg i's row of A is (ex[i], ey[i], w[i]).
    r1, r2, r3 = zip(ex, ey, w)
    rows = np.stack((ex.T, ey.T, w.T), axis=-1)
    norms = np.linalg.norm(rows, axis=-1)
    return rows, _dot(r1, _cross(r2, r3)), b_diag.T, norms[:, 0] * norms[:, 1] * norms[:, 2]


def _fk_system_pieces(geom: GeometryConfig, bx, by, theta):
    """Difference-system parts for elbow points (K, 3) against theta (K,) or (K or 1, T).

    The legs run along a leading axis of one cos and one sin; each element
    is computed in the order of a per-leg evaluation, bit for bit.
    """
    m = geom.m
    pad = (1,) * (theta.ndim - 1)
    ux, uy = platform_offsets(geom, theta, theta.ndim)
    ex = ux - bx.T.reshape(3, -1, *pad)
    ey = uy - by.T.reshape(3, -1, *pad)
    h = ex * ex + ey * ey - m * m
    m11, m21 = 2.0 * (ex[1:] - ex[0])
    m12, m22 = 2.0 * (ey[1:] - ey[0])
    det = m11 * m22 - m12 * m21
    r1, r2 = h[0] - h[1:]
    return (m11, m12, m21, m22), (r1, r2), det, ex[0], ey[0], h[0]


def _fk_scan(geom: GeometryConfig, bx, by, theta):
    """Pole-free scan function N = f * det(M)^2 (a trig polynomial in theta)."""
    mm, rr, det, e0x, e0y, h0 = _fk_system_pieces(geom, bx, by, theta)
    m11, m12, m21, m22 = mm
    r1, r2 = rr
    arx = r1 * m22 - r2 * m12
    ary = m11 * r2 - m21 * r1
    return arx * arx + ary * ary + 2.0 * det * (arx * e0x + ary * e0y) + det * det * h0


def _positions_batch(geom: GeometryConfig, bx, by, theta):
    """Candidate platform positions at scan-function roots.

    (K,) inputs; returns (rows, x, y). The rows fall in two parts: a row
    whose |det M| is at most 1e-1 of the product of its row norms, or whose
    M has a row shorter than SHORT_ROW * m (see SHORT_ROW), gets the two
    rank-1 line candidates (none where the line misses leg 1's circle);
    every other row gets its one Cramer candidate. Near a singular M a
    cluster of roots can hold two assembly modes at almost the same
    orientation but far apart, and the line points lead the full-system
    polish to both.
    """
    (m11, m12, m21, m22), (r1, r2), det, e0x, e0y, h0 = _fk_system_pieces(geom, bx, by, theta)
    n1 = np.hypot(m11, m12)
    n2 = np.hypot(m21, m22)
    line = (np.abs(det) <= 1e-1 * n1 * n2) | (np.minimum(n1, n2) <= SHORT_ROW * geom.m)
    bi = np.flatnonzero(~line)
    rows_list = [bi]
    xs_list = [(r1[bi] * m22[bi] - r2[bi] * m12[bi]) / det[bi]]
    ys_list = [(m11[bi] * r2[bi] - m21[bi] * r1[bi]) / det[bi]]
    si = np.flatnonzero(line)
    n1 = n1[si]
    n2 = n2[si]
    use1 = n1 >= n2
    nv = np.maximum(np.where(use1, n1, n2), 1e-300)
    vx = np.where(use1, m11[si], m21[si])
    vy = np.where(use1, m12[si], m22[si])
    rv = np.where(use1, r1[si], r2[si])
    px = rv * vx / (nv * nv)
    py = rv * vy / (nv * nv)
    nx = -vy / nv
    ny = vx / nv
    bq = 2.0 * (nx * (px + e0x[si]) + ny * (py + e0y[si]))
    cq = px * px + py * py + 2.0 * (px * e0x[si] + py * e0y[si]) + h0[si]
    disc = bq * bq - 4.0 * cq
    okd = np.isfinite(disc) & (disc >= 0.0)
    sq = np.sqrt(disc[okd])
    for t in (0.5 * (-bq[okd] + sq), 0.5 * (-bq[okd] - sq)):
        rows_list.append(si[okd])
        xs_list.append(px[okd] + t * nx[okd])
        ys_list.append(py[okd] + t * ny[okd])
    return np.concatenate(rows_list), np.concatenate(xs_list), np.concatenate(ys_list)


def _newton_full_batch(geom: GeometryConfig, bx, by, x, y, theta):
    """Vectorized Newton on the full closure system, at most 30 steps per row.

    The closure values are g_i = |c_i - b_i|^2 - m^2, and their Jacobian
    is 2A with its rows from ``_a_row``, so an ill-conditioned row is a
    pose near det(A) = 0. A row stops after a step below 1e-13, or at the
    rounding floor, where its closure values are within STALL_ULPS of m^2
    and its step did not shrink; it then keeps the iterate that step was
    computed at. A row whose 2A is exactly singular gets a zero step. Rows
    near a double root can still run all 30 steps: there the steps wander
    above 1e-13 while the closure values stay more than STALL_ULPS from m^2.

    Each iteration evaluates only the rows still active. Their iterates
    (rows 0-2) and elbow points (rows 3-8) are one compact array, which
    shrinks when rows stop; a stopped row's iterate is written back once.
    The damping divides by ``np.fmax(norm, 1)``, which is 1 for a NaN norm.
    A row's arithmetic does not depend on the other rows of the batch.
    """
    floor = STALL_ULPS * np.spacing(geom.m * geom.m)
    out = np.stack((x, y, theta))
    act = np.arange(len(x))
    zb = np.concatenate((out, bx.T, by.T))
    prev = np.full(len(x), np.inf)
    for _ in range(30):
        if act.size == 0:
            break
        px, py, pt = zb[:3]
        cx, cy = platform_joints(geom, px, py, pt)
        ex, ey, w = _a_row(px, py, cx, cy, zb[3:6], zb[6:])
        g = (ex * ex + ey * ey - geom.m * geom.m).T
        jac = 2.0 * np.array((ex, ey, w)).transpose(2, 1, 0)
        try:
            step = np.linalg.solve(jac, g[..., None])[..., 0]
        except np.linalg.LinAlgError:
            dets = np.linalg.det(jac)
            sing = np.abs(dets) < 1e-300
            jac[sing] = np.eye(3)
            step = np.linalg.solve(jac, g[..., None])[..., 0]
            step[sing] = 0.0
        norm = np.abs(step).max(axis=1)
        stall = (norm >= prev) & (np.abs(g).max(axis=1) <= floor)
        step = step / np.fmax(norm, 1.0)[:, None]
        step[stall] = 0.0
        zb[:3] -= step.T
        go = (norm >= 1e-13) & ~stall
        prev = norm
        if not go.all():
            stop = ~go
            out[:, act[stop]] = zb[:3, stop]
            act = act[go]
            zb = zb[:, go]
            prev = norm[go]
    out[:, act] = zb[:3]
    return out


def _closure_error(geom: GeometryConfig, bx, by, x, y, theta):
    """Largest leg closure error | |c_i - b_i| - m | of each (K,) pose."""
    cx, cy = platform_joints(geom, x, y, theta)
    return np.max(np.abs(np.hypot(cx - bx.T, cy - by.T) - geom.m), axis=0)


#: Trigonometric degree of the scan polynomial N: the direct problem is the
#: classical sextic, at most six real assembly modes.
SCAN_DEGREE = 3

#: Largest ||z| - 1| of an orientation root z = exp(i theta) taken from a
#: companion eigenvalue. The eigenvalues of clustered roots near a tangency
#: leave the real axis, so z leaves the unit circle by a few 1e-3 through
#: rounding; spurious candidates the window lets in are rejected later by the
#: closure gate of fk_roots.
UNIT_WINDOW = 1e-2

#: Orientation samples of N per triple, at multiples of 2 pi / SCAN_SAMPLES:
#: the smallest power of two above 2*SCAN_DEGREE, so they fix N without
#: aliasing.
SCAN_SAMPLES = 8

#: Triples per block of fk_roots; bounds the size of the scan arrays.
FK_CHUNK = 8192

#: Largest closure error, in length units, of an accepted assembly pose.
RESIDUAL_TOL = 1e-9

#: A Newton row whose step stopped shrinking is at its rounding floor when
#: every |c_i - b_i|^2 - m^2 is within this many ulps of m^2. A looser gate
#: can stop copies of two roots 1.03e-6 apart close enough to merge them.
STALL_ULPS = 4

#: A row of the 2x2 system M is twice the distance between two legs' circles
#: of platform positions at one theta; when it is shorter than this many m,
#: the circles nearly coincide, so the Cramer point slides along them as
#: theta moves by rounding while the true poses stay at the intersections
#: with the third leg's circle, which the rank-1 line candidates give; such
#: a row gets only the line candidates.
SHORT_ROW = 1e-2

#: Records of one triple at most this far apart (Chebyshev over x, y and
#: wrapped theta) are one pose: near a double root, copies of one root polish
#: up to 7e-7 apart; the closest distinct poses seen are 6e-5 apart.
MERGE_TOL = 1e-6


def same_pose(x1, y1, t1, x2, y2, t2):
    """The one pose identity: ``geometry.pose_gaps`` at most MERGE_TOL, the solver's merge rule."""
    return pose_gaps(x1, y1, t1, x2, y2, t2) <= MERGE_TOL


def _sextic_matrix():
    """(SCAN_SAMPLES, 2*SCAN_DEGREE + 1) map from samples of N to the sextic P.

    Samples s_k = N(phi + 2 pi k / SCAN_SAMPLES) give N's Fourier
    coefficients g_j; with t = tan((theta - phi) / 2), exp(i (theta - phi))
    is (1 + it) / (1 - it), so P(t) = (1 + t^2)^3 N = sum_j g_j (1 + it)^(3+j)
    (1 - it)^(3-j), a real polynomial (ascending powers of t) whose leading
    coefficient is N(phi + pi).
    """
    deg = SCAN_DEGREE
    k = np.arange(SCAN_SAMPLES)
    out = np.zeros((SCAN_SAMPLES, 2 * deg + 1), dtype=complex)
    for j in range(-deg, deg + 1):
        poly = npoly.polymul(npoly.polypow((1.0, 1j), deg + j), npoly.polypow((1.0, -1j), deg - j))
        out += np.outer(np.exp(-1j * j * k * (TWO_PI / SCAN_SAMPLES)), poly)
    return out.real / SCAN_SAMPLES


_SEXTIC = _sextic_matrix()

#: Row j: the sample indices in order from sample j on.
_ROLL = (np.arange(SCAN_SAMPLES)[:, None] + np.arange(SCAN_SAMPLES)) % SCAN_SAMPLES


def scan_samples(geom: GeometryConfig, bx, by):
    """N at the SCAN_SAMPLES orientations 2 pi k / SCAN_SAMPLES, per input row."""
    grid = np.arange(SCAN_SAMPLES) * (TWO_PI / SCAN_SAMPLES)
    return _fk_scan(geom, bx, by, grid[None, :])


def scan_roots(samples):
    """Orientation seeds for all real roots of N from its (K, SCAN_SAMPLES) samples.

    Column j holds N at theta = 2 pi j / SCAN_SAMPLES. Each row is solved
    as the real sextic P(t), t = tan((theta - phi) / 2), with phi + pi at
    its sample of largest |N|, so P's leading coefficient is that sample
    and no root lies near t = infinity. The eigenvalues t of the real 6x6
    companion matrices (one batched call) map back to
    z = exp(i phi) (1 + it) / (1 - it); those within UNIT_WINDOW of the
    unit circle give the seeds. Rounding can split a close pair of real
    roots into a conjugate pair a +- ib, whose z and 1/conj(z) share one
    angle, so a seed is angle(z) + ln|z|: one on either side of such a pair.
    Rows with N identically zero are skipped. Returns (rows, theta).
    """
    n = SCAN_SAMPLES
    mag = np.abs(samples)
    gi = np.flatnonzero(mag.max(axis=1) > 0.0)
    shift = (mag[gi].argmax(axis=1) + n // 2) % n
    # One (1, 8) x (8, 7) product per row: a single product over all rows goes
    # through BLAS, whose rounding depends on the number of rows.
    rolled = samples[gi[:, None], _ROLL[shift]]
    p = (rolled[:, None, :] @ _SEXTIC)[:, 0]
    deg = p.shape[1] - 1
    comp = np.zeros((gi.size, deg, deg))
    comp[:, np.arange(1, deg), np.arange(0, deg - 1)] = 1.0
    comp[:, :, -1] = -p[:, :deg] / p[:, deg:]
    t = np.linalg.eigvals(comp)
    z = (1.0 + 1j * t) / (1.0 - 1j * t)
    ri, rj = np.nonzero(np.abs(np.abs(z) - 1.0) < UNIT_WINDOW)
    z = z[ri, rj]
    phi = shift[ri] * (TWO_PI / n)
    return gi[ri], (phi + np.angle(z) + np.log(np.abs(z))) % TWO_PI


def _screen_elbows(geom: GeometryConfig, bx, by):
    """Compare each row's elbow triangle with the platform triangle.

    Returns (live, degenerate) row indices. Legs i and j close only if
    ||b_i - b_j| - |c_i - c_j|| <= 2m, where |c_i - c_j| is a side of the
    platform triangle; a row that fails for some pair has no assembly pose
    and is not live. The margin covers the closure gate. Row k of the 2x2
    reduction M is 2 (e^(i theta) q_k - d_k), q_k = s (e^(i psi_k) - e^(i psi_0))
    and d_k = b_k - b_0, so det(M) / 4 = c + Im(e^(i theta) w) has at most two
    zeros unless c = Im(q_1* q_2 + d_1* d_2) and w = q_1 d_2* - q_2 d_1*
    vanish: a degenerate row's M is singular at every orientation.
    """
    psi = geom.platform_phase
    pairs = ((0, 1), (0, 2), (1, 2))
    side = [2.0 * geom.s * abs(math.sin(0.5 * (psi[i] - psi[j]))) for i, j in pairs]
    b = bx + 1j * by
    d = b[:, [1, 2, 2]] - b[:, [0, 0, 1]]  # b_j - b_i of each pair: d_1, d_2, then b_2 - b_1
    dn = np.abs(d)
    close = np.abs(dn - side) <= 2.0 * geom.m + 1e-6
    q = [geom.s * complex(math.cos(p), math.sin(p)) for p in psi]
    q1, q2 = q[1] - q[0], q[2] - q[0]
    dc = d.conj()
    c = (q1.conjugate() * q2 + dc[:, 0] * d[:, 1]).imag
    w = q1 * dc[:, 1] - q2 * dc[:, 0]
    scale = (abs(q1) + dn[:, 0]) * (abs(q2) + dn[:, 1])
    live = close[:, 0] & close[:, 1] & close[:, 2]
    return live.nonzero()[0], (np.abs(c) + np.abs(w) <= 1e-12 * scale).nonzero()[0]


def _first_of_each_pose(idx, x, y, theta):
    """Mask of the records that are not ``same_pose`` as an earlier one of their row.

    Records must be grouped by row; the first record of a cluster is kept.
    """
    keep = np.ones(len(idx), dtype=bool)
    for d in range(1, len(idx)):
        same = idx[d:] == idx[:-d]
        if not same.any():
            break
        keep[d:] &= ~(same & same_pose(x[d:], y[d:], theta[d:], x[:-d], y[:-d], theta[:-d]))
    return keep


def fk_roots(geom: GeometryConfig, alphas: np.ndarray):
    """Direct-kinematics roots for a batch of actuated-angle triples.

    The scan polynomial's roots are isolated algebraically (see scan_roots)
    for the triples whose elbows can hold the platform (``_screen_elbows``)
    and sharpened by three Newton steps on N. Each root then gives one kind
    of position candidate, a Cramer point or two line points
    (``_positions_batch``); every candidate is polished on the full closure
    system, and the polished point passes the RESIDUAL_TOL closure gate or
    is dropped. Returns (idx, x, y, theta): flat arrays of validated
    assembly poses, one record per pose, ``idx`` pointing into ``alphas``
    (sorted by idx). Records of one triple within MERGE_TOL of each other
    are one pose, represented by the record with the smallest closure error.
    Raises ValueError before solving unless ``alphas`` is (3,) or (K, 3)
    finite angles, and DegenerateLinearSystemError for a row whose 2x2
    reduction is singular at every orientation; both name the row of a batch.
    """
    single = np.ndim(alphas) == 1
    alphas = np.atleast_2d(np.asarray(alphas, dtype=float))
    if alphas.shape[1:] != (3,) or not np.isfinite(alphas).all():
        # The first row that is not three finite angles.
        k = int(np.argmin(np.isfinite(alphas).all(axis=1) & (alphas.shape[1:] == (3,))))
        name = "alpha" if single else f"alpha row {k}"
        raise ValueError(
            f"direct kinematics: {name} = {tuple(alphas[k].tolist())} is not three finite angles"
        )
    out = [(np.empty(0, dtype=int), *[np.empty(0)] * 3)]
    for start in range(0, len(alphas), FK_CHUNK):
        bx, by = elbow_points(geom, alphas[start : start + FK_CHUNK])
        live, degenerate = _screen_elbows(geom, bx, by)
        if degenerate.size:
            k = start + int(degenerate[0])
            raise DegenerateLinearSystemError(alphas[k], None if single else k)
        ci, theta = scan_roots(scan_samples(geom, bx[live], by[live]))
        ci = live[ci]
        if ci.size == 0:
            continue
        bxr = bx[ci]
        byr = by[ci]
        # Newton on N sharpens the eigenvalue orientations.
        h = 1e-7
        for _ in range(3):
            fm = _fk_scan(geom, bxr, byr, theta[:, None] + np.array([-h, 0.0, h]))
            d1 = (fm[:, 2] - fm[:, 0]) / (2.0 * h)
            ok = np.isfinite(d1) & (d1 != 0.0)
            theta = theta - np.where(ok, fm[:, 1] / np.where(ok, d1, 1.0), 0.0)
        rows, px, py = _positions_batch(geom, bxr, byr, theta)
        if rows.size == 0:
            continue
        bxr = bxr[rows]
        byr = byr[rows]
        # Full-system polish repairs the conditioning of the 2x2 recovery
        # near singular orientations of the reduction.
        px, py, root = _newton_full_batch(geom, bxr, byr, px, py, theta[rows])
        err = _closure_error(geom, bxr, byr, px, py, root)
        keep = np.flatnonzero(err < RESIDUAL_TOL)
        keep = keep[np.lexsort((err[keep], ci[rows[keep]]))]
        rec = (ci[rows[keep]] + start, px[keep], py[keep], root[keep] % TWO_PI)
        first = _first_of_each_pose(*rec)
        out.append([v[first] for v in rec])
    return tuple(np.concatenate(col) for col in zip(*out))


#: Weights of the sign code of a B_ii sign triple: bit 2-i is set when B_ii is not positive.
_SIGN_BITS = np.array([4, 2, 1])

#: MODE_ORDER index by sign code.
_MODE_BY_CODE = np.argsort((np.array([mode.signs for mode in MODE_ORDER]) < 0) @ _SIGN_BITS)


def classify(det, b_diag, scale, eps: float):
    """The one singularity rule, over poses with det and scale (...) and b_diag (..., 3).

    Returns (mode_idx, det_sign, serial, parallel): the MODE_ORDER index of
    the B_ii signs and the det(A) sign (+1 or -1), a zero counting as
    negative as in ``WorkingMode.from_signs``; the flags |B_ii| < eps,
    (..., 3), and |det(A)| / scale < eps. A margin equal to eps is not singular.
    An eps outside (0, inf), NaN included, raises ValueError.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be in (0, inf), got {eps!r}")
    b_diag = np.asarray(b_diag, dtype=float)
    mode_idx = _MODE_BY_CODE[~(b_diag > 0.0) @ _SIGN_BITS]
    det_sign = np.where(det > 0.0, 1, -1)
    return mode_idx, det_sign, np.abs(b_diag) < eps, np.abs(det) / scale < eps


def assembly_modes(geom: GeometryConfig, alphas: np.ndarray):
    """Working mode and det(A) sign of every assembly pose of each triple.

    Solves the direct problem for the (K, 3) rows of ``alphas`` and keeps
    the poses with nonzero B_ii and det(A), the ones that lie in an aspect.
    Returns (idx, x, y, theta, mode_idx, det_sign): per pose, its row of
    ``alphas``, its MODE_ORDER index and the sign of det(A) as +1 or -1
    (``classify``).
    """
    alphas = np.atleast_2d(np.asarray(alphas, dtype=float))
    idx, x, y, theta = fk_roots(geom, alphas)
    _, det, b_diag, scale = jacobian_rows(geom, alphas[idx], x, y, theta)
    ok = (b_diag != 0.0).all(axis=1) & (det != 0.0)
    mode_idx, det_sign, _, _ = classify(det[ok], b_diag[ok], scale[ok], EPS_SING)
    return idx[ok], x[ok], y[ok], theta[ok], mode_idx, det_sign
