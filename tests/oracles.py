"""Independent brute-force oracles for the kinematic solvers and octrees.

Everything here works from the raw geometry definition (triangle phases and
bar lengths) with plain trigonometry, or from plain lists of octree cells and
dump text; nothing calls the solvers, the merger or the dump parser under test.
"""

import math
import re

import numpy as np


def elbow_points(geom, alpha):
    """b_i = a_i + l * u(alpha_i), shape (3, 2)."""
    out = np.empty((3, 2))
    for i, phi in enumerate(geom.base_phase):
        out[i, 0] = geom.r * math.cos(phi) + geom.l * math.cos(alpha[i])
        out[i, 1] = geom.r * math.sin(phi) + geom.l * math.sin(alpha[i])
    return out


def platform_joints(geom, x, y, theta):
    """c_i for a pose; x, y, theta may be numpy arrays (broadcast)."""
    cs = []
    for psi in geom.platform_phase:
        cs.append(
            (
                x + geom.s * np.cos(theta + psi),
                y + geom.s * np.sin(theta + psi),
            )
        )
    return cs


def closure_residuals(geom, b, x, y, theta):
    """The three closure residuals |c_i - b_i|^2 - m^2 (arguments broadcast)."""
    return [
        (cx - b[i, 0]) ** 2 + (cy - b[i, 1]) ** 2 - geom.m**2
        for i, (cx, cy) in enumerate(platform_joints(geom, x, y, theta))
    ]


def residual_sq(geom, b, x, y, theta):
    """Total squared closure residual sum_i (|c_i - b_i|^2 - m^2)^2."""
    return sum(r**2 for r in closure_residuals(geom, b, x, y, theta))


def solution_near_grid_minimum(geom, alpha, pose, span=3):
    """The stated oracle: the pose lies within one grid cell of a local
    minimum of the squared residual on a grid at step 0.01 / 0.5 degrees."""
    b = elbow_points(geom, alpha)
    hx = hy = 0.01
    ht = math.radians(0.5)
    xs = pose.x + hx * np.arange(-span, span + 1)
    ys = pose.y + hy * np.arange(-span, span + 1)
    ts = pose.theta + ht * np.arange(-span, span + 1)
    grid = residual_sq(
        geom, b, xs[:, None, None], ys[None, :, None], ts[None, None, :]
    )
    k = np.unravel_index(np.argmin(grid), grid.shape)
    return all(abs(k[i] - span) <= 1 for i in range(3))


def coarse_basins(geom, alpha, limit=12.0, step=0.25, ang_step_deg=5.0, tol=50.0):
    """Grid points that are local minima of the squared residual below tol.

    Returns an array of (x, y, theta) rows; used as a completeness
    cross-check, every true assembly pose produces one nearby basin.
    """
    b = elbow_points(geom, alpha)
    xs = np.arange(-limit, limit + step / 2, step)
    ys = np.arange(-limit, limit + step / 2, step)
    ts = np.arange(0.0, 2.0 * math.pi, math.radians(ang_step_deg))
    grid = residual_sq(
        geom, b, xs[:, None, None], ys[None, :, None], ts[None, None, :]
    )
    best = grid.copy()
    for axis in (0, 1, 2):
        for shift in (1, -1):
            rolled = np.roll(grid, shift, axis=axis)
            if axis != 2:  # x, y do not wrap
                sl = [slice(None)] * 3
                sl[axis] = 0 if shift == 1 else -1
                rolled[tuple(sl)] = np.inf
            best = np.minimum(best, rolled)
    is_min = (grid <= best) & (grid < tol)
    ix, iy, it = np.nonzero(is_min)
    return np.stack([xs[ix], ys[iy], ts[it]], axis=1)


def assembly_poses_by_descent(geom, alpha, seed_tol=50.0):
    """All assembly poses found by local minimization from coarse seeds.

    Refines every coarse basin with Nelder-Mead on the raw residual, polishes
    each minimum with least squares on the three closure residuals, and keeps
    the minima that reach (numerically) zero, merged within the direct
    solver's pose tolerance ``MERGE_TOL`` (Chebyshev, wrapped theta). Close
    root pairs near a tangency can be 7e-6 apart, so only polished minima
    separate them. This is a completeness oracle for the direct problem that
    never touches the orientation-reduction solver.
    """
    from scipy.optimize import least_squares, minimize

    from planar3rrr.batch import MERGE_TOL

    b = elbow_points(geom, alpha)
    seeds = coarse_basins(geom, alpha, tol=seed_tol)
    found = []
    for seed in seeds:
        res = minimize(
            lambda v: residual_sq(geom, b, v[0], v[1], v[2]),
            seed,
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-24, "maxiter": 4000, "maxfev": 8000},
        )
        if res.fun > 1e-16:
            continue
        polished = least_squares(
            lambda v: closure_residuals(geom, b, *v), res.x, xtol=1e-15, ftol=1e-15, gtol=1e-15
        )
        x, y, t = polished.x
        t = t % (2.0 * math.pi)
        dup = False
        for fx, fy, ft in found:
            dt = abs((t - ft + math.pi) % (2.0 * math.pi) - math.pi)
            if max(abs(x - fx), abs(y - fy), dt) <= MERGE_TOL:
                dup = True
                break
        if not dup:
            found.append((x, y, t))
    return found


def two_bar_positions(geom, leg, alpha_i, beta_i):
    """Forward chain of one leg from absolute bar angles: (b_i, c_i)."""
    ax = geom.r * math.cos(geom.base_phase[leg])
    ay = geom.r * math.sin(geom.base_phase[leg])
    bx = ax + geom.l * math.cos(alpha_i)
    by = ay + geom.l * math.sin(alpha_i)
    return (bx, by), (bx + geom.m * math.cos(beta_i), by + geom.m * math.sin(beta_i))


def velocity_residual(pair, twist, alpha_dot):
    """Max-norm of A t - B q_dot for a Jacobian pair."""
    r = pair.a_mat @ np.asarray(twist, dtype=float) - np.asarray(pair.b_diag) * np.asarray(
        alpha_dot, dtype=float
    )
    return float(np.max(np.abs(r)))


def serial_alignment(geom, config, leg):
    """(b-a)^T (c-b) for one leg (1-based); equals +-l*m when A, B, C align."""
    i = leg - 1
    a = geom.base_points
    b = config.b
    c = config.c
    return float(
        (b[i, 0] - a[i, 0]) * (c[i, 0] - b[i, 0]) + (b[i, 1] - a[i, 1]) * (c[i, 1] - b[i, 1])
    )


def det_cofactor(rows):
    """det of a 3x3 matrix given as three rows of three entries (floats or
    arrays of one shape), by cofactor expansion along the first row."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _wrap(theta):
    t = theta % (2.0 * math.pi)
    if t > math.pi:
        t -= 2.0 * math.pi
    return t


def scalar_leg_solution(geom, x, y, theta, signs):
    """The scalar two-bar solver and Jacobian row loop, one pose at a time.

    Returns (alpha, det_a, b_diag, scale) in the operation order of the
    per-sample reference implementation, ``math`` functions throughout;
    raises ValueError when a leg is out of reach.
    """
    l, m, s = geom.l, geom.m, geom.s
    a = [(geom.r * math.cos(p), geom.r * math.sin(p)) for p in geom.base_phase]
    c = [(x + s * math.cos(theta + p), y + s * math.sin(theta + p)) for p in geom.platform_phase]
    alpha = []
    for i in range(3):
        dx = c[i][0] - a[i][0]
        dy = c[i][1] - a[i][1]
        d = math.hypot(dx, dy)
        if not abs(l - m) < d < l + m:
            raise ValueError(f"leg {i + 1} out of reach")
        cos_d = (d * d - l * l - m * m) / (2.0 * l * m)
        cos_d = max(-1.0, min(1.0, cos_d))
        sin_d = signs[i] * math.sqrt(max(0.0, 1.0 - cos_d * cos_d))
        alpha.append(_wrap(math.atan2(dy, dx) - math.atan2(m * sin_d, l + m * cos_d)))
    rows = []
    b_diag = []
    for i in range(3):
        bx = a[i][0] + l * math.cos(alpha[i])
        by = a[i][1] + l * math.sin(alpha[i])
        ex = c[i][0] - bx
        ey = c[i][1] - by
        rows.append((ex, ey, (y - c[i][1]) * ex - (x - c[i][0]) * ey))
        b_diag.append((bx - a[i][0]) * ey - (by - a[i][1]) * ex)
    det = det_cofactor(rows)
    norms = np.linalg.norm(np.array(rows), axis=1)
    return tuple(alpha), det, tuple(b_diag), float(norms[0] * norms[1] * norms[2])


def canonical_cells(max_depth, cells):
    """Sort (morton, depth, label[, comp]) cells and merge complete sibling groups.

    A stack merger, one cell at a time: whenever the last 8 cells on the stack
    are the complete, equally labeled children of one parent they become that
    parent (comp: the shared value, else -1). Returns the merged cells as lists.
    """
    cells = sorted(cells, key=lambda c: int(c[0]) << (3 * (max_depth - int(c[1]))))
    stack = []
    for cell in cells:
        stack.append(list(cell))
        while len(stack) >= 8:
            tail = stack[-8:]
            d = tail[0][1]
            if d == 0:
                break
            if any(t[1] != d or t[2] != tail[0][2] for t in tail):
                break
            base = tail[0][0]
            if base % 8 != 0 or any(t[0] != base + k for k, t in enumerate(tail)):
                break
            del stack[-8:]
            merged = [base // 8, d - 1, tail[0][2]]
            if len(tail[0]) > 3:
                merged.append(tail[0][3] if all(t[3] == tail[0][3] for t in tail) else -1)
            stack.append(merged)
    return stack


#: One line of a dump body: a leaf row as ``octree.dumps`` writes it
#: (groups 1-4), or any other non-blank line (group 5). ASCII only: ``\d``
#: takes no other script's digits and ``\s`` no non-ASCII space.
DUMP_ROW = re.compile(
    r"^(?:morton=0x([0-9a-f]{1,16}) depth=(\d{1,2}) label=([01]) comp=(-|\d{1,18})|(.*\S.*))$",
    re.MULTILINE | re.ASCII,
)
ASCII_SPACE = " \t\n\r\f\v"


def loads_rows(text):
    """The leaf rows of a dump body, by one multiline regex ``findall``.

    Skips ASCII whitespace before the head and the head line. Returns
    (line, row text, morton, depth, label, comp or None) per non-blank body
    line, in text order; the first non-blank line that is not a row raises
    ValueError naming its 1-based line number.
    """
    head_start = len(text) - len(text.lstrip(ASCII_SPACE))
    _, _, body = text[head_start:].partition("\n")
    first_line = text.count("\n", 0, head_start) + 2
    lines = body.split("\n")
    numbers = [first_line + k for k, line in enumerate(lines) if line.strip(ASCII_SPACE)]
    rows = []
    for line, match in zip(numbers, DUMP_ROW.finditer(body)):
        code, depth, label, comp, bad = match.groups()
        if bad is not None:
            raise ValueError(f"octree dump line {line}: malformed row: {bad!r}")
        comp = None if comp == "-" else int(comp)
        rows.append((line, match.group(0), int(code, 16), int(depth), label == "1", comp))
    return rows


def leaf_grid(tree, values):
    """Per-leaf ``values`` painted onto the max-depth voxel grid, leaf by leaf."""
    n = 1 << tree.max_depth
    grid = np.empty((n, n, n), dtype=np.asarray(values).dtype)
    for i, (ox, oy, oz) in enumerate(zip(*(o.astype(int) for o in tree.leaf_origins()))):
        s = 1 << (tree.max_depth - int(tree.depth[i]))
        grid[ox : ox + s, oy : oy + s, oz : oz + s] = values[i]
    return grid


def erode_box_cells(grid, wrap):
    """One-cell erosion with a full 3x3x3 box (separable): a cell stays when
    its whole block is set. Wrapping axes roll; past an edge is unset."""
    out = grid
    for axis in range(3):
        plus = np.roll(out, 1, axis=axis)
        minus = np.roll(out, -1, axis=axis)
        if not wrap[axis]:
            sl = [slice(None)] * 3
            sl[axis] = 0
            plus[tuple(sl)] = False
            sl[axis] = -1
            minus[tuple(sl)] = False
        out = out & plus & minus
    return out


def _wraps(tree):
    return tuple(tree.box.wraps(axis) for axis in range(3))


def solid_ids_dense(tree):
    """Component ids (of ``tree.comp``) of the voxels whose whole 3x3x3 block
    is IN, by eroding the rasterized IN grid."""
    comp = leaf_grid(tree, tree.comp)
    return tuple(int(c) for c in np.unique(comp[erode_box_cells(comp >= 0, _wraps(tree))]))


def boundary_pairs_dense(tree, component_id):
    """Distinct (IN leaf, OUT leaf) pairs over the face-adjacent voxel pairs
    whose IN voxel is in the component, by rolling the rasterized grid."""
    comp = leaf_grid(tree, tree.comp)
    index = leaf_grid(tree, np.arange(tree.n_leaves))
    pairs = []
    for axis, wrapped in enumerate(_wraps(tree)):
        for step in (1, -1):
            mask = (comp == component_id) & (np.roll(comp, -step, axis=axis) < 0)
            if not wrapped:
                edge = [slice(None)] * 3
                edge[axis] = -1 if step == 1 else 0
                mask[tuple(edge)] = False
            pairs.append(np.stack([index[mask], np.roll(index, -step, axis=axis)[mask]], axis=1))
    return np.unique(np.concatenate(pairs), axis=0)


def leaf_index_scalar(tree, point):
    """Index of the leaf holding a point, or -1 outside the box: periodic
    coordinates folded, the voxel found axis by axis in Python floats, and
    the leaf found by its extent."""
    n = 1 << tree.max_depth
    voxel = []
    for axis in range(3):
        lo, hi = tree.box.lo[axis], tree.box.hi[axis]
        v = float(point[axis])
        if tree.box.axes[axis] == "per":
            v = lo + (v - lo) % (2.0 * math.pi)
        if not lo <= v <= hi:
            return -1
        voxel.append(min(max(int((v - lo) / ((hi - lo) / n)), 0), n - 1))
    size = 1 << (tree.max_depth - tree.depth.astype(int))
    held = np.ones(tree.n_leaves, dtype=bool)
    for o, v in zip(tree.leaf_origins(), voxel):
        held &= (o.astype(int) <= v) & (v < o.astype(int) + size)
    (i,) = np.flatnonzero(held)
    return int(i)


def _dense_branch_rows(geom, x, y, theta):
    """Rows (ex, ey, w) of A for both elbow branches of every leg at every
    sample, with the strict reach mask: the census's full-grid kernel before
    it gathered the reachable samples, operation for operation."""
    a = geom.base_points
    psi = geom.platform_phase
    l, m, s = geom.l, geom.m, geom.s
    lo2 = (geom.l - geom.m) ** 2
    hi2 = (geom.l + geom.m) ** 2
    reach = None
    rows = []
    with np.errstate(invalid="ignore", divide="ignore"):
        for i in range(3):
            cx = x + s * np.cos(theta + psi[i])
            cy = y + s * np.sin(theta + psi[i])
            dx = cx - a[i, 0]
            dy = cy - a[i, 1]
            d2 = dx * dx + dy * dy
            ok = (d2 > lo2) & (d2 < hi2)
            reach = ok if reach is None else (reach & ok)
            d = np.sqrt(d2)
            inv = 1.0 / d
            cos_d = (d2 - l * l - m * m) / (2.0 * l * m)
            sin_d = np.sqrt(np.maximum(0.0, 1.0 - cos_d * cos_d))
            cphi = (l + m * cos_d) * inv
            sphi = (m * sin_d) * inv
            dhx = dx * inv
            dhy = dy * inv
            per_branch = []
            for sign in (1.0, -1.0):
                sp = sign * sphi
                uax = dhx * cphi + dhy * sp
                uay = -dhx * sp + dhy * cphi
                bx = a[i, 0] + l * uax
                by = a[i, 1] + l * uay
                ex = cx - bx
                ey = cy - by
                w = (y - cy) * ex - (x - cx) * ey
                per_branch.append((ex, ey, w))
            rows.append(per_branch)
    return reach, rows


def _corner_coords(box, depth):
    """The census's corner coordinates per axis, broadcast (x, y, z): n + 1
    samples, or n on an axis that wraps."""
    n = 1 << depth
    counts = [n if box.wraps(axis) else n + 1 for axis in range(3)]
    coords = [
        box.lo[axis] + np.arange(counts[axis]) * ((box.hi[axis] - box.lo[axis]) / n)
        for axis in range(3)
    ]
    return coords[0][:, None, None], coords[1][None, :, None], coords[2][None, None, :]


def reach_grid_dense(geom, box, depth):
    """Strict reach of all three legs at every cell corner of the census."""
    reach, _ = _dense_branch_rows(geom, *_corner_coords(box, depth))
    return reach


def sign_grids_dense(geom, box, depth, modes):
    """int8 det(A) signs of ``modes`` at the census's cell corners, from
    det(A) at every corner sample (0 off reach)."""
    reach, rows = _dense_branch_rows(geom, *_corner_coords(box, depth))
    signs = np.empty((len(modes), *reach.shape), dtype=np.int8)
    for j, mode in enumerate(modes):
        (e1, f1, w1), (e2, f2, w2), (e3, f3, w3) = (
            rows[leg][0 if sign > 0 else 1] for leg, sign in enumerate(mode.signs)
        )
        det = e1 * (f2 * w3 - w2 * f3) + f1 * (w2 * e3 - e2 * w3) + w1 * (e2 * f3 - f2 * e3)
        with np.errstate(invalid="ignore"):
            signs[j] = np.where(reach, np.sign(det), 0.0).astype(np.int8)
    return signs


def corner_cells_dense(corners, box):
    """Cells whose 8 corners are all True, from a corner grid: on an axis
    that wraps, corner 0 is repeated as corner n first."""
    for axis in range(3):
        if box.wraps(axis):
            corners = np.concatenate([corners, np.take(corners, [0], axis=axis)], axis=axis)
    n = corners.shape[0] - 1
    cells = np.ones((n, n, n), dtype=bool)
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                cells &= corners[dx : dx + n, dy : dy + n, dz : dz + n]
    return cells


def fk_system_pieces_per_leg(geom, bx, by, theta):
    """Difference-system parts of the direct solver, one leg at a time: the
    solver's kernel before its legs shared one cos and one sin, operation
    for operation."""
    s, m = geom.s, geom.m
    psi = np.asarray(geom.platform_phase)
    ex = []
    ey = []
    h = []
    for i in range(3):
        shape = bx[:, i].shape + (1,) * (theta.ndim - 1)
        exi = s * np.cos(theta + psi[i]) - bx[:, i].reshape(shape)
        eyi = s * np.sin(theta + psi[i]) - by[:, i].reshape(shape)
        ex.append(exi)
        ey.append(eyi)
        h.append(exi * exi + eyi * eyi - m * m)
    m11 = 2.0 * (ex[1] - ex[0])
    m12 = 2.0 * (ey[1] - ey[0])
    m21 = 2.0 * (ex[2] - ex[0])
    m22 = 2.0 * (ey[2] - ey[0])
    det = m11 * m22 - m12 * m21
    r1 = h[0] - h[1]
    r2 = h[0] - h[2]
    return (m11, m12, m21, m22), (r1, r2), det, ex[0], ey[0], h[0]


def full_system_per_leg(geom, bx, by, x, y, theta):
    """Closure values and Jacobian of the full system, one leg at a time.

    The theta column is 2 (c_i - b_i)^T E (c_i - p), written as in the rows
    of A: the Jacobian is 2A.
    """
    s, m = geom.s, geom.m
    psi = np.asarray(geom.platform_phase)
    g = np.empty((len(x), 3))
    jac = np.empty((len(x), 3, 3))
    for i in range(3):
        cx = x + s * np.cos(theta + psi[i])
        cy = y + s * np.sin(theta + psi[i])
        wx = cx - bx[:, i]
        wy = cy - by[:, i]
        g[:, i] = wx * wx + wy * wy - m * m
        jac[:, i, 0] = 2.0 * wx
        jac[:, i, 1] = 2.0 * wy
        jac[:, i, 2] = 2.0 * ((y - cy) * wx - (x - cx) * wy)
    return g, jac


def closure_error_per_leg(geom, bx, by, x, y, theta):
    """Largest leg closure error of each pose, one leg at a time."""
    s, m = geom.s, geom.m
    psi = np.asarray(geom.platform_phase)
    worst = None
    for i in range(3):
        cx = x + s * np.cos(theta + psi[i])
        cy = y + s * np.sin(theta + psi[i])
        gap = np.abs(np.hypot(cx - bx[:, i], cy - by[:, i]) - m)
        worst = gap if worst is None else np.maximum(worst, gap)
    return worst


def newton_full_step_floor(geom, bx, by, x, y, theta, iters=30):
    """The direct solver's full-system Newton when a row stopped only at a
    step below 1e-13."""
    x = x.copy()
    y = y.copy()
    theta = theta.copy()
    act = np.arange(len(x))
    for _ in range(iters):
        if act.size == 0:
            break
        g, jac = full_system_per_leg(geom, bx[act], by[act], x[act], y[act], theta[act])
        try:
            step = np.linalg.solve(jac, g[..., None])[..., 0]
        except np.linalg.LinAlgError:
            dets = np.linalg.det(jac)
            sing = np.abs(dets) < 1e-300
            jac[sing] = np.eye(3)
            step = np.linalg.solve(jac, g[..., None])[..., 0]
            step[sing] = 0.0
        norm = np.max(np.abs(step), axis=1)
        shrink = np.where(norm > 1.0, norm, 1.0)
        step = step / shrink[:, None]
        x[act] -= step[:, 0]
        y[act] -= step[:, 1]
        theta[act] -= step[:, 2]
        act = act[norm >= 1e-13]
    return x, y, theta


def elbow_screen_per_row(geom, bx, by):
    """Row-at-a-time (live, degenerate) flags of the direct solver's elbow screen.

    live: every leg pair passes ||b_i - b_j| - |c_i - c_j|| <= 2m + 1e-6, one
    pair at a time; degenerate: det(M) / 4 = c + Im(e^(i theta) w) vanishes
    identically to 1e-12 relative, in Python complex scalars.
    """
    psi = geom.platform_phase
    live, degenerate = [], []
    for row_x, row_y in zip(bx.tolist(), by.tolist()):
        ok = True
        for i, j in ((0, 1), (0, 2), (1, 2)):
            side = 2.0 * geom.s * abs(math.sin(0.5 * (psi[i] - psi[j])))
            gap = abs(math.hypot(row_x[i] - row_x[j], row_y[i] - row_y[j]) - side)
            ok = ok and gap <= 2.0 * geom.m + 1e-6
        live.append(ok)
        q = [geom.s * complex(math.cos(p), math.sin(p)) for p in psi]
        b = [complex(u, v) for u, v in zip(row_x, row_y)]
        q1, q2, d1, d2 = q[1] - q[0], q[2] - q[0], b[1] - b[0], b[2] - b[0]
        c = (q1.conjugate() * q2 + d1.conjugate() * d2).imag
        w = q1 * d2.conjugate() - q2 * d1.conjugate()
        degenerate.append(abs(c) + abs(w) <= 1e-12 * (abs(q1) + abs(d1)) * (abs(q2) + abs(d2)))
    return np.array(live), np.array(degenerate)
