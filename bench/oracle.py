"""Closed-form kinematics of the reference 3-RRR, independent of planar3rrr.

The benchmark generates its inputs and checks the package's outputs with
these functions only, so a change to the package can alter neither what is
fed to it nor what counts as a correct answer. Everything is vectorized over
numpy arrays of poses; legs are the leading axis of every per-leg result.

Conventions (those of the package's README): angles counter-clockwise from
the x axis, base joint a_i = r u(phi_i), platform joint
c_i = p + s u(theta + psi_i), elbow b_i = a_i + l u(alpha_i), and
B_ii = (b_i - a_i) x (c_i - b_i) (2-D cross product). A working mode is the
sign triple of (B_11, B_22, B_33).
"""

from __future__ import annotations

import json
import math

import numpy as np

#: Reference geometry: link lengths, circumradii and the common phases.
L, M, R, S = 6.0, 6.0, 10.0, 5.0
PHASES_DEG = (210.0, 330.0, 90.0)
PHASES = np.radians(PHASES_DEG)
BASE = R * np.stack([np.cos(PHASES), np.sin(PHASES)], axis=1)
REACH_LO = abs(L - M)
REACH_HI = L + M

#: Working-mode letters and their B_ii sign triples (the paper's table).
MODES = {
    "a": (1, 1, 1),
    "b": (1, -1, 1),
    "c": (1, 1, -1),
    "d": (1, -1, -1),
    "e": (-1, -1, 1),
    "f": (-1, 1, 1),
    "g": (-1, -1, -1),
    "h": (-1, 1, -1),
}

#: Actuated angles of the published benchmark, with four assembly poses.
BENCHMARK_TRIPLE = (5.862610, 1.277470, 5.213885)


def check_reference_config(path) -> None:
    """Raise ValueError unless the bundled config holds this geometry."""
    with open(path, "r", encoding="utf-8") as fh:
        geo = json.load(fh)["geometry"]
    want = {"l": L, "m": M, "r": R, "s": S}
    if any(float(geo[k]) != v for k, v in want.items()) or [
        float(v) for v in geo["base_phase_deg"]
    ] != list(PHASES_DEG) or [float(v) for v in geo["platform_phase_deg"]] != list(PHASES_DEG):
        raise ValueError(f"bundled geometry {geo} is not the reference geometry")


def signs_of(mode: str) -> tuple[int, int, int]:
    """Sign triple of a mode given as a letter or a string such as 'PPN'."""
    if len(mode) == 1:
        return MODES[mode.lower()]
    return tuple(1 if ch in "Pp+" else -1 for ch in mode)


def wrap(angle):
    """Fold angles into (-pi, pi]."""
    t = np.mod(angle, 2.0 * math.pi)
    return np.where(t > math.pi, t - 2.0 * math.pi, t)


def platform_joints(x, y, theta):
    """Platform joint coordinates (cx, cy), each of shape (3, ...)."""
    x, y, theta = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, y, theta)))
    ang = theta[None] + PHASES.reshape((3,) + (1,) * theta.ndim)
    return x[None] + S * np.cos(ang), y[None] + S * np.sin(ang)


def _leg_vectors(x, y, theta):
    cx, cy = platform_joints(x, y, theta)
    shape = (3,) + (1,) * (cx.ndim - 1)
    dx = cx - BASE[:, 0].reshape(shape)
    dy = cy - BASE[:, 1].reshape(shape)
    return cx, cy, dx, dy, np.hypot(dx, dy)


def strict_reach(x, y, theta, margin: float = 1e-6):
    """True where every leg target is inside its annulus by ``margin``."""
    d = _leg_vectors(x, y, theta)[4]
    return ((d > REACH_LO + margin) & (d < REACH_HI - margin)).all(axis=0)


def elbows(x, y, theta, signs):
    """Elbow points (bx, by), shape (3, ...), of the branch with B_ii signs ``signs``.

    The elbow is an intersection of the circle of radius l about a_i and the
    circle of radius m about c_i; of the two, the one whose B_ii has the
    requested sign is kept. NaN where a leg cannot reach.
    """
    cx, cy, dx, dy, d = _leg_vectors(x, y, theta)
    shape = (3,) + (1,) * (cx.ndim - 1)
    ax = BASE[:, 0].reshape(shape)
    ay = BASE[:, 1].reshape(shape)
    with np.errstate(invalid="ignore", divide="ignore"):
        ux, uy = dx / d, dy / d
        along = (d * d + L * L - M * M) / (2.0 * d)
        h = np.sqrt(L * L - along * along)
        want = np.asarray(signs, dtype=float).reshape(shape)
        best_x = np.full(cx.shape, np.nan)
        best_y = np.full(cx.shape, np.nan)
        for side in (1.0, -1.0):
            bx = ax + along * ux - side * h * uy
            by = ay + along * uy + side * h * ux
            bii = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
            pick = np.sign(bii) == want
            best_x = np.where(pick, bx, best_x)
            best_y = np.where(pick, by, best_y)
    return best_x, best_y


def ik_alpha(x, y, theta, signs):
    """Actuated angles, shape (3, ...), in (-pi, pi]; NaN where unreachable."""
    bx, by = elbows(x, y, theta, signs)
    shape = (3,) + (1,) * (bx.ndim - 1)
    return wrap(np.arctan2(by - BASE[:, 1].reshape(shape), bx - BASE[:, 0].reshape(shape)))


def elbows_from_alpha(alpha):
    """Elbow points (bx, by), shape (3, ...), of actuated angles ``alpha``."""
    alpha = np.asarray(alpha, dtype=float)
    shape = (3,) + (1,) * (alpha.ndim - 1)
    return (
        BASE[:, 0].reshape(shape) + L * np.cos(alpha),
        BASE[:, 1].reshape(shape) + L * np.sin(alpha),
    )


def closure_error(alpha, x, y, theta):
    """Largest | |c_i - b_i| - m | over the legs: zero on an assembly pose."""
    bx, by = elbows_from_alpha(alpha)
    cx, cy = platform_joints(x, y, theta)
    return np.abs(np.hypot(cx - bx, cy - by) - M).max(axis=0)


def indices(x, y, theta, bx, by):
    """(det A, B_ii of shape (3, ...), row-norm scale of A) at a configuration.

    Row i of A is (e_x, e_y, (p - c_i) x e) with e = c_i - b_i.
    """
    cx, cy = platform_joints(x, y, theta)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ex = cx - bx
    ey = cy - by
    w = (y[None] - cy) * ex - (x[None] - cx) * ey
    det = (
        ex[0] * (ey[1] * w[2] - w[1] * ey[2])
        - ey[0] * (ex[1] * w[2] - w[1] * ex[2])
        + w[0] * (ex[1] * ey[2] - ey[1] * ex[2])
    )
    shape = (3,) + (1,) * (bx.ndim - 1)
    bii = (bx - BASE[:, 0].reshape(shape)) * ey - (by - BASE[:, 1].reshape(shape)) * ex
    scale = np.sqrt(ex * ex + ey * ey + w * w).prod(axis=0)
    return det, bii, scale


def mode_indices(x, y, theta, signs):
    """det A, B_ii and the row-norm scale of the branch ``signs`` at poses."""
    bx, by = elbows(x, y, theta, signs)
    return indices(x, y, theta, bx, by)


def pose_distance(p, q) -> float:
    """Chebyshev distance of two (x, y, theta) poses, orientation wrapped."""
    return max(abs(p[0] - q[0]), abs(p[1] - q[1]), abs(float(wrap(p[2] - q[2]))))


def path_samples(waypoints, spp: int):
    """Sample poses of a piecewise-linear path: (t, x, y, theta) arrays.

    x and y are linear per segment and theta follows the shortest arc; the
    shared endpoint of two segments is sampled once, and waypoints are
    reproduced exactly. Angles are radians.
    """
    nseg = len(waypoints) - 1
    ts, xs, ys, ths = [], [], [], []
    for j in range(nseg):
        ax, ay, at = waypoints[j]
        bx, by, bt = waypoints[j + 1]
        dth = float(wrap(bt - at))
        for k in range(spp):
            if j > 0 and k == 0:
                continue
            u = k / (spp - 1)
            ts.append((j + u) / nseg)
            if k == 0:
                xs.append(ax), ys.append(ay), ths.append(at)
            elif k == spp - 1:
                xs.append(bx), ys.append(by), ths.append(bt)
            else:
                xs.append(ax + u * (bx - ax))
                ys.append(ay + u * (by - ay))
                ths.append(float(wrap(at + u * dth)))
    return np.array(ts), np.array(xs), np.array(ys), np.array(ths)


def monitor_verdict(det, bii, scale, eps: float = 1e-8) -> str:
    """'NonSingular' when no sign of det A or B_ii changes along the samples
    and every scaled margin stays above ``eps``, otherwise 'Singular'."""
    flip = (np.sign(det) != np.sign(det[0])).any() or (
        np.sign(bii) != np.sign(bii[:, :1])
    ).any()
    weak = (np.abs(det) / scale <= eps).any() or (np.abs(bii) <= eps).any()
    return "Singular" if flip or weak else "NonSingular"
