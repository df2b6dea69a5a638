"""Closed-form leg kinematics and the all-solution direct problem.

The inverse problem factors per leg into a standard two-bar reach with two
elbow branches; a working mode fixes the branch of every leg through the sign
of B_ii = (c_i - b_i)^T E (b_i - a_i). The array kernel ``batch.solve_legs``
solves it; ``inverse_kinematics`` and ``inverse_kinematics_all`` are
one-pose calls into it.

The direct problem is reduced to one dimension: with the actuated angles
fixed, the elbows b_i are fixed points and the three loop closures
|c_i(x, y, theta) - b_i|^2 = m^2 share the quadratic term x^2 + y^2.
Differencing pairs (1,2) and (1,3) leaves a linear 2x2 system for (x, y) as a
function of theta; substituting its solution back into closure 1 gives a
scalar residual f(theta) whose zeros on [0, 2pi) are the assembly modes. The
reduction is equivalent to a degree-6 polynomial in tan(theta/2), so at most
six real solutions exist. ``batch.fk_roots`` finds them algebraically; the
scalar ``forward_kinematics`` is a one-triple wrapper over it.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

from . import batch
from .errors import DegenerateLinearSystemError
from .geometry import EPS_SING, TWO_PI, FullConfiguration, GeometryConfig, Pose, WorkingMode


def _solve(geom: GeometryConfig, pose: Pose, mode: WorkingMode, eps: float) -> batch.LegSolution:
    return batch.solve_legs(geom, [pose.x], [pose.y], [pose.theta], mode, eps)


def inverse_kinematics(
    geom: GeometryConfig,
    pose: Pose,
    mode: WorkingMode,
    eps: float = EPS_SING,
) -> FullConfiguration:
    """Inverse kinematics in one working mode: a one-pose ``batch.solve_legs``.

    Raises UnreachableError or SerialBoundaryError for the lowest failing leg.
    """
    legs = _solve(geom, pose, mode, eps)
    err = legs.error(0)
    if err is not None:
        raise err
    return FullConfiguration(geom=geom, pose=pose, alpha=legs.alpha[0], beta=legs.beta[0])


def inverse_kinematics_all(
    geom: GeometryConfig,
    pose: Pose,
    eps: float = EPS_SING,
) -> dict[WorkingMode, FullConfiguration]:
    """All realizable inverse-kinematic branches of a pose, keyed by working mode.

    A leg exactly on its reach boundary has a single branch; the collapsed
    branch is keyed under the '+' sign for that leg, so a pose with one
    stretched leg yields four entries. An unreachable pose yields an empty
    mapping.
    """
    plus = _solve(geom, pose, WorkingMode.A, eps)
    minus = _solve(geom, pose, WorkingMode.G, eps)
    status = plus.status[0]
    if (status == batch.LEG_UNREACHABLE).any():
        return {}
    if (status == batch.LEG_BOUNDARY).any():
        # Without the boundary tolerance a boundary leg solves to its one
        # elbow position, unless it lies just outside the annulus.
        collapsed = _solve(geom, pose, WorkingMode.A, 0.0)
        if collapsed.error(0) is not None:
            return {}
    per_leg = []
    for i in range(3):
        if status[i] == batch.LEG_BOUNDARY:
            per_leg.append([(1, collapsed.alpha[0, i], collapsed.beta[0, i])])
        else:
            per_leg.append(
                [(1, plus.alpha[0, i], plus.beta[0, i]), (-1, minus.alpha[0, i], minus.beta[0, i])]
            )
    result: dict[WorkingMode, FullConfiguration] = {}
    for legs in itertools.product(*per_leg):
        signs, alpha, beta = zip(*legs)
        result[WorkingMode.from_signs(signs)] = FullConfiguration(
            geom=geom, pose=pose, alpha=alpha, beta=beta
        )
    return result


def _check_degenerate(geom: GeometryConfig, bx, by) -> None:
    """Raise when the 2x2 reduction is singular at every orientation.

    In complex form row k of M is 2 (e^(i theta) q_k - d_k), with
    q_k = s (e^(i psi_k) - e^(i psi_0)) and d_k = b_k - b_0, so det(M) / 4 =
    Im(q_1* q_2 + d_1* d_2) + Im(e^(i theta) (q_1 d_2* - q_2 d_1*)). Unless
    this degree-one polynomial vanishes identically (architecture-singular
    actuated angles) it has at most two zeros, isolated singular
    orientations that fk_roots handles by a rank-1 line analysis.
    """
    q = [geom.s * cmath.exp(1j * p) for p in geom.platform_phase]
    b = [complex(u, v) for u, v in zip(bx[0].tolist(), by[0].tolist())]
    q1, q2, d1, d2 = q[1] - q[0], q[2] - q[0], b[1] - b[0], b[2] - b[0]
    c = (q1.conjugate() * q2 + d1.conjugate() * d2).imag
    w = q1 * d2.conjugate() - q2 * d1.conjugate()
    if abs(c) + abs(w) <= 1e-12 * (abs(q1) + abs(d1)) * (abs(q2) + abs(d2)):
        raise DegenerateLinearSystemError(0.0, TWO_PI)


def forward_kinematics(geom: GeometryConfig, alpha) -> list[Pose]:
    """All real assembly modes for the given actuated angles.

    A single-triple call of ``batch.fk_roots``. Every returned pose
    satisfies the three loop closures to better than 1e-9, no two are within
    ``batch.MERGE_TOL`` of each other, and the list is sorted by
    (theta, x, y). Raises ValueError for an angle that is not finite, and
    DegenerateLinearSystemError when the 2x2 reduction is singular at every
    orientation.
    """
    alpha = [float(v) for v in alpha]
    if len(alpha) != 3 or not all(map(math.isfinite, alpha)):
        raise ValueError(f"alpha must contain three finite angles, got {alpha}")
    alphas = np.array([alpha])
    _check_degenerate(geom, *batch.elbow_points(geom, alphas))
    _, xs, ys, thetas = batch.fk_roots(geom, alphas)
    poses = [Pose(*v) for v in zip(xs.tolist(), ys.tolist(), thetas.tolist())]
    poses.sort(key=lambda q: (q.theta, q.x, q.y))
    return poses
