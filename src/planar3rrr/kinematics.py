"""Closed-form leg kinematics and the all-solution direct problem.

The inverse problem factors per leg into a standard two-bar reach with two
elbow branches; a working mode fixes the branch of every leg through the sign
of B_ii = (c_i - b_i)^T E (b_i - a_i). The array kernel ``batch.solve_legs``
solves it; ``inverse_kinematics`` and ``inverse_kinematics_all`` are
one-pose calls into it, and its leg status is their only refusal. No
singularity tolerance enters the inverse problem.

The direct problem is reduced to one dimension: with the actuated angles
fixed, the elbows b_i are fixed points and the three loop closures
|c_i(x, y, theta) - b_i|^2 = m^2 share the quadratic term x^2 + y^2.
Differencing pairs (1,2) and (1,3) leaves a linear 2x2 system for (x, y) as a
function of theta; substituting its solution back into closure 1 gives a
scalar residual f(theta) whose zeros on [0, 2pi) are the assembly modes. The
reduction is equivalent to a degree-6 polynomial in tan(theta/2), so at most
six real solutions exist. ``batch.fk_roots`` finds them and raises every
refusal; the scalar ``forward_kinematics`` is a one-triple wrapper over it.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import batch
from .errors import SerialBoundaryError
from .geometry import LOOP_TOL, FullConfiguration, GeometryConfig, Pose, WorkingMode


def _solve(geom: GeometryConfig, pose: Pose, mode: WorkingMode):
    return batch.solve_legs(geom, [pose.x], [pose.y], [pose.theta], mode)


def inverse_kinematics(geom: GeometryConfig, pose: Pose, mode: WorkingMode) -> FullConfiguration:
    """Inverse kinematics in one working mode: a one-pose ``batch.solve_legs``.

    Raises ``LegSolution.error``: UnreachableError for a leg outside the
    annulus, SerialBoundaryError for a LEG_BOUNDARY one.
    """
    legs = _solve(geom, pose, mode)
    err = legs.error(0)
    if err is not None:
        raise err
    return FullConfiguration(geom=geom, pose=pose, alpha=legs.alpha[0], beta=legs.beta[0])


def inverse_kinematics_all(
    geom: GeometryConfig, pose: Pose
) -> dict[WorkingMode, FullConfiguration]:
    """All realizable inverse-kinematic branches of a pose, keyed by working mode.

    A pose with a leg outside the reachable annulus yields an empty mapping.
    A leg in the reach band of ``batch.solve_legs`` has a single branch, its
    '+' angles, so a pose with one such leg yields four entries. Any other
    LEG_BOUNDARY leg, one whose '+' or '-' angles miss loop closure, raises
    SerialBoundaryError.
    """
    plus = _solve(geom, pose, WorkingMode.A)
    minus = _solve(geom, pose, WorkingMode.G)
    if np.isnan(plus.alpha[0]).any():
        return {}
    per_leg = []
    for i in range(3):
        leg_plus = (1, plus.alpha[0, i], plus.beta[0, i])
        if plus.status[0, i] == minus.status[0, i] == batch.LEG_OK:
            per_leg.append([leg_plus, (-1, minus.alpha[0, i], minus.beta[0, i])])
        elif plus.status[0, i] == batch.LEG_BOUNDARY and plus.loop_gap[0, i] <= LOOP_TOL:
            # In the reach band: the one elbow position.
            per_leg.append([leg_plus])
        else:
            raise SerialBoundaryError(i + 1, float(plus.dist[0, i]))
    result: dict[WorkingMode, FullConfiguration] = {}
    for legs in itertools.product(*per_leg):
        signs, alpha, beta = zip(*legs)
        result[WorkingMode.from_signs(signs)] = FullConfiguration(
            geom=geom, pose=pose, alpha=alpha, beta=beta
        )
    return result


def forward_kinematics(geom: GeometryConfig, alpha) -> list[Pose]:
    """All real assembly modes for the given actuated angles, sorted by (theta, x, y).

    A single-triple call of ``batch.fk_roots``: the same closure and merge
    guarantees, and the same refusals (ValueError, DegenerateLinearSystemError).
    """
    _, xs, ys, thetas = batch.fk_roots(geom, np.ravel(alpha))
    poses = [Pose(*v) for v in zip(xs.tolist(), ys.tolist(), thetas.tolist())]
    poses.sort(key=lambda q: (q.theta, q.x, q.y))
    return poses
