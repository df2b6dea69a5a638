"""Velocity model: the direct- and inverse-kinematics matrices and their use.

Differentiating the loop closures and projecting out the passive joint rates
gives A t = B q_dot, with t = (x_dot, y_dot, theta_dot) the platform twist
and q_dot the actuated rates. Row i of A is
[(c_i - b_i)^T, -(c_i - b_i)^T E (p - c_i)] and B is diagonal with
B_ii = (c_i - b_i)^T E (b_i - a_i), where E rotates by +90 degrees.
det(A) = 0 is a parallel singularity (distal lines concurrent or all
parallel); B_ii = 0 is a serial singularity (leg i stretched or folded).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import batch
from .errors import ParallelSingularError, SerialSingularError
from .geometry import EPS_SING, FullConfiguration, GeometryConfig, WorkingMode

#: 90-degree rotation matrix used throughout the velocity relations.
E = np.array([[0.0, -1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class JacobianPair:
    """The 3x3 direct-kinematics matrix A, the diagonal of B, and det(A).

    ``row_norm_scale`` is the product of the row norms of A; it makes det(A)
    dimensionless.
    """

    a_mat: np.ndarray
    b_diag: tuple[float, float, float]
    det_a: float
    row_norm_scale: float

    @property
    def b_mat(self) -> np.ndarray:
        return np.diag(self.b_diag)


@dataclass(frozen=True)
class SingularityReport:
    serial_margins: tuple[float, float, float]
    parallel_margin: float
    scale: float
    eps: float
    is_serial_singular: bool
    is_parallel_singular: bool


def jacobians(geom: GeometryConfig, config: FullConfiguration) -> JacobianPair:
    """Build the matrix pair at a configuration (``batch.jacobian_rows``, one pose)."""
    x, y, theta = (np.array([v]) for v in config.pose.as_tuple())
    rows, det, b_diag, scale = batch.jacobian_rows(geom, np.array([config.alpha]), x, y, theta)
    a_mat = rows[0]
    a_mat.setflags(write=False)
    return JacobianPair(a_mat, tuple(b_diag[0].tolist()), float(det[0]), float(scale[0]))


def working_mode_of(pair: JacobianPair, eps: float = EPS_SING) -> WorkingMode:
    """Classify the branch from the signs of B_ii; singular entries are an error."""
    for i, v in enumerate(pair.b_diag):
        if abs(v) < eps:
            raise SerialSingularError(i + 1, v)
    return WorkingMode.from_signs(tuple(1 if v > 0 else -1 for v in pair.b_diag))


def singularity_report(pair: JacobianPair, eps: float = EPS_SING) -> SingularityReport:
    scale = pair.row_norm_scale
    serial = min(abs(v) for v in pair.b_diag) < eps
    parallel = abs(pair.det_a) < eps * scale
    return SingularityReport(
        serial_margins=pair.b_diag,
        parallel_margin=pair.det_a,
        scale=scale,
        eps=eps,
        is_serial_singular=serial,
        is_parallel_singular=parallel,
    )


def forward_velocity(pair: JacobianPair, alpha_dot, eps: float = EPS_SING) -> np.ndarray:
    """Platform twist (x_dot, y_dot, theta_dot) from actuated rates."""
    scale = pair.row_norm_scale
    if abs(pair.det_a) < eps * scale:
        raise ParallelSingularError(pair.det_a, scale)
    rhs = np.asarray(pair.b_diag) * np.asarray(alpha_dot, dtype=float)
    return np.linalg.solve(pair.a_mat, rhs)


def inverse_velocity(pair: JacobianPair, twist, eps: float = EPS_SING) -> np.ndarray:
    """Actuated rates from the platform twist."""
    for i, v in enumerate(pair.b_diag):
        if abs(v) < eps:
            raise SerialSingularError(i + 1, v)
    lhs = pair.a_mat @ np.asarray(twist, dtype=float)
    return lhs / np.asarray(pair.b_diag)
