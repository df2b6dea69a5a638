"""Velocity model, singularity margins, and an exact singular construction.

det(A) = 0 means the three distal-bar lines meet in one point (possibly at
infinity) and the platform loses stiffness; B_ii = 0 means leg i is
stretched or folded and loses input mobility.
"""

import math

import numpy as np

from planar3rrr import (
    FullConfiguration,
    GeometryConfig,
    Pose,
    WorkingMode,
    forward_velocity,
    inverse_kinematics,
    inverse_velocity,
    jacobians,
    platform_points,
    singularity_report,
)


def main():
    geom = GeometryConfig()

    cfg = inverse_kinematics(geom, Pose(1.0, -0.5, 0.3), WorkingMode.A)
    pair = jacobians(cfg)
    rep = singularity_report(pair)
    print("generic configuration:")
    print("  B_ii =", np.round(pair.b_diag, 4), " detA =", round(pair.det_a, 4))
    print("  serial singular:", rep.is_serial_singular, " parallel singular:", rep.is_parallel_singular)

    qd = np.array([0.2, -0.1, 0.05])
    t = forward_velocity(pair, qd)
    back = inverse_velocity(pair, t)
    print("  twist from rates:", np.round(t, 6), " rates back:", np.round(back, 6))

    # Exact parallel singularity: platform at the origin, rotated so every
    # elbow sits at radius 11; all distal bars then aim at the origin.
    theta = math.acos(185.0 / 220.0)
    pose = Pose(0.0, 0.0, theta)
    c, _ = platform_points(geom, pose)
    alpha = []
    beta = []
    for i, phi in enumerate(geom.base_phase):
        bx = 11.0 * math.cos(theta + phi)
        by = 11.0 * math.sin(theta + phi)
        ax, ay = geom.base_points[i]
        alpha.append(math.atan2(by - ay, bx - ax))
        beta.append(math.atan2(c[i, 1] - by, c[i, 0] - bx))
    sing = FullConfiguration(geom=geom, pose=pose, alpha=tuple(alpha), beta=tuple(beta))
    spair = jacobians(sing)
    srep = singularity_report(spair)
    print(f"\nconcurrent-line configuration at theta = {math.degrees(theta):.4f} deg:")
    print(f"  detA / scale = {spair.det_a / spair.row_norm_scale:.2e}")
    print("  parallel singular:", srep.is_parallel_singular)
    # A NaN tolerance fails every margin test, so the one singularity rule refuses it.
    try:
        singularity_report(spair, float("nan"))
    except ValueError as exc:
        print("  eps = nan is refused:", exc)


if __name__ == "__main__":
    main()
