"""Tour of the leg-level kinematics: inverse branches and assembly poses.

The manipulator has three two-bar legs, so the inverse problem has up to
eight branches (working modes, one elbow sign per leg) and the direct
problem has up to six assembly poses for one set of actuated angles.
"""

import math

from planar3rrr import (
    GeometryConfig,
    Pose,
    WorkingMode,
    forward_kinematics,
    inverse_kinematics,
    inverse_kinematics_all,
    jacobians,
)

# Joint angles with four assembly poses; bundled as a regression fixture.
ALPHA = (5.862610, 1.277470, 5.213885)


def main():
    geom = GeometryConfig.reference()
    print("geometry:", geom.to_dict())

    pose = Pose(1.0, 0.5, math.radians(20.0))
    print(f"\nall inverse branches at ({pose.x}, {pose.y}, {math.degrees(pose.theta):.0f} deg):")
    for mode, cfg in sorted(inverse_kinematics_all(geom, pose).items(), key=lambda kv: kv[0].label):
        pair = jacobians(cfg)
        print(
            f"  mode {mode.label} ({mode.sign_string}): alpha ="
            f" ({cfg.alpha[0]: .4f}, {cfg.alpha[1]: .4f}, {cfg.alpha[2]: .4f})"
            f"  detA = {pair.det_a: .2f}"
        )

    print(f"\nassembly poses for alpha = {ALPHA}:")
    for k, sol in enumerate(forward_kinematics(geom, ALPHA), start=1):
        print(f"  ({sol.x: .6f}, {sol.y: .6f}, {math.degrees(sol.theta):8.4f} deg)")

    # Round trip: feed one branch's angles back into the direct problem.
    cfg = inverse_kinematics(geom, pose, WorkingMode.A)
    sols = forward_kinematics(geom, cfg.alpha)
    gap = min(s.distance(pose) for s in sols)
    print(f"\nround trip through mode a recovers the pose to {gap:.2e}")


if __name__ == "__main__":
    main()
