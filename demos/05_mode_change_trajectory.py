"""A non-singular assembly-mode changing trajectory.

Two assembly poses of the same actuated angles are joined by a straight
two-segment path that never meets a singularity: the actuated input returns
to its starting value while the platform ends in a different assembly mode.
The characteristic surface of the shared aspect marks where such companion
poses live.
"""

import json
import math
from pathlib import Path

from planar3rrr import GeometryConfig, Pose, parse_mode
from planar3rrr.aspects import characteristic_surface, enumerate_aspects
from planar3rrr.cli import bundled_data_path
from planar3rrr.octree import locate
from planar3rrr.trajectory import PathSpec, monitor, verify_assembly_mode_change, write_profile


def main():
    geom = GeometryConfig.reference()
    data = json.loads(Path(bundled_data_path("reference_path.json")).read_text())
    mode = parse_mode(data["mode"])
    way = [Pose(x, y, math.radians(t)) for x, y, t in data["waypoints"]]

    spec = PathSpec(waypoints=tuple(way), mode=mode, samples_per_segment=500)
    result = monitor(geom, spec)
    print(f"monitor: {result.verdict} over {len(result.records)} samples")
    print(f"  min |detA|/scale = {result.min_abs_det_scaled:.4f}, min |B_ii| = {result.min_abs_b:.3f}")
    out = Path("profile.csv")
    write_profile(result, out)
    print(f"  normalized profile written to {out}")

    sign = result.det_sign
    atlas = enumerate_aspects(geom, depth=6, modes=[mode], det_signs=(sign,))
    # The check takes the geometry and eps the path was monitored with from the path.
    evidence = verify_assembly_mode_change(atlas, result)
    print(f"\nassembly-mode change: {evidence.verdict}")
    print(f"  shared actuated input (gap {evidence.alpha_gap:.1e}): {tuple(round(a, 6) for a in evidence.alpha)}")
    print(f"  same aspect: {evidence.in_same_aspect}, monitored: {result.verdict}")

    comp = locate(atlas.entries[(mode, sign)].workspace, way[0].as_tuple()).comp
    surf = characteristic_surface(atlas, mode, sign, comp)
    print(
        f"\ncharacteristic surface of that aspect: {surf.marked_leaves.size} marked leaves "
        f"(from {surf.boundary_leaves.size} singular-boundary cells)"
    )


if __name__ == "__main__":
    main()
