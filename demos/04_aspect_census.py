"""Census of the generalized aspects.

An aspect is a maximal connected singularity-free domain for one working
mode and one sign of det(A). At depth 8 the census finds eleven aspects per
det sign: four for one mode and one for each of the other seven.

Depth 7 reproduces the same counts in a few seconds; pass depth 8 to match
the reference resolution (0.09375 length units, 1.40625 degrees).
"""

import sys
import time

from planar3rrr import GeometryConfig, WorkingMode
from planar3rrr.aspects import enumerate_aspects


def main(depth: int = 7):
    geom = GeometryConfig.reference()
    t0 = time.perf_counter()
    atlas = enumerate_aspects(geom, depth=depth, joint_depth=min(depth, 5))
    dt = time.perf_counter() - t0
    for sign, tag in ((1, "+"), (-1, "-")):
        counts = atlas.counts(sign)
        row = "  ".join(f"{m.label}:{counts[m]}" for m in WorkingMode)
        print(f"det(A) {tag}:  {row}   total {atlas.total(sign)}")
    print(f"grand total: {atlas.grand_total}   ({dt:.1f} s at depth {depth})")

    entry = atlas.entries[(WorkingMode.A, 1)]
    print(
        f"\nmode a, det(A) > 0 splits into {entry.n_components} aspects with volumes "
        + ", ".join(f"{entry.component_volumes[i]:.2f}" for i in entry.solid_component_ids)
    )
    print(
        f"joint-space projection (depth {atlas.joint_depth}): "
        f"{entry.n_joint_components} component(s)"
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 7)
