"""Octree decomposition of the pose space (x, y, theta).

The region of one working mode and det(A) sign comes from the aspect
census, the toolkit's one cell classifier: a cell is IN when every leg is
strictly in reach and det(A) has the wanted sign at all eight of its
corners. The IN cells are merged into the canonical linear octree and
labeled for face connectivity with the orientation axis wrapping at 2 pi;
only solid components count.
"""

from planar3rrr import GeometryConfig, WorkingMode
from planar3rrr.aspects import enumerate_aspects
from planar3rrr.octree import dumps, locate, volume


def main():
    geom = GeometryConfig.reference()
    depth = 6
    atlas = enumerate_aspects(geom, depth=depth, modes=[WorkingMode.C], det_signs=(1,))
    box = atlas.box
    entry = atlas.entries[(WorkingMode.C, 1)]
    tree = entry.workspace
    print(f"mode c, det(A) > 0, depth {depth}:")
    print(f"  {tree.n_leaves} leaves tile {box.volume:.3f} units^3 of pose space")
    print(
        f"  region volume {volume(tree):.3f}, {entry.n_components} solid face-connected "
        f"component(s) of {entry.n_components_raw}"
    )
    edges = box.cell_edges(depth)
    print(f"  cell size {edges[0]:.5f} x {edges[1]:.5f} length units x {edges[2]:.5f} rad")

    rec = locate(tree, (1.102292, 1.956300, 1.003615))
    print(f"  benchmark pose sits in leaf {rec.index} (IN={rec.label}, component {rec.comp})")

    head = "\n".join(dumps(tree).splitlines()[:4])
    print("\ndump head:\n" + head)


if __name__ == "__main__":
    main()
