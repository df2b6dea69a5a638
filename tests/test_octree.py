import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import build_octree
from planar3rrr.errors import BoxMismatchError, OutOfBoxError
from planar3rrr.geometry import TWO_PI, WorkingMode
from planar3rrr.octree import (
    Box3,
    _canonical_tree,
    _grid_to_tree,
    connected_components,
    dumps,
    export,
    intersect,
    joint_box,
    leaf_indices,
    load,
    loads,
    locate,
    morton_decode,
    morton_encode,
    subtract,
    union,
    volume,
    workspace_box,
)


def _true_pred(x, y, z):
    return np.ones(np.broadcast(x, y, z).shape, dtype=bool)


def _false_pred(x, y, z):
    return np.zeros(np.broadcast(x, y, z).shape, dtype=bool)


def test_morton_round_trip(rng):
    ix = rng.integers(0, 2**12, 500, dtype=np.uint64)
    iy = rng.integers(0, 2**12, 500, dtype=np.uint64)
    iz = rng.integers(0, 2**12, 500, dtype=np.uint64)
    code = morton_encode(ix, iy, iz)
    jx, jy, jz = morton_decode(code)
    assert np.array_equal(ix, jx) and np.array_equal(iy, jy) and np.array_equal(iz, jz)
    # x is the least significant bit of the interleave
    assert int(morton_encode(np.uint64(1), np.uint64(0), np.uint64(0))[()]) == 1
    assert int(morton_encode(np.uint64(0), np.uint64(1), np.uint64(0))[()]) == 2
    assert int(morton_encode(np.uint64(0), np.uint64(0), np.uint64(1))[()]) == 4


def test_box_validation():
    with pytest.raises(ValueError):
        Box3(lo=(0, 0, 0), hi=(1, 0, 1), axes=("lin", "lin", "lin"))
    with pytest.raises(ValueError):
        Box3(lo=(0, 0, 0), hi=(1, 1, 7.0), axes=("lin", "lin", "per"))
    with pytest.raises(ValueError):
        Box3(lo=(0, 0, 0), hi=(1, 1, 1), axes=("lin", "lin", "bad"))
    box = workspace_box()
    assert box.wraps(2) and not box.wraps(0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("side", ["lo", "hi"])
@pytest.mark.parametrize("axis", [0, 2])
def test_box_refuses_non_finite_bounds(value, side, axis):
    # workspace_box(inf) used to build a box whose cells have NaN coordinates.
    bounds = {"lo": [0.0, 0.0, 0.0], "hi": [1.0, 1.0, 1.0]}
    bounds[side][axis] = value
    with pytest.raises(ValueError, match=rf"^axis {axis}: bounds must be finite, got \["):
        Box3(**bounds, axes=("lin", "lin", "lin"))


def test_uniform_predicate_merges_to_root(ref_geom):
    box = workspace_box()
    tree = build_octree(ref_geom, _true_pred, box, 3)
    assert tree.n_leaves == 1
    assert tree.depth[0] == 0 and bool(tree.label[0])
    assert volume(tree) == pytest.approx(box.volume)
    empty = build_octree(ref_geom, _false_pred, box, 3)
    assert empty.n_leaves == 1 and not empty.label[0]
    assert volume(empty) == 0.0


def test_halfspace_depth_one(ref_geom):
    tree = build_octree(ref_geom, lambda x, y, z: x < 0.0, workspace_box(), 1)
    assert tree.n_leaves == 8
    assert int(tree.label.sum()) == 4
    rec = locate(tree, (-6.0, -6.0, 1.0))
    assert rec.label is True
    rec = locate(tree, (6.0, -6.0, 1.0))
    assert rec.label is False


def test_depth_limits(ref_geom):
    with pytest.raises(ValueError):
        build_octree(ref_geom, _true_pred, workspace_box(), 0)
    with pytest.raises(ValueError):
        build_octree(ref_geom, _true_pred, workspace_box(), 13)


def test_depth8_cell_resolution():
    # 24 / 2^8 and 360 / 2^8: the advertised position/orientation accuracy.
    edges = workspace_box().cell_edges(8)
    assert edges[0] == 0.09375
    assert edges[1] == 0.09375
    assert math.degrees(edges[2]) == pytest.approx(1.40625, abs=1e-12)


def _random_tree(geom, rng, depth=4, box=None):
    box = box or workspace_box()
    a, b, c = rng.normal(size=3)
    f = lambda x, y, z: (np.sin(a * x + 0.3) + np.cos(b * y) + np.sin(c + z)) > 0.4
    return build_octree(geom, f, box, depth)


def test_tiling_sums_to_root_volume(ref_geom, rng):
    for _ in range(5):
        tree = _random_tree(ref_geom, rng)
        total = float(tree.leaf_volumes().sum())
        assert total == pytest.approx(tree.box.volume, rel=1e-12)


def test_dump_load_round_trip_and_canonical_form(ref_geom, rng):
    tree = _random_tree(ref_geom, rng)
    text = dumps(tree)
    again = loads(text)
    assert dumps(again) == text
    # Rebuilding from its own (shuffled) leaves reproduces the same dump.
    order = np.arange(tree.n_leaves)
    rng.shuffle(order)
    rebuilt = _canonical_tree(
        tree.box, tree.max_depth, tree.morton[order], tree.depth[order], tree.label[order]
    )
    assert dumps(rebuilt) == text


def test_loads_rejects_malformed_rows_by_line(ref_geom, rng):
    tree = _random_tree(ref_geom, rng)
    head, *rows = dumps(tree).splitlines()
    truncated = "\n".join([head, rows[0], "", rows[1][:-4]] + rows[2:]) + "\n"
    with pytest.raises(ValueError, match="line 4: malformed row"):
        loads(truncated)
    unknown = "\n".join([head] + rows[:5] + [rows[5] + " size=1"] + rows[6:]) + "\n"
    with pytest.raises(ValueError, match=r"line 7: malformed row: 'morton=.* size=1'"):
        loads(unknown)
    # Shuffled rows (blank lines around them) give the same tree and bytes.
    shuffled = "\n".join(["", head, ""] + [rows[k] for k in rng.permutation(len(rows))]) + "\n\n"
    assert dumps(loads(shuffled)) == dumps(tree)
    # Rows that overlap or leave a gap fail the tiling check.
    with pytest.raises(ValueError, match="do not tile"):
        loads("\n".join([head] + rows + rows[:1]))
    with pytest.raises(ValueError, match="do not tile"):
        loads("\n".join([head] + rows[1:]))


ROOT_ROW = "morton=0x0 depth=0 label=1 comp=-\n"
V1 = "octree v1; box=-1.0,-1.0,-1.0,1.0,1.0,1.0;"
LIN = "axes=lin,lin,lin"
HEAD_ERRORS = {
    "no-box": (f"octree v1; depth=3; {LIN}", "line 1: head field 'box' is missing"),
    "depth-x": (f"{V1} depth=x; {LIN}", "'depth' is not an integer in"),
    "depth-22": (f"{V1} depth=22; {LIN}", r"'depth' is not an integer in \[0, 21\]"),
    "depth-negative": (f"{V1} depth=-1; {LIN}", "'depth' is not an integer"),
    "no-equals": (f"{V1} depth 3; {LIN}", "head field 'depth 3' has no '='"),
    "duplicate": (f"{V1} depth=3; depth=3; {LIN}", "'depth=3' duplicate field"),
    "unknown": (f"{V1} depth=3; {LIN}; size=8", "'size=8' unknown field"),
    "box-5": (f"octree v1; box=0,0,0,1,1; depth=3; {LIN}", "'box' is not 6 finite floats"),
    "box-text": (f"octree v1; box=0,0,0,1,1,a; depth=3; {LIN}", "'box' is not 6 finite"),
    "box-inf": (f"octree v1; box=0,0,0,1,1,inf; depth=3; {LIN}", "'box' is not 6 finite"),
    "axes-2": (f"{V1} depth=3; axes=lin,lin", "'box' and 'axes': Box3 needs three axes"),
    "axes-kind": (f"{V1} depth=3; axes=lin,lin,deg", "'axes': axis 2: kind must be"),
    "leading-blank-lines": (f"\n \n{V1} depth=3", "line 3: head field 'axes' is missing"),
    "not-v1": ("octree v2; depth=3", "line 1: not an octree v1 dump"),
}


@pytest.mark.parametrize("head, message", HEAD_ERRORS.values(), ids=HEAD_ERRORS.keys())
def test_loads_rejects_malformed_heads_by_line_and_field(head, message):
    with pytest.raises(ValueError, match=message):
        loads(head + "\n" + ROOT_ROW)


def test_loads_head_limits():
    assert loads(f"{V1} depth=0; {LIN}\n" + ROOT_ROW).max_depth == 0
    tree = loads(f" {V1}  depth= 21 ;axes=lin,lin,per\r\n" + ROOT_ROW)
    assert tree.max_depth == 21 and tree.n_leaves == 1
    for depth in (-1, 22):
        with pytest.raises(ValueError, match=r"max_depth must be in \[0, 21\]"):
            replace(tree, max_depth=depth)


def test_load_names_the_line_of_a_non_ascii_byte(ref_geom, rng, tmp_path):
    tree = _random_tree(ref_geom, rng)
    head, *rows = dumps(tree).encode().splitlines()
    path = tmp_path / "tree.oct"
    path.write_bytes(b"\n".join([head] + rows[:2] + [rows[2] + b"\xc3\xa9"] + rows[3:]))
    with pytest.raises(ValueError, match="line 4: malformed row"):
        load(path)
    path.write_bytes(b"\n".join([head.replace(b"lin", b"l\xffn", 1)] + rows))
    with pytest.raises(ValueError, match="line 1: head fields 'box' and 'axes': axis 0"):
        load(path)


def test_export_import_file(ref_geom, rng, tmp_path):
    tree = _random_tree(ref_geom, rng)
    path = tmp_path / "tree.oct"
    export(tree, path)
    assert dumps(load(path)) == dumps(tree)


def test_connected_components_refuses_an_unknown_method(ref_geom):
    tree = build_octree(ref_geom, lambda x, y, z: x < 0.0, workspace_box(), 2)
    with pytest.raises(ValueError, match=r"^unknown method 'bfs'$"):
        connected_components(tree, method="bfs")


def test_boolean_identities(ref_geom, rng):
    box = workspace_box()
    empty = build_octree(ref_geom, _false_pred, box, 4)
    a = _random_tree(ref_geom, rng)
    assert dumps(union(a, empty)) == dumps(a)
    assert dumps(intersect(a, a)) == dumps(a)
    assert dumps(subtract(a, a)) == dumps(empty)
    for _ in range(4):
        t1 = _random_tree(ref_geom, rng)
        t2 = _random_tree(ref_geom, rng)
        vu = volume(union(t1, t2))
        vi = volume(intersect(t1, t2))
        assert vu + vi == pytest.approx(volume(t1) + volume(t2), rel=1e-12, abs=1e-12)


def test_boolean_box_mismatch(ref_geom, rng):
    a = _random_tree(ref_geom, rng, depth=3)
    b = _random_tree(ref_geom, rng, depth=4)
    with pytest.raises(BoxMismatchError):
        union(a, b)
    c = _random_tree(ref_geom, rng, depth=3, box=joint_box())
    with pytest.raises(BoxMismatchError):
        intersect(a, c)


def test_single_component(ref_geom):
    tree = build_octree(ref_geom, lambda x, y, z: (np.abs(x) < 2) & (np.abs(y) < 2), workspace_box(), 3)
    labeled, count = connected_components(tree)
    assert count == 1
    assert labeled.comp is not None


def test_wrap_adjacency_joins_theta_slabs(ref_geom):
    # Two slabs touching only across the theta wrap form one component.
    box = workspace_box()
    lo = 0.25 * TWO_PI
    hi = 0.75 * TWO_PI

    def pred(x, y, z):
        shape = np.broadcast(x, y, z).shape
        keep = (z < lo) | (z >= hi)
        return np.broadcast_to(keep, shape)

    tree = build_octree(ref_geom, pred, box, 3)
    _, count = connected_components(tree)
    assert count == 1
    # Without the wrap (linear theta axis) the same region splits in two.
    box_lin = Box3(lo=box.lo, hi=box.hi, axes=("lin", "lin", "lin"))
    tree_lin = build_octree(ref_geom, pred, box_lin, 3)
    _, count_lin = connected_components(tree_lin)
    assert count_lin == 2


def test_checkerboard_components_are_isolated(ref_geom):
    box = workspace_box()
    n = 1 << 2

    def pred(x, y, z):
        ix = np.floor((x - box.lo[0]) / (box.hi[0] - box.lo[0]) * n).astype(int)
        iy = np.floor((y - box.lo[1]) / (box.hi[1] - box.lo[1]) * n).astype(int)
        iz = np.floor((z - box.lo[2]) / (box.hi[2] - box.lo[2]) * n).astype(int)
        return (ix + iy + iz) % 2 == 0

    tree = build_octree(ref_geom, pred, box, 2)
    labeled, count = connected_components(tree)
    n_in = int(tree.label.sum())
    assert n_in == 32
    assert count == n_in


def test_components_grid_and_graph_agree(ref_geom, rng):
    for _ in range(4):
        tree = _random_tree(ref_geom, rng, depth=3)
        g1, c1 = connected_components(tree, method="grid")
        g2, c2 = connected_components(tree, method="graph")
        assert c1 == c2
        assert np.array_equal(g1.comp, g2.comp)


def _hilbert_cell(order: int, d: int) -> tuple[int, int]:
    """Cell (x, y) at distance ``d`` along the order-``order`` Hilbert curve."""
    x = y = 0
    s = 1
    while s < (1 << order):
        rx = 1 & (d // 2)
        ry = 1 & (d ^ rx)
        if ry == 0:
            if rx == 1:
                x, y = s - 1 - x, s - 1 - y
            x, y = y, x
        x, y = x + s * rx, y + s * ry
        d //= 4
        s *= 2
    return x, y


def _two_hilbert_tubes(n: int) -> np.ndarray:
    """Two 1-voxel-wide Hilbert-curve tubes at z = 0 and z = 2, two voxels apart.

    Along a tube the Morton order of its voxels rises and falls at every
    scale, so the union-find needs many hooking rounds to join it.
    """
    grid = np.zeros((n, n, n), dtype=bool)
    cells = [_hilbert_cell(int(math.log2(n)) - 1, d) for d in range((n // 2) ** 2)]
    for (x0, y0), (x1, y1) in zip(cells, cells[1:]):
        grid[2 * x0, 2 * y0, (0, 2)] = grid[x0 + x1, y0 + y1, (0, 2)] = True
        grid[2 * x1, 2 * y1, (0, 2)] = True
    return grid


def _theta_ring_with_gap(n: int) -> np.ndarray:
    """A column along theta with one gap: joined only across the theta seam."""
    grid = np.zeros((n, n, n), dtype=bool)
    grid[1, 2, :] = True
    grid[1, 2, n // 2] = False
    return grid


def _single_voxel(n: int) -> np.ndarray:
    grid = np.zeros((n, n, n), dtype=bool)
    grid[3, 5, 2] = True
    return grid


@pytest.mark.parametrize(
    "make_grid, depth, axes, expected",
    [
        (_two_hilbert_tubes, 5, ("lin", "lin", "lin"), 2),
        (_theta_ring_with_gap, 3, ("lin", "lin", "per"), 1),
        (lambda n: np.zeros((n, n, n), dtype=bool), 3, ("lin", "lin", "per"), 0),
        (_single_voxel, 3, ("lin", "lin", "per"), 1),
    ],
    ids=["serpentine-tubes", "theta-seam", "all-out", "single-in-leaf"],
)
def test_labeler_edge_cases_graph_equals_grid(make_grid, depth, axes, expected):
    box = Box3(lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, TWO_PI), axes=axes)
    tree = _grid_to_tree(make_grid(1 << depth), box, depth)
    by_graph, count = connected_components(tree, method="graph")
    by_grid, grid_count = connected_components(tree, method="grid")
    assert count == grid_count == expected
    assert np.array_equal(by_graph.comp, by_grid.comp)
    assert np.array_equal(by_graph.comp >= 0, tree.label)


def _corner_voxels(depth: int, corners) -> np.ndarray:
    """IN voxels at the given box corners (bit a of a corner: high end of axis a)."""
    n = 1 << depth
    grid = np.zeros((n, n, n), dtype=bool)
    for corner in corners:
        grid[tuple((n - 1) * (corner >> axis & 1) for axis in range(3))] = True
    return grid


def _checkerboard(depth: int) -> np.ndarray:
    return np.indices((1 << depth,) * 3).sum(axis=0) % 2 == 0


GRID_EDGE_CASES = {
    "depth0-in": (np.ones((1, 1, 1), dtype=bool), 1),
    "depth0-out": (np.zeros((1, 1, 1), dtype=bool), 1),
    "depth1-x-plane": (np.indices((2, 2, 2))[0] == 0, 8),
    "depth1-all-in": (np.ones((2, 2, 2), dtype=bool), 1),
    "all-in": (np.ones((16, 16, 16), dtype=bool), 1),
    "all-out": (np.zeros((16, 16, 16), dtype=bool), 1),
    "checkerboard": (_checkerboard(3), 8**3),
    **{f"corner{c}": (_corner_voxels(3, [c]), 1 + 7 * 3) for c in range(8)},
    "all-corners": (_corner_voxels(3, range(8)), 8 * (1 + 7 * 2)),
}


@pytest.mark.parametrize("grid, n_leaves", GRID_EDGE_CASES.values(), ids=GRID_EDGE_CASES.keys())
def test_grid_to_tree_edge_cases(grid, n_leaves):
    # The pyramid build against the stack merger and the sibling merger of
    # the voxel records, on the wrapping pose box.
    box, depth = workspace_box(), int(math.log2(len(grid)))
    ix, iy, iz = np.indices(grid.shape).reshape(3, -1)
    codes, depths = morton_encode(ix, iy, iz), np.full(ix.size, depth)
    tree = _grid_to_tree(grid, box, depth)
    got = [list(c) for c in zip(tree.morton.tolist(), tree.depth.tolist(), tree.label.tolist())]
    voxels = zip(codes.tolist(), depths.tolist(), grid.ravel().tolist())
    assert got == oracles.canonical_cells(depth, voxels)
    assert dumps(tree) == dumps(_canonical_tree(box, depth, codes, depths, grid.ravel()))
    assert tree.n_leaves == n_leaves
    assert volume(tree) == pytest.approx(box.volume * grid.mean())


@pytest.mark.parametrize(
    "shape, depth",
    [((8, 8, 4), 3), ((8, 8), 3), ((2, 2, 2), 0), ((1, 1, 1), 1), ((4, 4, 4, 1), 2)],
)
def test_grid_to_tree_refuses_a_wrong_grid_shape(shape, depth):
    with pytest.raises(ValueError, match="label grid must have shape"):
        _grid_to_tree(np.zeros(shape, dtype=bool), workspace_box(), depth)


def test_cli_import_loads_no_scipy():
    # The import path is numpy-only; the dense reference labeler imports
    # scipy.ndimage when it is first called.
    code = """if True:
        import json, sys
        import numpy as np
        import planar3rrr.cli
        from planar3rrr.octree import Box3, _grid_to_tree, connected_components
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        grid = np.zeros((4, 4, 4), dtype=bool)
        grid[0, :, 0] = grid[3, :, 3] = True
        tree = _grid_to_tree(grid, Box3(lo=(0, 0, 0), hi=(1, 1, 1), axes=("lin",) * 3), 2)
        _, count = connected_components(tree, method="grid")
        print(json.dumps([loaded, count, "scipy.ndimage" in sys.modules]))
    """
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], 2, True]


def test_component_ids_invariant_under_leaf_permutation(ref_geom, rng):
    tree = _random_tree(ref_geom, rng, depth=3)
    labeled, count = connected_components(tree)
    order = np.arange(tree.n_leaves)
    rng.shuffle(order)
    rebuilt = _canonical_tree(
        tree.box, tree.max_depth, tree.morton[order], tree.depth[order], tree.label[order]
    )
    relabeled, count2 = connected_components(rebuilt)
    assert count == count2
    assert np.array_equal(labeled.comp, relabeled.comp)


def test_locate_examples(ref_geom):
    tree = build_octree(ref_geom, lambda x, y, z: x < 0.0, workspace_box(), 2)
    assert locate(tree, (-6.0, 0.0, 3.0)).label is True
    # Periodic fold: theta = -pi locates inside [0, 2pi).
    assert locate(tree, (-6.0, 0.0, -math.pi)).label is True
    with pytest.raises(OutOfBoxError):
        locate(tree, (20.0, 0.0, 0.0))


@pytest.mark.parametrize("box", [workspace_box(), joint_box()], ids=["workspace", "joint"])
def test_leaf_indices_match_scalar_oracle(ref_geom, rng, box):
    # One array lookup folds, tests the box and finds the voxel's leaf as a
    # scalar loop does: points outside the box, theta outside [0, 2pi), box
    # faces and NaN included.
    tree = _random_tree(ref_geom, rng, depth=4, box=box)
    lo, hi = np.array(box.lo), np.array(box.hi)
    wide = lo - 0.2 * (hi - lo) + rng.random((400, 3)) * 1.4 * (hi - lo)
    wide[:, 2] = rng.uniform(-4 * math.pi, 6 * math.pi, 400)
    faces = np.array([lo, hi, [lo[0], hi[1], TWO_PI], [hi[0], lo[1], -TWO_PI], [math.nan, 0, 0]])
    points = np.concatenate([wide, faces])
    got = leaf_indices(tree, points)
    want = [oracles.leaf_index_scalar(tree, p) for p in points]
    assert got.tolist() == want
    assert 0 < (got < 0).sum() < len(got)
    for p, i in zip(points, want):
        if i < 0:
            with pytest.raises(OutOfBoxError):
                locate(tree, p)
        else:
            assert locate(tree, p).index == i


def test_volume_monotonicity_under_refinement(ref_geom, rng):
    # Refining one level changes the IN volume by at most the volume of the
    # cells that were not uniformly labeled at the finer depth.
    box = workspace_box()
    a, b, c = rng.normal(size=3)
    pred = lambda x, y, z: (np.sin(a * x) + np.cos(b * y + 0.2) + np.sin(c + 2 * z)) > 0.5
    t4 = build_octree(ref_geom, pred, box, 4)
    t5 = build_octree(ref_geom, pred, box, 5)
    mixed_volume = 0.0
    n4 = 1 << 4
    w = [(box.hi[i] - box.lo[i]) / n4 for i in range(3)]
    for i in range(t4.n_leaves):
        lo, hi = t4.leaf_box(i)
        # A depth-4 cell is mixed at depth 5 when t5 labels disagree inside.
        labels = set()
        for dx in (0.25, 0.75):
            for dy in (0.25, 0.75):
                for dz in (0.25, 0.75):
                    p = (
                        lo[0] + dx * (hi[0] - lo[0]),
                        lo[1] + dy * (hi[1] - lo[1]),
                        lo[2] + dz * (hi[2] - lo[2]),
                    )
                    labels.add(locate(t5, p).label)
        if len(labels) > 1:
            mixed_volume += float(np.prod([hi[k] - lo[k] for k in range(3)]))
    assert abs(volume(t5) - volume(t4)) <= mixed_volume + 1e-9


def test_workspace_predicate_tree_locates_reference_pose(ref_geom):
    from conftest import posture
    from planar3rrr.aspects import enumerate_aspects

    atlas = enumerate_aspects(ref_geom, depth=5, modes=[WorkingMode.C], det_signs=(1,))
    rec = locate(atlas.entries[(WorkingMode.C, 1)].workspace, posture(1).as_tuple())
    assert rec.label is True


def test_joint_predicate_tree_matches_generic_build(ref_geom):
    # The bulk joint grids and a generic build over the shared assembly-pose
    # classifier agree.
    from planar3rrr import batch
    from planar3rrr.aspects import _joint_flag_grids
    from planar3rrr.octree import _grid_to_tree

    k = batch.MODE_ORDER.index(WorkingMode.C)

    def pred(a1, a2, a3):
        a1, a2, a3 = np.broadcast_arrays(a1, a2, a3)
        alphas = np.stack([a1.ravel(), a2.ravel(), a3.ravel()], axis=1)
        idx, _, _, _, mode_idx, det_sign = batch.assembly_modes(ref_geom, alphas)
        flags = np.zeros(len(alphas), dtype=bool)
        flags[idx[(mode_idx == k) & (det_sign == 1)]] = True
        return flags.reshape(a1.shape)

    jb = joint_box()
    t1 = build_octree(ref_geom, pred, jb, 3)
    flags = _joint_flag_grids(ref_geom, 3)
    t2 = _grid_to_tree(flags[k, 0], jb, 3)
    assert dumps(t1) == dumps(t2)
