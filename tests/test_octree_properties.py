"""Property tests of the array-form octree layer.

Inputs are blocky random label grids (a coarse random grid refined to the
tree depth, with random aligned cubes painted over it) at depths 2-6, on a
pose box (one periodic axis), the joint box (all periodic) and an all-linear
box. The tree operations must agree with voxel logic on the rasterized
grids, and the merger with the stack merger in ``oracles.canonical_cells``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from planar3rrr.octree import (
    Box3,
    _grid_to_tree,
    _rasterize,
    _tree_from_cells,
    connected_components,
    dumps,
    intersect,
    joint_box,
    loads,
    morton_encode,
    subtract,
    union,
    workspace_box,
)

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
BOXES = (
    workspace_box(),
    joint_box(),
    Box3(lo=(-1.0, -2.0, -3.0), hi=(1.0, 2.0, 3.0), axes=("lin", "lin", "lin")),
)


def blocky_grid(rng, depth):
    coarse = int(rng.integers(0, depth + 1))
    f = 1 << (depth - coarse)
    grid = rng.random((1 << coarse,) * 3) < rng.random()
    grid = grid.repeat(f, 0).repeat(f, 1).repeat(f, 2)
    for _ in range(int(rng.integers(0, 6))):
        size = 1 << int(rng.integers(0, depth))
        o = rng.integers(0, (1 << depth) // size, 3) * size
        grid[o[0] : o[0] + size, o[1] : o[1] + size, o[2] : o[2] + size] = rng.random() < 0.5
    return grid


@st.composite
def grid_pairs(draw, depths=(2, 6)):
    """(box, depth, grid a, grid b, numpy generator for further draws)."""
    box = draw(st.sampled_from(BOXES))
    depth = draw(st.integers(*depths))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return box, depth, blocky_grid(rng, depth), blocky_grid(rng, depth), rng


@PROPERTY_SETTINGS
@given(case=grid_pairs())
def test_boolean_ops_match_voxel_logic(case):
    box, depth, ga, gb, _ = case
    a = _grid_to_tree(ga, box, depth)
    b = _grid_to_tree(gb, box, depth)
    assert np.array_equal(_rasterize(a, a.label), ga)
    for op, grid in ((union, ga | gb), (intersect, ga & gb), (subtract, ga & ~gb)):
        result = op(a, b)
        assert np.array_equal(_rasterize(result, result.label), grid)
        assert dumps(result) == dumps(_grid_to_tree(grid, box, depth))


@PROPERTY_SETTINGS
@given(case=grid_pairs())
def test_dump_round_trip_keeps_bytes_in_any_row_order(case):
    box, depth, ga, _, rng = case
    tree = _grid_to_tree(ga, box, depth)
    for t in (tree, connected_components(tree, method="graph")[0]):
        text = dumps(t)
        assert dumps(loads(text)) == text
        head, *rows = text.splitlines()
        shuffled = "\n".join([head] + [rows[k] for k in rng.permutation(len(rows))]) + "\n"
        assert dumps(loads(shuffled)) == text


@PROPERTY_SETTINGS
@given(case=grid_pairs())
def test_graph_component_ids_equal_grid_ids(case):
    box, depth, ga, _, _ = case
    tree = _grid_to_tree(ga, box, depth)
    by_graph, n_graph = connected_components(tree, method="graph")
    by_grid, n_grid = connected_components(tree, method="grid")
    assert n_graph == n_grid
    assert np.array_equal(by_graph.comp, by_grid.comp)


@PROPERTY_SETTINGS
@given(case=grid_pairs(depths=(2, 4)))
def test_grid_to_tree_equals_stack_merger(case):
    box, depth, ga, _, _ = case
    ix, iy, iz = np.indices(ga.shape).reshape(3, -1)
    codes = morton_encode(ix, iy, iz).tolist()
    expected = oracles.canonical_cells(depth, zip(codes, [depth] * len(codes), ga.ravel().tolist()))
    tree = _grid_to_tree(ga, box, depth)
    got = zip(tree.morton.tolist(), tree.depth.tolist(), tree.label.tolist())
    assert [list(c) for c in got] == expected


@PROPERTY_SETTINGS
@given(case=grid_pairs())
def test_merger_equals_stack_merger(case):
    # Every leaf of a canonical tree split once, with a component id per
    # child drawn from {0, 1}: groups whose ids differ merge to -1.
    box, depth, ga, _, rng = case
    tree = _grid_to_tree(ga, box, depth)
    split = tree.depth < depth
    kids = (tree.morton[split][:, None] * 8 + np.arange(8, dtype=np.uint64)).ravel()
    morton = np.concatenate([tree.morton[~split], kids]).tolist()
    depths = np.concatenate([tree.depth[~split], np.repeat(tree.depth[split] + 1, 8)]).tolist()
    labels = np.concatenate([tree.label[~split], np.repeat(tree.label[split], 8)]).tolist()
    comps = rng.integers(0, 2, len(morton)).tolist()
    cells = list(zip(morton, depths, labels, comps))
    expected = oracles.canonical_cells(depth, cells)
    shuffled = [cells[k] for k in rng.permutation(len(cells))]
    got = _tree_from_cells(box, depth, shuffled, with_comp=True)
    columns = (got.morton.tolist(), got.depth.tolist(), got.label.tolist(), got.comp.tolist())
    assert [list(c) for c in zip(*columns)] == expected
