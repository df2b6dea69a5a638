"""Property tests of the array-form octree layer.

Inputs are blocky random label grids (a coarse random grid refined to the
tree depth, with random aligned cubes painted over it) at depths 2-6, on a
pose box (one periodic axis), the joint box (all periodic), an all-linear
box and a box whose periodic axis is shorter than 2pi, so it does not wrap.
The tree operations must agree with voxel logic on the rasterized grids, and
the merger with the stack merger in ``oracles.canonical_cells``, also on
records split up to three levels below a canonical tree, and label cubes
placed over a coarser lattice (``cube_tree``) with the one-grid builder.
``solid_components`` and ``boundary_pairs`` must agree with the dense
oracles, and the leaf probe with a decode/step/encode oracle at every depth
up to ``MAX_TREE_DEPTH``.
``loads`` must accept exactly the mutated dumps that the regex row grammar
``oracles.loads_rows`` accepts, and its word-at-a-time row parser
``_parse_rows`` exactly the bodies that ``_BODY.fullmatch`` accepts, with the
same columns: at every field's 8-byte word boundaries, next to every digit
range, after the shortest head and on 24,000 seeded edits of a census dump.
"""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from planar3rrr.aspects import enumerate_aspects
from planar3rrr.geometry import GeometryConfig, WorkingMode
from planar3rrr.octree import (
    MAX_TREE_DEPTH,
    _BODY,
    Box3,
    Octree,
    _canonical_tree,
    _grid_to_tree,
    _parse_rows,
    _probe_leaves,
    _rasterize,
    boundary_pairs,
    connected_components,
    cube_tree,
    dumps,
    intersect,
    joint_box,
    loads,
    morton_encode,
    solid_components,
    subtract,
    union,
    workspace_box,
)

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
BOXES = (
    workspace_box(),
    joint_box(),
    Box3(lo=(-1.0, -2.0, -3.0), hi=(1.0, 2.0, 3.0), axes=("lin", "lin", "lin")),
    # A periodic axis shorter than 2pi does not wrap.
    Box3(lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, math.pi), axes=("lin", "lin", "per")),
)
BOX_IDS = ("workspace", "joint", "linear", "short-periodic")


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
def test_boolean_ops_at_the_extremes_of_start_sharing(case):
    # Operands that share every leaf start (a, a), whose leaves coincide
    # with opposite labels (a, not a), or of which one is a single leaf.
    box, depth, ga, _, _ = case
    a = _grid_to_tree(ga, box, depth)
    for gb in (ga, ~ga, np.zeros_like(ga), np.ones_like(ga)):
        b = _grid_to_tree(gb, box, depth)
        for op, grid in ((union, ga | gb), (intersect, ga & gb), (subtract, ga & ~gb)):
            assert dumps(op(a, b)) == dumps(_grid_to_tree(grid, box, depth))
    # Against the complement every group merges, up to a single root leaf.
    not_a = _grid_to_tree(~ga, box, depth)
    assert union(a, not_a).n_leaves == intersect(a, not_a).n_leaves == 1
    assert union(a, not_a).label[0] and not intersect(a, not_a).label[0]


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
@given(case=grid_pairs(depths=(2, 5)))
def test_solidity_and_boundary_match_dense_oracles(case):
    # The dense boundary oracle rasterizes the tree per component, so only
    # three components of each tree are drawn (trees may hold hundreds).
    box, depth, ga, _, rng = case
    tree, count = connected_components(_grid_to_tree(ga, box, depth))
    assert solid_components(tree) == oracles.solid_ids_dense(tree)
    for cid in rng.permutation(count)[:3].tolist():
        got = np.unique(np.stack(boundary_pairs(tree, cid), axis=1), axis=0)
        assert np.array_equal(got, oracles.boundary_pairs_dense(tree, cid).reshape(-1, 2))


@st.composite
def brick_layouts(draw):
    """(depth, levels, live brick mask, (m, s, s, s) brick cubes, (m, 3) brick
    origins, dense grid, numpy generator): blocky cubes of s = 2^levels cells
    on the live bricks of a random lattice (all live, none, or some), OUT
    elsewhere in the dense grid."""
    depth = draw(st.integers(1, 5))
    levels = draw(st.integers(1, depth))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nb, s = 1 << (depth - levels), 1 << levels
    live = rng.random((nb,) * 3) < draw(st.sampled_from((0.0, 0.4, 1.0)))
    origins = np.argwhere(live)
    cubes = np.array([blocky_grid(rng, levels) for _ in origins], dtype=bool).reshape(-1, s, s, s)
    grid = np.zeros((1 << depth,) * 3, dtype=bool)
    for (x, y, z), cube in zip(origins * s, cubes):
        grid[x : x + s, y : y + s, z : z + s] = cube
    return depth, levels, live, cubes, origins, grid, rng


@PROPERTY_SETTINGS
@given(case=brick_layouts())
def test_cube_tree_over_a_lattice_equals_the_dense_builder(case):
    # The census's brick trees: label cubes at brick origins, in any order,
    # over the OUT leaves of the brick lattice's tree.
    depth, levels, live, cubes, origins, grid, rng = case
    order = rng.permutation(len(origins))
    for box in BOXES:
        lattice = _grid_to_tree(live, box, depth - levels)
        tree = cube_tree(box, depth, cubes[order], origins[order], lattice)
        assert dumps(tree) == dumps(_grid_to_tree(grid, box, depth))
        if live.all():
            assert dumps(cube_tree(box, depth, cubes, origins)) == dumps(tree)


def voxel_tree(box, max_depth, codes):
    """An all-OUT tree in which every given max-depth code is a leaf of its
    own: the ancestors of the codes are split, every other cell is a leaf."""
    codes = np.unique(np.asarray(codes, dtype=np.uint64))
    morton, depth = [codes], [np.full(codes.size, max_depth)]
    for d in range(max_depth):
        split = np.unique(codes >> np.uint64(3 * (max_depth - d)))
        kids = (split[:, None] << np.uint64(3) | np.arange(8, dtype=np.uint64)).ravel()
        kids = kids[~np.isin(kids, codes >> np.uint64(3 * (max_depth - d - 1)))]
        morton.append(kids)
        depth.append(np.full(kids.size, d + 1))
    morton, depth = np.concatenate(morton), np.concatenate(depth)
    order = np.argsort(morton << (3 * (max_depth - depth)).astype(np.uint64))
    return Octree(box, max_depth, morton[order], depth[order], np.zeros(morton.size, dtype=bool))


@pytest.mark.parametrize("max_depth", [0, 1, 7, MAX_TREE_DEPTH])
@pytest.mark.parametrize("box", BOXES, ids=BOX_IDS)
def test_probe_matches_the_voxel_oracle(box, max_depth):
    # Codes at the 8 grid corners and at random, moved by every offset in
    # -2..2 per axis and by a power-of-two side (1 to n) on one axis, as the
    # face probes move. At depth 21 a code fills 63 bits, so the carry out of
    # an axis runs into bit 63 and out of the word.
    rng = np.random.default_rng(max_depth)
    n = 1 << max_depth
    corners = np.array(list(itertools.product((0, n - 1), repeat=3)))
    codes = np.concatenate((
        morton_encode(*corners.T),
        rng.integers(0, 1 << (3 * max_depth), 8, dtype=np.uint64),
    ))
    cube = list(itertools.product(range(-2, 3), repeat=3))
    shape = (len(codes), 12)
    steps = rng.choice((-1, 1), shape) << rng.integers(0, max_depth + 1, shape)
    sides = np.eye(3, dtype=np.int64)[rng.integers(0, 3, steps.shape)] * steps[..., None]
    offsets = np.concatenate((np.broadcast_to(cube, (len(codes), len(cube), 3)), sides), axis=1)
    wraps = [box.wraps(axis) for axis in range(3)]
    moved = [
        [oracles.probe_voxel(c, o, max_depth, wraps) for o in row]
        for c, row in zip(codes.tolist(), offsets.tolist())
    ]
    assert any(m is None for row in moved for m in row) != all(wraps)
    tree = voxel_tree(box, max_depth, [m for row in moved for m in row if m is not None])
    # A Python int past 2^53 is searched as a float, so search uint64 codes.
    want = [
        [-1 if m is None else int(np.searchsorted(tree.starts, np.uint64(m))) for m in row]
        for row in moved
    ]
    got = _probe_leaves(tree, codes[:, None], tuple(np.moveaxis(offsets, 2, 0)))
    assert got.tolist() == want


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
    order = rng.permutation(len(cells))
    got = _canonical_tree(box, depth, *(np.asarray(c)[order] for c in (morton, depths, labels, comps)))
    columns = (got.morton.tolist(), got.depth.tolist(), got.label.tolist(), got.comp.tolist())
    assert [list(c) for c in zip(*columns)] == expected


@st.composite
def cascade_records(draw):
    """(box, depth, label grid, morton, depth, label and comp columns, numpy
    generator): the leaves of the grid's canonical tree split 1-3 levels deep
    (no deeper than the tree), each child with a comp drawn from {0, 1} (or
    all comps 0), in Morton order. Merging them back takes cascades of up to
    three levels."""
    box, depth, ga, _, rng = draw(grid_pairs(depths=(3, 5)))
    tree = _grid_to_tree(ga, box, depth)
    levels = np.minimum(rng.integers(1, 4, tree.n_leaves), depth - tree.depth.astype(np.int64))
    sizes = 8**levels
    morton = np.repeat(tree.morton << (3 * levels).astype(np.uint64), sizes)
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)
    morton += (np.arange(len(morton)) - first).astype(np.uint64)
    depths = np.repeat(tree.depth + levels, sizes)
    labels = np.repeat(tree.label, sizes)
    comps = rng.integers(0, 2, len(morton)) * draw(st.integers(0, 1))
    return box, depth, ga, morton, depths, labels, comps, rng


@PROPERTY_SETTINGS
@given(case=cascade_records())
def test_merger_equals_stack_merger_on_cascades(case):
    box, depth, ga, *columns, rng = case
    expected = oracles.canonical_cells(depth, zip(*(c.tolist() for c in columns)))
    order = rng.permutation(len(columns[0]))
    got = _canonical_tree(box, depth, *(c[order] for c in columns))
    got_columns = (got.morton.tolist(), got.depth.tolist(), got.label.tolist(), got.comp.tolist())
    assert [list(c) for c in zip(*got_columns)] == expected
    assert np.array_equal(_rasterize(got, got.label), ga)
    # The split records dumped in Morton order load as the canonical dump.
    text = dumps(got)
    assert dumps(loads(dumps(Octree(box, depth, *columns)))) == text
    assert dumps(loads(text)) == text


#: Bytes the mutations insert: row tokens, uppercase hex, line breaks,
#: ASCII spaces, an Arabic-Indic three and a superscript two.
MUTATION_BYTES = "0123456789abcdefxABCDEF =-\n\r\t\u0663\u00b2"
TEXT_MUTATIONS = ("insert", "delete", "replace", "digit", "crlf", "chop")
LINE_MUTATIONS = ("deepen", "script", "upper", "pad", "space", "blank", "swap", "repeat", "drop")


def mutate_line(draw, kind, lines, k):
    if kind == "deepen":
        lines[k] = re.sub(r"(?<=depth=)[0-9]+", str(draw(st.integers(0, 99))), lines[k])
    elif kind == "script":
        # The same digit in Arabic-Indic script, which a Unicode \d takes.
        digit = lambda m: chr(0x0660 + int(m.group(0)))  # noqa: E731
        lines[k] = re.sub(r"(?<=depth=)[0-9]|(?<=comp=)[0-9]", digit, lines[k])
    elif kind == "upper":
        lines[k] = re.sub(r"(?<=0x)\w+", lambda m: m.group(0).upper(), lines[k])
    elif kind == "pad":
        # Zero-pad one field to at most one digit past its limit.
        field, limit = draw(st.sampled_from((("morton=0x", 16), ("depth=", 2), ("comp=", 18))))
        width = draw(st.integers(1, limit + 1))
        lines[k] = re.sub(f"(?<={field})[0-9a-f]+", lambda m: m.group(0).zfill(width), lines[k])
    elif kind == "space":
        lines[k] += draw(st.sampled_from((" ", "\t", "\r")))
    elif kind == "blank":
        lines.insert(k, draw(st.sampled_from(("", " ", "\t \f", "\v"))))
    elif kind == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[k], lines[j] = lines[j], lines[k]
    elif kind == "repeat":
        lines.insert(k, lines[k])
    elif kind == "drop":
        del lines[k]


def mutate_text(draw, kind, body):
    at = draw(st.integers(0, max(len(body) - 1, 0)))
    if kind == "insert":
        return body[:at] + draw(st.sampled_from(MUTATION_BYTES)) + body[at:]
    if kind == "delete":
        return body[:at] + body[at + 1 :]
    if kind == "replace":
        return body[:at] + draw(st.sampled_from(MUTATION_BYTES)) + body[at + 1 :]
    if kind == "digit":
        digits = [m.start() for m in re.finditer("[0-9]", body)] or [at]
        at = digits[at % len(digits)]
        return body[:at] + draw(st.sampled_from("0123456789")) + body[at + 1 :]
    if kind == "crlf":
        return body.replace("\n", "\r\n")
    return body.removesuffix("\n")  # chop


@st.composite
def mutated_dumps(draw):
    """(box, depth, dump text) of a random tree whose body went through 1-3
    byte or row mutations, perhaps behind leading blank lines."""
    box = draw(st.sampled_from(BOXES))
    depth = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tree = _grid_to_tree(blocky_grid(rng, depth), box, depth)
    if draw(st.booleans()):
        tree = connected_components(tree)[0]
    head, _, body = dumps(tree).partition("\n")
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(TEXT_MUTATIONS + LINE_MUTATIONS))
        if kind in TEXT_MUTATIONS:
            body = mutate_text(draw, kind, body)
        else:
            lines = body.split("\n")
            mutate_line(draw, kind, lines, draw(st.integers(0, len(lines) - 1)))
            body = "\n".join(lines)
    lead = draw(st.sampled_from(("", "\n", "\n \t\n", " \v\f\n")))
    return box, depth, lead + head + "\n" + body


def reference_load(text, max_depth):
    """What ``loads`` must return for a dump at ``max_depth`` with an intact
    head: the canonical cells as lists, or the ValueError message."""
    try:
        rows = oracles.loads_rows(text)
    except ValueError as exc:
        return str(exc)
    for line, row, code, depth, _, _ in rows:
        if depth > max_depth or code >> (3 * depth):
            return f"octree dump line {line}: cell outside the tree's box or depth: {row!r}"
    if not rows:
        return "octree has no leaves"
    with_comp = any(comp is not None for *_, comp in rows)
    cells = [
        (code, depth, label) + ((-1 if comp is None else comp,) if with_comp else ())
        for _, _, code, depth, label, comp in rows
    ]
    cells = oracles.canonical_cells(max_depth, cells)
    start = 0
    for code, depth, *_ in cells:
        if code << (3 * (max_depth - depth)) != start:
            return "leaves do not tile the root box"
        start += 1 << (3 * (max_depth - depth))
    if start != 1 << (3 * max_depth):
        return "leaves do not tile the root box"
    if with_comp and all(c[3] < 0 for c in cells):
        cells = [c[:3] for c in cells]
    return cells


def assert_loads_like_reference(box, depth, text):
    expected = reference_load(text, depth)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as exc:
            loads(text)
        assert str(exc.value) == expected
        return
    tree = loads(text)
    assert tree.box == box and tree.max_depth == depth
    columns = [tree.morton.tolist(), tree.depth.tolist(), tree.label.tolist()]
    if tree.comp is not None:
        columns.append(tree.comp.tolist())
    assert [list(c) for c in zip(*columns)] == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=mutated_dumps())
def test_loads_accepts_what_the_reference_grammar_accepts(case):
    assert_loads_like_reference(*case)


@pytest.mark.parametrize(
    "pattern, edit",
    [(f"(?<={field})[0-9a-f]+", lambda m, w=width: m.group(0).zfill(w))
     for field, limit in (("morton=0x", 16), ("depth=", 2), ("comp=", 18))
     for width in (limit, limit + 1)]
    + [(r"(?<=0x)\w+", lambda m: m.group(0).upper())],
)
def test_loads_field_limits_match_the_reference(pattern, edit):
    box = workspace_box()
    tree = _grid_to_tree(blocky_grid(np.random.default_rng(7), 3), box, 3)
    text = dumps(connected_components(tree)[0])
    assert re.search("0x[0-9]*[a-f]", text) and re.search("comp=[0-9]", text)
    assert_loads_like_reference(box, 3, re.sub(pattern, edit, text))


# ------------------------------------------------ the word-at-a-time row parser

#: The shortest head that ``_parse_head`` accepts, at depth 1.
SHORT_HEAD = "octree v1;box=0,0,0,1,1,1;depth=1;axes=lin,lin,lin"


def census_dump():
    """One depth-7 census dump: the labeled workspace of mode A, det(A) > 0."""
    atlas = enumerate_aspects(GeometryConfig.reference(), depth=7, modes=[WorkingMode.A], det_signs=(1,))
    return dumps(atlas.entries[(WorkingMode.A, 1)].workspace)


def deep_chain_dump(comps):
    """A depth-21 dump whose leaves run down to the last cell: at each depth
    the first 7 children of the previous level's last child, and at depth 21
    all 8. Its Morton codes take every hex width from 1 to 16 digits;
    ``comps`` gives the comp field of the first rows."""
    rows = []
    for depth in range(1, MAX_TREE_DEPTH + 1):
        base = (8 ** (depth - 1) - 1) * 8
        for child in range(8 if depth == MAX_TREE_DEPTH else 7):
            rows.append([base + child, depth])
    lines = [
        f"morton={code:#x} depth={depth} label={k % 2} comp={comps[k] if k < len(comps) else '-'}"
        for k, (code, depth) in enumerate(rows)
    ]
    head = "octree v1; box=0.0,0.0,0.0,1.0,1.0,1.0; depth=21; axes=lin,lin,lin"
    return "\n".join([head] + lines) + "\n"


def parse_body(text):
    """``_parse_rows`` on a dump text with one head line, as lists of rows."""
    buf = text.encode("ascii", "replace")
    columns = _parse_rows(buf, buf.index(b"\n") + 1)
    if columns is None:
        return None
    morton, depth, label, comp, _, _ = (c.tolist() for c in columns)
    return [list(row) for row in zip(morton, depth, label, comp)]


def reference_body(text):
    """What ``parse_body`` must give: None unless ``_BODY`` matches the body,
    else the rows that ``oracles.loads_rows`` reads."""
    head, _, body = text.partition("\n")
    if _BODY.fullmatch(body.encode("ascii", "replace")) is None:
        return None
    rows = oracles.loads_rows(text)
    return [[code, depth, label, -1 if comp is None else comp] for _, _, code, depth, label, comp in rows]


def test_deep_chain_round_trips_every_hex_width():
    comps = [0, 9, 10, 99999999, 100000000, 10**16 - 1, 10**16, 10**17, 999999999999999999]
    text = deep_chain_dump(comps)
    assert {len(m) for m in re.findall("0x([0-9a-f]+)", text)} == set(range(1, 17))
    assert dumps(loads(text)) == text
    assert_loads_like_reference(Box3((0, 0, 0), (1, 1, 1), ("lin",) * 3), MAX_TREE_DEPTH, text)


@pytest.mark.parametrize("field, width", [("hex", w) for w in (8, 9, 16, 17)]
                         + [("comp", w) for w in (8, 9, 16, 17, 18, 19)])
@pytest.mark.parametrize("padded", [False, True], ids=["significant", "leading-zeros"])
def test_loads_reads_fields_across_word_boundaries(field, width, padded):
    # One row's hex (or comp) numeral at the given width: its own value
    # zero-padded, which loads to the same tree up to the field's limit, or
    # that many significant digits (a cell outside the box, a comp of up to
    # 18 nines, or a malformed row).
    text = deep_chain_dump([1] * 200)
    lines = text.split("\n")
    k = 40
    pattern = "(?<=0x)[0-9a-f]+" if field == "hex" else "(?<=comp=)[0-9]+"
    numeral = "f" * width if field == "hex" else "9" * width
    lines[k] = re.sub(pattern, lambda m: m.group(0).zfill(width) if padded else numeral, lines[k])
    edited = "\n".join(lines)
    assert_loads_like_reference(Box3((0, 0, 0), (1, 1, 1), ("lin",) * 3), MAX_TREE_DEPTH, edited)
    assert parse_body(edited) == reference_body(edited)


@pytest.mark.parametrize("byte", ["/", ":", "`", "g", "A", "F", "\x7f", "?"])
@pytest.mark.parametrize("at", ["hex-first", "hex-last", "hex-9th", "depth", "comp-first", "comp-last", "comp-9th"])
def test_loads_refuses_the_bytes_next_to_the_digit_ranges(byte, at):
    field, where = at.split("-") if "-" in at else (at, "last")
    numeral = {"hex": "123456789abcdef0", "depth": "12", "comp": "123456789012345678"}[field]
    position = {"first": 0, "last": len(numeral) - 1, "9th": len(numeral) - 9}[where]
    values = {"hex": "0", "depth": "0", "comp": "0", field: numeral[:position] + byte + numeral[position + 1 :]}
    text = f"{SHORT_HEAD}\nmorton=0x{values['hex']} depth={values['depth']} label=0 comp={values['comp']}\n"
    assert parse_body(text) is None
    expected = reference_load(text, 1)
    assert expected.startswith("octree dump line 2: malformed row")
    with pytest.raises(ValueError) as exc:
        loads(text)
    assert str(exc.value) == expected


@pytest.mark.parametrize(
    "row",
    [f"morton=0x0{sep}depth=1 label=0 comp=-" for sep in "\t\v\f\r"]
    + [f"morton=0x0 depth=1 label=0 comp=-{sep}" for sep in "\t\v\f\r"]
    + [f"morton=0x0 depth=1{sep}label=0 comp=-" for sep in ("  ", "\t")]
    + ["morton=0x0 depth=1 label=0 comp=-5", "morton=0x0 depth=1 label=0 comp=--",
       "morton=0x0 depth=1 label=2 comp=-", "morton=0x0 depth=1 label= comp=-",
       "morton=0x depth=1 label=0 comp=-", "morton=0x0 depth= label=0 comp=-",
       "morton=0x0 depth=123 label=0 comp=-", "morton=0x0 depth=1 label=0 comp=",
       "Morton=0x0 depth=1 label=0 comp=-", "morton=0X0 depth=1 label=0 comp=-",
       "morton=0x0 depth=1 label=0 Comp=-", "morton=0x0 depth=1 label=0 comp=-\x00"],
)
def test_loads_refuses_other_separators_and_tokens(row):
    rows = [f"morton=0x{c} depth=1 label=0 comp=-" for c in range(8)]
    rows[3] = row.replace("0x0", "0x3")
    text = SHORT_HEAD + "\n" + "\n".join(rows) + "\n"
    assert parse_body(text) is None
    expected = reference_load(text, 1)
    assert expected.startswith("octree dump line 5: malformed row")
    with pytest.raises(ValueError) as exc:
        loads(text)
    assert str(exc.value) == expected


@pytest.mark.parametrize("padded", [False, True])
def test_first_row_directly_after_the_shortest_head(padded):
    # The first row's narrow fields are read as words that reach back into
    # the head, as far as the widest field of any row needs.
    rows = [f"morton=0x{c} depth=1 label={c % 2} comp={c}" for c in range(8)]
    rows[5] = "morton=0x0000000000000005 depth=01 label=1 comp=000000000000000005"
    if padded:
        rows[0] = "morton=0x0000000000000000 depth=01 label=0 comp=-"
    text = SHORT_HEAD + "\n" + "\n".join(rows) + "\n"
    assert parse_body(text) == reference_body(text)
    assert_loads_like_reference(Box3((0, 0, 0), (1, 1, 1), ("lin",) * 3), 1, text)
    root = "octree v1;box=0,0,0,1,1,1;depth=0;axes=lin,lin,lin\nmorton=0x0 depth=0 label=1 comp=-\n"
    assert loads(root).label.tolist() == [True]


def test_row_parser_decodes_boundary_values_exactly():
    hexes = [0, 0xF, 0x10, 0xFFFFFFFF, 0x100000000, 2**64 - 1, 2**63, 0x123456789ABCDEF0]
    decimals = [0, 9, 10, 99999999, 100000000, 10**16, 10**17 - 1, 999999999999999999]
    lines = [SHORT_HEAD]
    for h, c in itertools.product(hexes, decimals):
        lines.append(f"morton=0x{h:x} depth={c % 100} label={h % 2} comp={c}")
        lines.append(f"morton=0x{h:016x} depth={c % 10:02d} label=1 comp={c:018d}")
    lines.append("morton=0x0 depth=0 label=0 comp=-")
    text = "\n".join(lines) + "\n"
    rows = parse_body(text)
    assert rows == reference_body(text)
    assert {r[0] for r in rows} == set(hexes) and {r[3] for r in rows} == set(decimals) | {-1}


#: Bytes the bulk edits write: digits and hex letters, their neighbours
#: outside the digit ranges, token letters, separators and '?' (what a
#: non-ASCII character becomes).
EDIT_BYTES = b"0123456789abcdef/:`gAFx\x7f mortnphlc=-\n\t\v\f\r?\x00"


def test_row_parser_matches_the_row_grammar_on_bulk_edits():
    # 24,000 seeded 1-2 byte insertions, deletions and replacements in the
    # rows of a depth-7 census dump. The parser reads each row on its own,
    # so each edit is checked on the head and the four rows around it: the
    # same accept set as ``_BODY.fullmatch`` and the same columns.
    head, _, body = census_dump().partition("\n")
    rows = body.split("\n")[:-1]
    rng = np.random.default_rng(35)
    accepted = 0
    for _ in range(24000):
        k = int(rng.integers(0, len(rows) - 3))
        window = "\n".join(rows[k : k + 4]) + "\n"
        # Half the edits land in a numeral, where most accepted edits are.
        if rng.integers(2):
            at = int(rng.choice([m.start() for m in re.finditer("(?<=[x=])[0-9a-f-]", window)]))
        else:
            at = int(rng.integers(0, len(window)))
        size = int(rng.integers(1, 3))
        new = bytes(rng.choice(np.frombuffer(EDIT_BYTES, dtype=np.uint8), size)).decode("ascii")
        kind = rng.integers(3)
        if kind == 0:
            window = window[:at] + new + window[at:]
        elif kind == 1:
            window = window[:at] + window[at + size :]
        else:
            window = window[:at] + new + window[at + size :]
        text = head + "\n" + window
        expected = reference_body(text)
        assert parse_body(text) == expected, repr(window)
        accepted += expected is not None
    assert 2000 < accepted < 22000

