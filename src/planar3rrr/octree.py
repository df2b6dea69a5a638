"""Labeled octrees over (x, y, theta) or joint space.

Trees come from label cubes (``cube_tree``: bricks over a coarser background
tree, or one full grid in ``_grid_to_tree``), from a dump (``loads``) or from
the Boolean operations. Only this module knows the leaf layout.

A tree is stored as its leaf cells in Morton (bit-interleaved, x least
significant) order: records (morton code at leaf depth, depth, label) that
tile the root box exactly. Identical-label sibling groups are always merged,
so the stored form is the canonical minimal tree. One sibling merger,
``_canonical_tree``, canonicalizes the records of label cubes, of ``loads``
and of the Boolean operations in rounds, each merging every complete sibling
group at any depth, so records already canonical cost one pass; the Boolean
operations overlay their operands on the merged sorted leaf starts
(``_sorted_union``). ``_cube_leaves`` walks an all-IN and an any-IN pyramid of
each (x, y, z) label cube down to uniform cells. Periodic axes (period 2pi)
wrap for point location and for adjacency. One probe, ``_probe_leaves``,
moves max-depth Morton codes by cell offsets in dilated-integer arithmetic and
searches the leaf starts: point location, the component labeler,
``solid_components`` and ``boundary_pairs`` find leaves this way.

The ``octree v1`` text dump is handled as whole byte arrays: ``dumps`` fills
one byte matrix with a row per leaf and keeps each numeral's own digits;
``loads`` checks the ASCII body with one compiled ``fullmatch`` of the row
grammar, finds the fields from the newline and space positions and reads
each number column with one right-aligned gather. Only a body that fails the
match (blank lines, or a malformed row to name) is split into lines.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import BoxMismatchError, OutOfBoxError
from .geometry import TWO_PI

AXIS_LINEAR = "lin"
AXIS_PERIODIC = "per"

#: Deepest tree: a uint64 Morton code holds 21 bits per axis.
MAX_TREE_DEPTH = 21
#: Half-width of the default pose-space box on x and y.
WORKSPACE_LIMIT = 12.0

_M1 = np.uint64(0x1F00000000FFFF)
_M2 = np.uint64(0x1F0000FF0000FF)
_M3 = np.uint64(0x100F00F00F00F00F)
_M4 = np.uint64(0x10C30C30C30C30C3)
_M5 = np.uint64(0x1249249249249249)


def _spread(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.uint64) & np.uint64(0x1FFFFF)
    v = (v | (v << np.uint64(32))) & _M1
    v = (v | (v << np.uint64(16))) & _M2
    v = (v | (v << np.uint64(8))) & _M3
    v = (v | (v << np.uint64(4))) & _M4
    v = (v | (v << np.uint64(2))) & _M5
    return v


def _compact(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.uint64) & _M5
    v = (v ^ (v >> np.uint64(2))) & _M4
    v = (v ^ (v >> np.uint64(4))) & _M3
    v = (v ^ (v >> np.uint64(8))) & _M2
    v = (v ^ (v >> np.uint64(16))) & _M1
    v = (v ^ (v >> np.uint64(32))) & np.uint64(0x1FFFFF)
    return v


def morton_encode(ix, iy, iz) -> np.ndarray:
    """Interleave cell indices, x in the least significant bit."""
    ix = np.asarray(ix)
    iy = np.asarray(iy)
    iz = np.asarray(iz)
    return _spread(ix) | (_spread(iy) << np.uint64(1)) | (_spread(iz) << np.uint64(2))


def morton_decode(code) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    code = np.asarray(code, dtype=np.uint64)
    return (
        _compact(code),
        _compact(code >> np.uint64(1)),
        _compact(code >> np.uint64(2)),
    )


@dataclass(frozen=True)
class Box3:
    """Axis-aligned box with per-axis kind: 'lin' (length) or 'per' (angle)."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]
    axes: tuple[str, str, str]

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        axes = tuple(self.axes)
        if len(lo) != 3 or len(hi) != 3 or len(axes) != 3:
            raise ValueError("Box3 needs three axes")
        for i in range(3):
            if not (math.isfinite(lo[i]) and math.isfinite(hi[i])):
                raise ValueError(f"axis {i}: bounds must be finite, got [{lo[i]}, {hi[i]}]")
            if not hi[i] > lo[i]:
                raise ValueError(f"axis {i}: hi must exceed lo")
            if axes[i] not in (AXIS_LINEAR, AXIS_PERIODIC):
                raise ValueError(f"axis {i}: kind must be 'lin' or 'per'")
            if axes[i] == AXIS_PERIODIC and hi[i] - lo[i] > TWO_PI * (1 + 1e-12):
                raise ValueError(f"axis {i}: periodic extent exceeds 2pi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "axes", axes)

    @property
    def extent(self) -> tuple[float, float, float]:
        return tuple(self.hi[i] - self.lo[i] for i in range(3))

    @property
    def volume(self) -> float:
        e = self.extent
        return e[0] * e[1] * e[2]

    def wraps(self, axis: int) -> bool:
        """True when the axis is periodic and spans a full period."""
        return self.axes[axis] == AXIS_PERIODIC and math.isclose(
            self.hi[axis] - self.lo[axis], TWO_PI, rel_tol=1e-12
        )

    def cell_edges(self, depth: int) -> tuple[float, float, float]:
        n = 1 << depth
        return tuple((self.hi[i] - self.lo[i]) / n for i in range(3))

    def centers(self, axis: int, depth: int) -> np.ndarray:
        n = 1 << depth
        w = (self.hi[axis] - self.lo[axis]) / n
        return self.lo[axis] + (np.arange(n) + 0.5) * w

    def approx_equal(self, other: "Box3") -> bool:
        bounds = zip(self.lo + self.hi, other.lo + other.hi)
        return self.axes == other.axes and all(abs(a - b) <= 1e-12 for a, b in bounds)


def workspace_box(limit: float = WORKSPACE_LIMIT) -> Box3:
    """Default pose-space box: [-limit, limit]^2 x [0, 2pi)."""
    return Box3(
        lo=(-limit, -limit, 0.0),
        hi=(limit, limit, TWO_PI),
        axes=(AXIS_LINEAR, AXIS_LINEAR, AXIS_PERIODIC),
    )


def joint_box() -> Box3:
    """Default joint-space box: [0, 2pi)^3."""
    return Box3(
        lo=(0.0, 0.0, 0.0),
        hi=(TWO_PI, TWO_PI, TWO_PI),
        axes=(AXIS_PERIODIC, AXIS_PERIODIC, AXIS_PERIODIC),
    )


def _level_shift(max_depth: int, depth: np.ndarray) -> np.ndarray:
    """Bit shift from a depth's Morton codes to max-depth Morton units."""
    return (3 * (max_depth - depth.astype(np.int64))).astype(np.uint64)


@dataclass(frozen=True)
class LeafRecord:
    index: int
    morton: int
    depth: int
    label: bool
    comp: int | None


@dataclass(frozen=True)
class Octree:
    """Canonical linear octree; leaves sorted by Morton interval start."""

    box: Box3
    max_depth: int
    morton: np.ndarray
    depth: np.ndarray
    label: np.ndarray
    comp: np.ndarray | None = None

    def __post_init__(self):
        if not 0 <= self.max_depth <= MAX_TREE_DEPTH:
            raise ValueError(f"max_depth must be in [0, {MAX_TREE_DEPTH}], got {self.max_depth}")
        morton = np.ascontiguousarray(self.morton, dtype=np.uint64)
        depth = np.ascontiguousarray(self.depth, dtype=np.uint8)
        label = np.ascontiguousarray(self.label, dtype=bool)
        for arr in (morton, depth, label):
            arr.setflags(write=False)
        object.__setattr__(self, "morton", morton)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "label", label)
        if self.comp is not None:
            comp = np.ascontiguousarray(self.comp, dtype=np.int64)
            comp.setflags(write=False)
            object.__setattr__(self, "comp", comp)
        # Local arrays, not the cached properties: a tree whose starts are
        # never asked for does not keep them (16 depth-8 census trees: 30 MB).
        shift = _level_shift(self.max_depth, depth)
        starts = morton << shift
        ends = starts + (np.uint64(1) << shift)
        if len(starts) == 0:
            raise ValueError("octree has no leaves")
        total = 1 << (3 * self.max_depth)
        if starts[0] != 0 or (ends[:-1] != starts[1:]).any() or int(ends[-1]) != total:
            raise ValueError("leaves do not tile the root box")

    @cached_property
    def starts(self) -> np.ndarray:
        """Leaf interval starts in max-depth Morton units (computed once)."""
        starts = self.morton << _level_shift(self.max_depth, self.depth)
        starts.setflags(write=False)
        return starts

    @cached_property
    def sizes(self) -> np.ndarray:
        """Leaf interval lengths in max-depth Morton units (computed once)."""
        sizes = np.uint64(1) << _level_shift(self.max_depth, self.depth)
        sizes.setflags(write=False)
        return sizes

    @property
    def n_leaves(self) -> int:
        return len(self.morton)

    def leaf_origins(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Voxel-grid origin indices of every leaf at max-depth resolution."""
        return morton_decode(self.starts)

    def leaf_box(self, i: int) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
        origin = [int(v) for v in morton_decode(self.starts[i])]
        span = 1 << (self.max_depth - int(self.depth[i]))
        w = self.box.cell_edges(self.max_depth)
        lo = tuple(self.box.lo[a] + origin[a] * w[a] for a in range(3))
        return lo, tuple(self.box.lo[a] + (origin[a] + span) * w[a] for a in range(3))

    def leaf_centers(self) -> np.ndarray:
        ox, oy, oz = self.leaf_origins()
        half = (np.uint64(1) << (self.max_depth - self.depth.astype(np.uint64))).astype(float) / 2.0
        n = 1 << self.max_depth
        out = np.empty((self.n_leaves, 3))
        for axis, o in zip(range(3), (ox, oy, oz)):
            w = (self.box.hi[axis] - self.box.lo[axis]) / n
            out[:, axis] = self.box.lo[axis] + (o.astype(float) + half) * w
        return out

    def leaf_volumes(self) -> np.ndarray:
        return self.box.volume * np.power(8.0, -self.depth.astype(float))


def volume(tree: Octree) -> float:
    """Measure of the IN region."""
    return float(tree.leaf_volumes()[tree.label].sum())


def _canonical_tree(box: Box3, max_depth: int, morton, depth, label, comp=None) -> Octree:
    """The canonical tree of leaf records given in any order: the sibling merger.

    Records are sorted by interval start. Each round finds every run of 8
    records at one depth d > 0 whose first code is a multiple of 8, whose
    codes step by 1 and whose labels agree, and makes each one record at
    depth d - 1; its ``comp`` is the shared value, or -1 when the children's
    differ. The runs of a round are disjoint and a parent can only merge
    once its children have, so rounds that stop when none is found give the
    same tree as merging level by level: records already canonical take one
    round. Merging keeps the covered cells, so records that do not tile the
    box still fail the tiling check of ``Octree``.
    """
    morton = np.asarray(morton, dtype=np.uint64)
    depth = np.asarray(depth, dtype=np.uint8)
    order = np.argsort(morton << _level_shift(max_depth, depth), kind="stable")
    morton, depth, label = morton[order], depth[order], np.asarray(label, dtype=bool)[order]
    comp = None if comp is None else np.asarray(comp, dtype=np.int64)[order]
    while True:
        step = (depth[1:] == depth[:-1]) & (morton[1:] == morton[:-1] + np.uint64(1))
        breaks = np.concatenate(([0], np.cumsum(~step | (label[1:] != label[:-1]))))
        first = np.flatnonzero(
            (depth[:-7] != 0) & (morton[:-7] & np.uint64(7) == 0) & (breaks[7:] == breaks[:-7])
        )
        if first.size == 0:
            break
        drop = first[:, None] + np.arange(1, 8)
        if comp is not None:
            changes = np.concatenate(([0], np.cumsum(comp[1:] != comp[:-1])))
            comp[first] = np.where(changes[first + 7] == changes[first], comp[first], -1)
            comp = np.delete(comp, drop)
        morton[first] >>= np.uint64(3)
        depth[first] -= 1
        morton, depth, label = (np.delete(a, drop) for a in (morton, depth, label))
    return Octree(box=box, max_depth=max_depth, morton=morton, depth=depth, label=label, comp=comp)


def _morton_axes(max_depth: int) -> list[int]:
    """Axis order that ravels a grid reshaped to (2,) * 3D in Morton order.

    The reshaped axes are the x, y, z index bits, most significant first;
    Morton order takes them level by level as z, y, x (x least significant).
    """
    return [axis * max_depth + level for level in range(max_depth) for axis in (2, 1, 0)]


def _cube_leaves(labels: np.ndarray, levels: int, roots: np.ndarray):
    """Leaves of a stack of label cubes: the one leaf builder.

    ``labels`` is (m s, s, s) with s = 2^levels, cube j being
    ``labels[j s:(j + 1) s]`` and ``roots[j]`` its Morton code. Bottom-up, an
    AND (all IN) and an OR (any IN) pyramid halve the stack over pairs along
    x, then y, then z; the stack is the finest level of both. Top-down from
    each cube's root, a child of a mixed cell is a leaf where the two
    pyramids agree and is split where they differ, and its code is its
    parent's followed by 3 bits. Returns per leaf, in no particular order,
    its Morton code, its level below the root and its label.
    """
    all_in, any_in = [labels], [labels]
    for pyramid, op in ((all_in, np.logical_and), (any_in, np.logical_or)):
        for _ in range(levels):
            g = op(pyramid[-1][0::2], pyramid[-1][1::2])
            z_pairs = op(g[:, 0::2], g[:, 1::2]).view(np.uint16)  # a z pair per word
            pyramid.append(z_pairs == 0x0101 if op is np.logical_and else z_pairs != 0)
    # A walk cell at level d is the int64 x << 2w | y << w | z with w = levels
    # bits for y and z, and x = j 2^d + the offset in cube j: doubling it
    # doubles x, y and z, and each child adds its offset.
    w, mask = levels, (1 << levels) - 1
    kid = np.array([(k & 1) << 2 * w | (k >> 1 & 1) << w | k >> 2 for k in range(8)])
    cells = np.arange(len(roots), dtype=np.int64) << 2 * w
    codes, leaves = np.asarray(roots, dtype=np.uint64), []
    for d in range(levels + 1):
        # The cell's index in its level, an (m 2^d, 2^d, 2^d) array.
        flat = ((cells >> 2 * w << d | cells >> w & mask) << d) | cells & mask
        level = levels - d
        full = all_in[level].ravel()[flat]
        mixed = any_in[level].ravel()[flat] & ~full
        leaves.append((codes[~mixed], full[~mixed]))
        cells = (2 * cells[mixed, None] + kid).ravel()
        codes = (codes[mixed, None] << np.uint64(3) | np.arange(8, dtype=np.uint64)).ravel()
    codes, label = (np.concatenate(f) for f in zip(*leaves))
    return codes, np.repeat(np.arange(levels + 1), [len(f[1]) for f in leaves]), label


def cube_tree(box: Box3, max_depth: int, cubes, origins, background=None) -> Octree:
    """The canonical tree of (m, s, s, s) label cubes in (x, y, z) order, s = 2^k,
    cube j over the max-depth cells s ``origins[j]`` + [0, s)^3, in any order,
    with the OUT leaves of a coarser ``background`` tree of the box filling the
    rest. Cells covered twice or not at all fail the tiling check of ``Octree``.
    """
    s = np.shape(cubes)[-1]
    levels = s.bit_length() - 1
    cubes = np.asarray(cubes, dtype=bool).reshape(-1, s, s)
    morton, level, label = _cube_leaves(cubes, levels, morton_encode(*np.transpose(origins)))
    columns = (morton, level + (max_depth - levels), label)
    if background is not None:
        parts = (background.morton, background.depth, background.label)
        columns = (np.concatenate((c, b[~background.label])) for c, b in zip(columns, parts))
    return _canonical_tree(box, max_depth, *columns)


def _grid_to_tree(labels: np.ndarray, box: Box3, max_depth: int) -> Octree:
    """The canonical tree of a full max-depth label grid, in (x, y, z) order:
    ``cube_tree`` of the one cube."""
    n = 1 << max_depth
    labels = np.asarray(labels, dtype=bool)
    if labels.shape != (n, n, n):
        raise ValueError(f"label grid must have shape {(n, n, n)}, got {labels.shape}")
    return cube_tree(box, max_depth, labels[None], np.zeros((1, 3), dtype=np.int64))


def _rasterize(tree: Octree, values: np.ndarray) -> np.ndarray:
    """Paint per-leaf values onto the max-depth voxel grid.

    In Morton order each leaf is one run of cells, so the painted grid is one
    ``np.repeat`` put back in (x, y, z) order.
    """
    d = tree.max_depth
    cells = np.repeat(values, tree.sizes.astype(np.int64)).reshape((2,) * (3 * d))
    return cells.transpose(np.argsort(_morton_axes(d))).reshape((1 << d,) * 3)


def _union_small(n_labels: int, pairs) -> np.ndarray:
    parent = list(range(n_labels))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for u, v in pairs:
        ru, rv = find(int(u)), find(int(v))
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return np.array([find(i) for i in range(n_labels)])


def _label_grid(grid: np.ndarray, wrap: tuple[bool, bool, bool]) -> np.ndarray:
    """6-connected component labels (0 = background), merged across wraps."""
    from scipy import ndimage  # the dense reference only; the import path stays numpy-only

    structure = ndimage.generate_binary_structure(3, 1)
    lab, n = ndimage.label(grid, structure=structure)
    if n > 1 and any(wrap):
        pairs = set()
        for axis in range(3):
            if not wrap[axis]:
                continue
            first = np.take(lab, 0, axis=axis)
            last = np.take(lab, -1, axis=axis)
            mask = (first > 0) & (last > 0)
            if mask.any():
                stacked = np.stack([first[mask], last[mask]], axis=1)
                for u, v in np.unique(stacked, axis=0):
                    pairs.add((int(u), int(v)))
        if pairs:
            roots = _union_small(n + 1, pairs)
            lab = roots.astype(lab.dtype)[lab]
    return lab


def _renumber_by_storage_order(tree: Octree, raw: np.ndarray) -> tuple[np.ndarray, int]:
    """Renumber raw component ids by first appearance over IN leaves.

    Returns (per-leaf comp, count).
    """
    raw_in = raw[tree.label]
    ids, first = np.unique(raw_in, return_index=True)
    rank = np.full(int(raw_in.max(initial=0)) + 1, -1, dtype=np.int64)
    rank[ids[np.argsort(first)]] = np.arange(ids.size)
    comp = np.full(tree.n_leaves, -1, dtype=np.int64)
    comp[tree.label] = rank[raw_in]
    return comp, int(ids.size)


def _components_from_grid(tree: Octree) -> tuple[Octree, int]:
    """Component labels of the rasterized IN grid: the dense reference labeler."""
    wrap = tuple(tree.box.wraps(axis) for axis in range(3))
    lab = _label_grid(_rasterize(tree, tree.label), wrap)
    ox, oy, oz = (o.astype(int) for o in tree.leaf_origins())
    comp, count = _renumber_by_storage_order(tree, lab[ox, oy, oz])
    return replace(tree, comp=comp), count


def _probe_leaves(tree: Octree, codes: np.ndarray, offsets) -> np.ndarray:
    """Leaf holding each max-depth Morton code moved by per-axis cell offsets, or -1.

    The (x, y, z) ``offsets`` broadcast with ``codes``. Each axis moves by dilated-integer
    arithmetic (Schrack 1992): set the other axes' bits so a carry runs over them, add
    the offset mod n = 2^max_depth spread onto the axis, mask back. A wrapping axis wraps
    by the mask; off any other the voxel has left the box exactly when the offset's floor
    quotient by n plus the carry out of the axis is not 0.
    """
    n = 1 << tree.max_depth
    outside = False
    for axis, step in enumerate(offsets):
        if not np.any(step):
            continue
        step = np.asarray(step, dtype=np.int64)
        mask = _spread(np.uint64(n - 1)) << np.uint64(axis)
        moved = ((codes | ~mask) + (_spread(step & (n - 1)) << np.uint64(axis))) & mask
        if not tree.box.wraps(axis):
            outside = outside | ((step >> tree.max_depth) + (moved < codes & mask) != 0)
        codes = codes & ~mask | moved
    return np.where(outside, -1, np.searchsorted(tree.starts, codes, side="right") - 1)


def _leaf_adjacency_pairs(tree: Octree, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Face-adjacent leaf pairs (k, j) (positive-area shared face), k in ``ids``.

    Each leaf k probes (``_probe_leaves``) the voxel just across each of its
    6 faces at the face's minimum corner and finds the leaf j holding it.
    Leaves are dyadic, so the smaller of two adjacent faces lies inside the
    larger one: keeping (k, j) when j is no smaller than k finds every
    adjacent pair of leaves in ``ids`` from its smaller side (from both sides
    when they are equal).
    """
    codes = tree.starts[ids]
    depth = tree.depth[ids]
    side = np.int64(1) << (tree.max_depth - depth.astype(np.int64))
    pairs = []
    for axis in range(3):
        for step in (side, -1):
            j = _probe_leaves(tree, codes, [step if a == axis else 0 for a in range(3)])
            keep = (j >= 0) & (j != ids) & (tree.depth[j] <= depth)
            pairs.append((ids[keep], j[keep]))
    k, j = zip(*pairs)
    return np.concatenate(k), np.concatenate(j)


def _components_from_graph(tree: Octree) -> tuple[Octree, int]:
    ids = np.flatnonzero(tree.label)
    if ids.size == 0:
        return replace(tree, comp=np.full(tree.n_leaves, -1, dtype=np.int64)), 0
    k, j = _leaf_adjacency_pairs(tree, ids)
    keep = tree.label[j]
    rank = np.cumsum(tree.label) - 1
    u, v = rank[k[keep]], rank[j[keep]]
    # Union-find by root hooking and pointer jumping: each round hooks the
    # larger root of every edge that still joins two trees onto the smaller,
    # then flattens the forest, so each IN leaf ends on its component's least index.
    parent = np.arange(ids.size)
    while u.size:
        np.minimum.at(parent, np.maximum(parent[u], parent[v]), np.minimum(parent[u], parent[v]))
        flat = parent[parent]
        while not np.array_equal(flat, parent):
            parent, flat = flat, flat[flat]
        join = parent[u] != parent[v]
        u, v = u[join], v[join]
    raw = np.zeros(tree.n_leaves, dtype=np.int64)
    raw[ids] = parent + 1
    comp, count = _renumber_by_storage_order(tree, raw)
    return replace(tree, comp=comp), count


def connected_components(tree: Octree, method: str = "graph") -> tuple[Octree, int]:
    """Label face-connected IN components (periodic axes wrap).

    Returns a tree copy with per-leaf component ids (-1 for OUT) ordered by
    first Morton appearance, plus the component count. ``method="grid"``
    labels the rasterized voxel grid instead, an independent reference.
    """
    if method == "grid":
        return _components_from_grid(tree)
    if method == "graph":
        return _components_from_graph(tree)
    raise ValueError(f"unknown method {method!r}")


def solid_components(tree: Octree) -> tuple[int, ...]:
    """Ids of the components of a labeled tree that hold a cell whose whole
    3x3x3 block is IN.

    A leaf of side 4 or more holds such a cell, so its component is solid. A
    side-1 leaf never does: its block holds its 7 siblings, which the
    canonical tree would have merged with it were they all IN. So only the
    side-2 leaves of the other components are probed, each over its 4x4x4
    neighborhood (one ``_probe_leaves`` call), where its 8 cells' blocks are
    the 8 windows of 3x3x3. Periodic axes wrap; a voxel past a non-wrapping
    edge is OUT.
    """
    in_big = tree.label & (tree.depth <= tree.max_depth - 2)
    solid = np.unique(tree.comp[in_big])
    ids = np.flatnonzero(
        tree.label & (tree.depth == tree.max_depth - 1) & ~np.isin(tree.comp, solid)
    )
    if ids.size:
        # Voxels -1..2 from the leaf origin on each axis: the leaf is the inner 2x2x2.
        r = np.arange(-1, 3)
        j = _probe_leaves(tree, tree.starts[ids, None, None, None], np.ix_(r, r, r))
        block = (j >= 0) & tree.label[j]
        windows = np.lib.stride_tricks.sliding_window_view(block, (3, 3, 3), axis=(1, 2, 3))
        held = windows.all(axis=(4, 5, 6)).any(axis=(1, 2, 3))
        solid = _sorted_union(solid, tree.comp[ids[held]])
    return tuple(int(c) for c in solid)


def boundary_pairs(tree: Octree, component_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Face-adjacent (component leaf, OUT leaf) pairs of a labeled tree, each
    found from its smaller side."""
    k, j = _leaf_adjacency_pairs(tree, np.arange(tree.n_leaves))
    leaf_in, leaf_out = np.where(tree.label[k], (k, j), (j, k))
    on = (tree.comp[leaf_in] == component_id) & ~tree.label[leaf_out]
    return leaf_in[on], leaf_out[on]


def leaf_indices(tree: Octree, points) -> np.ndarray:
    """Index of the leaf containing each point (rows x, y, z), or -1 outside.

    Periodic coordinates are folded into the box first; a point outside the
    box after folding (NaN included) gets -1.
    """
    box = tree.box
    n = 1 << tree.max_depth
    p = np.array(points, dtype=float).reshape(-1, 3)
    inside = np.ones(len(p), dtype=bool)
    voxels = []
    for axis in range(3):
        lo, hi = box.lo[axis], box.hi[axis]
        v = p[:, axis]
        if box.axes[axis] == AXIS_PERIODIC:
            v = lo + (v - lo) % TWO_PI
        ok = (v >= lo) & (v <= hi)
        inside &= ok
        w = (hi - lo) / n
        voxels.append(np.clip(np.where(ok, v - lo, 0.0) / w, 0, n - 1).astype(np.int64))
    return np.where(inside, _probe_leaves(tree, morton_encode(*voxels), (0, 0, 0)), -1)


def locate(tree: Octree, point) -> LeafRecord:
    """The unique leaf containing a point (periodic axes folded first)."""
    i = int(leaf_indices(tree, [point])[0])
    if i < 0:
        raise OutOfBoxError(point, tree.box)
    comp = int(tree.comp[i]) if tree.comp is not None else None
    return LeafRecord(
        index=i,
        morton=int(tree.morton[i]),
        depth=int(tree.depth[i]),
        label=bool(tree.label[i]),
        comp=comp,
    )


def _sorted_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted distinct values of two arrays: on two sorted arrays the stable
    sort (timsort) is one linear merge of two runs."""
    values = np.sort(np.concatenate((a, b)), kind="stable")
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _binary_op(a: Octree, b: Octree, op) -> Octree:
    """Overlay two trees and label each overlay cell with the ufunc ``op``.

    Each overlay cell is the smaller of the two leaves holding its start, so
    the cells are the union of both operands' leaf starts at the deeper depth.
    Both start lists are sorted, so their union is one linear merge
    (``_sorted_union``).
    """
    if a.max_depth != b.max_depth or not a.box.approx_equal(b.box):
        raise BoxMismatchError("operands differ in root box or depth")
    starts = _sorted_union(a.starts, b.starts)
    ia = np.searchsorted(a.starts, starts, side="right") - 1
    ib = np.searchsorted(b.starts, starts, side="right") - 1
    depth = np.maximum(a.depth[ia], b.depth[ib])
    morton = starts >> _level_shift(a.max_depth, depth)
    return _canonical_tree(a.box, a.max_depth, morton, depth, op(a.label[ia], b.label[ib]))


def union(a: Octree, b: Octree) -> Octree:
    return _binary_op(a, b, np.logical_or)


def intersect(a: Octree, b: Octree) -> Octree:
    return _binary_op(a, b, np.logical_and)


def subtract(a: Octree, b: Octree) -> Octree:
    return _binary_op(a, b, np.greater)  # a and not b


#: A dump body as ``dumps`` writes it: leaf rows, each ended by a newline.
_BODY = re.compile(
    rb"(?:morton=0x[0-9a-f]{1,16} depth=[0-9]{1,2} label=[01] comp=(?:-|[0-9]{1,18})\n)*"
)
_HEAD_FIELDS = ("box", "depth", "axes")
_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
#: Byte -> value of the hex and decimal digits in a body that matches ``_BODY``.
_DIGIT_VALUE = np.zeros(256, dtype=np.uint8)
_DIGIT_VALUE[_DIGITS] = np.arange(16)


def _places(base: int, width: int) -> np.ndarray:
    """Place values of ``width`` digits in ``base``, most significant first."""
    return np.uint64(base) ** np.arange(width - 1, -1, -1, dtype=np.uint64)


def _numerals(values: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray]:
    """Digit bytes of non-negative integers (base 10 or 16) right-aligned in
    the widest one's width, and the mask of the slots each numeral uses."""
    values = values.astype(np.uint64)
    width = len(np.base_repr(int(values.max(initial=0)), base))
    if base == 16:
        high = values[:, None] >> np.arange(4 * width - 4, -1, -4, dtype=np.uint64)
    else:
        high = values[:, None] // _places(base, width)
    used = high != 0
    used[:, -1] = True
    return _DIGITS[high % np.uint64(base)], used


def dumps(tree: Octree) -> str:
    """Line-oriented text dump, bit-exact for identical inputs.

    All rows are built at once as one byte matrix, a row per leaf: the
    constant tokens, each field's digits right-aligned in its widest
    numeral's width, and a keep-mask that drops the leading-zero slots.
    """
    box = tree.box
    head = (
        "octree v1; box="
        + ",".join(repr(float(v)) for v in (*box.lo, *box.hi))
        + f"; depth={tree.max_depth}; axes="
        + ",".join(box.axes)
    )
    n = tree.n_leaves
    comp = np.full(n, -1) if tree.comp is None else tree.comp
    chars, used = [], []
    for token, values, base in (
        (b"morton=0x", tree.morton, 16),
        (b" depth=", tree.depth, 10),
        (b" label=", tree.label, 10),
        (b" comp=", np.maximum(comp, 0), 10),
    ):
        chars.append(np.broadcast_to(np.frombuffer(token, dtype=np.uint8), (n, len(token))))
        used.append(np.ones((n, len(token)), dtype=bool))
        digits, keep = _numerals(values, base)
        chars.append(digits)
        used.append(keep)
    chars[-1][comp < 0, -1] = ord("-")
    chars.append(np.full((n, 1), ord("\n"), dtype=np.uint8))
    used.append(np.ones((n, 1), dtype=bool))
    body = np.hstack(chars)[np.hstack(used)].tobytes()
    return head + "\n" + body.decode("ascii")


def export(tree: Octree, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps(tree))


def _parse_head(head: str, line: int) -> tuple[Box3, int]:
    """Root box and depth of a dump head; ValueError names the line and field."""
    if not head.startswith("octree v1;"):
        raise ValueError(f"octree dump line {line}: not an octree v1 dump: {head!r}")
    fields = {}
    for part in head.split(";")[1:]:
        key, eq, value = part.strip().partition("=")
        if not eq or key not in _HEAD_FIELDS or key in fields:
            why = "duplicate field" if key in fields else "unknown field"
            why = why if eq else "has no '='"
            raise ValueError(f"octree dump line {line}: head field {part.strip()!r} {why}")
        fields[key] = value.strip()
    for key in _HEAD_FIELDS:
        if key not in fields:
            raise ValueError(f"octree dump line {line}: head field {key!r} is missing")
    depth = fields["depth"]
    if not (depth.isdigit() and int(depth) <= MAX_TREE_DEPTH):
        raise ValueError(
            f"octree dump line {line}: head field 'depth' is not an integer in "
            f"[0, {MAX_TREE_DEPTH}]: {depth!r}"
        )
    try:
        corners = [float(v) for v in fields["box"].split(",")]
    except ValueError:
        corners = []
    if len(corners) != 6 or not all(map(math.isfinite, corners)):
        raise ValueError(
            f"octree dump line {line}: head field 'box' is not 6 finite floats: {fields['box']!r}"
        )
    try:
        box = Box3(corners[:3], corners[3:], tuple(fields["axes"].split(",")))
    except ValueError as exc:
        raise ValueError(f"octree dump line {line}: head fields 'box' and 'axes': {exc}") from None
    return box, int(depth)


def _rows_only(text: str, buf: bytes, first: int, first_line: int) -> tuple[bytes, list[int]]:
    """``buf`` with only the rows after byte ``first``, and their line numbers.

    Whitespace-only lines are dropped; any other line that is not a row
    raises ValueError naming it.
    """
    rows, lines = [], []
    for k, row in enumerate(buf[first:].split(b"\n")[:-1]):
        if _BODY.fullmatch(row + b"\n"):
            rows.append(row + b"\n")
            lines.append(first_line + k)
        elif row.strip():
            bad = text.split("\n")[first_line + k - 1]
            raise ValueError(f"octree dump line {first_line + k}: malformed row: {bad!r}")
    return buf[:first] + b"".join(rows), lines


def _numbers(buf: np.ndarray, start: np.ndarray, end: np.ndarray, base: int) -> np.ndarray:
    """The numbers written in ``buf[start:end]`` per row: one right-aligned gather.

    Fields follow the head, so no field ends before its gather width.
    """
    width = int((end - start).max(initial=1))
    digits = _DIGIT_VALUE[np.lib.stride_tricks.sliding_window_view(buf, width)[end - width]]
    digits *= np.arange(-width, 0) >= (start - end)[:, None]
    return digits @ _places(base, width)


def _parse_rows(buf: bytes, first: int):
    """Leaf columns of the rows from byte ``first`` on, which match ``_BODY``,
    and each row's extent. Row k ends at the k-th newline; its three spaces
    locate the fields.
    """
    arr = np.frombuffer(buf, dtype=np.uint8)
    ends = np.flatnonzero(arr[first:] == ord("\n")) + first
    starts = np.concatenate(([first], ends[:-1] + 1))
    spaces = np.flatnonzero(arr[first:] == ord(" ")).reshape(-1, 3) + first
    morton = _numbers(arr, starts + len("morton=0x"), spaces[:, 0], 16)
    depth = _numbers(arr, spaces[:, 0] + len(" depth="), spaces[:, 1], 10)
    label = arr[spaces[:, 1] + len(" label=")] == ord("1")
    comp_at = spaces[:, 2] + len(" comp=")
    comp = _numbers(arr, comp_at, ends, 10).astype(np.int64)
    comp[arr[comp_at] == ord("-")] = -1
    return morton, depth, label, comp, starts, ends


def loads(text: str) -> Octree:
    """Parse a dump; rows may come in any order and are canonicalized.

    The head must name ``box``, ``depth`` and ``axes`` once each. Every
    non-blank line after it must be a row in the form ``dumps`` writes (ASCII
    only), else ValueError names the line; rows that do not tile the box
    raise ValueError as well.
    """
    buf = text.encode("ascii", "replace")
    head_start = len(buf) - len(buf.lstrip())
    if not buf.endswith(b"\n"):
        buf += b"\n"
    head_end = buf.find(b"\n", head_start)
    first_line = buf.count(b"\n", 0, head_start) + 2
    box, max_depth = _parse_head(buf[head_start:head_end].decode("ascii"), first_line - 1)
    first = head_end + 1
    lines = None  # row k sits on line first_line + k
    if _BODY.fullmatch(buf, first) is None:
        buf, lines = _rows_only(text, buf, first, first_line)
    morton, depth, label, comp, starts, ends = _parse_rows(buf, first)
    outside = np.flatnonzero((depth > max_depth) | (morton >> (3 * depth) != 0))
    if outside.size:
        k = int(outside[0])
        line = first_line + k if lines is None else lines[k]
        row = buf[starts[k] : ends[k]].decode("ascii")
        raise ValueError(f"octree dump line {line}: cell outside the tree's box or depth: {row!r}")
    comp = comp if (comp >= 0).any() else None
    tree = _canonical_tree(box, max_depth, morton, depth, label, comp)
    if tree.comp is not None and (tree.comp < 0).all():
        tree = replace(tree, comp=None)
    return tree


def load(path) -> Octree:
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        return loads(fh.read())
