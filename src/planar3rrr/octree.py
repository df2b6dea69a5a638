"""Labeled octrees over (x, y, theta) or joint space.

Trees come from a full label grid (``_grid_to_tree``, which the aspect census
feeds with its corner-classified cells) or from a callable predicate sampled
at cell centers (``build_octree``).

A tree is stored as its leaf cells in Morton (bit-interleaved, x least
significant) order: records (morton code at leaf depth, depth, label) that
tile the root box exactly. Identical-label sibling groups are always merged,
so the stored form is the canonical minimal tree. Periodic axes (period 2pi)
wrap for point location and for adjacency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as _csgraph_components

from .errors import BoxMismatchError, OutOfBoxError
from .geometry import TWO_PI, GeometryConfig

AXIS_LINEAR = "lin"
AXIS_PERIODIC = "per"

#: Cap on voxel count for the rasterized component-labeling path (= 256^3).
_GRID_CCL_LIMIT = 1 << 24

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

    def normalize(self, point) -> tuple[float, float, float]:
        """Fold periodic coordinates into the box; raise OutOfBoxError outside."""
        out = []
        for i in range(3):
            v = float(point[i])
            if self.axes[i] == AXIS_PERIODIC:
                v = self.lo[i] + (v - self.lo[i]) % TWO_PI
            if v < self.lo[i] or v > self.hi[i]:
                raise OutOfBoxError(point, self)
            out.append(v)
        return tuple(out)

    def approx_equal(self, other: "Box3", tol: float = 1e-12) -> bool:
        return (
            self.axes == other.axes
            and all(abs(self.lo[i] - other.lo[i]) <= tol for i in range(3))
            and all(abs(self.hi[i] - other.hi[i]) <= tol for i in range(3))
        )


def workspace_box(limit: float = 12.0) -> Box3:
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
        starts = self.starts
        sizes = self.sizes
        total = np.uint64(1) << np.uint64(3 * self.max_depth)
        if len(starts) == 0:
            raise ValueError("octree has no leaves")
        if starts[0] != 0 or (starts[:-1] + sizes[:-1] != starts[1:]).any() or int(
            starts[-1] + sizes[-1]
        ) != int(total):
            raise ValueError("leaves do not tile the root box")

    @property
    def starts(self) -> np.ndarray:
        shift = (3 * (self.max_depth - self.depth.astype(np.uint64))).astype(np.uint64)
        return self.morton << shift

    @property
    def sizes(self) -> np.ndarray:
        """Leaf interval lengths in max-depth Morton units."""
        shift = (3 * (self.max_depth - self.depth.astype(np.uint64))).astype(np.uint64)
        return np.uint64(1) << shift

    @property
    def n_leaves(self) -> int:
        return len(self.morton)

    def leaf_origins(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Voxel-grid origin indices of every leaf at max-depth resolution."""
        ix, iy, iz = morton_decode(self.morton)
        f = (np.uint64(1) << (self.max_depth - self.depth.astype(np.uint64))).astype(np.uint64)
        return ix * f, iy * f, iz * f

    def leaf_box(self, i: int) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
        ox, oy, oz = (int(v[i]) for v in self.leaf_origins())
        span = 1 << (self.max_depth - int(self.depth[i]))
        n = 1 << self.max_depth
        lo = []
        hi = []
        for axis, o in zip(range(3), (ox, oy, oz)):
            w = (self.box.hi[axis] - self.box.lo[axis]) / n
            lo.append(self.box.lo[axis] + o * w)
            hi.append(self.box.lo[axis] + (o + span) * w)
        return tuple(lo), tuple(hi)

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


def _canonical_cells(max_depth: int, cells):
    """Sort (morton, depth, label[, comp]) cells and merge complete sibling groups."""
    cells = sorted(
        cells, key=lambda c: int(c[0]) << (3 * (max_depth - int(c[1])))
    )
    stack: list[list] = []
    for cell in cells:
        stack.append(list(cell))
        while len(stack) >= 8:
            tail = stack[-8:]
            d = tail[0][1]
            if d == 0:
                break
            if any(t[1] != d or t[2] != tail[0][2] for t in tail):
                break
            base = tail[0][0]
            if base % 8 != 0 or any(t[0] != base + k for k, t in enumerate(tail)):
                break
            del stack[-8:]
            merged = [base // 8, d - 1, tail[0][2]]
            if len(tail[0]) > 3:
                merged.append(tail[0][3] if all(t[3] == tail[0][3] for t in tail) else -1)
            stack.append(merged)
    return stack


def _tree_from_cells(box: Box3, max_depth: int, cells, with_comp: bool = False) -> Octree:
    merged = _canonical_cells(max_depth, cells)
    morton = np.array([c[0] for c in merged], dtype=np.uint64)
    depth = np.array([c[1] for c in merged], dtype=np.uint8)
    label = np.array([bool(c[2]) for c in merged], dtype=bool)
    comp = None
    if with_comp and merged and len(merged[0]) > 3:
        comp = np.array([c[3] for c in merged], dtype=np.int64)
    return Octree(box=box, max_depth=max_depth, morton=morton, depth=depth, label=label, comp=comp)


def _grid_to_tree(labels: np.ndarray, box: Box3, max_depth: int) -> Octree:
    """Merge a full max-depth label grid bottom-up into the canonical tree."""
    n = 1 << max_depth
    assert labels.shape == (n, n, n)
    levels = [None] * (max_depth + 1)
    uniform = [None] * (max_depth + 1)
    levels[max_depth] = labels
    uniform[max_depth] = np.ones_like(labels, dtype=bool)
    for d in range(max_depth, 0, -1):
        nd = 1 << (d - 1)
        lv = levels[d].reshape(nd, 2, nd, 2, nd, 2)
        uv = uniform[d].reshape(nd, 2, nd, 2, nd, 2)
        same = (lv == lv[:, :1, :, :1, :, :1]).all(axis=(1, 3, 5))
        uniform[d - 1] = uv.all(axis=(1, 3, 5)) & same
        levels[d - 1] = np.ascontiguousarray(lv[:, 0, :, 0, :, 0])
    mortons = []
    depths = []
    labs = []
    for d in range(max_depth + 1):
        mask = uniform[d]
        if d > 0:
            parent = uniform[d - 1]
            grown = np.repeat(np.repeat(np.repeat(parent, 2, 0), 2, 1), 2, 2)
            mask = mask & ~grown
        ix, iy, iz = np.nonzero(mask)
        if ix.size:
            mortons.append(morton_encode(ix, iy, iz))
            depths.append(np.full(ix.size, d, dtype=np.uint8))
            labs.append(levels[d][ix, iy, iz])
    morton = np.concatenate(mortons)
    depth = np.concatenate(depths)
    label = np.concatenate(labs)
    starts = morton << (3 * (max_depth - depth.astype(np.uint64))).astype(np.uint64)
    order = np.argsort(starts, kind="stable")
    return Octree(
        box=box, max_depth=max_depth, morton=morton[order], depth=depth[order], label=label[order]
    )


def _rasterize(tree: Octree, values: np.ndarray, fill) -> np.ndarray:
    """Paint per-leaf values onto the max-depth voxel grid."""
    n = 1 << tree.max_depth
    grid = np.full((n, n, n), fill, dtype=values.dtype)
    ix, iy, iz = morton_decode(tree.morton)
    for d in np.unique(tree.depth):
        sel = tree.depth == d
        bs = n >> int(d)
        view = grid.reshape(n // bs, bs, n // bs, bs, n // bs, bs)
        view[ix[sel].astype(int), :, iy[sel].astype(int), :, iz[sel].astype(int), :] = values[
            sel
        ][:, None, None, None]
    return grid


def build_octree(geom: GeometryConfig, pred, box: Box3, max_depth: int) -> Octree:
    """Classify every max-depth cell center with ``pred`` and merge.

    ``pred`` is a callable f(x, y, z) -> bool array under numpy broadcasting.
    The kinematic cell classifier of the aspects lives in ``aspects``.
    """
    if not 1 <= max_depth <= 12:
        raise ValueError("max_depth must be in [1, 12]")
    n = 1 << max_depth
    xs = box.centers(0, max_depth)
    ys = box.centers(1, max_depth)
    zs = box.centers(2, max_depth)
    labels = np.empty((n, n, n), dtype=bool)
    slab = max(1, (1 << 22) // (n * n))
    for z0 in range(0, n, slab):
        z = zs[z0 : z0 + slab]
        shape = (n, n, len(z))
        vals = pred(xs[:, None, None], ys[None, :, None], z[None, None, :])
        labels[:, :, z0 : z0 + slab] = np.broadcast_to(np.asarray(vals, dtype=bool), shape)
    return _grid_to_tree(labels, box, max_depth)


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
            lab = roots[lab]
    return lab


def _renumber_by_storage_order(
    tree: Octree, raw: np.ndarray
) -> tuple[np.ndarray, int, np.ndarray]:
    """Renumber raw component ids by first appearance over IN leaves.

    Returns (per-leaf comp, count, rank) where rank maps raw id -> new id.
    """
    in_mask = tree.label
    raw_in = raw[in_mask]
    if raw_in.size == 0:
        return np.full(tree.n_leaves, -1, dtype=np.int64), 0, np.full(1, -1, dtype=np.int64)
    max_raw = int(raw_in.max())
    first = np.full(max_raw + 1, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(first, raw_in, np.arange(raw_in.size))
    present = np.flatnonzero(first < np.iinfo(np.int64).max)
    rank = np.full(max_raw + 1, -1, dtype=np.int64)
    rank[present[np.argsort(first[present], kind="stable")]] = np.arange(present.size)
    comp = np.full(tree.n_leaves, -1, dtype=np.int64)
    comp[in_mask] = rank[raw_in]
    return comp, int(present.size), rank


def _components_from_grid(
    tree: Octree, grid: np.ndarray
) -> tuple[Octree, int, np.ndarray, np.ndarray]:
    """Component labels from the rasterized IN grid.

    Returns (labeled tree, count, raw label grid, raw -> canonical rank map).
    """
    wrap = tuple(tree.box.wraps(axis) for axis in range(3))
    lab = _label_grid(grid, wrap)
    ox, oy, oz = tree.leaf_origins()
    raw = lab[ox.astype(int), oy.astype(int), oz.astype(int)]
    comp, count, rank = _renumber_by_storage_order(tree, raw)
    return replace(tree, comp=comp), count, lab, rank


def _leaf_adjacency_pairs(tree: Octree) -> np.ndarray:
    """Face-adjacent IN-leaf index pairs (positive-area shared face)."""
    wrap = tuple(tree.box.wraps(axis) for axis in range(3))
    n = 1 << tree.max_depth
    ids = np.flatnonzero(tree.label)
    origins = np.stack(tree.leaf_origins(), axis=1)[ids].astype(np.int64)
    sizes = (np.uint64(1) << (tree.max_depth - tree.depth.astype(np.uint64)))[ids].astype(np.int64)
    pairs = []
    for axis in range(3):
        other = [k for k in range(3) if k != axis]
        plane_b = origins[:, axis]
        order = np.argsort(plane_b, kind="stable")
        sorted_planes = plane_b[order]
        plane_a = origins[:, axis] + sizes
        if wrap[axis]:
            plane_a = plane_a % n
            valid = np.ones(len(ids), dtype=bool)
        else:
            valid = plane_a < n
        for k in np.flatnonzero(valid):
            p = plane_a[k]
            lo = np.searchsorted(sorted_planes, p, side="left")
            hi = np.searchsorted(sorted_planes, p, side="right")
            if lo == hi:
                continue
            a0, a1 = origins[k, other[0]], origins[k, other[0]] + sizes[k]
            b0, b1 = origins[k, other[1]], origins[k, other[1]] + sizes[k]
            for j in order[lo:hi]:
                if j == k:
                    continue
                c0 = origins[j, other[0]]
                c1 = c0 + sizes[j]
                d0 = origins[j, other[1]]
                d1 = d0 + sizes[j]
                if max(a0, c0) < min(a1, c1) and max(b0, d0) < min(b1, d1):
                    pairs.append((k, j))
    if not pairs:
        return np.empty((0, 2), dtype=np.int64)
    return np.asarray(pairs, dtype=np.int64)


def _components_from_graph(tree: Octree) -> tuple[Octree, int]:
    ids = np.flatnonzero(tree.label)
    if ids.size == 0:
        return replace(tree, comp=np.full(tree.n_leaves, -1, dtype=np.int64)), 0
    pairs = _leaf_adjacency_pairs(tree)
    k = ids.size
    graph = coo_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])) if len(pairs) else ([], ([], [])),
        shape=(k, k),
    )
    _, labels = _csgraph_components(graph, directed=False)
    raw = np.zeros(tree.n_leaves, dtype=np.int64)
    raw[ids] = labels + 1
    comp, count, _ = _renumber_by_storage_order(tree, raw)
    return replace(tree, comp=comp), count


def connected_components(tree: Octree, method: str = "auto") -> tuple[Octree, int]:
    """Label face-connected IN components (periodic axes wrap).

    Returns a tree copy with per-leaf component ids (-1 for OUT) ordered by
    first Morton appearance, plus the component count.
    """
    if method == "auto":
        method = "grid" if (1 << (3 * tree.max_depth)) <= _GRID_CCL_LIMIT else "graph"
    if method == "grid":
        grid = _rasterize(tree, tree.label, False)
        labeled, count, _, _ = _components_from_grid(tree, grid)
        return labeled, count
    if method == "graph":
        return _components_from_graph(tree)
    raise ValueError(f"unknown method {method!r}")


def locate(tree: Octree, point) -> LeafRecord:
    """The unique leaf containing a point (periodic axes folded first)."""
    p = tree.box.normalize(point)
    n = 1 << tree.max_depth
    idx = []
    for axis in range(3):
        w = (tree.box.hi[axis] - tree.box.lo[axis]) / n
        i = int((p[axis] - tree.box.lo[axis]) / w)
        idx.append(min(max(i, 0), n - 1))
    code = int(morton_encode(np.uint64(idx[0]), np.uint64(idx[1]), np.uint64(idx[2])))
    starts = tree.starts
    i = int(np.searchsorted(starts, np.uint64(code), side="right")) - 1
    comp = int(tree.comp[i]) if tree.comp is not None else None
    return LeafRecord(
        index=i,
        morton=int(tree.morton[i]),
        depth=int(tree.depth[i]),
        label=bool(tree.label[i]),
        comp=comp,
    )


def _binary_op(a: Octree, b: Octree, op) -> Octree:
    if a.max_depth != b.max_depth or not a.box.approx_equal(b.box):
        raise BoxMismatchError("operands differ in root box or depth")
    sa = a.starts.astype(np.int64)
    sb = b.starts.astype(np.int64)
    za = a.sizes.astype(np.int64)
    zb = b.sizes.astype(np.int64)
    cells = []
    ia = ib = 0
    pos = 0
    total = 1 << (3 * a.max_depth)
    while pos < total:
        while sa[ia] + za[ia] <= pos:
            ia += 1
        while sb[ib] + zb[ib] <= pos:
            ib += 1
        end = min(sa[ia] + za[ia], sb[ib] + zb[ib])
        d = max(int(a.depth[ia]), int(b.depth[ib]))
        lab = op(bool(a.label[ia]), bool(b.label[ib]))
        size = 1 << (3 * (a.max_depth - d))
        cells.append((pos >> (3 * (a.max_depth - d)), d, lab))
        assert end - pos == size
        pos = end
    return _tree_from_cells(a.box, a.max_depth, cells)


def union(a: Octree, b: Octree) -> Octree:
    return _binary_op(a, b, lambda x, y: x or y)


def intersect(a: Octree, b: Octree) -> Octree:
    return _binary_op(a, b, lambda x, y: x and y)


def subtract(a: Octree, b: Octree) -> Octree:
    return _binary_op(a, b, lambda x, y: x and not y)


def dumps(tree: Octree) -> str:
    """Line-oriented text dump, bit-exact for identical inputs."""
    box = tree.box
    head = (
        "octree v1; box="
        + ",".join(repr(float(v)) for v in (*box.lo, *box.hi))
        + f"; depth={tree.max_depth}; axes="
        + ",".join(box.axes)
    )
    lines = [head]
    comp = tree.comp
    for i in range(tree.n_leaves):
        c = "-" if comp is None or comp[i] < 0 else str(int(comp[i]))
        lines.append(
            f"morton={int(tree.morton[i]):#x} depth={int(tree.depth[i])} "
            f"label={int(tree.label[i])} comp={c}"
        )
    return "\n".join(lines) + "\n"


def export(tree: Octree, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps(tree))


def loads(text: str) -> Octree:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0]
    if not head.startswith("octree v1;"):
        raise ValueError("not an octree v1 dump")
    fields = dict(part.strip().split("=", 1) for part in head.split(";")[1:])
    vals = [float(v) for v in fields["box"].split(",")]
    box = Box3(lo=tuple(vals[:3]), hi=tuple(vals[3:]), axes=tuple(fields["axes"].split(",")))
    max_depth = int(fields["depth"])
    cells = []
    for ln in lines[1:]:
        rec = dict(tok.split("=", 1) for tok in ln.split())
        comp = rec.get("comp", "-")
        cells.append(
            (
                int(rec["morton"], 16),
                int(rec["depth"]),
                bool(int(rec["label"])),
                -1 if comp == "-" else int(comp),
            )
        )
    tree = _tree_from_cells(box, max_depth, cells, with_comp=True)
    if tree.comp is not None and (tree.comp < 0).all():
        tree = replace(tree, comp=None)
    return tree


def load(path) -> Octree:
    with open(path, "r", encoding="ascii") as fh:
        return loads(fh.read())
