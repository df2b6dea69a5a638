"""Generalized aspects: singularity-free domains per working mode and det sign.

For a fixed working mode the inverse problem is a function of the pose, so
the workspace octree components for one (mode, det sign) pair are faithful
images of the maximal singularity-free domains of the pose x joint product
space; connectivity conclusions are drawn from the workspace trees. The
joint-space projections are built alongside from the direct problem.

This module holds the one cell classifier of the toolkit; the CLI
``workspace`` command runs the census for a single (mode, det sign) pair.
A workspace cell is IN when every leg is strictly in reach and det(A) has
the wanted sign at all eight of its corners. Aspects are open regions
separated by det(A) = 0 walls; center sampling bridges two aspects wherever
the wall dips below one cell and cuts hairline slivers into droplet
components, and no fixed margin repairs both. Corner agreement keeps
wall-straddling cells OUT at any wall thickness. The census reports only
solid components, those containing at least one cell whose full 3x3x3 cell
neighborhood is IN; thinner debris is below the resolution of the
subdivision and is labeled but not counted. Components come from the leaf
labeler (``octree.connected_components``), and solidity is decided on the
leaves too (``_solid_ids``), without a voxel grid.

A joint cell is IN for a (mode, det sign) pair when some assembly pose of
its center's actuated angles realizes that pair (``batch.assembly_modes``).
"""

from __future__ import annotations

import json
import math
import os
import resource
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import batch
from .errors import ConfigError, ModeMismatchError, ParallelSingularError, SerialSingularError
from .geometry import EPS_SING, FullConfiguration, GeometryConfig, WorkingMode
from .octree import (
    Box3,
    Octree,
    _grid_to_tree,
    _leaf_adjacency_pairs,
    _voxel_leaves,
    connected_components,
    joint_box,
    leaf_indices,
    locate,
    morton_decode,
    workspace_box,
)

_SIGN_TAG = {1: "pos", -1: "neg"}

#: Octree depths the census accepts; depth 10 already needs gigabytes of grids.
MIN_DEPTH = 4
MAX_DEPTH = 10

#: Corner samples per ``batch.mode_determinants`` call of the sign grids
#: (2^16 ran faster than 2^14, 2^18 and 2^20 at depth 7).
SLAB_POINTS = 1 << 16
#: Peak bytes of the census's transient arrays, upper bounds of tracemalloc
#: peaks at depths 5-8 on the reference and the congruent (r = s) geometry:
#: per sample of a sign-grid slab whose samples are all in reach (at most
#: 434 B), per workspace cell of the (mode, sign) pairs being labeled (at
#: most 17.0 B at depths 7 and 8, where this term outweighs the slab's; it
#: includes the trees of the pairs already done), and per joint cell of the
#: joint sweep (at most 1,159 B, on the congruent geometry, whose every
#: triple passes the leg-pair test and is solved).
SLAB_BYTES_PER_POINT = 448
PAIR_BYTES_PER_CELL = 18
JOINT_BYTES_PER_CELL = 1280


@dataclass(frozen=True)
class AspectEntry:
    """Workspace and joint-space projections for one (mode, det sign) pair.

    ``n_components`` counts solid components; every IN leaf still carries a
    component id (droplets included), so ids may exceed the solid count.
    """

    mode: WorkingMode
    det_sign: int
    workspace: Octree
    n_components: int
    solid_component_ids: tuple[int, ...]
    n_components_raw: int
    component_leaf_counts: tuple[int, ...]
    component_volumes: tuple[float, ...]
    joint: Octree | None = None
    n_joint_components: int = 0


@dataclass(frozen=True)
class AspectAtlas:
    geom: GeometryConfig
    depth: int
    joint_depth: int | None
    box: Box3
    jbox: Box3 | None
    entries: dict[tuple[WorkingMode, int], AspectEntry]

    def counts(self, det_sign: int) -> dict[WorkingMode, int]:
        return {
            mode: entry.n_components
            for (mode, sign), entry in self.entries.items()
            if sign == det_sign
        }

    def total(self, det_sign: int) -> int:
        return sum(self.counts(det_sign).values())

    @property
    def grand_total(self) -> int:
        return sum(e.n_components for e in self.entries.values())


def _corner_counts(box: Box3, depth: int) -> tuple[int, int, int]:
    """Corner samples per axis: n + 1, or n on an axis that wraps."""
    n = 1 << depth
    return tuple(n if box.wraps(axis) else n + 1 for axis in range(3))


def _slab_rows(counts: tuple[int, int, int]) -> int:
    """Corner rows (first axis) per sign-grid slab: about SLAB_POINTS samples."""
    return max(1, SLAB_POINTS // (counts[1] * counts[2]))


def census_bytes(box: Box3, depth: int, n_modes: int, joint_depth: int | None) -> int:
    """Estimated peak bytes of the census's dense arrays, from their shapes.

    The sign grids live throughout; on top of them come the larger of a
    sign-grid slab's working set and one pair's cell grids, and the joint
    sweep when ``joint_depth`` is given.
    """
    c0, c1, c2 = counts = _corner_counts(box, depth)
    slab = min(_slab_rows(counts), c0) * c1 * c2
    work = max(SLAB_BYTES_PER_POINT * slab, PAIR_BYTES_PER_CELL << (3 * depth))
    joint = 0 if joint_depth is None else JOINT_BYTES_PER_CELL << (3 * joint_depth)
    return n_modes * c0 * c1 * c2 + work + joint


def memory_budget() -> int:
    """Bytes the process may allocate: physical memory, or the soft
    address-space limit (RLIMIT_AS) when that is lower."""
    budget = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    return budget if soft == resource.RLIM_INFINITY else min(budget, soft)


def _sign_grids(geom: GeometryConfig, box: Box3, depth: int, modes):
    """det(A) signs of ``modes`` at the cell corners, 0 off reach.

    ``signs[j]`` belongs to ``modes[j]``. The grids are filled in slabs of
    corner rows, and det(A) is evaluated only at the samples in reach. The
    grids have n+1 samples along non-wrapping axes and n along wrapping ones
    (corner n coincides with corner 0).
    """
    n = 1 << depth
    counts = _corner_counts(box, depth)
    coords = [
        box.lo[axis] + np.arange(counts[axis]) * ((box.hi[axis] - box.lo[axis]) / n)
        for axis in range(3)
    ]
    signs = np.empty((len(modes), *counts), dtype=np.int8)
    slab = _slab_rows(counts)
    for x0 in range(0, counts[0], slab):
        xs = coords[0][x0 : x0 + slab]
        _, dets = batch.mode_determinants(
            geom, xs[:, None, None], coords[1][None, :, None], coords[2][None, None, :], modes
        )
        sl = slice(x0, x0 + len(xs))
        for j, det in enumerate(dets):
            # NaN, the det of a sample out of reach, compares false both ways.
            np.subtract(det > 0, det < 0, out=signs[j, sl], dtype=np.int8)
    return signs


def _corner_expand(vals: np.ndarray, box: Box3) -> np.ndarray:
    """AND of the 8 corner samples per cell; vals is a corner-grid boolean.

    The AND runs one axis at a time over neighboring samples; on an axis
    that wraps, corner 0 is appended as corner n first.
    """
    v = vals
    for axis in range(3):
        if box.wraps(axis):
            v = np.concatenate([v, np.take(v, [0], axis=axis)], axis=axis)
        lead = (slice(None),) * axis
        v = v[lead + (slice(None, -1),)] & v[lead + (slice(1, None),)]
    return v


def _solid_ids(tree: Octree) -> tuple[int, ...]:
    """Ids of the components that hold a cell whose whole 3x3x3 block is IN.

    A leaf of side 4 or more holds such a cell, so its component is solid. A
    side-1 leaf never does: its block holds its 7 siblings, which the
    canonical tree would have merged with it were they all IN. So only the
    side-2 leaves of the other components are probed, each over its 4x4x4
    neighborhood, where its 8 cells' blocks are the 8 windows of 3x3x3.
    Periodic axes wrap; a voxel past a non-wrapping edge is OUT.
    """
    in_big = tree.label & (tree.depth <= tree.max_depth - 2)
    solid = np.unique(tree.comp[in_big])
    ids = np.flatnonzero(
        tree.label & (tree.depth == tree.max_depth - 1) & ~np.isin(tree.comp, solid)
    )
    if ids.size:
        # Voxels -1..2 from the leaf origin on each axis: the leaf is the inner 2x2x2.
        origins = morton_decode(tree.starts[ids])
        ox, oy, oz = (o.astype(np.int64)[:, None, None, None] for o in origins)
        r = np.arange(-1, 3)
        j = _voxel_leaves(tree, ox + r[:, None, None], oy + r[:, None], oz + r)
        block = (j >= 0) & tree.label[j]
        windows = np.lib.stride_tricks.sliding_window_view(block, (3, 3, 3), axis=(1, 2, 3))
        held = windows.all(axis=(4, 5, 6)).any(axis=(1, 2, 3))
        solid = np.union1d(solid, tree.comp[ids[held]])
    return tuple(int(c) for c in solid)


def _joint_flag_grids(geom: GeometryConfig, jbox: Box3, depth: int):
    """Boolean grids flags[mode_idx][sign_idx] from one direct-kinematics sweep.

    Sign index 0 is det(A) > 0 and 1 is det(A) < 0.
    """
    n = 1 << depth
    a1 = jbox.centers(0, depth)[:, None, None]
    a2 = jbox.centers(1, depth)[None, :, None]
    a3 = jbox.centers(2, depth)[None, None, :]
    g1, g2, g3 = np.broadcast_arrays(a1, a2, a3)
    alphas = np.stack([g1.ravel(), g2.ravel(), g3.ravel()], axis=1)
    idx, _, _, _, mode_idx, det_sign = batch.assembly_modes(geom, alphas)
    flags = np.zeros((8, 2, alphas.shape[0]), dtype=bool)
    flags[mode_idx, (det_sign < 0).astype(np.int64), idx] = True
    return flags.reshape(8, 2, n, n, n)


def enumerate_aspects(
    geom: GeometryConfig,
    depth: int = 8,
    box: Box3 | None = None,
    joint_depth: int | None = None,
    modes=None,
    det_signs=(1, -1),
    build_joint: bool = True,
) -> AspectAtlas:
    """Build the aspect atlas: per (mode, sign) workspace and joint octrees.

    Workspace cells are classified at their eight corners, joint cells at
    their centers. ``joint_depth`` defaults to min(depth, 5): every joint
    cell needs a full direct-kinematics solve, far costlier than the
    workspace test.
    """
    if not MIN_DEPTH <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in [{MIN_DEPTH}, {MAX_DEPTH}]")
    bad = [sign for sign in det_signs if sign not in (1, -1)]
    if bad:
        raise ValueError(f"det_signs must be +1 or -1, got {bad}")
    box = box or workspace_box()
    modes = list(modes) if modes is not None else list(WorkingMode)
    if build_joint:
        jbox = joint_box()
        joint_depth = min(depth, 5) if joint_depth is None else joint_depth
    else:
        jbox = None
        joint_depth = None
    need, budget = census_bytes(box, depth, len(modes), joint_depth), memory_budget()
    if need > budget:
        joint = "" if joint_depth is None else f", joint depth {joint_depth}"
        raise ConfigError(
            f"enumerate_aspects at depth {depth}{joint}: the dense arrays need about "
            f"{need / 2**30:.2f} GiB, over the memory budget of {budget / 2**30:.2f} GiB "
            "(physical memory or the RLIMIT_AS soft limit)"
        )
    signs = _sign_grids(geom, box, depth, modes)
    joint_flags = None if jbox is None else _joint_flag_grids(geom, jbox, joint_depth)

    entries: dict[tuple[WorkingMode, int], AspectEntry] = {}
    for j, mode in enumerate(modes):
        k = batch.MODE_ORDER.index(mode)
        for sign in det_signs:
            tree = _grid_to_tree(_corner_expand(signs[j] == sign, box), box, depth)
            tree, count_raw = connected_components(tree)
            solid = _solid_ids(tree)
            in_mask = tree.label
            comp_in = tree.comp[in_mask]
            leaf_counts = np.bincount(comp_in, minlength=count_raw)
            vols = np.bincount(comp_in, weights=tree.leaf_volumes()[in_mask], minlength=count_raw)
            joint_tree = None
            n_joint = 0
            if joint_flags is not None:
                joint_tree = _grid_to_tree(joint_flags[k, 0 if sign > 0 else 1], jbox, joint_depth)
                joint_tree, n_joint = connected_components(joint_tree)
            entries[(mode, sign)] = AspectEntry(
                mode=mode,
                det_sign=sign,
                workspace=tree,
                n_components=len(solid),
                solid_component_ids=solid,
                n_components_raw=count_raw,
                component_leaf_counts=tuple(int(v) for v in leaf_counts),
                component_volumes=tuple(float(v) for v in vols),
                joint=joint_tree,
                n_joint_components=n_joint,
            )
    return AspectAtlas(
        geom=geom, depth=depth, joint_depth=joint_depth, box=box, jbox=jbox, entries=entries
    )


def _same_component(geom: GeometryConfig, atlas: AspectAtlas, alphas, poses, eps: float) -> bool:
    """True when two poses (x, y, theta) with actuated angles ``alphas`` share a component.

    One ``batch.jacobian_rows`` call gives both matrix pairs. Pose by pose,
    |B_ii| < eps raises SerialSingularError and |det(A)| < eps * scale
    ParallelSingularError; differing working modes or det(A) signs raise
    ModeMismatchError.
    """
    x, y, theta = np.array(poses, dtype=float).T
    _, det, b_diag, scale = batch.jacobian_rows(geom, np.array(alphas, dtype=float), x, y, theta)
    keys = []
    for d, b, s in zip(det.tolist(), b_diag.tolist(), scale.tolist()):
        for i, v in enumerate(b):
            if abs(v) < eps:
                raise SerialSingularError(i + 1, v)
        if abs(d) < eps * s:
            raise ParallelSingularError(d, s)
        mode = WorkingMode.from_signs(tuple(1 if v > 0 else -1 for v in b))
        keys.append((mode, 1 if d > 0 else -1))
    k1, k2 = keys
    if k1 != k2:
        raise ModeMismatchError(
            f"configurations differ: mode {k1[0].label}/sign {k1[1]:+d} vs "
            f"mode {k2[0].label}/sign {k2[1]:+d}"
        )
    entry = atlas.entries.get(k1)
    if entry is None:
        raise KeyError(f"atlas has no entry for mode {k1[0].label}, sign {k1[1]:+d}")
    la, lb = (locate(entry.workspace, tuple(p)) for p in poses)
    return la.comp is not None and la.comp >= 0 and la.comp == lb.comp


def same_aspect(
    atlas: AspectAtlas,
    config1: FullConfiguration,
    config2: FullConfiguration,
    eps: float = EPS_SING,
) -> bool:
    """True when both configurations sit in the same workspace component.

    Both must be non-singular and share working mode and det(A) sign;
    otherwise ModeMismatchError is raised.
    """
    poses = (config1.pose.as_tuple(), config2.pose.as_tuple())
    return _same_component(config1.geom, atlas, (config1.alpha, config2.alpha), poses, eps)


@dataclass(frozen=True)
class CharacteristicSurface:
    """Interior image of an aspect's singular boundary under the direct problem."""

    mode: WorkingMode
    det_sign: int
    component_id: int
    marked_leaves: np.ndarray
    boundary_leaves: np.ndarray

    @property
    def is_empty(self) -> bool:
        return self.marked_leaves.size == 0


def characteristic_surface(
    geom: GeometryConfig,
    atlas: AspectAtlas,
    mode: WorkingMode,
    det_sign: int,
    component_id: int,
) -> CharacteristicSurface:
    """Mark the component leaves hit by assembly poses of its singular boundary.

    Boundary cells are component leaves face-adjacent to OUT leaves that are
    still reachable at their center (cells rejected by the det sign, not by
    reach). Each boundary center is mapped through inverse kinematics in
    ``mode``; every other assembly pose of those actuated angles realizing
    (mode, det sign) inside the same component marks its containing leaf.
    """
    entry = atlas.entries[(mode, det_sign)]
    tree = entry.workspace
    if tree.comp is None:
        raise ValueError("atlas workspace tree lacks component labels")
    if component_id < 0 or component_id >= entry.n_components_raw:
        raise ValueError(f"component {component_id} does not exist")
    # Every face-adjacent leaf pair, found from its smaller side, oriented IN -> OUT.
    k, j = _leaf_adjacency_pairs(tree, np.arange(tree.n_leaves))
    cross = tree.label[k] != tree.label[j]
    k, j = k[cross], j[cross]
    leaf_in = np.where(tree.label[k], k, j)
    leaf_out = np.where(tree.label[k], j, k)
    on = tree.comp[leaf_in] == component_id
    leaf_in, leaf_out = leaf_in[on], leaf_out[on]

    centers = tree.leaf_centers()
    out_ids = np.unique(leaf_out)
    oc = centers[out_ids]
    reach, _ = batch.leg_reach(geom, oc[:, 0], oc[:, 1], oc[:, 2])
    keep = np.isin(leaf_out, out_ids[reach])
    boundary = np.unique(leaf_in[keep])
    if boundary.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return CharacteristicSurface(mode, det_sign, component_id, empty, empty)

    bc = centers[boundary]
    legs = batch.solve_legs(geom, bc[:, 0], bc[:, 1], bc[:, 2], mode)
    solved = (legs.status == batch.LEG_OK).all(axis=1)
    alphas = legs.alpha[solved]
    bc = bc[solved]
    idx, x, y, th, mode_idx, sign = batch.assembly_modes(geom, alphas)
    match = (mode_idx == batch.MODE_ORDER.index(mode)) & (sign == det_sign)
    # Drop the identity image of each boundary center itself.
    src = bc[idx]
    dth = np.abs((th - src[:, 2] + math.pi) % (2.0 * math.pi) - math.pi)
    same = (np.abs(x - src[:, 0]) < 1e-6) & (np.abs(y - src[:, 1]) < 1e-6) & (dth < 1e-6)
    match &= ~same
    hit = leaf_indices(tree, np.stack([x[match], y[match], th[match]], axis=1))
    hit = hit[hit >= 0]
    marked = np.unique(hit[tree.comp[hit] == component_id])
    return CharacteristicSurface(mode, det_sign, component_id, marked, boundary)


def write_manifest(atlas: AspectAtlas, outdir) -> Path:
    """Write octree dumps plus the JSON manifest; returns the manifest path."""
    from .octree import export

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    items = []
    for (mode, sign), entry in sorted(
        atlas.entries.items(), key=lambda kv: (kv[0][0].label, -kv[0][1])
    ):
        tag = _SIGN_TAG[sign]
        wname = f"aspect_w_{mode.label}_{tag}.oct"
        jname = f"aspect_q_{mode.label}_{tag}.oct" if entry.joint is not None else None
        export(entry.workspace, outdir / wname)
        if entry.joint is not None:
            export(entry.joint, outdir / jname)
        items.append(
            {
                "mode": mode.label,
                "sign": "+" if sign > 0 else "-",
                "components": entry.n_components,
                "component_ids": list(entry.solid_component_ids),
                "component_leaf_counts": [
                    entry.component_leaf_counts[i] for i in entry.solid_component_ids
                ],
                "component_volumes": [
                    entry.component_volumes[i] for i in entry.solid_component_ids
                ],
                "raw_components": entry.n_components_raw,
                "workspace_dump": wname,
                "joint_dump": jname,
                "joint_components": entry.n_joint_components,
            }
        )
    manifest = {
        "box": {"lo": list(atlas.box.lo), "hi": list(atlas.box.hi), "axes": list(atlas.box.axes)},
        "depth": atlas.depth,
        "joint_depth": atlas.joint_depth,
        "entries": items,
        "total_positive": atlas.total(1),
        "total_negative": atlas.total(-1),
        "grand_total": atlas.grand_total,
    }
    path = outdir / "aspects_manifest.json"
    with open(path, "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
