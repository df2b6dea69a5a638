"""Generalized aspects: singularity-free domains per working mode and det sign.

For a fixed working mode the inverse problem is a function of the pose, so
the workspace octree components for one (mode, det sign) pair are faithful
images of the maximal singularity-free domains of the pose x joint product
space; connectivity conclusions are drawn from the workspace trees. The
joint-space projections, built when a joint depth is given, come from the
direct problem.

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
leaves too (``octree.solid_components``), without a voxel grid.

The workspace census works on bricks of 2^BRICK_LEVELS cells per axis, and no
array spans the 2^(3 depth) cells. A brick is dead when some leg provably
misses its closed box (``_live_bricks``); the live bricks store det(A) signs
at the corners each owns (``_corner_signs``), take their far faces from the
next brick (``_brick_corners``), and are each pair's label cubes over the
brick lattice's tree (``octree.cube_tree``), whose dead bricks are OUT.

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
from .geometry import (
    EPS_SING, TWO_PI, FullConfiguration, GeometryConfig, WorkingMode, as_int, as_positive
)
from .octree import (
    WORKSPACE_LIMIT,
    Box3,
    Octree,
    _grid_to_tree,
    boundary_pairs,
    connected_components,
    cube_tree,
    joint_box,
    leaf_indices,
    locate,
    morton_encode,
    solid_components,
    workspace_box,
)

#: File-name tag of a det(A) sign.
SIGN_TAG = {1: "pos", -1: "neg"}

#: Octree depths the census accepts.
MIN_DEPTH = 4
MAX_DEPTH = 10

#: Bricks have 2^BRICK_LEVELS cells per axis and are Morton-aligned, so each
#: is one node at depth - BRICK_LEVELS (MIN_DEPTH is not below it).
BRICK_LEVELS = 3
#: A brick is skipped when a leg's interval bound on |c_i - a_i|^2 clears the
#: reach annulus by more than this share of (l + m)^2: far above the rounding
#: of the bound and of the corner test, so rounding never skips a corner that
#: lies on a reach circle, where the strict test ``leg_reach`` puts it out.
REACH_SKIP_MARGIN = 1e-9
#: Corner samples per ``batch.mode_determinants`` call of the corner signs, in
#: whole bricks. Against 2^16, 2^14 made trajectory checks (each with a
#: depth-6 one-pair census) about 6 % faster and lowered the depth-7 census's
#: peak RSS by 1.6 MiB; depths 7 and 8 ran equally fast (BENCH_28.json, 2-CPU VM).
SLAB_POINTS = 1 << 14
#: Peak bytes of the census's transient arrays, upper bounds of tracemalloc
#: peaks at depths 5-8 on the reference, congruent (r = s), unequal-link,
#: random and long-link (every brick live) geometries, ``census_bytes``'s
#: terms: per corner of a ``mode_determinants`` call whose corners are all in
#: reach (at most 457 B); per stored brick slot, one pair's working set (its
#: brick corners and cells, leaves and leaf labeler: at most 12.6 KB, on the
#: congruent geometry at depth 6) and one pair's finished tree (at most 1.45
#: KB, at depth 5); per brick of the depth - BRICK_LEVELS lattice (the reach
#: bounds, the slot index and the OUT leaves: at most 103 B); per joint
#: center of one ``batch.FK_CHUNK`` block of the joint sweep (at most 2,511 B,
#: on the congruent geometry, whose every triple passes the leg-pair test and
#: is solved); and per joint cell, its 16 flags and the 16 joint trees with
#: their labeler (at most 186 B, congruent, joint depth 4). The per-slot terms
#: fall with depth (4.2 KB and 0.41 KB at depth 9), so the estimate is loose
#: there.
SLAB_BYTES_PER_POINT = 480
PAIR_BYTES_PER_SLOT = 13 << 10
TREE_BYTES_PER_SLOT = 1536
LATTICE_BYTES_PER_BRICK = 112
JOINT_BYTES_PER_ROW = 2816
JOINT_BYTES_PER_CELL = 192


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

    def entry(self, mode: WorkingMode, det_sign: int) -> AspectEntry:
        """The entry of one (mode, det sign) pair; ValueError naming the pairs if it is absent."""
        if (mode, det_sign) not in self.entries:
            pairs = ", ".join(f"{m.label}{s:+d}" for m, s in self.entries)
            raise ValueError(f"atlas has no mode {mode.label}, sign {det_sign:+d}; it has {pairs}")
        return self.entries[(mode, det_sign)]


def check_depth(depth, name: str, lo: int = MIN_DEPTH) -> int:
    """``depth`` as an int, by the one depth rule: ``as_int`` in [lo, MAX_DEPTH]."""
    return as_int(depth, name, lo, MAX_DEPTH)


def census_bytes(n_slots: int, depth: int, n_modes: int, joint_depth: int | None) -> int:
    """Estimated peak bytes of the census's arrays, from the number of brick
    slots whose corners it stores (``_brick_slots``).

    The slots' corner signs live throughout. On top of them come the larger
    of a corner-sign call's working set and one pair's, the trees of up to
    2 n_modes pairs and the brick lattice, and, when ``joint_depth`` is
    given, one joint block, the joint flags and the joint trees.
    """
    corners = n_slots << (3 * BRICK_LEVELS)
    signs = n_modes * (corners + (1 << 3 * BRICK_LEVELS))
    work = max(SLAB_BYTES_PER_POINT * min(SLAB_POINTS, corners), PAIR_BYTES_PER_SLOT * n_slots)
    trees = 2 * n_modes * TREE_BYTES_PER_SLOT * n_slots
    lattice = LATTICE_BYTES_PER_BRICK << (3 * (depth - BRICK_LEVELS))
    joint = 0
    if joint_depth is not None:
        cells = 1 << (3 * joint_depth)
        joint = JOINT_BYTES_PER_ROW * min(batch.FK_CHUNK, cells) + JOINT_BYTES_PER_CELL * cells
    return signs + work + trees + lattice + joint


def memory_budget() -> int:
    """Bytes the process may allocate: physical memory, or the soft
    address-space limit (RLIMIT_AS) when that is lower."""
    budget = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    return budget if soft == resource.RLIM_INFINITY else min(budget, soft)


def _cos_range(a, b):
    """Lower and upper bounds of cos over each interval [a, b] (b - a < 2 pi)."""
    ca, cb = np.cos(a), np.cos(b)
    top = np.floor(b / TWO_PI) * TWO_PI >= a
    bottom = np.floor((b - math.pi) / TWO_PI) * TWO_PI + math.pi >= a
    return np.where(bottom, -1.0, np.minimum(ca, cb)), np.where(top, 1.0, np.maximum(ca, cb))


def _square_range(lo, hi):
    """Lower and upper bounds of v^2 over each interval [lo, hi]."""
    low = np.where(lo > 0.0, lo * lo, np.where(hi < 0.0, hi * hi, 0.0))
    return low, np.maximum(lo * lo, hi * hi)


def _live_bricks(geom: GeometryConfig, box: Box3, depth: int) -> np.ndarray:
    """Mask of the bricks, (nb, nb, nb) in (x, y, z) order, that every leg may reach.

    A brick is dead when, for some leg, the interval bound on |c_i - a_i|^2
    over its closed box (c_i = p + s u(theta + psi_i)) lies outside the reach
    annulus by more than REACH_SKIP_MARGIN. Every corner of a dead brick is
    then off reach.
    """
    bricks = np.arange(0, (1 << depth) + 1, 1 << BRICK_LEVELS)
    edges = [box.grid(axis, depth, bricks) for axis in range(3)]
    lo, hi = [e[:-1] for e in edges], [e[1:] for e in edges]
    s, margin = geom.s, REACH_SKIP_MARGIN * geom.reach_max**2
    live = True
    for (ax, ay), psi in zip(geom.base_points, geom.platform_phase):
        # Bounds of cos and sin (cos shifted by pi/2) of theta + psi per z brick.
        (c0, c1), (s0, s1) = (_cos_range(lo[2] + a, hi[2] + a) for a in (psi, psi - 0.5 * math.pi))
        dx2 = _square_range(lo[0][:, None] + s * c0 - ax, hi[0][:, None] + s * c1 - ax)
        dy2 = _square_range(lo[1][:, None] + s * s0 - ay, hi[1][:, None] + s * s1 - ay)
        near = dx2[0][:, None] + dy2[0]
        far = dx2[1][:, None] + dy2[1]
        live = live & (near <= geom.reach_max**2 + margin) & (far >= geom.reach_min**2 - margin)
    return live


def _brick_slots(live: np.ndarray, box: Box3):
    """The bricks of corners the census stores, and the slot of every brick.

    Corners are cut like cells: slot c on an axis holds corners c k to
    c k + k - 1 (k = 2^BRICK_LEVELS). On an axis that does not wrap, corner n
    makes one more layer of slots, of which only the first corner there, corner
    n, is read. A slot is stored when the brick it clamps to is live: the
    corners read from it lie in that brick's closed box. Returns (slots,
    index): the (S, 3) stored slots, the live bricks first in Morton order,
    and every slot's row of ``slots``, S where it is dead.
    """
    nb = live.shape[0]
    shape = tuple(nb if box.wraps(axis) else nb + 1 for axis in range(3))
    stored = live[np.ix_(*(np.minimum(np.arange(c), nb - 1) for c in shape))]
    coords = np.argwhere(stored)
    layer = (coords >= nb) @ np.array([1, 2, 4])
    slots = coords[np.lexsort((morton_encode(*coords.T), layer))]
    index = np.full(shape, len(slots), dtype=np.int32)
    index[tuple(slots.T)] = np.arange(len(slots))
    return slots, index


def _corner_signs(geom: GeometryConfig, box: Box3, depth: int, modes, slots: np.ndarray):
    """det(A) signs of ``modes`` at the k^3 corners of each slot, 0 off reach.

    ``signs[j, i]`` holds the corners of ``slots[i]`` for ``modes[j]``, and a
    last slot of zeros stands for every dead one. Corner i of an axis sits at
    lo + i w, so its bits do not depend on the brick that holds it (corner n
    of an axis that wraps is corner 0). A slot on the extra layer is evaluated
    whole, though only its first corner there is read. det(A) is evaluated
    only at the corners in reach, SLAB_POINTS // k^3 slots per call.
    """
    k = 1 << BRICK_LEVELS
    signs = np.zeros((len(modes), len(slots) + 1, k, k, k), dtype=np.int8)
    step = max(1, SLAB_POINTS >> (3 * BRICK_LEVELS))
    for a in range(0, len(slots), step):
        b = min(a + step, len(slots))
        coords = []
        for axis in range(3):
            c = box.grid(axis, depth, slots[a:b, axis, None] * k + np.arange(k))
            coords.append(c.reshape([b - a] + [k if t == axis else 1 for t in range(3)]))
        reach, dets = batch.mode_determinants(geom, *coords, modes)
        at = np.flatnonzero(reach)
        block = np.zeros((len(modes), reach.size), dtype=np.int8)
        for j, det in enumerate(dets):
            block[j, at] = np.sign(det)
        signs[:, a:b] = block.reshape(-1, *reach.shape)
    return signs


def _neighbor_slots(bricks: np.ndarray, index: np.ndarray, box: Box3) -> np.ndarray:
    """(8, L) slots of the corner bricks at offset (o & 1, o >> 1 & 1, o >> 2)
    from each brick; indices wrap on the axes that wrap."""
    near = []
    for o in range(8):
        ix = [bricks[:, axis] + (o >> axis & 1) for axis in range(3)]
        ix = [v % index.shape[axis] if box.wraps(axis) else v for axis, v in enumerate(ix)]
        near.append(index[tuple(ix)])
    return np.stack(near)


def _brick_corners(signs: np.ndarray, near: np.ndarray) -> np.ndarray:
    """(L, k + 1, k + 1, k + 1) corner signs of each live brick: its own k^3
    and the first faces of the 7 slots past it."""
    k = signs.shape[-1]
    corners = np.empty((near.shape[1], k + 1, k + 1, k + 1), dtype=signs.dtype)
    for o, slot in enumerate(near):
        past = [o >> axis & 1 for axis in range(3)]
        corners[(slice(None), *(k if p else slice(0, k) for p in past))] = signs[
            (slot, *(0 if p else slice(None) for p in past))
        ]
    return corners


def _corner_expand(vals: np.ndarray) -> np.ndarray:
    """AND of the 8 corner samples of each cell: (..., k + 1, k + 1, k + 1)
    corner booleans to (..., k, k, k) cells, one axis at a time."""
    v = vals[..., :-1, :, :] & vals[..., 1:, :, :]
    v = v[..., :-1, :] & v[..., 1:, :]
    return v[..., :-1] & v[..., 1:]


def _joint_flag_grids(geom: GeometryConfig, depth: int):
    """Boolean grids flags[mode_idx][sign_idx] of ``joint_box()`` from one direct-kinematics sweep.

    Sign index 0 is det(A) > 0 and 1 is det(A) < 0. The cells are solved in
    blocks of ``batch.FK_CHUNK`` centers.
    """
    n = 1 << depth
    jbox = joint_box()
    centers = [jbox.centers(axis, depth) for axis in range(3)]
    flags = np.zeros((8, 2, n**3), dtype=bool)
    for start in range(0, n**3, batch.FK_CHUNK):
        cells = np.unravel_index(np.arange(start, min(start + batch.FK_CHUNK, n**3)), (n, n, n))
        alphas = np.stack([c[i] for c, i in zip(centers, cells)], axis=1)
        idx, _, _, _, mode_idx, det_sign = batch.assembly_modes(geom, alphas)
        flags[mode_idx, (det_sign < 0).astype(np.int64), start + idx] = True
    return flags.reshape(8, 2, n, n, n)


def enumerate_aspects(
    geom: GeometryConfig,
    depth: int = 8,
    limit: float = WORKSPACE_LIMIT,
    joint_depth: int | None = None,
    modes=None,
    det_signs=(1, -1),
) -> AspectAtlas:
    """Build the aspect atlas: per (mode, sign) workspace and joint octrees.

    The workspace is ``workspace_box(limit)``: [-limit, limit]^2 in x and y
    and the full turn in theta, cut into 2^depth cells per axis, each
    classified at its eight corners. Joint trees over ``joint_box()`` are
    built exactly when ``joint_depth`` is given, with cells classified at
    their centers; every joint cell needs a full direct-kinematics solve,
    far costlier than the workspace test. ``modes`` (one or more distinct
    ``WorkingMode`` members, default all eight) and ``det_signs`` (one or two
    distinct ints, each +1 or -1) choose the (mode, det sign) pairs;
    ValueError names a bad one, and ``limit`` passes ``geometry.as_positive``,
    before any work.
    """
    depth = check_depth(depth, "depth")
    if joint_depth is not None:
        joint_depth = check_depth(joint_depth, "joint_depth", 0)
    det_signs = tuple(as_int(sign, "det_signs entry", -1, 1) for sign in det_signs)
    if 0 in det_signs or not 0 < len(set(det_signs)) == len(det_signs):
        raise ValueError(f"det_signs must be one or two distinct signs +1 or -1, got {det_signs!r}")
    modes = list(modes) if modes is not None else list(WorkingMode)
    if not all(isinstance(m, WorkingMode) for m in modes) or not 0 < len(set(modes)) == len(modes):
        raise ValueError(f"modes must be one or more distinct WorkingMode members, got {modes}")
    box = workspace_box(as_positive(limit, "limit"))
    live = _live_bricks(geom, box, depth)
    slots, index = _brick_slots(live, box)
    need, budget = census_bytes(len(slots), depth, len(modes), joint_depth), memory_budget()
    if need > budget:
        joint = "" if joint_depth is None else f", joint depth {joint_depth}"
        raise ConfigError(
            f"enumerate_aspects at depth {depth}{joint}: the census arrays need about "
            f"{need / 2**30:.2f} GiB, over the memory budget of {budget / 2**30:.2f} GiB "
            "(physical memory or the RLIMIT_AS soft limit)"
        )
    signs = _corner_signs(geom, box, depth, modes, slots)
    bricks = slots[: np.count_nonzero(live)]
    near = _neighbor_slots(bricks, index, box)
    lattice = _grid_to_tree(live, box, depth - BRICK_LEVELS)
    joint_flags = None if joint_depth is None else _joint_flag_grids(geom, joint_depth)

    entries: dict[tuple[WorkingMode, int], AspectEntry] = {}
    for j, mode in enumerate(modes):
        k = batch.MODE_ORDER.index(mode)
        corners = _brick_corners(signs[j], near)
        for sign in det_signs:
            tree = cube_tree(box, depth, _corner_expand(corners == sign), bricks, lattice)
            tree, count_raw = connected_components(tree)
            solid = solid_components(tree)
            in_mask = tree.label
            comp_in = tree.comp[in_mask]
            leaf_counts = np.bincount(comp_in, minlength=count_raw)
            vols = np.bincount(comp_in, weights=tree.leaf_volumes()[in_mask], minlength=count_raw)
            joint_tree, n_joint = None, 0
            if joint_flags is not None:
                flags = joint_flags[k, 0 if sign > 0 else 1]
                joint_tree = _grid_to_tree(flags, joint_box(), joint_depth)
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
    return AspectAtlas(geom=geom, depth=depth, joint_depth=joint_depth, box=box, entries=entries)


def same_component(atlas: AspectAtlas, alphas, poses, eps: float) -> bool:
    """True when two poses (x, y, theta) with actuated angles ``alphas`` share a component.

    One ``batch.classify`` call decides both poses, on the atlas's geometry. Pose by
    pose, a serial flag raises SerialSingularError (lowest leg first), a parallel
    flag ParallelSingularError; differing working modes or det(A) signs raise
    ModeMismatchError, and a pair the atlas lacks ValueError (``AspectAtlas.entry``).
    """
    x, y, theta = np.array(poses, dtype=float).T
    _, det, b_diag, scale = batch.jacobian_rows(atlas.geom, alphas, x, y, theta)
    mode_idx, det_sign, serial, parallel = batch.classify(det, b_diag, scale, eps)
    for k in range(2):
        for i in np.flatnonzero(serial[k]).tolist():
            raise SerialSingularError(i + 1, float(b_diag[k, i]))
        if parallel[k]:
            raise ParallelSingularError(float(det[k]), float(scale[k]))
    k1, k2 = ((batch.MODE_ORDER[m], s) for m, s in zip(mode_idx.tolist(), det_sign.tolist()))
    if k1 != k2:
        raise ModeMismatchError(
            f"configurations differ: mode {k1[0].label}/sign {k1[1]:+d} vs "
            f"mode {k2[0].label}/sign {k2[1]:+d}"
        )
    tree = atlas.entry(*k1).workspace
    la, lb = (locate(tree, tuple(p)) for p in poses)
    return la.comp is not None and la.comp >= 0 and la.comp == lb.comp


def same_aspect(
    atlas: AspectAtlas,
    config1: FullConfiguration,
    config2: FullConfiguration,
    eps: float = EPS_SING,
) -> bool:
    """True when both configurations sit in the same workspace component.

    Both must be non-singular and share working mode and det(A) sign;
    otherwise ModeMismatchError is raised. A configuration on another
    geometry than the atlas's raises ValueError.
    """
    for k, config in enumerate((config1, config2), 1):
        if config.geom != atlas.geom:
            raise ValueError(f"configuration {k} is on {config.geom}, the atlas on {atlas.geom}")
    poses = (config1.pose.as_tuple(), config2.pose.as_tuple())
    return same_component(atlas, (config1.alpha, config2.alpha), poses, eps)


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
    (mode, det sign) inside the same component marks its containing leaf. A pair
    (``AspectAtlas.entry``) or ``component_id`` (``as_int``) the atlas lacks raises ValueError.
    """
    entry = atlas.entry(mode, det_sign)
    tree = entry.workspace
    if tree.comp is None:
        raise ValueError("atlas workspace tree lacks component labels")
    component_id = as_int(component_id, "component_id", 0, entry.n_components_raw - 1)
    leaf_in, leaf_out = boundary_pairs(tree, component_id)

    centers = tree.leaf_centers()
    out_ids = np.unique(leaf_out)
    oc = centers[out_ids]
    reach, _ = batch.leg_reach(atlas.geom, oc[:, 0], oc[:, 1], oc[:, 2])
    keep = np.isin(leaf_out, out_ids[reach])
    boundary = np.unique(leaf_in[keep])

    bc = centers[boundary]
    legs = batch.solve_legs(atlas.geom, bc[:, 0], bc[:, 1], bc[:, 2], mode)
    solved = (legs.status == batch.LEG_OK).all(axis=1)
    alphas = legs.alpha[solved]
    bc = bc[solved]
    idx, x, y, th, mode_idx, sign = batch.assembly_modes(atlas.geom, alphas)
    match = (mode_idx == batch.MODE_ORDER.index(mode)) & (sign == det_sign)
    # Drop the identity image of each boundary center itself.
    match &= ~batch.same_pose(x, y, th, *bc[idx].T)
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
        tag = SIGN_TAG[sign]
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
