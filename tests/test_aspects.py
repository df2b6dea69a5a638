import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import ALPHA_REF, posture
from planar3rrr import aspects, batch
from planar3rrr.aspects import (
    MIN_DEPTH,
    AspectAtlas,
    AspectEntry,
    characteristic_surface,
    enumerate_aspects,
    same_aspect,
    write_manifest,
)
from planar3rrr.cli import main
from planar3rrr.errors import ConfigError, ModeMismatchError
from planar3rrr.geometry import GeometryConfig, Pose, WorkingMode, angle_difference
from planar3rrr.kinematics import inverse_kinematics, inverse_kinematics_all
from planar3rrr.octree import (
    WORKSPACE_LIMIT,
    Box3,
    Octree,
    _grid_to_tree,
    connected_components,
    dumps,
    joint_box,
    locate,
    morton_encode,
    workspace_box,
)


@pytest.fixture(scope="module")
def atlas6(ref_geom) -> AspectAtlas:
    return enumerate_aspects(ref_geom, depth=6, joint_depth=5)


def _config(geom, k, mode=WorkingMode.C):
    return inverse_kinematics(geom, posture(k), mode)


def test_depth_validation(ref_geom):
    with pytest.raises(ValueError):
        enumerate_aspects(ref_geom, depth=3)
    with pytest.raises(ValueError):
        enumerate_aspects(ref_geom, depth=11)


@pytest.mark.parametrize(
    "kwargs",
    [{"depth": 5.5}, {"depth": True}, {"joint_depth": -1}, {"joint_depth": 2.5},
     {"joint_depth": True}, {"joint_depth": 11}],
    ids=["depth-float", "depth-bool", "joint-negative", "joint-float", "joint-bool", "joint-11"],
)
def test_depth_rule_names_the_argument(ref_geom, kwargs):
    # joint_depth = -1 failed on a negative shift count, 2.5 and depth = 5.5 on
    # a TypeError from <<, and joint_depth = True ran at joint depth 1.
    (name, _), = kwargs.items()
    lo = 0 if name == "joint_depth" else MIN_DEPTH
    with pytest.raises(ValueError, match=rf"^{name} must be an integer in \[{lo}, 10\], got"):
        enumerate_aspects(ref_geom, **{"depth": 4, **kwargs})


def test_numpy_integer_depths_write_the_same_manifest(ref_geom, tmp_path):
    # The atlas stored a numpy depth as given, so write_manifest wrote the
    # dumps and a manifest cut off at '"depth":', then raised a TypeError.
    written = {}
    for kind, cast in (("int", int), ("numpy", np.int64)):
        atlas = enumerate_aspects(ref_geom, cast(4), joint_depth=cast(2))
        assert type(atlas.depth) is int and type(atlas.joint_depth) is int
        outdir = write_manifest(atlas, tmp_path / kind).parent
        written[kind] = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
    assert len(written["int"]) == 33
    assert written["numpy"] == written["int"]


def _slot_count(geom, depth) -> int:
    box = workspace_box()
    return len(aspects._brick_slots(aspects._live_bricks(geom, box, depth), box)[0])


@pytest.mark.parametrize("limit", [math.inf, math.nan])
def test_census_refuses_a_non_finite_limit(ref_geom, monkeypatch, limit):
    # An infinite limit used to census NaN cell coordinates without an error.
    def no_bricks(*args):
        raise AssertionError("the census started")

    monkeypatch.setattr(aspects, "_live_bricks", no_bricks)
    with pytest.raises(ValueError, match=r"^limit must be positive and finite"):
        enumerate_aspects(ref_geom, depth=4, limit=limit)


def test_memory_guard_refuses_before_allocating(ref_geom, monkeypatch, tmp_path, capsys):
    def no_signs(*args):
        raise AssertionError("the corner signs were allocated")

    monkeypatch.setattr(aspects, "_corner_signs", no_signs)
    # Depth 10 on the reference geometry is estimated at about 7.2 GiB.
    monkeypatch.setattr(aspects, "memory_budget", lambda: 6 << 30)
    with pytest.raises(ConfigError, match=r"depth 10, joint depth 5: .* budget of 6.00 GiB"):
        enumerate_aspects(ref_geom, depth=10, joint_depth=5)
    assert main(["--out", str(tmp_path), "--depth", "10", "aspects", "--no-joint"]) == 2
    assert "enumerate_aspects at depth 10: the census arrays need about" in capsys.readouterr().err
    monkeypatch.setattr(aspects, "memory_budget", lambda: 1 << 20)
    with pytest.raises(ConfigError, match="at depth 4:"):
        enumerate_aspects(ref_geom, depth=4)
    # Depth 9 (416 MiB measured peak RSS without joint trees) fits a 7 GiB box.
    assert aspects.census_bytes(_slot_count(ref_geom, 9), 9, 8, 5) < 7 << 30


def _census_geometry(case, rng):
    if case == "reference":
        return GeometryConfig()
    if case == "congruent":
        return GeometryConfig(r=5, s=5)
    if case == "unequal_links":
        return GeometryConfig(l=5, m=7, r=9, s=4)
    l, m = rng.uniform(3.0, 9.0, 2)
    start, turn = rng.uniform(0.0, 2.0 * math.pi, 2)
    base = tuple(start + np.cumsum([0.0, *rng.uniform(0.5, 2.5, 2)]))
    return GeometryConfig(
        l=l,
        m=m,
        r=rng.uniform(4.0, 10.0),
        s=rng.uniform(1.0, 6.0),
        base_phase=base,
        platform_phase=tuple(p + turn for p in base),
    )


@pytest.mark.parametrize("case", ["reference", "congruent", "unequal_links", "random"])
def test_sign_grids_match_dense_oracle(case, rng, monkeypatch):
    # The census evaluates det(A) only at the corners its live bricks hold, in
    # reach, a few bricks per call; the oracle evaluates it at every corner in
    # one pass. The small box cuts the reach, so corners on its far faces
    # (held by the extra layer of slots) decide cells.
    geom = _census_geometry(case, rng)
    depth, k = 5, 1 << aspects.BRICK_LEVELS
    subset = [WorkingMode.H, WorkingMode.A, WorkingMode.E]
    slab = aspects.SLAB_POINTS
    for limit in (WORKSPACE_LIMIT, 6.0):
        box = workspace_box(limit)
        want = {
            len(modes): oracles.sign_grids_dense(geom, box, depth, modes)
            for modes in (list(WorkingMode), subset)
        }
        counts = want[8].shape[1:]
        live = aspects._live_bricks(geom, box, depth)
        slots, _ = aspects._brick_slots(live, box)
        # Each read corner's index per axis; of a slot on the extra layer of an
        # axis that does not wrap only corner n is read there.
        corner = [slots[:, axis, None] * k + np.arange(k) for axis in range(3)]
        held = [c < n for c, n in zip(corner, counts)]
        held = held[0][:, :, None, None] & held[1][:, None, :, None] & held[2][:, None, None, :]
        at = tuple(
            np.minimum(c, n - 1).reshape([-1] + [k if t == axis else 1 for t in range(3)])
            for axis, (c, n) in enumerate(zip(corner, counts))
        )
        for slab_points in (slab, 1):
            monkeypatch.setattr(aspects, "SLAB_POINTS", slab_points)
            for modes in (list(WorkingMode), subset):
                # The oracle's signs are 0 off reach, so equal signs check reach too.
                signs = aspects._corner_signs(geom, box, depth, modes, slots)
                assert not signs[:, -1].any()
                for j in range(len(modes)):
                    oracle = want[len(modes)][j][at]
                    assert np.array_equal(signs[j, :-1][held], oracle[held])
                assert 0 < np.count_nonzero(signs) < signs.size
            # Each pair's tree is the tree of the oracle's corner-classified cells.
            atlas = enumerate_aspects(geom, depth=depth, limit=limit)
            for j, mode in enumerate(WorkingMode):
                for sign in (1, -1):
                    cells = oracles.corner_cells_dense(want[8][j] == sign, box)
                    tree = dataclasses.replace(atlas.entry(mode, sign).workspace, comp=None)
                    assert dumps(tree) == dumps(_grid_to_tree(cells, box, depth))
        # No corner of a dead brick's closed box is in reach.
        reach = oracles.reach_grid_dense(geom, box, depth)
        for brick in np.argwhere(~live):
            # Corner n is corner 0 on the axis that wraps, the only one with n corners.
            box_corners = [np.arange(b * k, b * k + k + 1) % n for b, n in zip(brick, counts)]
            assert not reach[np.ix_(*box_corners)].any()
        if limit == WORKSPACE_LIMIT:
            assert (~live).any()


def _voxel_leaf(box: Box3, depth: int, v: int) -> tuple[Octree, int]:
    """A tree at max depth ``depth`` whose one max-depth leaf is cell (v, v, v),
    with the siblings off its path at every level, and that leaf's index."""
    code = int(morton_encode(v, v, v))
    codes, depths = [code], [depth]
    for level in range(1, depth + 1):
        path = code >> 3 * (depth - level)
        codes += [path & ~7 | c for c in range(8) if c != path & 7]
        depths += [level] * 7
    starts = [c << 3 * (depth - d) for c, d in zip(codes, depths)]
    order = np.argsort(np.array(starts, dtype=np.uint64), kind="stable")
    tree = Octree(
        box,
        depth,
        np.array(codes, dtype=np.uint64)[order],
        np.array(depths)[order],
        order == 0,
    )
    return tree, int(np.flatnonzero(order == 0)[0])


@pytest.mark.parametrize("box", [workspace_box(), joint_box()], ids=["workspace", "joint"])
@pytest.mark.parametrize("depth", [0, 7, 21])
def test_census_coordinates_are_leaf_coordinates(ref_geom, monkeypatch, box, depth):
    # Box3.grid is the one grid rule: the census's corners and brick edges,
    # Box3.centers and the leaves' boxes and centers meet it bit for bit.
    n, k = 1 << depth, 1 << aspects.BRICK_LEVELS
    cells = sorted({0, 1, k, n // 3, n // 3 // k * k, n - k, n - 1} & set(range(n)))
    corner, center = {}, {}
    for v in cells:
        tree, i = _voxel_leaf(box, depth, v)
        lo, hi = tree.leaf_box(i)
        corner[v], corner[v + 1], center[v] = lo, hi, tree.leaf_centers()[i]
        for axis in range(3):
            # The rule's own expression, so no coordinate moved when it got one owner.
            step = (box.hi[axis] - box.lo[axis]) / 2**depth
            assert lo[axis] == box.lo[axis] + v * step
            assert center[v][axis] == box.lo[axis] + (v + 0.5) * step
    for axis in range(3):
        centers = box.centers(axis, depth)
        assert [centers[v] for v in cells] == [center[v][axis] for v in cells]

    def corners_seen(geom, x, y, z, modes):
        seen.append((x, y, z))
        return np.zeros(np.broadcast(x, y, z).shape, dtype=bool), [np.zeros(0)] * len(modes)

    seen = []
    monkeypatch.setattr(batch, "mode_determinants", corners_seen)
    slots = np.array([[v // k] * 3 for v in corner])
    aspects._corner_signs(ref_geom, box, depth, [WorkingMode.A], slots)
    for axis, coords in enumerate(seen[0]):
        got = coords.reshape(len(slots), k)
        want = [c[axis] for c in corner.values()]
        assert [got[row, v % k] for row, v in enumerate(corner)] == want

    class Stop(Exception):
        pass

    def stop(*args):
        raise Stop

    grid, edges = Box3.grid, []

    def edges_seen(self, axis, d, index):
        edges.append(grid(self, axis, d, index))
        return edges[-1]

    monkeypatch.setattr(Box3, "grid", edges_seen)
    monkeypatch.setattr(aspects, "_cos_range", stop)
    with pytest.raises(Stop):
        aspects._live_bricks(ref_geom, box, depth)
    assert len(edges) == 3
    for axis, e in enumerate(edges):
        assert [e[v // k] for v in corner if v % k == 0] == [
            c[axis] for v, c in corner.items() if v % k == 0
        ]


def test_census_without_live_bricks_is_all_out():
    # The bases lie about 83 units from every platform joint in the box, far
    # past l + m = 12: every brick is dead and no corner is evaluated.
    geom, box, depth = GeometryConfig(r=100), workspace_box(), 5
    assert not aspects._live_bricks(geom, box, depth).any()
    empty = dumps(_grid_to_tree(np.zeros((1 << depth,) * 3, dtype=bool), box, depth))
    atlas = enumerate_aspects(geom, depth=depth, joint_depth=4)
    assert atlas.total(1) == atlas.total(-1) == 0
    pair = enumerate_aspects(geom, depth=depth, modes=[WorkingMode.H], det_signs=(-1,))
    for entry in [*atlas.entries.values(), pair.entry(WorkingMode.H, -1)]:
        assert entry.n_components_raw == 0
        assert dumps(dataclasses.replace(entry.workspace, comp=None)) == empty


@pytest.mark.parametrize("case", ["reference", "congruent", "unequal_links", "random"])
def test_dead_bricks_are_out_of_reach_everywhere(case, rng):
    # The reach skip certifies the whole closed brick box, not only its corners.
    geom = _census_geometry(case, rng)
    box = workspace_box()
    for depth in (5, 6):
        dead = np.argwhere(~aspects._live_bricks(geom, box, depth))
        assert dead.size
        side = np.array(box.extent) / (1 << (depth - aspects.BRICK_LEVELS))
        u = rng.random((len(dead), 64, 3))
        u[:, :8] = [[i & 1, i >> 1 & 1, i >> 2] for i in range(8)]
        p = np.array(box.lo) + (dead[:, None, :] + u) * side
        reach, _ = batch.leg_reach(geom, p[..., 0], p[..., 1], p[..., 2])
        assert not reach.any()


@pytest.fixture(scope="module", params=["reference", "congruent", "unequal_links", "random"])
def census5(request):
    geom = _census_geometry(request.param, np.random.default_rng(20260808))
    return geom, enumerate_aspects(geom, depth=5, joint_depth=5)


def test_leaf_census_matches_dense_oracle(census5):
    # Labels from the leaf graph, solidity from leaf probes: the dense
    # labeler and the 3x3x3 erosion of the rasterized grid agree.
    _, atlas = census5
    for entry in atlas.entries.values():
        tree = entry.workspace
        dense, count = connected_components(tree, method="grid")
        assert np.array_equal(tree.comp, dense.comp)
        assert entry.n_components_raw == count
        assert entry.solid_component_ids == oracles.solid_ids_dense(tree)
        assert entry.n_components == len(entry.solid_component_ids)


def test_joint_tree_labels_match_dense_oracle(census5):
    _, atlas = census5
    for entry in atlas.entries.values():
        dense, count = connected_components(entry.joint, method="grid")
        assert np.array_equal(entry.joint.comp, dense.comp)
        assert entry.n_joint_components == count


def test_characteristic_surface_boundary_matches_voxel_oracle(ref_geom):
    # Face probes between leaves find the same IN -> OUT boundary as rolling
    # the rasterized grid, on every raw component.
    geom = ref_geom
    atlas = enumerate_aspects(geom, depth=5)
    for (mode, sign), entry in atlas.entries.items():
        tree = entry.workspace
        centers = tree.leaf_centers()
        for cid in range(entry.n_components_raw):
            pairs = oracles.boundary_pairs_dense(tree, cid)
            c = centers[pairs[:, 1]]
            reach, _ = batch.leg_reach(geom, c[:, 0], c[:, 1], c[:, 2])
            surf = characteristic_surface(atlas, mode, sign, cid)
            assert np.array_equal(surf.boundary_leaves, np.unique(pairs[reach, 0]))


@pytest.mark.parametrize("geom", [GeometryConfig(), GeometryConfig(r=5, s=5)])
def test_census_bytes_bounds_traced_peak(geom):
    # The congruent geometry has the largest share of corners in reach seen,
    # and its joint sweep solves every triple.
    for depth in (5, 6):
        tracemalloc.start()
        try:
            enumerate_aspects(geom, depth=depth, joint_depth=min(depth, 5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert aspects.census_bytes(_slot_count(geom, depth), depth, 8, 5) >= peak


def test_det_signs_validation(ref_geom):
    # A sign other than +1 or -1 used to build an empty entry that
    # write_manifest could not name.
    for bad in ((0,), (1, 2), (-1, 0.5)):
        with pytest.raises(ValueError):
            enumerate_aspects(ref_geom, depth=4, det_signs=bad)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        # A mode letter used to raise AttributeError from batch.
        ({"modes": ["a"]}, "modes"),
        # Repeated pairs used to be built twice, one copy kept.
        ({"modes": [WorkingMode.A, WorkingMode.A]}, "modes"),
        ({"det_signs": (1, 1)}, "det_signs"),
        # A negative limit used to fail as "axis 0: hi must exceed lo".
        ({"limit": -3.0}, "limit"),
        ({"limit": 0.0}, "limit"),
        # An empty selection used to give an empty atlas with grand total 0,
        # and limit=True a box of half-width 1.
        ({"modes": []}, "modes"),
        ({"det_signs": ()}, "det_signs"),
        ({"limit": True}, "limit"),
    ],
)
def test_census_refuses_bad_pair_selection_and_limit(ref_geom, monkeypatch, kwargs, name):
    def no_bricks(*args):
        raise AssertionError("the census started")

    monkeypatch.setattr(aspects, "_live_bricks", no_bricks)
    # The number rule (geometry.as_positive) refuses a bool as no number.
    error = TypeError if kwargs.get("limit") is True else ValueError
    with pytest.raises(error, match=rf"^{name} must be"):
        enumerate_aspects(ref_geom, depth=4, **kwargs)


def test_atlas_structure(atlas6):
    assert len(atlas6.entries) == 16
    for (mode, sign), entry in atlas6.entries.items():
        tree = entry.workspace
        assert tree.comp is not None
        in_mask = tree.label
        # Every IN leaf belongs to exactly one component.
        assert (tree.comp[in_mask] >= 0).all()
        assert (tree.comp[~in_mask] == -1).all()
        if in_mask.any():
            assert entry.n_components_raw >= 1
        assert entry.n_components <= entry.n_components_raw
        assert len(entry.component_leaf_counts) == entry.n_components_raw
        assert entry.joint is not None


def test_reference_postures_lie_in_aspects(ref_geom, atlas6):
    # Each benchmark posture belongs to its own (mode, sign) aspect region.
    # Postures 1, 2, 4 are interior and locate to IN leaves; posture 3 sits
    # 1.6e-4 length units from the reach boundary (leg 1 nearly stretched),
    # below any cell resolution, so only the pose-level membership can hold.
    from planar3rrr.jacobians import jacobians, working_mode_of

    for k in (1, 2, 3, 4):
        cfgs = inverse_kinematics_all(ref_geom, posture(k))
        cfg = min(
            cfgs.values(),
            key=lambda c: max(abs(angle_difference(a, b)) for a, b in zip(c.alpha, ALPHA_REF)),
        )
        pair = jacobians(cfg)
        mode = working_mode_of(pair)
        sign = 1 if pair.det_a > 0 else -1
        assert abs(pair.det_a) > 0.0
        if k == 3:
            continue
        rec = locate(atlas6.entries[(mode, sign)].workspace, posture(k).as_tuple())
        assert rec.label is True
        assert rec.comp >= 0


def test_same_aspect_reference_postures(ref_geom, atlas6):
    c1 = _config(ref_geom, 1)
    c4 = _config(ref_geom, 4)
    assert same_aspect(atlas6, c1, c4) is True
    assert same_aspect(atlas6, c1, c1) is True


def test_same_aspect_mode_mismatch_cases(ref_geom, atlas6):
    c1 = _config(ref_geom, 1)
    # Posture (2) shares the working mode but has the opposite det(A) sign.
    c2 = _config(ref_geom, 2)
    with pytest.raises(ModeMismatchError):
        same_aspect(atlas6, c1, c2)
    # Posture (3), taken in its own branch, is a different working mode.
    cfgs3 = inverse_kinematics_all(ref_geom, posture(3))
    cfg3 = min(
        cfgs3.values(),
        key=lambda c: max(abs(angle_difference(a, b)) for a, b in zip(c.alpha, ALPHA_REF)),
    )
    with pytest.raises(ModeMismatchError):
        same_aspect(atlas6, c1, cfg3)


def test_same_aspect_refuses_configurations_on_another_geometry(ref_geom, atlas6):
    # Configurations solved with a platform radius of 5.2 used to be judged
    # on the reference atlas, and postures (1) and (4) came out in one aspect.
    other = dataclasses.replace(ref_geom, s=5.2)
    c1, c4 = _config(other, 1), _config(other, 4)
    with pytest.raises(ValueError, match="configuration 1 is on .*, the atlas on"):
        same_aspect(atlas6, c1, c4)
    with pytest.raises(ValueError, match="configuration 2 is on .*, the atlas on"):
        same_aspect(atlas6, _config(ref_geom, 1), c4)


def test_distinct_components_are_not_same_aspect(ref_geom):
    # Mode A, det > 0 has four solid components at depth >= 6; pick poses in
    # two different ones via the component labels themselves.
    atlas = enumerate_aspects(
        ref_geom, depth=6, joint_depth=5, modes=[WorkingMode.A], det_signs=(1,)
    )
    entry = atlas.entries[(WorkingMode.A, 1)]
    assert entry.n_components == 4
    tree = entry.workspace
    centers = tree.leaf_centers()
    picks = {}
    for cid in entry.solid_component_ids[:2]:
        sel = np.flatnonzero(tree.comp == cid)
        picks[cid] = Pose(*centers[int(sel[len(sel) // 2])])
    poses = list(picks.values())
    cfg_a = inverse_kinematics(ref_geom, poses[0], WorkingMode.A)
    cfg_b = inverse_kinematics(ref_geom, poses[1], WorkingMode.A)
    assert same_aspect(atlas, cfg_a, cfg_b) is False


def test_census_depth8_pattern_is_tested_in_acceptance(atlas6):
    # At depth 6 the pattern is not yet converged; totals are only sane here.
    assert atlas6.total(1) >= 11
    assert atlas6.total(-1) >= 11


def test_tiny_platform_atlas_tiles(ref_geom):
    geom = GeometryConfig(
        s=0.05,
        base_phase=ref_geom.base_phase,
        platform_phase=ref_geom.platform_phase,
    )
    atlas = enumerate_aspects(geom, depth=4)
    for entry in atlas.entries.values():
        tree = entry.workspace
        assert float(tree.leaf_volumes().sum()) == pytest.approx(tree.box.volume, rel=1e-12)


def test_characteristic_surface_reference_component(ref_geom, atlas6):
    rec = locate(atlas6.entries[(WorkingMode.C, 1)].workspace, posture(1).as_tuple())
    surf = characteristic_surface(atlas6, WorkingMode.C, 1, rec.comp)
    assert not surf.is_empty
    assert surf.boundary_leaves.size > 0
    comp = atlas6.entries[(WorkingMode.C, 1)].workspace.comp
    assert all(comp[i] == rec.comp for i in surf.marked_leaves)
    # Marked leaves are IN leaves of the component by construction.
    label = atlas6.entries[(WorkingMode.C, 1)].workspace.label
    assert all(label[i] for i in surf.marked_leaves)


def test_characteristic_surface_empty_case(ref_geom):
    # Mode a, det(A) > 0 at depth 5: every boundary cell's other assembly
    # poses leave the aspect, so the marked set is empty (a valid outcome).
    atlas = enumerate_aspects(ref_geom, depth=5, modes=[WorkingMode.A], det_signs=(1,))
    entry = atlas.entries[(WorkingMode.A, 1)]
    cid = entry.solid_component_ids[0]
    surf = characteristic_surface(atlas, WorkingMode.A, 1, cid)
    assert surf.boundary_leaves.size > 0
    assert surf.is_empty


def test_characteristic_surface_of_a_component_without_boundary(ref_geom):
    # One IN leaf fills the box: no OUT leaf borders it, so no boundary cell
    # exists, and the surface is empty with int64 leaf arrays of shape (0,).
    box = workspace_box()
    tree = Octree(box=box, max_depth=0, morton=[0], depth=[0], label=[True], comp=[0])
    entry = AspectEntry(WorkingMode.A, 1, tree, 1, (0,), 1, (1,), (box.volume,))
    atlas = AspectAtlas(ref_geom, MIN_DEPTH, None, box, {(WorkingMode.A, 1): entry})
    surf = characteristic_surface(atlas, WorkingMode.A, 1, 0)
    assert surf.is_empty
    for leaves in (surf.marked_leaves, surf.boundary_leaves):
        assert leaves.dtype == np.int64 and leaves.shape == (0,)


def test_characteristic_surface_invalid_component(ref_geom, atlas6):
    with pytest.raises(ValueError):
        characteristic_surface(atlas6, WorkingMode.C, 1, 10**6)


def test_characteristic_surface_refuses_an_unlabeled_tree(atlas6):
    entry = atlas6.entry(WorkingMode.C, 1)
    bare = dataclasses.replace(entry, workspace=dataclasses.replace(entry.workspace, comp=None))
    atlas = dataclasses.replace(atlas6, entries={(WorkingMode.C, 1): bare})
    with pytest.raises(ValueError, match=r"^atlas workspace tree lacks component labels$"):
        characteristic_surface(atlas, WorkingMode.C, 1, 0)


def test_membership_stable_under_refinement(ref_geom, rng):
    # Interior points farther than one coarse-leaf diagonal from any OUT
    # cell keep their aspect membership when the depth is refined from 6
    # to 8.
    coarse = enumerate_aspects(ref_geom, depth=6, modes=[WorkingMode.C], det_signs=(1,))
    fine = enumerate_aspects(ref_geom, depth=8, modes=[WorkingMode.C], det_signs=(1,))
    tree6 = coarse.entries[(WorkingMode.C, 1)].workspace
    tree8 = fine.entries[(WorkingMode.C, 1)].workspace
    grid = oracles.leaf_grid(tree6, tree6.label)
    wrap = tuple(tree6.box.wraps(axis) for axis in range(3))
    interior = oracles.erode_box_cells(oracles.erode_box_cells(grid, wrap), wrap)
    ids = np.flatnonzero(tree6.label)
    centers = tree6.leaf_centers()
    ox, oy, oz = tree6.leaf_origins()
    deep = ids[interior[ox[ids].astype(int), oy[ids].astype(int), oz[ids].astype(int)]]
    picks = rng.choice(deep, size=min(100, deep.size), replace=False)
    for k in picks:
        rec = locate(tree8, tuple(centers[int(k)]))
        assert rec.label is True


def test_manifest_export(ref_geom, tmp_path):
    atlas = enumerate_aspects(ref_geom, depth=4, modes=[WorkingMode.A, WorkingMode.C])
    path = write_manifest(atlas, tmp_path)
    data = json.loads(path.read_text())
    assert data["depth"] == 4
    assert len(data["entries"]) == 4
    for item in data["entries"]:
        assert (tmp_path / item["workspace_dump"]).exists()
        assert len(item["component_leaf_counts"]) == item["components"]
    assert data["grand_total"] == atlas.grand_total
