import csv
import dataclasses
import importlib
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import ALPHA_REF, VIA_POSTURE, posture
from planar3rrr.aspects import characteristic_surface, enumerate_aspects, same_aspect
from planar3rrr.errors import (
    ModeMismatchError,
    ParallelSingularError,
    SerialBoundaryError,
    UnreachableError,
    UnreachableSampleError,
)
from planar3rrr.geometry import EPS_SING, GeometryConfig, Pose, WorkingMode, angle_difference
from planar3rrr.trajectory import (
    _PROFILE_BLOCK,
    PROFILE_HEADER,
    RECORD_FIELDS,
    MonitorResult,
    PathSpec,
    VERDICT_CHANGE,
    VERDICT_NO_CHANGE,
    VERDICT_NON_SINGULAR,
    VERDICT_SINGULAR,
    _csv_bytes,
    interpolate,
    monitor,
    verify_assembly_mode_change,
    write_profile,
)
from planar3rrr.kinematics import inverse_kinematics

MODE = WorkingMode.C


def _via() -> Pose:
    return Pose(VIA_POSTURE[0], VIA_POSTURE[1], math.radians(VIA_POSTURE[2]))


def _benchmark_spec(spp=500) -> PathSpec:
    return PathSpec(waypoints=(posture(1), _via(), posture(4)), mode=MODE, samples_per_segment=spp)


@pytest.fixture(scope="module")
def atlas(ref_geom):
    return enumerate_aspects(ref_geom, depth=6, modes=[MODE], det_signs=(1,))


def test_spec_validation():
    with pytest.raises(ValueError):
        PathSpec(waypoints=(posture(1),), mode=MODE)
    with pytest.raises(ValueError):
        PathSpec(waypoints=(posture(1), posture(4)), mode=MODE, samples_per_segment=1)


@pytest.mark.parametrize(
    "field, value, error",
    [
        # 2.5 samples used to give samples at t = 0, 0.667 and 1.333.
        ("samples_per_segment", 2.5, ValueError),
        ("samples_per_segment", 3.0, ValueError),
        ("samples_per_segment", "500", ValueError),
        # Plain tuples and a mode letter used to fail deep inside the monitor.
        ("waypoints", ((0.1, 2.0, 0.3), (0.2, 2.0, 0.3)), TypeError),
        ("mode", "c", TypeError),
    ],
)
def test_spec_refuses_malformed_fields(field, value, error):
    fields = {"waypoints": (posture(1), posture(4)), "mode": MODE, "samples_per_segment": 50}
    with pytest.raises(error, match=field):
        PathSpec(**{**fields, field: value})


def test_constant_path(ref_geom):
    spec = PathSpec(waypoints=(posture(1), posture(1)), mode=MODE, samples_per_segment=50)
    poses = interpolate(spec)
    assert len(poses) == 50
    assert all(p == posture(1) for p in poses)
    result = monitor(ref_geom, spec)
    assert result.verdict == VERDICT_NON_SINGULAR
    rec = result.records
    for name in rec.dtype.names:
        if name != "t":
            assert (rec[name] == rec[name][0]).all(), name


def test_shortest_arc_across_pi():
    a = Pose(0.0, 0.0, math.radians(179.0))
    b = Pose(0.0, 0.0, math.radians(-179.0))
    spec = PathSpec(waypoints=(a, b), mode=MODE, samples_per_segment=201)
    poses = interpolate(spec)
    # Total sweep is 2 degrees, crossing +-180.
    step = abs(angle_difference(poses[1].theta, poses[0].theta))
    assert math.degrees(step) == pytest.approx(0.01, rel=1e-6)
    total = sum(
        angle_difference(q.theta, p.theta) for p, q in zip(poses, poses[1:])
    )
    assert math.degrees(total) == pytest.approx(2.0, rel=1e-9)
    crossed = any(abs(p.theta) > math.radians(179.5) for p in poses)
    assert crossed


def test_endpoints_reproduced_exactly(ref_geom):
    spec = _benchmark_spec(spp=7)
    poses = interpolate(spec)
    assert poses[0] == posture(1)
    assert poses[6] == _via()
    assert poses[-1] == posture(4)
    assert len(poses) == 13


def test_benchmark_path_monitor(ref_geom):
    result = monitor(ref_geom, _benchmark_spec())
    assert result.verdict == VERDICT_NON_SINGULAR
    assert len(result.records) == 999
    assert result.offending_t is None
    # det(A) keeps one sign with positive margin throughout.
    assert result.det_sign == 1
    assert result.min_abs_det_scaled > 0.01
    assert result.min_abs_b > 20.0
    signs = {tuple(np.sign([r.b11, r.b22, r.b33])) for r in result.records}
    assert signs == {(1.0, 1.0, -1.0)}


def test_margin_equal_to_eps_is_not_singular(ref_geom):
    # A margin equal to eps passes, as in singularity_report: only a margin
    # below eps makes a sample singular.
    spec = _benchmark_spec(spp=50)
    eps = monitor(ref_geom, spec).min_abs_det_scaled
    assert 0.0174 < eps < 0.0175
    result = monitor(ref_geom, spec, eps=eps)
    assert result.verdict == VERDICT_NON_SINGULAR
    assert result.offending_t is None
    assert monitor(ref_geom, spec, eps=np.nextafter(eps, 1.0)).verdict == VERDICT_SINGULAR


def test_normalization_invariants(ref_geom):
    result = monitor(ref_geom, _benchmark_spec(spp=100))
    n = np.array([[r.det_a_n, r.b11_n, r.b22_n, r.b33_n] for r in result.records])
    assert (np.abs(n) <= 1.0 + 1e-12).all()
    assert np.isclose(np.abs(n), 1.0).any(axis=0).all()
    raw = np.array([[r.det_a, r.b11, r.b22, r.b33] for r in result.records])
    again = n / np.abs(n).max(axis=0)
    assert np.allclose(again, raw / np.abs(raw).max(axis=0))


def test_refinement_stability(ref_geom):
    v1 = monitor(ref_geom, _benchmark_spec(spp=500)).verdict
    v2 = monitor(ref_geom, _benchmark_spec(spp=1000)).verdict
    assert v1 == v2 == VERDICT_NON_SINGULAR


def test_mode_constant_along_non_singular_path(ref_geom):
    result = monitor(ref_geom, _benchmark_spec(spp=100))
    for r in result.records:
        assert np.sign(r.b11) == 1 and np.sign(r.b22) == 1 and np.sign(r.b33) == -1


def test_singular_crossing_detected(ref_geom):
    # Postures (1) and (2) share the working mode but not the det(A) sign,
    # so the straight segment between them crosses a parallel singularity.
    spec = PathSpec(waypoints=(posture(1), posture(2)), mode=MODE, samples_per_segment=200)
    result = monitor(ref_geom, spec)
    assert result.verdict == VERDICT_SINGULAR
    assert result.offending_t is not None
    assert 0.0 < result.offending_t <= 1.0


#: A mode-D path of the default geometry whose det(A) changes sign near
#: t = 0.48 and back before t = 1, so both end samples share a sign.
EXCURSION = (Pose(-0.01797018, 4.28208847, 0.13077056), Pose(-0.58335833, 5.19348287, -0.14556115))


@pytest.mark.xfail(
    strict=True,
    reason="the monitor judges the samples only: two samples miss the det(A) sign "
    "excursion between them",
)
def test_sign_excursion_between_two_samples_is_caught(default_geom):
    result = monitor(default_geom, PathSpec(EXCURSION, WorkingMode.D, samples_per_segment=2))
    assert result.verdict == VERDICT_SINGULAR


def test_sign_excursion_is_caught_at_a_middle_sample(default_geom):
    result = monitor(default_geom, PathSpec(EXCURSION, WorkingMode.D, samples_per_segment=3))
    assert result.verdict == VERDICT_SINGULAR
    assert result.offending_t == 0.5


def test_unreachable_sample_aborts(ref_geom):
    spec = PathSpec(
        waypoints=(posture(1), Pose(30.0, 0.0, 0.0)), mode=MODE, samples_per_segment=50
    )
    with pytest.raises(UnreachableSampleError) as err:
        monitor(ref_geom, spec)
    assert 0.0 <= err.value.t <= 1.0


def test_first_unreachable_sample_mid_path(ref_geom):
    # The path leaves the workspace part way along; the error names the
    # first unreachable sample in path order and its lowest failing leg.
    spec = PathSpec(
        waypoints=(posture(1), Pose(30.0, 0.0, 0.0)), mode=MODE, samples_per_segment=50
    )
    expect = None
    for k, pose in enumerate(interpolate(spec)):
        joints = oracles.platform_joints(ref_geom, pose.x, pose.y, pose.theta)
        out = [
            i + 1
            for i, ((cx, cy), phi) in enumerate(zip(joints, ref_geom.base_phase))
            if math.hypot(cx - ref_geom.r * math.cos(phi), cy - ref_geom.r * math.sin(phi))
            >= ref_geom.l + ref_geom.m
        ]
        if out:
            expect = (k / 49, out[0])
            break
    assert expect is not None and 0.0 < expect[0] < 1.0
    with pytest.raises(UnreachableSampleError) as err:
        monitor(ref_geom, spec)
    assert isinstance(err.value.cause, UnreachableError)
    assert (err.value.t, err.value.cause.leg) == expect


def test_sample_on_reach_boundary_aborts(default_geom):
    # At (0, -7, 0) leg 1 of the default geometry is stretched exactly to
    # l + m = 12; the via waypoint is sampled exactly at t = 0.5.
    spec = PathSpec(
        waypoints=(Pose(0.0, -5.0, 0.0), Pose(0.0, -7.0, 0.0), Pose(0.0, -5.0, 0.0)),
        mode=WorkingMode.A,
        samples_per_segment=50,
    )
    with pytest.raises(UnreachableSampleError) as err:
        monitor(default_geom, spec)
    assert isinstance(err.value.cause, SerialBoundaryError)
    assert err.value.cause.leg == 1
    assert err.value.t == 0.5


def test_fold_sample_aborts(ref_geom):
    # The via waypoint puts leg 1's platform joint 1e-6 from its base joint,
    # where the elbow angles miss loop closure by 4.4e-9: the leg status
    # refuses it (this was an untyped ValueError).
    fold = Pose(-5.262325670470374, -1.3320179042132647, math.radians(17.188733853924695))
    side = Pose(-5.0, -1.0, math.radians(20.0))
    spec = PathSpec(waypoints=(side, fold, side), mode=WorkingMode.A, samples_per_segment=5)
    with pytest.raises(UnreachableSampleError) as err:
        monitor(ref_geom, spec)
    assert isinstance(err.value.cause, SerialBoundaryError)
    assert err.value.cause.leg == 1
    assert err.value.t == 0.5


def test_eps_enters_no_reach_test_of_the_monitor(ref_geom):
    # Leg 3 of the end pose lies 1.2 length units inside its reach circle,
    # where a reach band of eps * (l + m) used to raise UnreachableSampleError.
    end = Pose(-0.2614224488658774, -0.9676856478756761, math.radians(73.47495524197308))
    spec = PathSpec((Pose(0.0, -1.2, math.radians(60.0)), end), MODE, 50)
    assert monitor(ref_geom, spec).verdict == VERDICT_NON_SINGULAR
    result = monitor(ref_geom, spec, eps=0.1)
    assert result.verdict == VERDICT_SINGULAR
    assert result.min_abs_det_scaled < 0.1


def _jittered_spec(spp) -> PathSpec:
    offsets = ((0.03, -0.04, 1.5), (-0.05, 0.02, -2.0), (0.04, 0.05, 0.7))
    waypoints = tuple(
        Pose(p.x + dx, p.y + dy, p.theta + math.radians(dt))
        for p, (dx, dy, dt) in zip(_benchmark_spec(spp).waypoints, offsets)
    )
    return PathSpec(waypoints=waypoints, mode=MODE, samples_per_segment=spp)


@pytest.mark.parametrize("make_spec", [_benchmark_spec, _jittered_spec])
def test_monitor_matches_scalar_oracle(ref_geom, make_spec):
    # The profile and evidence files are byte-identical artifacts, so the
    # array kernel must give the per-sample scalar solver's floats exactly.
    result = monitor(ref_geom, make_spec(2500))
    fields = ("x", "y", "theta", "alpha1", "alpha2", "alpha3", "det_a", "b11", "b22", "b33")
    min_scaled = math.inf
    for x, y, theta, *row in zip(*(result.records[name].tolist() for name in fields)):
        alpha, det, b_diag, scale = oracles.scalar_leg_solution(ref_geom, x, y, theta, MODE.signs)
        assert tuple(row) == (*alpha, det, *b_diag)
        min_scaled = min(min_scaled, abs(det) / scale)
    assert result.min_abs_det_scaled == min_scaled


def test_profile_export(ref_geom, tmp_path):
    result = monitor(ref_geom, _benchmark_spec(spp=20))
    path = tmp_path / "profile.csv"
    write_profile(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == PROFILE_HEADER
    assert len(lines) == 1 + len(result.records)
    rows = list(csv.reader(lines[1:]))
    assert all(len(r) == 15 for r in rows)
    # Deterministic output.
    path2 = tmp_path / "profile2.csv"
    write_profile(monitor(ref_geom, _benchmark_spec(spp=20)), path2)
    assert path.read_bytes() == path2.read_bytes()


#: The ends of the profile kernel's domain [1e-4, 1e8) and of nine-digit rounding.
PROFILE_EDGES = (9.9999999995e-5, 1e-4, 99999999.5, 1e8, 999999999.5, 1e9)


def _with_neighbours(x: float) -> tuple[float, float, float]:
    return (x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf))


def _percent_g_rows(columns) -> bytes:
    """What the kernel must return: each row led by a newline, every cell "%.9g"."""
    rows = zip(*(col.tolist() for col in columns))
    return "".join("\n" + ",".join("%.9g" % x for x in row) for row in rows).encode("ascii")


def _near_tie(m: int, k: int) -> float:
    """The double nearest to the 10-digit decimal m (ending in 5) times 10**(k - 9)."""
    return float(f"{m}e{k - 9}")


bit_floats = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
near_ties = st.builds(
    lambda m, k, i: _with_neighbours(_near_tie(10 * m + 5, k))[i],
    st.integers(10**8, 10**9 - 1),
    st.integers(-12, 5),
    st.integers(0, 2),
)
edges = st.builds(lambda x, i: _with_neighbours(x)[i], st.sampled_from(PROFILE_EDGES), st.integers(0, 2))
cells = st.builds(lambda x, neg: -x if neg else x, st.one_of(bit_floats, near_ties, edges), st.booleans())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=st.lists(cells, min_size=1, max_size=60), cols=st.integers(1, 15))
def test_profile_kernel_matches_percent_g(values, cols):
    cols = min(cols, len(values))
    table = np.array(values[: len(values) // cols * cols]).reshape(-1, cols)
    assert _csv_bytes(list(table.T)) == _percent_g_rows(list(table.T))


def test_profile_kernel_matches_percent_g_on_a_million_values():
    # Random bit patterns (subnormals, zeros, NaN and infinities among them),
    # log-uniform magnitudes across the domain and constructed near-ties with
    # both neighbours, in chunks of 15 columns.
    rng = np.random.default_rng(32)
    m = rng.integers(10**8, 10**9, 170_000) * 10 + 5
    k = rng.integers(-12, 6, m.size)
    ties = np.array([_near_tie(*mk) for mk in zip(m.tolist(), k.tolist())])
    values = np.concatenate([
        rng.integers(0, 2**64, 250_000, dtype=np.uint64).view(np.float64),
        10.0 ** rng.uniform(-5.0, 9.5, 250_000),
        ties,
        np.nextafter(ties, np.inf),
        np.nextafter(ties, -np.inf),
    ])
    values.view(np.uint64)[rng.random(values.size) < 0.5] ^= np.uint64(1 << 63)
    assert values.size >= 1_000_000
    for chunk in np.array_split(values[: values.size // 15 * 15].reshape(-1, 15), 20):
        columns = list(chunk.T)
        assert _csv_bytes(columns) == _percent_g_rows(columns)


@pytest.mark.parametrize("rows", [0, 1, 2 * _PROFILE_BLOCK + 7])
def test_write_profile_matches_the_row_oracle(tmp_path, rows):
    rng = np.random.default_rng(rows)
    special = [y for x in PROFILE_EDGES for y in _with_neighbours(x)]
    special += [0.0, 5e-324, np.inf, np.nan, 1.2345678e-100, 1.0, 100.0, 12345678.0]
    special += [_near_tie(1234567895, k) for k in range(-12, 6)]
    pool = np.concatenate([special, -np.array(special), rng.normal(0.0, 50.0, 64)])
    table = rng.choice(pool, size=(rows, 15))
    table.ravel()[: min(pool.size, table.size)] = pool[: table.size]
    table[:, 3] = rng.uniform(-math.pi, math.pi, rows)  # theta is written in degrees
    result = MonitorResult(
        geom=GeometryConfig(),
        eps=EPS_SING,
        mode=MODE,
        records=np.rec.fromarrays(list(table.T), names=RECORD_FIELDS),
        verdict=VERDICT_NON_SINGULAR,
        offending_t=None,
        min_abs_det_scaled=1.0,
        min_abs_b=1.0,
        det_sign=1,
    )
    write_profile(result, tmp_path / "blocks.csv")
    oracles.write_profile_rows(result, tmp_path / "rows.csv", PROFILE_HEADER)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_verify_assembly_mode_change_benchmark(ref_geom, atlas):
    path = monitor(ref_geom, _benchmark_spec())
    evidence = verify_assembly_mode_change(atlas, path)
    assert evidence.verdict == VERDICT_CHANGE
    assert evidence.shared_alpha and evidence.alpha_gap < 1e-4
    assert evidence.in_same_aspect
    assert path.verdict == VERDICT_NON_SINGULAR
    # The shared actuated input is the benchmark joint triple.
    for got, want in zip(evidence.alpha, ALPHA_REF):
        assert abs(angle_difference(got, want)) < 1e-6


def test_verify_rejects_identical_poses(ref_geom, atlas):
    path = monitor(ref_geom, PathSpec(waypoints=(posture(1), posture(1)), mode=MODE))
    with pytest.raises(ValueError):
        verify_assembly_mode_change(atlas, path)


def test_verify_posture_pair_1_2_fails(ref_geom, atlas):
    # Same working mode, opposite det(A) sign: the aspect check fails (and
    # the monitored path is singular), so no change is demonstrated.
    path = monitor(ref_geom, PathSpec(waypoints=(posture(1), posture(2)), mode=MODE))
    evidence = verify_assembly_mode_change(atlas, path)
    assert evidence.verdict == VERDICT_NO_CHANGE
    assert not evidence.in_same_aspect
    assert path.verdict == VERDICT_SINGULAR


def _forbid_resolves(monkeypatch):
    # Replace every binding of the one-pose solvers in every loaded module.
    targets = tuple(
        getattr(importlib.import_module(f"planar3rrr.{name}"), attr)
        for name, attr in (("kinematics", "inverse_kinematics"), ("jacobians", "jacobians"))
    )

    def refuse(*args, **kwargs):
        raise AssertionError("the end samples were solved again")

    for module in list(sys.modules.values()):
        if module is None or not module.__name__.startswith("planar3rrr"):
            continue
        for name, value in list(vars(module).items()):
            if any(value is target for target in targets):
                monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize(
    "waypoints", [(posture(1), _via(), posture(4)), (posture(1), posture(2))], ids=["bench", "1-2"]
)
def test_verify_reads_the_monitored_records(ref_geom, atlas, monkeypatch, waypoints):
    # The evidence equals what solving the two end poses again gives, but
    # comes from the monitor's records alone.
    path = monitor(ref_geom, PathSpec(waypoints=waypoints, mode=MODE))
    cfg_a, cfg_b = (inverse_kinematics(ref_geom, p, MODE) for p in (waypoints[0], waypoints[-1]))
    gap = max(abs(angle_difference(a, b)) for a, b in zip(cfg_a.alpha, cfg_b.alpha))
    try:
        in_same = same_aspect(atlas, cfg_a, cfg_b)
    except ModeMismatchError:
        in_same = False
    _forbid_resolves(monkeypatch)
    evidence = verify_assembly_mode_change(atlas, path)
    assert evidence.alpha == cfg_a.alpha
    assert evidence.alpha_gap == gap
    assert evidence.shared_alpha == (gap <= 1e-4)
    assert evidence.in_same_aspect == in_same
    change = evidence.shared_alpha and in_same and path.verdict == VERDICT_NON_SINGULAR
    assert evidence.verdict == (VERDICT_CHANGE if change else VERDICT_NO_CHANGE)
    assert evidence.verdict == (VERDICT_CHANGE if len(waypoints) == 3 else VERDICT_NO_CHANGE)


@pytest.mark.parametrize(
    "geom",
    [dataclasses.replace(GeometryConfig.reference(), s=5.2), GeometryConfig()],
    ids=["s=5.2", "default"],
)
def test_verify_refuses_a_path_on_another_geometry(geom, atlas):
    # Against the reference atlas, the s = 5.2 path was "ChangeDemonstrated"
    # and the default-geometry path raised a bare KeyError.
    path = monitor(geom, _benchmark_spec())
    assert path.geom == geom
    with pytest.raises(ValueError, match="the path is on .*, the atlas on"):
        verify_assembly_mode_change(atlas, path)


def test_an_atlas_without_the_pair_is_refused(ref_geom):
    # Both used to raise a bare KeyError.
    atlas_a = enumerate_aspects(ref_geom, depth=4, modes=[WorkingMode.A], det_signs=(1,))
    message = r"atlas has no mode c, sign \+1; it has a\+1"
    with pytest.raises(ValueError, match=message):
        characteristic_surface(atlas_a, MODE, 1, 0)
    with pytest.raises(ValueError, match=message):
        verify_assembly_mode_change(atlas_a, monitor(ref_geom, _benchmark_spec(50)))


def test_verify_refuses_an_end_inside_the_margin(ref_geom, atlas):
    # |det(A)| / scale is 0.031 at posture (1): an eps above it makes that end
    # parallel singular, while its legs stay clear of the reach boundaries.
    path = monitor(ref_geom, _benchmark_spec(), eps=0.1)
    with pytest.raises(ParallelSingularError):
        verify_assembly_mode_change(atlas, path)
