"""Pose-space paths, singularity-margin monitoring and mode-change evidence.

The monitor keeps a path's samples as arrays from the sampling to the
profile export: ``_segment_samples`` gives the sample columns, one
``batch.solve_legs`` call solves them all, and ``MonitorResult.records`` is
a numpy record array with one row per sample and one field per profile
column (``RECORD_FIELDS``), which ``write_profile`` writes in blocks of rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import batch
from .aspects import AspectAtlas, same_component
from .errors import ModeMismatchError, UnreachableSampleError
from .geometry import (
    EPS_SING,
    GeometryConfig,
    Pose,
    WorkingMode,
    angle_difference,
    pose_gaps,
    wrap_angles,
)

VERDICT_NON_SINGULAR = "NonSingular"
VERDICT_SINGULAR = "Singular"
VERDICT_CHANGE = "ChangeDemonstrated"
VERDICT_NO_CHANGE = "NotDemonstrated"

#: Largest actuated-angle gap (radians) at which two poses share one input.
ALPHA_TOL = 1e-4

#: CSV header of the profile export; every cell is Python's "%.9g" of the value.
PROFILE_HEADER = "t,x,y,theta_deg,alpha1,alpha2,alpha3,detA,B11,B22,B33,detA_n,B11_n,B22_n,B33_n"

#: Fields of a monitor record, one per profile column; theta is in radians.
RECORD_FIELDS = "t,x,y,theta,alpha1,alpha2,alpha3,det_a,b11,b22,b33,det_a_n,b11_n,b22_n,b33_n"


@dataclass(frozen=True)
class PathSpec:
    """Piecewise-linear pose path: linear x, y and shortest-arc theta."""

    waypoints: tuple[Pose, ...]
    mode: WorkingMode
    samples_per_segment: int = 500

    def __post_init__(self):
        object.__setattr__(self, "waypoints", tuple(self.waypoints))
        if len(self.waypoints) < 2:
            raise ValueError("a path needs at least two waypoints")
        bad = [w for w in self.waypoints if not isinstance(w, Pose)]
        if bad:
            raise TypeError(f"waypoints must be Pose values, got {bad[0]!r}")
        if not isinstance(self.mode, WorkingMode):
            raise TypeError(f"mode must be a WorkingMode, got {self.mode!r}")
        n = self.samples_per_segment
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 2:
            raise ValueError(f"samples_per_segment must be an integer of at least 2, got {n!r}")


@dataclass(frozen=True)
class MonitorResult:
    """A path monitored on ``geom`` at ``eps``: one ``RECORD_FIELDS`` record per sample."""

    geom: GeometryConfig
    eps: float
    mode: WorkingMode
    records: np.recarray
    verdict: str
    offending_t: float | None
    min_abs_det_scaled: float
    min_abs_b: float
    det_sign: int


def _segment_samples(spec: PathSpec):
    """Global parameters and poses (t, x, y, theta) of the samples, as arrays.

    Waypoints are reproduced bit-exactly; theta is wrapped to (-pi, pi].
    """
    w = spec.waypoints
    nseg = len(w) - 1
    u = np.arange(spec.samples_per_segment) / (spec.samples_per_segment - 1)
    inner = u[1:-1]
    # Segment j > 0 shares its first sample with the previous endpoint.
    t = [(j + (u[1:] if j else u)) / nseg for j in range(nseg)]
    x, y, theta = [w[0].x], [w[0].y], [w[0].theta]
    for a, b in zip(w, w[1:]):
        x += [a.x + inner * (b.x - a.x), b.x]
        y += [a.y + inner * (b.y - a.y), b.y]
        theta += [wrap_angles(a.theta + inner * angle_difference(b.theta, a.theta)), b.theta]
    return tuple(np.hstack(col) for col in (t, x, y, theta))


def interpolate(spec: PathSpec) -> list[Pose]:
    """Sampled poses of the path."""
    _, x, y, theta = _segment_samples(spec)
    return [Pose(*v) for v in zip(x.tolist(), y.tolist(), theta.tolist())]


def _normalized(v: np.ndarray) -> np.ndarray:
    """v over its largest magnitude, or zeros when v vanishes."""
    mx = np.abs(v).max(axis=0)
    return np.where(mx > 0.0, v / np.where(mx > 0.0, mx, 1.0), 0.0)


def monitor(geom: GeometryConfig, spec: PathSpec, eps: float = EPS_SING) -> MonitorResult:
    """Track det(A) and B_ii along the path in the path's working mode.

    One ``batch.solve_legs`` call solves every sample, one ``batch.classify``
    call classifies them. The verdict is NonSingular when every sample keeps
    the first sample's working mode and det(A) sign and none is serial- or
    parallel-singular; otherwise ``offending_t`` is the first sample where
    this fails; ``eps`` enters nothing else. The first sample with a leg that
    ``solve_legs`` does not call LEG_OK aborts with UnreachableSampleError
    wrapping ``LegSolution.error``, the only refusal.
    """
    t, x, y, theta = _segment_samples(spec)
    legs = batch.solve_legs(geom, x, y, theta, spec.mode)
    bad = np.flatnonzero((legs.status != batch.LEG_OK).any(axis=1))
    if bad.size:
        cause = legs.error(int(bad[0]))
        raise UnreachableSampleError(float(t[bad[0]]), cause) from cause

    det = legs.det
    b = legs.b_diag
    records = np.rec.fromarrays(
        (t, x, y, theta, *legs.alpha.T, det, *b.T, _normalized(det), *_normalized(b).T),
        names=RECORD_FIELDS,
    )
    mode_idx, det_sign, serial, parallel = batch.classify(det, b, legs.scale, eps)
    flip = (mode_idx != mode_idx[0]) | (det_sign != det_sign[0])
    bad = np.flatnonzero(flip | serial.any(axis=1) | parallel)
    return MonitorResult(
        geom=geom,
        eps=eps,
        mode=spec.mode,
        records=records,
        verdict=VERDICT_SINGULAR if bad.size else VERDICT_NON_SINGULAR,
        offending_t=float(t[bad[0]]) if bad.size else None,
        min_abs_det_scaled=float((np.abs(det) / legs.scale).min()),
        min_abs_b=float(np.abs(b).min()),
        det_sign=int(det_sign[0]),
    )


#: Rows per block of the profile writer (blocks of 512-1024 rows wrote fastest).
_PROFILE_BLOCK = 512
_POW10 = np.array([float(10**k) for k in range(14)])
#: Entry 2000 * p + 1000 * last + k: the digits "%03d" % k with a point after p of them (p = 0:
#: the group follows the point, 4: it has none), NUL-padded to a word. A last group ends the
#: number, so its zeros after the point are stripped, then a bare point, as %g does.
_GROUP_WORDS = np.array(
    [w.rstrip(b"0").rstrip(b".") if last and p < 4 else w
     for p in range(5)
     for words in [[t[:p] + b"." * (0 < p < 4) + t[p:] for t in map(b"%03d".__mod__, range(1000))]]
     for last in (0, 1) for w in words],
    "S4",
).view(np.uint32)
#: Row j, entry x + 4: the first _GROUP_WORDS entry of digit group j at exponent x.
_GROUP_BASE = np.array([[2000 * (4 if x == 8 else min(max(x + 1 - 3 * j, 0), 4))
                         for x in range(-4, 9)] for j in range(3)])
#: Entry 4 * (x + 4) + 2 * negative + first: separator ("\n" for a row's first), sign, "0.000".
_PREFIX_WORDS = np.array(
    [(sep + sign + ("0." + "0" * (-x - 1) if x < 0 else "")).encode()
     for x in range(-4, 9) for sign in ("", "-") for sep in (",", "\n")], "S8"
).view(np.uint32).reshape(-1, 2).T.copy()


def _csv_bytes(columns: list[np.ndarray]) -> bytes:
    """Equal-length columns as CSV rows, each led by its newline, cells as "%.9g" writes them.

    A cell with 1e-4 <= |v| < 1e8 is scaled to y = |v| * 10**(8 - e) in [1e8, 1e9), with
    e = floor(log10|v|) fixed up once. The power is exact, so y is off by at most 2**-24
    and rint(y) holds the nine digits unless y is within 2**-20 of a tie; those cells
    and all others take Python's "%.9g". A cell is two prefix words and three digit groups.
    """
    v = np.stack(columns, axis=1, dtype=np.float64).ravel()
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e8)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    y = a * _POW10[8 - e]
    e += y >= 1e9
    e -= y < 1e8
    y = a * _POW10[8 - e]
    n = np.rint(y).astype(np.intp)
    fast &= np.abs(y - n) < 0.5 - 2.0**-20
    e += n == 10**9
    n[n == 10**9] = 10**8
    fast &= (e >= -4) & (e <= 8)
    e = np.where(fast, e + 4, 4)
    key = 4 * e + 2 * (np.signbit(v) & fast)
    key.reshape(-1, len(columns))[:, 0] += 1
    cells = np.empty((v.size, 5), np.uint32)
    cells[:, 0], cells[:, 1] = _PREFIX_WORDS[0][key], _PREFIX_WORDS[1][key]
    hi, mid = n // 1000000, n // 1000
    lo, mid = n - 1000 * mid, mid - 1000 * hi
    for j, (k, last) in enumerate(zip((hi, mid, lo), ((lo == 0) & (mid == 0), lo == 0, 1))):
        cells[:, 2 + j] = _GROUP_WORDS[_GROUP_BASE[j][e] + 1000 * last + k]
    text = ["%.9g" % x for x in v[~fast].tolist()]
    cells[~fast, 1:] = np.array(text, "S16").view(np.uint32).reshape(-1, 4)
    return cells.tobytes().translate(None, b"\0")


def write_profile(result: MonitorResult, path) -> None:
    """CSV export of the monitored profile, written in blocks of rows."""
    rec = result.records
    cols = [np.degrees(rec.theta) if name == "theta" else rec[name] for name in rec.dtype.names]
    with open(path, "wb") as fh:
        fh.write(PROFILE_HEADER.encode("ascii"))
        for i in range(0, len(rec), _PROFILE_BLOCK):
            fh.write(_csv_bytes([col[i : i + _PROFILE_BLOCK] for col in cols]))
        fh.write(b"\n")


@dataclass(frozen=True)
class ChangeEvidence:
    """Outcome of the mode-change checks; the monitor's verdict and margins stay on its result."""

    verdict: str
    shared_alpha: bool
    alpha_gap: float
    alpha: tuple[float, float, float]
    in_same_aspect: bool
    distinct_poses: bool


def verify_assembly_mode_change(atlas: AspectAtlas, path: MonitorResult) -> ChangeEvidence:
    """Demonstrate a non-singular assembly-mode change along a monitored path.

    The change is between the first and the last sample of ``path``, in its
    working mode; the ends' poses and inputs are read from the monitored
    records. All four checks must hold: the ends share the actuated input
    within ``ALPHA_TOL``; their nearest poses (``geometry.pose_gaps``) of one
    ``batch.fk_roots`` call on the first input are two distinct poses; they
    lie in the same aspect component; the path was monitored NonSingular.
    Ends that are ``batch.same_pose`` raise ValueError, and so does a path on
    another geometry. An end sample whose margins are below ``path.eps``
    raises SerialSingularError or ParallelSingularError; the reach tests are
    the monitor's.
    """
    if path.geom != atlas.geom:
        raise ValueError(f"the path is on {path.geom}, the atlas on {atlas.geom}")
    rec = path.records[[0, -1]]
    ends = [Pose(*p).as_tuple() for p in zip(rec.x.tolist(), rec.y.tolist(), rec.theta.tolist())]
    if batch.same_pose(*ends[0], *ends[1]):
        raise ValueError("the path must end at a pose other than its first")
    alpha_a, alpha_b = zip(*(rec[f"alpha{i}"].tolist() for i in (1, 2, 3)))
    alpha_gap = max(abs(angle_difference(a, b)) for a, b in zip(alpha_a, alpha_b))
    shared = alpha_gap <= ALPHA_TOL
    try:
        in_same = same_component(atlas, (alpha_a, alpha_b), ends, path.eps)
    except ModeMismatchError:
        in_same = False
    _, x, y, theta = batch.fk_roots(path.geom, alpha_a)
    nearest = [int(np.argmin(pose_gaps(x, y, theta, *end))) for end in ends] if x.size else [0, 0]
    distinct = nearest[0] != nearest[1]

    ok = shared and distinct and in_same and path.verdict == VERDICT_NON_SINGULAR
    return ChangeEvidence(
        verdict=VERDICT_CHANGE if ok else VERDICT_NO_CHANGE,
        shared_alpha=shared,
        alpha_gap=alpha_gap,
        alpha=alpha_a,
        in_same_aspect=in_same,
        distinct_poses=distinct,
    )
