"""Pose-space paths, singularity-margin monitoring and mode-change evidence.

The monitor keeps a path's samples as arrays from the sampling to the
profile export: ``_segment_samples`` gives the sample columns, one
``batch.solve_legs`` call solves them all, and ``MonitorResult.records`` is
a numpy record array with one row per sample and one field per profile
column (``RECORD_FIELDS``), which ``write_profile`` formats row by row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import batch
from .aspects import AspectAtlas, _same_component
from .errors import ModeMismatchError, UnreachableSampleError
from .geometry import (
    EPS_SING,
    LOOP_TOL,
    GeometryConfig,
    Pose,
    WorkingMode,
    angle_difference,
    wrap_angles,
)

VERDICT_NON_SINGULAR = "NonSingular"
VERDICT_SINGULAR = "Singular"
VERDICT_CHANGE = "ChangeDemonstrated"
VERDICT_NO_CHANGE = "NotDemonstrated"

#: Largest actuated-angle gap (radians) at which two poses share one input.
ALPHA_TOL = 1e-4

#: CSV header of the profile export (9-significant-digit %.9g cells).
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
        if self.samples_per_segment < 2:
            raise ValueError("samples_per_segment must be at least 2")


@dataclass(frozen=True)
class MonitorResult:
    """A monitored path: ``records`` is a record array of ``RECORD_FIELDS``, one row per sample."""

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

    Every sample is solved in one ``batch.solve_legs`` call. The verdict is
    NonSingular when every sign stays constant and the scaled margins stay
    above ``eps`` at all samples; otherwise ``offending_t`` is the first
    sample where a sign differs from the first sample's or a margin is at
    most ``eps``. The first failing sample aborts with
    UnreachableSampleError wrapping the error of its lowest failing leg; a
    sample whose legs violate loop closure by more than LOOP_TOL raises
    ValueError, as FullConfiguration does.
    """
    t, x, y, theta = _segment_samples(spec)
    legs = batch.solve_legs(geom, x, y, theta, spec.mode, eps)
    failed = (legs.status != batch.LEG_OK).any(axis=1)
    loose = legs.loop_gap > LOOP_TOL
    bad = np.flatnonzero(failed | loose.any(axis=1))
    if bad.size:
        k = int(bad[0])
        if failed[k]:
            cause = legs.error(k)
            raise UnreachableSampleError(float(t[k]), cause) from cause
        i = int(np.argmax(loose[k]))
        raise ValueError(
            f"path sample at t = {t[k]:.9g}: leg {i + 1} violates loop closure "
            f"by {legs.loop_gap[k, i]:.3g}"
        )

    det = legs.det
    b = legs.b_diag
    records = np.rec.fromarrays(
        (t, x, y, theta, *legs.alpha.T, det, *b.T, _normalized(det), *_normalized(b).T),
        names=RECORD_FIELDS,
    )
    det_scaled = np.abs(det) / legs.scale
    flip = ((det < 0.0) != (det[0] < 0.0)) | ((b < 0.0) != (b[0] < 0.0)).any(axis=1)
    weak = (det_scaled <= eps) | (np.abs(b) <= eps).any(axis=1)
    bad = np.flatnonzero(flip | weak)
    return MonitorResult(
        mode=spec.mode,
        records=records,
        verdict=VERDICT_SINGULAR if bad.size else VERDICT_NON_SINGULAR,
        offending_t=float(t[bad[0]]) if bad.size else None,
        min_abs_det_scaled=float(det_scaled.min()),
        min_abs_b=float(np.abs(b).min()),
        det_sign=1 if det[0] > 0.0 else -1,
    )


def write_profile(result: MonitorResult, path) -> None:
    """CSV export of the monitored profile."""
    rec = result.records
    cols = [np.degrees(rec.theta) if name == "theta" else rec[name] for name in rec.dtype.names]
    row = ",".join(["%.9g"] * len(cols)) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(PROFILE_HEADER + "\n")
        fh.writelines(row % cells for cells in zip(*(col.tolist() for col in cols)))


@dataclass(frozen=True)
class ChangeEvidence:
    """Outcome of the mode-change checks; the monitor's verdict and margins stay on its result."""

    verdict: str
    shared_alpha: bool
    alpha_gap: float
    alpha: tuple[float, float, float]
    in_same_aspect: bool


def verify_assembly_mode_change(
    geom: GeometryConfig,
    atlas: AspectAtlas,
    path: MonitorResult,
    eps: float = EPS_SING,
) -> ChangeEvidence:
    """Demonstrate a non-singular assembly-mode change along a monitored path.

    The change is between the first and the last sample of ``path``, in its
    working mode, and is read from the monitored records: nothing is solved
    again. All three checks must hold: the two poses share the actuated
    input within ``ALPHA_TOL``; they lie in the same aspect component; the
    path was monitored NonSingular. An end sample whose margins are below
    ``eps`` raises SerialSingularError or ParallelSingularError; the reach
    tests are the monitor's, made with the ``eps`` it was given.
    """
    rec = path.records[[0, -1]]
    pose_a, pose_b = (Pose(*p) for p in zip(rec.x.tolist(), rec.y.tolist(), rec.theta.tolist()))
    if pose_a.distance(pose_b) < 1e-12:
        raise ValueError("the path must end at a pose other than its first")
    alpha_a, alpha_b = zip(*(rec[f"alpha{i}"].tolist() for i in (1, 2, 3)))
    alpha_gap = max(abs(angle_difference(a, b)) for a, b in zip(alpha_a, alpha_b))
    shared = alpha_gap <= ALPHA_TOL
    poses = (pose_a.as_tuple(), pose_b.as_tuple())
    try:
        in_same = _same_component(geom, atlas, (alpha_a, alpha_b), poses, eps)
    except ModeMismatchError:
        in_same = False

    ok = shared and in_same and path.verdict == VERDICT_NON_SINGULAR
    return ChangeEvidence(
        verdict=VERDICT_CHANGE if ok else VERDICT_NO_CHANGE,
        shared_alpha=shared,
        alpha_gap=alpha_gap,
        alpha=alpha_a,
        in_same_aspect=in_same,
    )
