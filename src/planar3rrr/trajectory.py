"""Pose-space paths, singularity-margin monitoring and mode-change evidence."""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import batch
from .aspects import AspectAtlas, same_aspect
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
from .kinematics import inverse_kinematics

VERDICT_NON_SINGULAR = "NonSingular"
VERDICT_SINGULAR = "Singular"
VERDICT_CHANGE = "ChangeDemonstrated"
VERDICT_NO_CHANGE = "NotDemonstrated"

#: CSV header of the profile export (9-significant-digit %.9g cells).
PROFILE_HEADER = "t,x,y,theta_deg,alpha1,alpha2,alpha3,detA,B11,B22,B33,detA_n,B11_n,B22_n,B33_n"


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


@dataclass(frozen=True, slots=True)
class SampleRecord:
    t: float
    pose: Pose
    alpha: tuple[float, float, float]
    det_a: float
    b11: float
    b22: float
    b33: float
    det_a_n: float
    b11_n: float
    b22_n: float
    b33_n: float


@dataclass(frozen=True)
class MonitorResult:
    mode: WorkingMode
    records: tuple[SampleRecord, ...]
    verdict: str
    offending_t: float | None
    min_abs_det_scaled: float
    min_abs_b: float
    det_sign: int


@contextmanager
def _no_cyclic_gc():
    """Pause the cyclic collector while a path's poses and records are built.

    A dense path allocates a few hundred thousand container objects, none
    of them in a reference cycle; without the pause the collector rescans
    the growing heap several times per path, about a quarter of the
    monitor's time on a 27k-sample path.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _segment_samples(spec: PathSpec):
    """Global parameters and poses; waypoints are reproduced bit-exactly."""
    nseg = len(spec.waypoints) - 1
    spp = spec.samples_per_segment
    u = np.arange(spp) / (spp - 1)
    inner = u[1:-1]
    ts = []
    poses = [spec.waypoints[0]]
    for j in range(nseg):
        a = spec.waypoints[j]
        b = spec.waypoints[j + 1]
        dth = angle_difference(b.theta, a.theta)
        # Segment j > 0 shares its first sample with the previous endpoint.
        ts.extend(((j + (u[1:] if j else u)) / nseg).tolist())
        poses.extend(
            Pose.from_arrays(
                a.x + inner * (b.x - a.x),
                a.y + inner * (b.y - a.y),
                wrap_angles(a.theta + inner * dth),
            )
        )
        poses.append(b)
    return ts, poses


def interpolate(spec: PathSpec) -> list[Pose]:
    """Sampled poses of the path."""
    return _segment_samples(spec)[1]


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
    with _no_cyclic_gc():
        ts, poses = _segment_samples(spec)
    x = np.array([p.x for p in poses])
    y = np.array([p.y for p in poses])
    theta = np.array([p.theta for p in poses])
    legs = batch.solve_legs(geom, x, y, theta, spec.mode, eps)
    failed = (legs.status != batch.LEG_OK).any(axis=1)
    loose = legs.loop_gap > LOOP_TOL
    bad = np.flatnonzero(failed | loose.any(axis=1))
    if bad.size:
        k = int(bad[0])
        if failed[k]:
            cause = legs.error(k)
            raise UnreachableSampleError(ts[k], cause) from cause
        i = int(np.argmax(loose[k]))
        raise ValueError(
            f"path sample at t = {ts[k]:.9g}: leg {i + 1} violates loop closure "
            f"by {legs.loop_gap[k, i]:.3g}"
        )

    det = legs.det
    b = legs.b_diag
    det_n = _normalized(det)
    b_n = _normalized(b)
    with _no_cyclic_gc():
        records = tuple(
            map(
                SampleRecord,
                ts,
                poses,
                map(tuple, legs.alpha.tolist()),
                det.tolist(),
                *b.T.tolist(),
                det_n.tolist(),
                *b_n.T.tolist(),
            )
        )

    det_scaled = np.abs(det) / legs.scale
    flip = ((det < 0.0) != (det[0] < 0.0)) | ((b < 0.0) != (b[0] < 0.0)).any(axis=1)
    weak = (det_scaled <= eps) | (np.abs(b) <= eps).any(axis=1)
    bad = np.flatnonzero(flip | weak)
    return MonitorResult(
        mode=spec.mode,
        records=records,
        verdict=VERDICT_SINGULAR if bad.size else VERDICT_NON_SINGULAR,
        offending_t=ts[bad[0]] if bad.size else None,
        min_abs_det_scaled=float(det_scaled.min()),
        min_abs_b=float(np.abs(b).min()),
        det_sign=1 if det[0] > 0.0 else -1,
    )


def write_profile(result: MonitorResult, path) -> None:
    """CSV export of the monitored profile."""
    row = ",".join(["%.9g"] * len(PROFILE_HEADER.split(","))) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(PROFILE_HEADER + "\n")
        for r in result.records:
            cells = (
                r.t,
                r.pose.x,
                r.pose.y,
                math.degrees(r.pose.theta),
                r.alpha[0],
                r.alpha[1],
                r.alpha[2],
                r.det_a,
                r.b11,
                r.b22,
                r.b33,
                r.det_a_n,
                r.b11_n,
                r.b22_n,
                r.b33_n,
            )
            fh.write(row % cells)


@dataclass(frozen=True)
class ChangeEvidence:
    """Outcome of the three assembly-mode-change checks."""

    verdict: str
    shared_alpha: bool
    alpha_gap: float
    alpha: tuple[float, float, float]
    in_same_aspect: bool
    aspect_note: str
    monitor_verdict: str
    min_abs_det_scaled: float
    min_abs_b: float
    det_sign: int


def verify_assembly_mode_change(
    geom: GeometryConfig,
    atlas: AspectAtlas,
    path: MonitorResult,
    eps: float = EPS_SING,
    alpha_tol: float = 1e-4,
) -> ChangeEvidence:
    """Demonstrate a non-singular assembly-mode change along a monitored path.

    The change is between the first and the last pose of ``path``, in its
    working mode. All three checks must hold: the two poses share the
    actuated input within ``alpha_tol``; they lie in the same aspect
    component; the path was monitored NonSingular.
    """
    mode = path.mode
    pose_a = path.records[0].pose
    pose_b = path.records[-1].pose
    if pose_a.distance(pose_b) < 1e-12:
        raise ValueError("the path must end at a pose other than its first")
    cfg_a = inverse_kinematics(geom, pose_a, mode, eps)
    cfg_b = inverse_kinematics(geom, pose_b, mode, eps)
    alpha_gap = max(
        abs(angle_difference(x, y)) for x, y in zip(cfg_a.alpha, cfg_b.alpha)
    )
    shared = alpha_gap <= alpha_tol

    try:
        in_same = same_aspect(atlas, cfg_a, cfg_b, eps)
        note = "" if in_same else "different components"
    except ModeMismatchError as exc:
        in_same = False
        note = str(exc)

    ok = shared and in_same and path.verdict == VERDICT_NON_SINGULAR
    return ChangeEvidence(
        verdict=VERDICT_CHANGE if ok else VERDICT_NO_CHANGE,
        shared_alpha=shared,
        alpha_gap=alpha_gap,
        alpha=cfg_a.alpha,
        in_same_aspect=in_same,
        aspect_note=note,
        monitor_verdict=path.verdict,
        min_abs_det_scaled=path.min_abs_det_scaled,
        min_abs_b=path.min_abs_b,
        det_sign=path.det_sign,
    )
