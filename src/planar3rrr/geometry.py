"""Geometry and configuration types for the planar 3-RRR manipulator.

The fixed base carries three actuated revolute joints A_i on a circle of
radius ``r`` around the origin O. The moving platform carries three passive
joints C_i on a circle of radius ``s`` around the operation point P. Leg i is
the two-bar chain A_i -> B_i -> C_i with bar lengths ``l`` (actuated,
absolute angle alpha_i) and ``m`` (passive, absolute angle beta_i), so

    b_i = a_i + l * (cos alpha_i, sin alpha_i)
    c_i = b_i + m * (cos beta_i,  sin beta_i)
    c_i = p + s * (cos(theta + platform_phase_i), sin(theta + platform_phase_i))

All angles are radians and counter-clockwise positive; degrees appear only at
the CLI and file boundaries. Every number a caller hands in passes one rule:
``as_float``, ``as_positive`` (lengths, eps and limits) or ``as_int`` (integers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi

#: Default singularity tolerance (dimensionless after scaling).
EPS_SING = 1e-8

#: Largest loop-closure or passive-angle error of a FullConfiguration.
LOOP_TOL = 1e-9

#: Vertex phases of an equilateral triangle with one vertex pointing up.
DEFAULT_PHASES = (0.5 * math.pi, 0.5 * math.pi + TWO_PI / 3.0, 0.5 * math.pi + 2.0 * TWO_PI / 3.0)

#: Vertex phases used by the bundled reference fixtures (legs numbered so that
#: leg 1 sits at 210 degrees; see README, "Placement convention").
REFERENCE_PHASES = (math.radians(210.0), math.radians(330.0), math.radians(90.0))


def as_float(value, name: str) -> float:
    """The one number rule: a Python or numpy int or float, not a bool, as a finite
    float; TypeError (not a number) or ValueError (not finite) names ``name``."""
    return _number(value, name, -math.inf, "finite")


def as_positive(value, name: str) -> float:
    """``as_float`` of a length, tolerance or limit, which must also exceed 0."""
    return _number(value, name, 0.0, "positive and finite")


def as_int(value, name: str, lo: int, hi: float = math.inf) -> int:
    """The one integer rule: a Python or numpy int, not a bool, in [lo, hi] (no
    upper bound by default), as an int; ValueError names ``name``."""
    whole = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (whole and lo <= value <= hi):
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
    return int(value)


def _number(value, name: str, low: float, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    v = float(value)
    if not low < v < math.inf:
        raise ValueError(f"{name} must be {what}, got {v}")
    return v


def wrap_angle(theta: float) -> float:
    """Fold an angle into (-pi, pi]."""
    t = theta % TWO_PI
    if t > math.pi:
        t -= TWO_PI
    return t


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """wrap_angle over an array, bit for bit."""
    t = np.mod(theta, TWO_PI)
    return np.where(t > math.pi, t - TWO_PI, t)


def angle_difference(a: float, b: float) -> float:
    """Shortest signed angular difference a - b, in (-pi, pi]."""
    return wrap_angle(a - b)


def pose_gaps(x1, y1, t1, x2, y2, t2):
    """The one pose metric, broadcast: the Chebyshev gap over x, y and the orientation,
    whose gap wraps |t1 - t2| so that swapping the poses keeps the bits."""
    turn = np.abs(wrap_angles(np.abs(t1 - t2)))
    return np.maximum(np.maximum(np.abs(x1 - x2), np.abs(y1 - y2)), turn)


@dataclass(frozen=True)
class GeometryConfig:
    """Link lengths and triangle placements of the manipulator.

    ``base_phase[i]`` places A_i on the base circle; ``platform_phase[i]``
    places C_i on the platform circle at theta = 0.
    """

    l: float = 6.0
    m: float = 6.0
    r: float = 10.0
    s: float = 5.0
    base_phase: tuple[float, float, float] = DEFAULT_PHASES
    platform_phase: tuple[float, float, float] = DEFAULT_PHASES

    def __post_init__(self):
        for name in ("l", "m", "r", "s"):
            object.__setattr__(self, name, as_positive(getattr(self, name), name))
        for name in ("base_phase", "platform_phase"):
            phases = tuple(as_float(v, f"{name} angle") for v in getattr(self, name))
            if len(phases) != 3:
                raise ValueError(f"{name} must contain three angles, got {phases}")
            for i, j in ((0, 1), (0, 2), (1, 2)):
                if abs(wrap_angle(phases[i] - phases[j])) < 1e-9:
                    raise ValueError(f"{name} angles {i} and {j} coincide mod 2pi")
            object.__setattr__(self, name, phases)

    @cached_property
    def base_points(self) -> np.ndarray:
        """Positions a_i of the base joints, shape (3, 2)."""
        pts = np.array(
            [[self.r * math.cos(p), self.r * math.sin(p)] for p in self.base_phase]
        )
        pts.setflags(write=False)
        return pts

    @property
    def reach_min(self) -> float:
        return abs(self.l - self.m)

    @property
    def reach_max(self) -> float:
        return self.l + self.m

    @classmethod
    def reference(cls) -> "GeometryConfig":
        """Geometry matching the bundled benchmark fixtures."""
        return cls(base_phase=REFERENCE_PHASES, platform_phase=REFERENCE_PHASES)

    @classmethod
    def from_dict(cls, data: dict) -> "GeometryConfig":
        """Build from a config mapping of numbers (``as_float``); phase angles are in degrees."""
        allowed = {"l", "m", "r", "s", "base_phase_deg", "platform_phase_deg"}
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(f"unknown geometry keys: {sorted(unknown)}")
        kwargs = {k: as_float(data[k], f"key {k!r}") for k in ("l", "m", "r", "s") if k in data}
        for key in ("base_phase", "platform_phase"):
            if f"{key}_deg" in data:
                name = f"key '{key}_deg' entry"
                kwargs[key] = tuple(math.radians(as_float(v, name)) for v in data[f"{key}_deg"])
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return {
            "l": self.l,
            "m": self.m,
            "r": self.r,
            "s": self.s,
            "base_phase_deg": [math.degrees(p) for p in self.base_phase],
            "platform_phase_deg": [math.degrees(p) for p in self.platform_phase],
        }


@dataclass(frozen=True, slots=True)
class Pose:
    """Platform position (x, y) and orientation theta in (-pi, pi], each passing ``as_float``."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "x", as_float(self.x, "pose x"))
        object.__setattr__(self, "y", as_float(self.y, "pose y"))
        object.__setattr__(self, "theta", wrap_angle(as_float(self.theta, "pose theta")))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.theta)

    def distance(self, other: "Pose") -> float:
        """Chebyshev distance with wrapped orientation difference (``pose_gaps``)."""
        return float(pose_gaps(*self.as_tuple(), *other.as_tuple()))


def platform_offsets(geom: GeometryConfig, theta, nd: int):
    """s u(theta + psi_i), legs first and ``nd`` axes after them, from one cos and one sin."""
    ang = theta + np.asarray(geom.platform_phase).reshape((3,) + (1,) * nd)
    return geom.s * np.cos(ang), geom.s * np.sin(ang)


def platform_joints(geom: GeometryConfig, x, y, theta):
    """Platform joints c_i = p + s u(theta + psi_i) of poses.

    x, y and theta broadcast against each other. Returns (cx, cy), each of
    shape (3, *broadcast shape) with the legs along the leading axis; every
    element is the one-leg expression, bit for bit (``platform_offsets``).
    """
    ux, uy = platform_offsets(geom, theta, max(np.ndim(x), np.ndim(y), np.ndim(theta)))
    return x + ux, y + uy


def closure_gaps(m: float, ex, ey):
    """The one loop-closure kernel, | |e| - m | of legs with e = c - b: the closure
    term of ``loop_gaps`` and the RESIDUAL_TOL gate of ``batch.fk_roots``."""
    return np.abs(np.hypot(ex, ey) - m)


def loop_gaps(m: float, ex, ey, beta):
    """The one loop-closure rule, max(``closure_gaps``, |m u(beta) - e|) of legs with e = c - b.

    ``FullConfiguration`` and ``batch.solve_legs`` bound it by LOOP_TOL.
    """
    gap = np.hypot(m * np.cos(beta) - ex, m * np.sin(beta) - ey)
    return np.maximum(closure_gaps(m, ex, ey), gap)


def elbow_points(geom: GeometryConfig, alphas):
    """Elbow coordinates (bx, by) of actuated-angle rows (..., 3), legs last."""
    a = geom.base_points
    return a[:, 0] + geom.l * np.cos(alphas), a[:, 1] + geom.l * np.sin(alphas)


def platform_points(geom: GeometryConfig, pose: Pose) -> tuple[np.ndarray, np.ndarray]:
    """Platform joint positions c_i (3, 2) and the operation point p (2,)."""
    c = np.stack(platform_joints(geom, pose.x, pose.y, pose.theta), axis=1)
    return c, np.array([pose.x, pose.y])


class WorkingMode(Enum):
    """Inverse-kinematic branch, identified by the sign triple of B_11, B_22, B_33."""

    A = (1, 1, 1)
    B = (1, -1, 1)
    C = (1, 1, -1)
    D = (1, -1, -1)
    E = (-1, -1, 1)
    F = (-1, 1, 1)
    G = (-1, -1, -1)
    H = (-1, 1, -1)

    @property
    def signs(self) -> tuple[int, int, int]:
        return self.value

    @property
    def label(self) -> str:
        return self.name.lower()

    @property
    def sign_string(self) -> str:
        return "".join("P" if s > 0 else "N" for s in self.value)

    @classmethod
    def from_signs(cls, signs) -> "WorkingMode":
        """The mode of a B_ii sign triple; a zero counts as negative."""
        return cls(tuple(1 if s > 0 else -1 for s in signs))

    @classmethod
    def from_label(cls, label: str) -> "WorkingMode":
        try:
            return cls[label.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown working mode label {label!r}") from None


def parse_mode(text: str) -> WorkingMode:
    """Parse a working mode from a letter a-h or a sign string like 'NNP' or '+-+'."""
    t = text.strip()
    if len(t) == 1:
        return WorkingMode.from_label(t)
    if len(t) == 3 and all(ch in "PNpn+-" for ch in t):
        return WorkingMode.from_signs(tuple(1 if ch in "Pp+" else -1 for ch in t))
    raise ValueError(f"cannot parse working mode from {text!r}")


@dataclass(frozen=True)
class FullConfiguration:
    """A pose together with all joint angles, fixing every link of the mechanism."""

    geom: GeometryConfig
    pose: Pose
    alpha: tuple[float, float, float]
    beta: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(as_float(v, "alpha angle") for v in self.alpha))
        object.__setattr__(self, "beta", tuple(as_float(v, "beta angle") for v in self.beta))
        if len(self.alpha) != 3 or len(self.beta) != 3:
            raise ValueError("alpha and beta must each contain three angles")
        gaps = loop_gaps(self.geom.m, *(self.c - self.b).T, np.array(self.beta))
        for i in np.flatnonzero(~(gaps <= LOOP_TOL)).tolist():
            raise ValueError(f"leg {i + 1} violates loop closure by {gaps[i]:.3g}")

    @property
    def b(self) -> np.ndarray:
        """Elbow positions b_i = a_i + l * u(alpha_i), shape (3, 2)."""
        return np.stack(elbow_points(self.geom, self.alpha), axis=1)

    @property
    def c(self) -> np.ndarray:
        """Platform joint positions, derived from the pose."""
        return platform_points(self.geom, self.pose)[0]
