"""Exception hierarchy for kinematic and spatial-index failures."""


class KinematicError(Exception):
    """Base class for failures of the kinematic operators."""


class UnreachableError(KinematicError):
    """A leg target lies outside the annulus reachable by its two-bar chain."""

    def __init__(self, leg: int, distance: float, lo: float, hi: float):
        self.leg = leg
        self.distance = distance
        self.lo = lo
        self.hi = hi
        super().__init__(
            f"leg {leg}: target distance {distance:.9g} outside reachable "
            f"annulus [{lo:.9g}, {hi:.9g}]"
        )


class SerialBoundaryError(KinematicError):
    """A leg target sits on the reach boundary, or at a fold whose elbow angles miss closure."""

    def __init__(self, leg: int, distance: float):
        self.leg = leg
        self.distance = distance
        super().__init__(f"leg {leg}: target distance {distance:.9g} is on the reach boundary")


class SerialSingularError(KinematicError):
    """A diagonal entry of the inverse-kinematics matrix vanished."""

    def __init__(self, leg: int, margin: float = 0.0):
        self.leg = leg
        self.margin = margin
        super().__init__(f"leg {leg}: serial singularity, |B_{leg}{leg}| = {abs(margin):.3g}")


class ParallelSingularError(KinematicError):
    """det(A) vanished; the platform pose cannot be controlled."""

    def __init__(self, det: float, scale: float):
        self.det = det
        self.scale = scale
        super().__init__(f"parallel singularity, det(A) = {det:.3g} at scale {scale:.3g}")


class DegenerateLinearSystemError(KinematicError):
    """The direct-kinematics 2x2 reduction is singular at every orientation."""

    def __init__(self, alpha, row: int | None = None):
        self.alpha = tuple(float(a) for a in alpha)
        self.row = row
        name = "alpha" if row is None else f"alpha row {row}"
        super().__init__(
            f"direct kinematics, {name} = {self.alpha}: "
            "position system singular at every orientation"
        )


class UnreachableSampleError(KinematicError):
    """A sampled path pose is not reachable in the requested working mode."""

    def __init__(self, t: float, cause: Exception):
        self.t = t
        self.cause = cause
        super().__init__(f"path sample at t = {t:.9g} failed: {cause}")


class ModeMismatchError(KinematicError):
    """Two configurations do not share working mode and det(A) sign."""


class OctreeError(Exception):
    """Base class for spatial-index failures."""


class BoxMismatchError(OctreeError):
    """Boolean operands do not share root box and depth."""


class OutOfBoxError(OctreeError):
    """A query point lies outside the root box."""

    def __init__(self, point, box):
        self.point = tuple(point)
        super().__init__(f"point {self.point} outside box {box}")


class ConfigError(Exception):
    """Invalid run configuration (CLI exit code 2)."""
