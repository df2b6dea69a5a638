import numpy as np
import pytest

from planar3rrr.geometry import GeometryConfig, Pose
from planar3rrr.octree import Octree, _grid_to_tree

#: Benchmark actuated angles with four assembly poses (radians).
ALPHA_REF = (5.862610, 1.277470, 5.213885)

#: Published benchmark postures (x, y, theta in degrees), rounded values.
TABLE_POSES = {
    1: (1.102, 1.956, 57.50),
    2: (0.705, 2.751, 46.85),
    3: (4.638, -5.413, 32.35),
    4: (-0.357, 2.720, 26.51),
}

#: Published index values at postures (1) and (4): (detA, B11, B22, B33).
TABLE_INDICES = {
    1: (307.990, -34.132, -34.008, 31.827),
    4: (522.868, -33.023, -35.997, 21.7203),
}

#: Intermediate waypoint of the published mode-change path (x, y, theta deg).
VIA_POSTURE = (-0.987, 1.930, 12.35)

#: Full-precision assembly poses of ALPHA_REF (regression freeze, theta order).
FK_REF_POSES = (
    Pose(-0.3577849457071654, 2.72020071880785, 0.4628237320796721),
    Pose(4.63868029614767, -5.413568053184908, 0.5647507110466014),
    Pose(0.7056441700778335, 2.751196253198236, 0.8176920247320774),
    Pose(1.1022919743997779, 1.9563001858738114, 1.0036148476372604),
)

#: Frozen Jacobian indices at the FK_REF_POSES (detA, B11, B22, B33).
FK_REF_INDICES = (
    (522.7502093711416, 33.02473230920737, 35.99790669495942, -21.720545458629456),
    (-1742.2420594099283, 0.3708266316924469, -5.956109623060524, -21.950731629127137),
    (-207.51557947106443, 35.94399673459501, 34.16487582781761, -26.524724278264017),
    (309.10085012173903, 34.12269607922178, 34.01144154293206, -31.840621301590975),
)

#: Actuated angles whose assembly set is empty (elbows radially outward).
ALPHA_EMPTY = (-2.6179938779914944, -0.5235987755982994, 1.5707963267948966)

#: Near-tangent triples of the reference geometry with their pose counts.
NEAR_TANGENT_CLUSTERS = [
    # A close root pair inside a root cluster near a det(A) = 0 wall.
    ((0.15450438660958757, 2.2225481329060734, -1.941532133672311), 6),
    # A clustered root that can come back as two near-duplicate poses.
    ((1.582386744625084, 2.771700931028144, -0.7870038039393688), 6),
    # Two poses 6e-5 apart (2e-6 apart in theta) that are both roots.
    ((1.398272689084497, 1.39380816851569, -1.4950958595690658), 4),
    # Two polished copies of one clustered root, 1.6e-8 apart.
    ((0.2737269273095128, 2.9434186165450678, -1.4467452239015408), 6),
    # A clustered root that plain degree-3 scanning returned twice.
    ((0.8878786963550236, 3.1124772795929054, -1.125822520198203), 6),
]


def build_octree(geom, pred, box, max_depth: int) -> Octree:
    """The tree of ``pred`` sampled at every max-depth cell center.

    ``pred`` is a callable f(x, y, z) -> bool array under numpy broadcasting;
    ``geom`` is not read.
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
        vals = pred(xs[:, None, None], ys[None, :, None], z[None, None, :])
        labels[:, :, z0 : z0 + slab] = np.broadcast_to(np.asarray(vals, dtype=bool), (n, n, len(z)))
    return _grid_to_tree(labels, box, max_depth)


@pytest.fixture(scope="session")
def default_geom() -> GeometryConfig:
    return GeometryConfig()


@pytest.fixture(scope="session")
def ref_geom() -> GeometryConfig:
    return GeometryConfig.reference()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)


def posture(k: int) -> Pose:
    """Full-precision benchmark posture k in (1, 2, 3, 4)."""
    order = {4: 0, 3: 1, 2: 2, 1: 3}
    return FK_REF_POSES[order[k]]
