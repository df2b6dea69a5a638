"""Per-triple pose counts of the direct solver against a committed reference.

``data/fk_pose_counts.json`` pins the number of poses ``batch.fk_roots``
returned for each of 2,000 uniform, 2,000 IK-image and 2,000 near-tangent
triples on each ``test_fk_kernels`` geometry, as the solver gave them when
the file was recorded. They are the solver's counts at that time, not the
true counts: the file is a regression net that catches any triple whose
count moves, so that the move can be checked against high-precision roots.
Regenerate it with ``PYTHONPATH=src python tests/test_fk_pose_counts.py``
only after such a check.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from planar3rrr import batch
from test_fk_kernels import GEOMETRIES

REFERENCE = Path(__file__).parent / "data" / "fk_pose_counts.json"

#: Triples per geometry and kind.
N = 2000

#: Generator seed of each kind; the geometry's position in GEOMETRIES is the second seed word.
SEEDS = {"uniform": 2101, "ik_image": 2102, "near_tangent": 2103}

#: Distances along a near-tangent line at which det(A) is sampled before bisection.
WALL_STEPS = 0.05 * np.arange(1, 81)


def _ik_images(geom, x, y, theta, mode):
    """Actuated angles of poses in MODE_ORDER modes, kept where every leg reaches."""
    alpha = np.full((len(mode), 3), np.nan)
    for k, wm in enumerate(batch.MODE_ORDER):
        sel = mode == k
        alpha[sel] = batch.solve_legs(geom, x[sel], y[sel], theta[sel], wm).alpha
    return alpha[np.isfinite(alpha).all(axis=1)]


def ik_image_triples(geom, rng):
    """Actuated angles of uniform poses in |x|, |y| < r, each in a uniform working mode."""
    out = []
    while sum(len(a) for a in out) < N:
        x, y = rng.uniform(-geom.r, geom.r, (2, 1024))
        theta = rng.uniform(-math.pi, math.pi, 1024)
        out.append(_ik_images(geom, x, y, theta, rng.integers(0, 8, 1024)))
    return np.concatenate(out)[:N]


def _mode_dets(geom, p, mode):
    """det(A) of poses p (..., 3) in MODE_ORDER modes, NaN where a leg is out of reach."""
    reach, dets = batch.mode_determinants(geom, p[..., 0], p[..., 1], p[..., 2])
    det = np.full(reach.shape, np.nan)
    det[reach] = np.choose(np.broadcast_to(mode, reach.shape)[reach], dets)
    return det


def near_tangent_triples(geom, rng):
    """Actuated angles of poses 1e-6 to 1e-2 inside a det(A) = 0 wall.

    From a uniform pose in |x|, |y| < r in a uniform working mode, step
    along a random unit direction of (x, y, theta) at WALL_STEPS until
    det(A) changes sign with every leg still in reach, bisect the crossing
    30 times, back off by a log-uniform gap and solve the legs; a pose
    whose legs leave reach on the way is dropped.
    """
    out = []
    while sum(len(a) for a in out) < N:
        p = np.column_stack(
            (rng.uniform(-geom.r, geom.r, (2048, 2)), rng.uniform(-math.pi, math.pi, 2048))
        )
        mode = rng.integers(0, 8, 2048)
        v = rng.normal(size=(2048, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        gap = 10.0 ** rng.uniform(-6.0, -2.0, 2048)
        side = np.sign(_mode_dets(geom, p, mode))
        keep = np.flatnonzero(np.abs(side) == 1.0)
        p, mode, v, gap, side = p[keep], mode[keep], v[keep], gap[keep], side[keep]
        line = p[:, None] + WALL_STEPS[:, None] * v[:, None]
        on_line = np.sign(_mode_dets(geom, line, mode[:, None]))
        moved = on_line != side[:, None]
        first = moved.argmax(axis=1)  # a sign change, or a leg out of reach (NaN)
        ok = moved.any(axis=1) & np.isfinite(on_line[np.arange(len(p)), first])
        hi = WALL_STEPS[first]
        lo = hi - WALL_STEPS[0]
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            at = np.sign(_mode_dets(geom, p + mid[:, None] * v, mode))
            ok &= np.isfinite(at)
            lo = np.where(at == side, mid, lo)
            hi = np.where(at == side, hi, mid)
        q = p + (lo - gap)[:, None] * v
        ok &= np.sign(_mode_dets(geom, q, mode)) == side
        out.append(_ik_images(geom, *q[ok].T, mode[ok]))
    return np.concatenate(out)[:N]


def triples(name, kind):
    gi = list(GEOMETRIES).index(name)
    rng = np.random.default_rng((SEEDS[kind], gi))
    if kind == "uniform":
        return rng.uniform(-math.pi, math.pi, (N, 3))
    if kind == "near_tangent":
        return near_tangent_triples(GEOMETRIES[name], rng)
    return ik_image_triples(GEOMETRIES[name], rng)


def pose_counts(name, kind):
    idx = batch.fk_roots(GEOMETRIES[name], triples(name, kind))[0]
    return "".join(map(str, np.bincount(idx, minlength=N).tolist()))


@pytest.mark.parametrize("kind", SEEDS)
@pytest.mark.parametrize("name", GEOMETRIES)
def test_pose_counts_match_reference(name, kind):
    want = json.loads(REFERENCE.read_text(encoding="ascii"))[name][kind]
    got = pose_counts(name, kind)
    moved = [(j, w, g) for j, (w, g) in enumerate(zip(want, got)) if w != g]
    assert len(got) == len(want) == N
    assert moved == [], f"(triple, reference count, count): {moved[:20]}"


if __name__ == "__main__":
    data = {name: {kind: pose_counts(name, kind) for kind in SEEDS} for name in GEOMETRIES}
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(data, indent=1) + "\n", encoding="ascii")
