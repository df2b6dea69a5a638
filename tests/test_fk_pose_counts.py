"""Per-triple pose counts of the direct solver against a committed reference.

``data/fk_pose_counts.json`` pins the number of poses ``batch.fk_roots``
returned for each of 2,000 uniform and 2,000 IK-image triples on each
``test_fk_kernels`` geometry, as the solver gave them when the file was
recorded. They are the solver's counts at that time, not the true counts:
the file is a regression net that catches any triple whose count moves, so
that the move can be checked against high-precision roots. Regenerate it
with ``PYTHONPATH=src python tests/test_fk_pose_counts.py`` only after such
a check.
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
SEEDS = {"uniform": 2101, "ik_image": 2102}


def ik_image_triples(geom, rng):
    """Actuated angles of uniform poses in |x|, |y| < r, each in a uniform working mode."""
    out = []
    while sum(len(a) for a in out) < N:
        x, y = rng.uniform(-geom.r, geom.r, (2, 1024))
        theta = rng.uniform(-math.pi, math.pi, 1024)
        mode = rng.integers(0, 8, 1024)
        alpha = np.full((1024, 3), np.nan)
        for k, wm in enumerate(batch.MODE_ORDER):
            sel = mode == k
            alpha[sel] = batch.solve_legs(geom, x[sel], y[sel], theta[sel], wm).alpha
        out.append(alpha[np.isfinite(alpha).all(axis=1)])
    return np.concatenate(out)[:N]


def triples(name, kind):
    gi = list(GEOMETRIES).index(name)
    rng = np.random.default_rng((SEEDS[kind], gi))
    if kind == "uniform":
        return rng.uniform(-math.pi, math.pi, (N, 3))
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
