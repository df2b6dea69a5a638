"""One singularity rule: every caller that decides a pose's singularity agrees.

``batch.classify`` turns det(A), B_ii and the row-norm scale into a verdict.
Here ``singularity_report``, ``trajectory.monitor``, the refusal of
``same_aspect`` and the CLI ``fk`` mode label are set against each other at
seeded reachable poses, with eps set to each pose's own scaled margin
|det A| / scale and to its two float neighbours, where two rounding forms of
the same test would split.
"""

import json
import math

import numpy as np
import pytest

from planar3rrr import batch
from planar3rrr.aspects import MIN_DEPTH, enumerate_aspects, same_aspect
from planar3rrr.cli import main
from planar3rrr.errors import KinematicError, ParallelSingularError, SerialSingularError
from planar3rrr.geometry import GeometryConfig, Pose, WorkingMode
from planar3rrr.jacobians import forward_velocity, jacobians, singularity_report, working_mode_of
from planar3rrr.kinematics import inverse_kinematics
from planar3rrr.trajectory import VERDICT_SINGULAR, PathSpec, monitor

GEOMETRIES = {
    "reference": GeometryConfig.reference(),
    "long_distal": GeometryConfig(l=5.0, m=7.0, r=9.0, s=3.5),
}

#: About one seeded pose in ten sits where |det A| < eps * scale and
#: |det A| / scale < eps round apart; 24 include such poses on both geometries.
POSES_PER_GEOMETRY = 24


def _edge_cases(geom, seed):
    """Seeded (config, mode, pair, eps0) with eps0 = |det A| / scale of the pose."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < POSES_PER_GEOMETRY:
        pose = Pose(*rng.uniform(-3.0, 3.0, 2), rng.uniform(-math.pi, math.pi))
        mode = batch.MODE_ORDER[rng.integers(8)]
        try:
            cfg = inverse_kinematics(geom, pose, mode)
        except KinematicError:
            continue
        pair = jacobians(cfg)
        cases.append((cfg, mode, pair, abs(pair.det_a) / pair.row_norm_scale))
    return cases


def _fk_label(geom, cfg, eps, tmp_path, capsys):
    """The mode column of CLI ``fk`` at the configuration's pose."""
    path = tmp_path / "geometry.json"
    path.write_text(json.dumps({"geometry": geom.to_dict()}))
    assert main(["--config", str(path), "--eps", repr(eps), "fk", *map(repr, cfg.alpha)]) == 0
    for line in capsys.readouterr().out.splitlines()[1:]:
        _, x, y, theta_deg, *_, label = line.split()
        pose = Pose(float(x), float(y), math.radians(float(theta_deg)))
        if pose.distance(cfg.pose) < 1e-4:
            return label
    raise AssertionError(f"fk did not return the pose {cfg.pose}")


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_callers_agree_at_the_scaled_margin(name, tmp_path, capsys):
    geom = GEOMETRIES[name]
    atlas = enumerate_aspects(geom, depth=MIN_DEPTH, limit=12.0)
    for k, (cfg, mode, pair, eps0) in enumerate(_edge_cases(geom, 23)):
        for eps in (np.nextafter(eps0, 0.0), eps0, np.nextafter(eps0, 1.0)):
            eps = float(eps)
            rep = singularity_report(pair, eps)
            # Only a margin below eps is singular.
            assert rep.is_parallel_singular == (eps > eps0)
            singular = rep.is_serial_singular or rep.is_parallel_singular

            result = monitor(geom, PathSpec((cfg.pose, cfg.pose), mode, 2), eps)
            assert (result.verdict == VERDICT_SINGULAR) == singular, (k, eps)
            assert result.min_abs_det_scaled == eps0

            try:
                same_aspect(atlas, cfg, cfg, eps)
                refusal = None
            except (SerialSingularError, ParallelSingularError) as exc:
                refusal = type(exc)
            if rep.is_serial_singular:
                assert refusal is SerialSingularError
            elif rep.is_parallel_singular:
                assert refusal is ParallelSingularError
            else:
                assert refusal is None

            label = _fk_label(geom, cfg, eps, tmp_path, capsys)
            assert label == ("-" if rep.is_serial_singular else mode.label)


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_serial_flags_agree_at_the_smallest_b(name):
    geom = GEOMETRIES[name]
    atlas = enumerate_aspects(geom, depth=MIN_DEPTH, limit=12.0)
    for cfg, mode, pair, _ in _edge_cases(geom, 29):
        b0 = min(abs(v) for v in pair.b_diag)
        for eps in (np.nextafter(b0, 0.0), b0, np.nextafter(b0, math.inf)):
            eps = float(eps)
            serial = eps > b0
            assert singularity_report(pair, eps).is_serial_singular == serial
            if serial:
                with pytest.raises(SerialSingularError):
                    working_mode_of(pair, eps)
                with pytest.raises(SerialSingularError):
                    same_aspect(atlas, cfg, cfg, eps)
            else:
                assert working_mode_of(pair, eps) is mode


def test_from_signs_counts_zero_as_negative():
    assert WorkingMode.from_signs((0.0, 1.0, -1.0)) is WorkingMode.H
    mode_idx, det_sign, serial, parallel = batch.classify(0.0, (0.0, 1.0, -1.0), 1.0, 1e-8)
    assert batch.MODE_ORDER[mode_idx] is WorkingMode.H
    assert det_sign == -1
    assert serial.tolist() == [True, False, False]
    assert parallel


@pytest.mark.parametrize("eps", [math.nan, 0.0, -1.0, math.inf], ids=["nan", "0", "-1", "inf"])
def test_eps_outside_zero_to_infinity_is_refused(eps):
    # At the concurrent-line pose (det/scale 2.0e-15), eps = nan or -1
    # reported no parallel singularity and forward_velocity returned a
    # theta rate of 3.5e14; the monitor passed any path at eps = 0.
    geom = GeometryConfig()
    theta = math.acos(185.0 / 220.0)
    pair = jacobians(inverse_kinematics(geom, Pose(0.0, 0.0, theta), WorkingMode.A))
    spec = PathSpec((Pose(1.0, -0.5, 0.3), Pose(1.0, -0.4, 0.3)), WorkingMode.A, 2)
    calls = (
        lambda: singularity_report(pair, eps),
        lambda: forward_velocity(pair, (0.2, -0.1, 0.05), eps),
        lambda: monitor(geom, spec, eps),
    )
    for call in calls:
        with pytest.raises(ValueError, match=r"eps must be in \(0, inf\)"):
            call()
