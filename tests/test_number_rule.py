"""The one number rule: ``geometry.as_float`` and ``geometry.as_positive``.

Every scalar a caller hands in (a link length or phase, a pose coordinate, a
joint angle, a box bound, eps, the census limit, the run configuration's
numbers and ``--eps``) passes the rule. A bool or a string raises TypeError;
NaN and the infinities raise ValueError, and so do 0 and -1 where the value
must be positive. Each error names the parameter; the run configuration wraps
it in ConfigError. Before the rule, ``GeometryConfig(l=True)`` built l = 1.0,
``Pose(True, "1", 0)`` read both as numbers and ``classify`` ran with eps = 1.
Python and numpy ints and floats still pass.
"""

import argparse
import json
import math
import re

import numpy as np
import pytest

from planar3rrr import aspects, batch, cli
from planar3rrr.errors import ConfigError
from planar3rrr.geometry import (
    FullConfiguration, GeometryConfig, Pose, as_float, elbow_points, platform_points
)
from planar3rrr.kinematics import forward_kinematics
from planar3rrr.octree import Box3

GEOM = GeometryConfig.reference()

#: An assembly of the reference geometry whose first actuated angle is 1 exactly.
ALPHA = (1.0, 2.0, 0.0)
POSE = forward_kinematics(GEOM, ALPHA)[0]
_bx, _by = elbow_points(GEOM, np.array(ALPHA))
_c = platform_points(GEOM, POSE)[0]
BETA = tuple(np.arctan2(_c[:, 1] - _by, _c[:, 0] - _bx).tolist())


class CensusStarted(Exception):
    """``enumerate_aspects`` got past its checks to the census."""


@pytest.fixture(autouse=True)
def no_census(monkeypatch):
    def started(*args):
        raise CensusStarted

    monkeypatch.setattr(aspects, "_live_bricks", started)


def _config(key, value, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: value}))
    return cli.load_config(str(path))


#: Each former owner of a number check: (call with the value, the name its
#: error carries, whether the value must be positive, a valid value).
OWNERS = {
    "GeometryConfig-length": (lambda v, _: GeometryConfig(l=v), "l", True, 6),
    "GeometryConfig-phase": (
        lambda v, _: GeometryConfig(base_phase=(v, 3.0, 5.0)), "base_phase", False, 1
    ),
    "Pose": (lambda v, _: Pose(0.0, v, 0.0), "pose y", False, 1),
    "FullConfiguration": (
        lambda v, _: FullConfiguration(GEOM, POSE, (v, *ALPHA[1:]), BETA), "alpha", False, 1
    ),
    "Box3": (lambda v, _: Box3((0.0, v, 0.0), (1.0, 1.0, 1.0), ("lin",) * 3), "axis 1", False, 0),
    "classify": (lambda v, _: batch.classify(1.0, (1.0, 1.0, 1.0), 1.0, v), "eps", True, 1),
    "enumerate_aspects": (
        lambda v, _: aspects.enumerate_aspects(GEOM, depth=4, limit=v), "limit", True, 6
    ),
    "load_config-eps_sing": (
        lambda v, tmp: _config("eps_sing", v, tmp), "key 'eps_sing'", True, None
    ),
    "load_config-workspace_limit": (
        lambda v, tmp: _config("workspace_limit", v, tmp), "key 'workspace_limit'", True, None
    ),
    "apply_overrides-eps": (
        lambda v, _: cli._apply_overrides(
            cli.RunConfig(GEOM), argparse.Namespace(depth=None, eps=v, out=None)
        ),
        "--eps",
        True,
        1,
    ),
}

_REFUSED = [(True, TypeError), ("6", TypeError)] + [
    (v, ValueError) for v in (math.nan, math.inf, -math.inf)
]
_NOT_POSITIVE = [(0, ValueError), (-1, ValueError)]


def _refusals():
    for owner, (_, _, positive, _) in OWNERS.items():
        for value, error in _REFUSED + (_NOT_POSITIVE if positive else []):
            yield pytest.param(owner, value, error, id=f"{owner}-{value!r}")


@pytest.mark.parametrize("owner, value, error", _refusals())
def test_every_owner_refuses_what_the_rule_refuses(owner, value, error, tmp_path):
    call, name, _, _ = OWNERS[owner]
    if owner.startswith("load_config"):
        error = ConfigError
    with pytest.raises(error, match=re.escape(name)):
        call(value, tmp_path)


@pytest.mark.parametrize("kind", [np.float32, np.float64, np.int64, int, float])
@pytest.mark.parametrize("owner", [k for k, v in OWNERS.items() if v[3] is not None])
def test_every_owner_takes_python_and_numpy_numbers(owner, kind, tmp_path):
    call, _, _, valid = OWNERS[owner]
    try:
        call(kind(valid), tmp_path)
    except CensusStarted:
        pass


@pytest.mark.parametrize("value", [np.float32(0.5), np.float64(-2.5), np.int64(3), 7, -0.0])
def test_the_rule_returns_a_python_float(value):
    out = as_float(value, "v")
    assert type(out) is float and out == float(value)
