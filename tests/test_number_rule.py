"""The one number rule: ``geometry.as_float`` and ``geometry.as_positive``,
and the one integer rule, ``geometry.as_int``.

Every scalar a caller hands in (a link length or phase, a pose coordinate, a
joint angle, a box bound, eps, the census limit, the run configuration's
numbers and ``--eps``) passes the rule. A bool or a string raises TypeError;
NaN and the infinities raise ValueError, and so do 0 and -1 where the value
must be positive. Each error names the parameter; the run configuration wraps
it in ConfigError. Before the rule, ``GeometryConfig(l=True)`` built l = 1.0,
``Pose(True, "1", 0)`` read both as numbers and ``classify`` ran with eps = 1.
Python and numpy ints and floats still pass.

Every integer a caller hands in (a census depth or joint depth, samples per
segment, an octree's max depth, a component id, a det sign, and the run
configuration's and waypoints file's integer keys) passes ``as_int``: a bool, a
float (even 2.0), a string, an int out of range and None, where None does not
mean "not given", raise ValueError naming the parameter, ConfigError naming the
key in a file. Before the rule, ``Octree(max_depth=True)`` built a tree whose
dump ``loads`` refused, ``characteristic_surface`` returned an empty surface for
component 0.5 and ``det_signs=(1.0,)`` keyed an atlas by the float 1.0. numpy
ints still pass.
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
    FullConfiguration, GeometryConfig, Pose, WorkingMode, as_float, as_int, elbow_points,
    platform_points,
)
from planar3rrr.kinematics import forward_kinematics
from planar3rrr.octree import Box3, Octree, workspace_box
from planar3rrr.trajectory import PathSpec

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


def _root_tree(max_depth):
    return Octree(workspace_box(), max_depth, [0], [0], [True], [0])


#: An atlas whose one pair, (a, +1), is one IN leaf: component 0 is its only one.
_ENTRY = aspects.AspectEntry(WorkingMode.A, 1, _root_tree(0), 1, (0,), 1, (1,), (1.0,))
ATLAS = aspects.AspectAtlas(GEOM, 4, None, workspace_box(), {(WorkingMode.A, 1): _ENTRY})


def _waypoints(value, tmp_path):
    path = tmp_path / "w.json"
    waypoints = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    path.write_text(json.dumps({"mode": "a", "waypoints": waypoints, "samples_per_segment": value}))
    return cli._load_waypoints(str(path), 500)


#: Each owner of an integer input: (call with the value, the name its error
#: carries, an int out of its range, an int in it).
INT_OWNERS = {
    "enumerate_aspects-depth": (
        lambda v, _: aspects.enumerate_aspects(GEOM, depth=v), "depth", 11, 4
    ),
    "enumerate_aspects-joint_depth": (
        lambda v, _: aspects.enumerate_aspects(GEOM, depth=4, joint_depth=v), "joint_depth", -1, 0
    ),
    "enumerate_aspects-det_signs": (
        lambda v, _: aspects.enumerate_aspects(GEOM, depth=4, det_signs=(v,)), "det_signs", 2, -1
    ),
    "PathSpec": (
        lambda v, _: PathSpec((Pose(0, 0, 0), Pose(1, 0, 0)), WorkingMode.A, v),
        "samples_per_segment", 1, 3,
    ),
    # np.int64(21) used to overflow 1 << 63 and fail as "leaves do not tile".
    "Octree": (lambda v, _: _root_tree(v), "max_depth", 22, 21),
    "characteristic_surface": (
        lambda v, _: aspects.characteristic_surface(ATLAS, WorkingMode.A, 1, v),
        "component_id", 1, 0,
    ),
    "load_config-depth": (lambda v, tmp: _config("depth", v, tmp), "key 'depth'", 3, 4),
    "load_config-joint_depth": (
        lambda v, tmp: _config("joint_depth", v, tmp), "key 'joint_depth'", 11, 0
    ),
    "load_config-samples_per_segment": (
        lambda v, tmp: _config("samples_per_segment", v, tmp), "key 'samples_per_segment'", 1, 2
    ),
    "load_waypoints-samples_per_segment": (_waypoints, "key 'samples_per_segment'", 0, 2),
    "apply_overrides-depth": (
        lambda v, _: cli._apply_overrides(
            cli.RunConfig(GEOM), argparse.Namespace(depth=v, eps=None, out=None)
        ),
        "--depth", 11, 4,
    ),
}

_FILE_OWNERS = ("load_config", "load_waypoints")
#: Owners whose None says "not given": no joint trees, no --depth override.
_OPTIONAL = ("enumerate_aspects-joint_depth", "apply_overrides-depth")


def _int_refusals():
    for owner, (_, _, outside, _) in INT_OWNERS.items():
        nones = () if owner in _OPTIONAL else (None,)
        for value in (True, 2.0, 2.5, "3", *nones, outside):
            yield pytest.param(owner, value, id=f"{owner}-{value!r}")


@pytest.mark.parametrize("owner, value", _int_refusals())
def test_every_owner_refuses_what_the_integer_rule_refuses(owner, value, tmp_path):
    call, name, _, _ = INT_OWNERS[owner]
    error = ConfigError if owner.startswith(_FILE_OWNERS) else ValueError
    with pytest.raises(error, match=re.escape(name) + ".* must be an integer in "):
        call(value, tmp_path)


def _int_passes():
    for owner in INT_OWNERS:
        # JSON has no numpy ints.
        for kind in (int,) if owner.startswith(_FILE_OWNERS) else (int, np.int64):
            yield pytest.param(owner, kind, id=f"{owner}-{kind.__name__}")


@pytest.mark.parametrize("owner, kind", _int_passes())
def test_every_owner_takes_python_and_numpy_ints(owner, kind, tmp_path):
    call, _, _, valid = INT_OWNERS[owner]
    try:
        call(kind(valid), tmp_path)
    except CensusStarted:
        pass


@pytest.mark.parametrize("value", [np.int64(3), np.int32(-2), 7])
def test_the_integer_rule_returns_a_python_int(value):
    out = as_int(value, "v", -5)
    assert type(out) is int and out == int(value)
