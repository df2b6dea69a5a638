"""Signature lints over every function and method of the package.

One geometry per result: a ``FullConfiguration``, an ``AspectAtlas`` and a
``MonitorResult`` each record the geometry they were computed on, so a
function that also takes a ``GeometryConfig`` can be handed two that
disagree. The annotations are strings under ``from __future__ import
annotations``, so they are compared as strings.

One tolerance knob: the singularity margin ``eps`` is the only tolerance a
caller can pass, and only to the functions that apply the one singularity
rule. Reach band and loop-closure bounds are fixed constants.

No flag parameters: no function takes a parameter annotated ``bool`` or
defaulting to True or False. A flag next to a value can cancel it without a
word (a flag that turned joint trees off silently dropped the joint depth);
a value that is given or not, such as an optional depth, says the same in one
parameter.

Voxel coordinates stay behind the octree's probe: no module but ``octree``
decodes a Morton code. The leaf layout stays behind ``octree`` too: no other
module imports its private names (but ``_grid_to_tree``, whose calls the
benchmark traces as a layer) or reads a tree's leaf ``starts`` or ``sizes``.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re

import planar3rrr
from planar3rrr.aspects import AspectAtlas
from planar3rrr.geometry import FullConfiguration, GeometryConfig
from planar3rrr.trajectory import MonitorResult

CARRIERS = {"FullConfiguration", "AspectAtlas", "MonitorResult"}


def _mixes_geometries(fn) -> bool:
    """True when ``fn`` takes a GeometryConfig and a parameter whose type carries one."""
    names = [
        set(re.findall(r"\w+", p.annotation))
        for p in inspect.signature(fn).parameters.values()
        if isinstance(p.annotation, str)
    ]
    return any("GeometryConfig" in n for n in names) and any(n & CARRIERS for n in names)


def _package_functions(records: bool = True):
    """Every function and method defined in a module of the package, by qualified name.

    ``records=False`` leaves out the generated ``__init__`` of dataclasses,
    whose parameters are the fields of a record.
    """
    for info in pkgutil.iter_modules(planar3rrr.__path__):
        module = importlib.import_module(f"planar3rrr.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{obj.__qualname__}", obj
            elif inspect.isclass(obj):
                for key, member in vars(obj).items():
                    if not records and key == "__init__" and dataclasses.is_dataclass(obj):
                        continue
                    fn = getattr(member, "__func__", member)
                    if inspect.isfunction(fn):
                        yield f"{module.__name__}.{fn.__qualname__}", fn


def test_the_lint_sees_a_mixed_signature():
    def mixed(geom: GeometryConfig, config: FullConfiguration | None) -> None: ...

    def carried(atlas: AspectAtlas, path: MonitorResult) -> GeometryConfig: ...

    assert _mixes_geometries(mixed)
    assert not _mixes_geometries(carried)


def test_no_function_takes_a_second_geometry():
    functions = dict(_package_functions())
    assert {"planar3rrr.jacobians.jacobians", "planar3rrr.trajectory.monitor"} <= set(functions)
    assert [name for name, fn in functions.items() if _mixes_geometries(fn)] == []


#: The functions that apply the one singularity rule, each with an ``eps``.
TAKES_EPS = {
    "planar3rrr.batch.classify",
    "planar3rrr.jacobians.working_mode_of",
    "planar3rrr.jacobians.singularity_report",
    "planar3rrr.jacobians.forward_velocity",
    "planar3rrr.jacobians.inverse_velocity",
    "planar3rrr.aspects.same_aspect",
    "planar3rrr.aspects._same_component",
    "planar3rrr.trajectory.monitor",
}


def test_eps_is_the_only_tolerance_parameter():
    # A record's eps field (MonitorResult, SingularityReport) applies no tolerance.
    params = {name: inspect.signature(fn).parameters for name, fn in _package_functions(False)}
    knobs = [(name, p) for name, ps in params.items() for p in ps if p == "band" or "tol" in p]
    assert knobs == []
    assert {name for name, ps in params.items() if "eps" in ps} == TAKES_EPS


def _flag_parameters(fn) -> list[str]:
    """Parameters of ``fn`` annotated ``bool`` (or ``bool | None``) or defaulting
    to True or False. A tuple of per-axis bools is a value, not a switch."""
    return [
        p.name
        for p in inspect.signature(fn).parameters.values()
        if (isinstance(p.annotation, str) and _union_members(p.annotation) == {"bool"})
        or p.default is True
        or p.default is False
    ]


def _union_members(annotation: str) -> set[str]:
    """The types of a ``X | Y`` annotation string other than None."""
    return set(annotation.replace(" ", "").split("|")) - {"None"}


def test_the_lint_sees_a_flag():
    def annotated(tree, strict: bool | None) -> None: ...

    def defaulted(tree, strict=False) -> None: ...

    def valued(tree, depth: int | None = None, wrap: tuple[bool, bool] = (1, 0)) -> bool: ...

    assert _flag_parameters(annotated) == ["strict"]
    assert _flag_parameters(defaulted) == ["strict"]
    assert _flag_parameters(valued) == []


def test_no_function_takes_a_flag():
    # A record's bool field (a verdict, a singular flag) is a result, not a switch.
    functions = dict(_package_functions(False))
    assert "planar3rrr.aspects.enumerate_aspects" in functions
    flags = {name: _flag_parameters(fn) for name, fn in functions.items()}
    assert {name: params for name, params in flags.items() if params} == {}


def _names(module) -> set[str]:
    """Every name a module imports, reads or takes as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_only_octree_decodes_morton_codes():
    modules = [planar3rrr] + [
        importlib.import_module(f"planar3rrr.{info.name}")
        for info in pkgutil.iter_modules(planar3rrr.__path__)
    ]
    decoding = [m.__name__ for m in modules if "morton_decode" in _names(m)]
    assert decoding == ["planar3rrr.octree"]


#: The one private octree name other modules may call: the benchmark traces
#: its calls (``bench/spans.py``) as the ``octree.grid_to_tree`` layer.
OCTREE_SHARED = {"_grid_to_tree"}


def _leaf_layout_reads(source: str) -> list[str]:
    """Private ``octree`` names that ``source`` imports or reads, and the leaf
    ``starts`` or ``sizes`` it reads, in order of appearance."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "octree":
            found += [a.name for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Attribute):
            on_octree = isinstance(node.value, ast.Name) and node.value.id == "octree"
            if node.attr in ("starts", "sizes") or (on_octree and node.attr.startswith("_")):
                found.append(node.attr)
    return [name for name in found if name not in OCTREE_SHARED]


def test_the_lint_sees_the_leaf_layout():
    source = """
from .octree import Octree, _grid_to_tree, _probe_leaves, cube_tree
from planar3rrr.octree import _canonical_tree
from . import octree
def solid(tree):
    return octree._sorted_union(tree.starts, tree.sizes), octree.cube_tree, tree.label
"""
    assert _leaf_layout_reads(source) == [
        "_probe_leaves", "_canonical_tree", "_sorted_union", "starts", "sizes"
    ]
    assert _leaf_layout_reads("from .octree import _grid_to_tree, solid_components") == []


def test_only_octree_knows_the_leaf_layout():
    modules = [planar3rrr] + [
        importlib.import_module(f"planar3rrr.{info.name}")
        for info in pkgutil.iter_modules(planar3rrr.__path__)
    ]
    reads = {m.__name__: _leaf_layout_reads(inspect.getsource(m)) for m in modules}
    assert "planar3rrr.aspects" in reads
    del reads["planar3rrr.octree"]
    assert {name: found for name, found in reads.items() if found} == {}
