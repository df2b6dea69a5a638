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
module reads a tree's leaf ``starts`` or ``sizes``. Private names stay in
their module: no module imports or reads another module's private name (but
``octree._grid_to_tree``, whose calls the benchmark traces as a layer).

One number rule: only ``geometry`` decides whether a scalar is a finite (or
positive) number, in ``as_float`` and ``as_positive``. No other module reads
``math.isfinite`` or compares a value with ``math.inf``; an inline copy of the
rule drifts from it (one read True as 1, another "6" as 6).

One integer rule: only ``geometry.as_int`` decides whether a value is an
integer in range. No other module tests a value with ``isinstance(..., bool)``,
the test every integer check needs, since a bool is an int; three copies of it
once lived in ``aspects``, ``trajectory`` and ``cli``, and three integer inputs
had none.
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
    "planar3rrr.aspects.same_component",
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


def _modules() -> list:
    """The package and every module in it."""
    return [planar3rrr] + [
        importlib.import_module(f"planar3rrr.{info.name}")
        for info in pkgutil.iter_modules(planar3rrr.__path__)
    ]


def test_only_octree_decodes_morton_codes():
    decoding = [m.__name__ for m in _modules() if "morton_decode" in _names(m)]
    assert decoding == ["planar3rrr.octree"]


#: The one private name other modules may call: the benchmark traces its
#: calls (``bench/spans.py``) as the ``octree.grid_to_tree`` layer.
SHARED_PRIVATE = {"octree._grid_to_tree"}

#: The modules of the package, by the names they are imported under.
MODULES = {info.name for info in pkgutil.iter_modules(planar3rrr.__path__)}


def _private_reads(source: str) -> list[str]:
    """Private names of package modules that ``source`` imports or reads, as
    ``module._name`` (but SHARED_PRIVATE), and the leaf ``starts`` or
    ``sizes`` it reads, in ``ast.walk`` order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "planar3rrr"
        ):
            module = (node.module or "planar3rrr").split(".")[-1]
            found += [f"{module}.{a.name}" for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Attribute):
            name = node.value.id if isinstance(node.value, ast.Name) else None
            if name in MODULES and node.attr.startswith("_") and not node.attr.startswith("__"):
                found.append(f"{name}.{node.attr}")
            elif node.attr in ("starts", "sizes"):
                found.append(node.attr)
    return [name for name in found if name not in SHARED_PRIVATE]


def test_the_lint_sees_the_leaf_layout():
    source = """
from .octree import Octree, _grid_to_tree, _probe_leaves, cube_tree
from planar3rrr.octree import _canonical_tree
from . import octree
def solid(tree):
    return octree._sorted_union(tree.starts, tree.sizes), octree.cube_tree, tree.label
"""
    assert _private_reads(source) == [
        "octree._probe_leaves", "octree._canonical_tree", "octree._sorted_union", "starts", "sizes"
    ]
    assert _private_reads("from .octree import _grid_to_tree, solid_components") == []


def test_the_lint_sees_private_names_of_every_module():
    # The three reads the lint found when it grew from octree to every module.
    source = """
from .aspects import AspectAtlas, _same_component
from planar3rrr.aspects import _SIGN_TAG
from . import batch, _version
def check(config, depth):
    return batch._a_row, batch.MODE_ORDER, aspects._check_depth(depth), config.__class__
"""
    assert _private_reads(source) == [
        "aspects._same_component", "aspects._SIGN_TAG", "planar3rrr._version",
        "batch._a_row", "aspects._check_depth",
    ]
    assert _private_reads("from .aspects import SIGN_TAG, check_depth, same_component") == []
    # A module's own private names, and those of other packages, are not another module's.
    assert _private_reads("import numpy as np\nx = _helper(np._NoValue)") == []


def _module_reads() -> dict[str, list[str]]:
    return {m.__name__: _private_reads(inspect.getsource(m)) for m in _modules()}


def test_only_octree_knows_the_leaf_layout():
    reads = _module_reads()
    assert "planar3rrr.aspects" in reads
    del reads["planar3rrr.octree"]
    layout = {
        name: [r for r in found if r in ("starts", "sizes") or r.startswith("octree.")]
        for name, found in reads.items()
    }
    assert {name: found for name, found in layout.items() if found} == {}


def test_no_module_imports_a_private_name_of_another():
    private = {name: [r for r in found if "." in r] for name, found in _module_reads().items()}
    assert set(private) == {"planar3rrr", *(f"planar3rrr.{m}" for m in MODULES)}
    assert {name: found for name, found in private.items() if found} == {}


def _is_math(node, name: str) -> bool:
    return (
        isinstance(node, ast.Attribute) and node.attr == name
        and isinstance(node.value, ast.Name) and node.value.id == "math"
    )


def _number_checks(source: str) -> list[str]:
    """The inline number checks of ``source``, by line: each read or import of
    ``math.isfinite`` and each comparison with ``math.inf``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if _is_math(node, "isfinite"):
            found.append((node.lineno, "math.isfinite"))
        elif isinstance(node, ast.Compare) and any(
            _is_math(v, "inf") for v in (node.left, *node.comparators)
        ):
            found.append((node.lineno, "math.inf comparison"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            names = [a.name for a in node.names if a.name in ("isfinite", "inf")]
            found += [(node.lineno, f"math.{name}") for name in names]
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_the_lint_sees_an_inline_number_check():
    # Reads, imports and comparisons are flagged; np.isfinite, a bare math.inf
    # and other math names are not.
    source = """
import math
from math import inf, isfinite, pi
def check(eps, limit, lo):
    if not all(map(math.isfinite, lo)) or not 0.0 < eps < math.inf:
        raise ValueError(eps)
    return math.isfinite(limit) and limit != math.inf
def fine(x):
    return np.isfinite(x), math.inf, math.pi, x < inf_bound
"""
    assert _number_checks(source) == [
        "line 3: math.inf", "line 3: math.isfinite", "line 5: math.inf comparison",
        "line 5: math.isfinite", "line 7: math.inf comparison", "line 7: math.isfinite",
    ]


def test_only_geometry_checks_a_number():
    checks = {m.__name__: _number_checks(inspect.getsource(m)) for m in _modules()}
    assert checks.pop("planar3rrr.geometry") != []
    assert "planar3rrr.cli" in checks
    assert {name: found for name, found in checks.items() if found} == {}


def _integer_checks(source: str) -> list[str]:
    """The inline integer checks of ``source``, by line: each ``isinstance`` call
    whose class argument is ``bool`` or a tuple holding it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            kinds = node.args[1:]
            kinds = kinds[0].elts if kinds and isinstance(kinds[0], ast.Tuple) else kinds
            if any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds):
                found.append(f"line {node.lineno}: isinstance(..., bool)")
    return found


def test_the_lint_sees_an_inline_integer_check():
    # A bool alone or in a tuple is flagged; other classes and np.bool_ are not.
    source = """
def check(depth, n, flag):
    if isinstance(depth, bool) or not isinstance(depth, (int, np.integer)):
        raise ValueError(depth)
    return isinstance(n, (int, bool)), isinstance(flag, np.bool_), isinstance(n, int)
"""
    flagged = ["line 3: isinstance(..., bool)", "line 5: isinstance(..., bool)"]
    assert _integer_checks(source) == flagged


def test_only_geometry_checks_an_integer():
    checks = {m.__name__: _integer_checks(inspect.getsource(m)) for m in _modules()}
    assert checks.pop("planar3rrr.geometry") != []
    assert "planar3rrr.cli" in checks
    assert {name: found for name, found in checks.items() if found} == {}
