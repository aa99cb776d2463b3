"""The program names the benchmark harness reads still resolve.

``perfbench/workloads.py`` and ``perfbench/checks.py`` call topoleak through
module attributes (``evaluation.run_scenario``) and ``from topoleak.X import
Y``, and ``perfbench/layers.py`` lists in ``EXPECTED`` the ``"module.name"``
functions its per-layer metrics read. A renamed or deleted name fails every
job of a workload at run time, or reads as missing, so this reads their
source with ``ast``, without importing the harness, and resolves each name
against the library. A call must also bind to the signature it calls: a
deleted keyword fails every job of a workload just as a deleted name does.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parents[1] / "perfbench"
FILES = ("workloads.py", "checks.py")


def _topoleak_imports(tree) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
    """The file's topoleak modules by local name, and the names it imports from them."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "topoleak":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"topoleak.{alias.name}"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("topoleak."):
            for alias in node.names:
                names[alias.asname or alias.name] = (node.module, alias.name)
    return modules, names


def _parse(fname: str):
    return ast.parse((HARNESS / fname).read_text(), filename=fname)


def _target(node, modules, names) -> tuple[str, str] | None:
    """(module, attribute) when ``node`` is ``module.attr`` or an imported topoleak name."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ):
        return modules[node.value.id], node.attr
    if isinstance(node, ast.Name):
        return names.get(node.id)
    return None


def harness_names(fname: str) -> set[tuple[str, str]]:
    """(module, attribute) for every topoleak name the file reads."""
    tree = _parse(fname)
    modules, names = _topoleak_imports(tree)
    found = set(names.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (target := _target(node, modules, {})):
            found.add(target)
    return found


def harness_calls(fname: str) -> list[tuple[int, str, str, int, tuple[str, ...]]]:
    """(line, module, attribute, positional count, keyword names) for every call
    the file makes to a topoleak name. A call with ``*args`` or ``**kwargs``
    cannot be bound from its source, so it is left out."""
    tree = _parse(fname)
    modules, names = _topoleak_imports(tree)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not (target := _target(node.func, modules, names)):
            continue
        keywords = tuple(k.arg for k in node.keywords)
        if None in keywords or any(isinstance(a, ast.Starred) for a in node.args):
            continue
        calls.append((node.lineno, *target, len(node.args), keywords))
    return sorted(calls)


def expected_names() -> set[tuple[str, str]]:
    """(module, attribute) for every ``"module.name"`` in layers.py's ``EXPECTED``."""
    tree = ast.parse((HARNESS / "layers.py").read_text(), filename="layers.py")
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "EXPECTED" for t in node.targets
        ):
            dotted = ast.literal_eval(node.value)
            return {(f"topoleak.{m}", a) for m, a in (d.split(".") for d in dotted)}
    raise AssertionError("layers.py assigns no EXPECTED")


NAMES = sorted(set().union(*(harness_names(f) for f in FILES), expected_names()))


def test_every_harness_file_reads_the_library():
    for fname in FILES:
        assert harness_names(fname), f"{fname} reads no topoleak name"
    assert expected_names(), "layers.py lists no EXPECTED name"


@pytest.mark.parametrize("module,attr", NAMES, ids=[f"{m[9:]}.{a}" for m, a in NAMES])
def test_harness_name_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr), f"{module}.{attr} is gone"


def test_harness_calls_bind_to_their_signatures():
    calls = [(fname, *call) for fname in FILES for call in harness_calls(fname)]
    assert calls, "the harness calls no topoleak name"
    unbound = []
    for fname, line, module, attr, n_args, keywords in calls:
        target = getattr(importlib.import_module(module), attr)
        try:
            inspect.signature(target).bind(*[None] * n_args, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"{fname}:{line} {module}.{attr}: {exc}")
    assert not unbound, "\n".join(unbound)
