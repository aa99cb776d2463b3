"""The program names the benchmark harness reads still resolve.

``perfbench/workloads.py`` and ``perfbench/checks.py`` call topoleak through
module attributes (``evaluation.run_scenario``) and ``from topoleak.X import
Y``, and ``perfbench/layers.py`` lists in ``EXPECTED`` the ``"module.name"``
functions its per-layer metrics read. A renamed or deleted name fails every
job of a workload at run time, or reads as missing, so this reads their
source with ``ast``, without importing the harness, and resolves each name
against the library.
"""

import ast
import importlib
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parents[1] / "perfbench"
FILES = ("workloads.py", "checks.py")


def harness_names(fname: str) -> set[tuple[str, str]]:
    """(module, attribute) for every topoleak name the file reads."""
    tree = ast.parse((HARNESS / fname).read_text(), filename=fname)
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "topoleak":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"topoleak.{alias.name}"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("topoleak."):
            names |= {(node.module, alias.name) for alias in node.names}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            names.add((modules[node.value.id], node.attr))
    return names


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
