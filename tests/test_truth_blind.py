"""No attack reads the ground truth.

An attack gets the attacker's knowledge: the features a log yields and the
labeled pairs E'. The true adjacency is what its result is scored against,
outside ``attacks.py``. An ``.adjacency`` attribute there (of a log, most
likely) would hand an attack the truth, so this reads the module's source
with ``ast`` and fails on any.
"""

import ast
from pathlib import Path

import pytest

ATTACKS = Path(__file__).resolve().parents[1] / "src" / "topoleak" / "attacks.py"


def adjacency_reads(text: str) -> list[int]:
    """Lines of ``text`` that name an ``adjacency`` attribute, directly or through ``getattr``."""
    hits = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Attribute) and node.attr == "adjacency":
            hits.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and any(isinstance(a, ast.Constant) and a.value == "adjacency" for a in node.args)
        ):
            hits.append(node.lineno)
    return hits


@pytest.mark.parametrize("code", [
    "log.adjacency",
    "truth = run.log.adjacency[i, j]",
    "adj = getattr(log, 'adjacency')",
    "sum(x.adjacency.sum() for x in logs)",
])
def test_rule_finds_an_adjacency_read(code):
    assert adjacency_reads(code) == [1]


@pytest.mark.parametrize("code", [
    "adj = adjacency_matrix(topology)",
    "adjacency = np.zeros((n, n))",
    "label = 'log.adjacency'",
    "log.adjacency_hint",
])
def test_rule_passes_other_code(code):
    assert adjacency_reads(code) == []


def test_attacks_never_read_an_adjacency():
    hits = adjacency_reads(ATTACKS.read_text())
    assert not hits, f"attacks.py reads an adjacency at lines {hits}; score outside the attack"
