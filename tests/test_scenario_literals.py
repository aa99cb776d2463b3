"""No module decides the scenario taxonomy outside ``attacks.SCENARIOS``.

What an SC1-SC4 attacker holds, and so which feature and which attack it
gets, is written once in that table. A membership test of a scenario value
against a tuple of int literals (``s in (1, 3)``) is a second copy of the
taxonomy, so this reads the library's source with ``ast`` and fails on any.
A scenario value is an operand whose source text contains ``scenario``, or
the bare name ``sc`` or ``s``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "topoleak"


def _is_scenario(node: ast.expr, text: str) -> bool:
    if isinstance(node, ast.Name) and node.id in ("sc", "s"):
        return True
    return "scenario" in (ast.get_source_segment(text, node) or "")


def _is_int_literals(node: ast.expr) -> bool:
    return isinstance(node, (ast.Tuple, ast.List, ast.Set)) and all(
        isinstance(e, ast.Constant) and type(e.value) is int for e in node.elts
    )


def scenario_literal_tests(text: str) -> list[int]:
    """Lines of ``text`` that test a scenario value for membership in int literals."""
    hits = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.Compare):
            continue
        lefts = [node.left, *node.comparators[:-1]]
        for left, op, right in zip(lefts, node.ops, node.comparators):
            if isinstance(op, (ast.In, ast.NotIn)) and _is_int_literals(right) and _is_scenario(
                left, text
            ):
                hits.append(node.lineno)
    return hits


@pytest.mark.parametrize("code", [
    "s in (1, 3)",
    "sc not in (1, 2)",
    "self.scenario not in (1, 2, 3, 4)",
    'doc.get("scenario") in (1, 2)',
    "0 < args.scenario in (1, 2)",
])
def test_rule_finds_a_scenario_literal(code):
    assert scenario_literal_tests(code) == [1]


@pytest.mark.parametrize("code", [
    "label not in (0, 1)",
    "theta.ndim not in (1, 2)",
    "n_edges in (0, len(candidates))",
    "scenario in SCENARIOS",
    "policy not in (None, 'all_pairs')",
])
def test_rule_passes_other_membership_tests(code):
    assert scenario_literal_tests(code) == []


def test_no_module_tests_a_scenario_against_literals():
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources under {SRC}"
    hits = [
        f"{f.name}:{line}" for f in files for line in scenario_literal_tests(f.read_text())
    ]
    assert not hits, f"read attacks.SCENARIOS instead of int literals at {', '.join(hits)}"
