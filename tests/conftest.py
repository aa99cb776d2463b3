"""Shared pytest hooks and fixtures.

The acceptance module registers one summary line per numbered criterion; the
terminal-summary hook replays them in a dedicated section so the verdict is
visible even when every test passed and stdout was captured.
"""

import sys

import numpy as np
import pytest

from topoleak import attacks


@pytest.fixture
def stack_shapes(monkeypatch):
    """The (g, P) theta shape of every EDGEPRE training loop run, in order; a
    lone fit is a stack of one, (1, P)."""
    shapes = []
    loop = attacks._edgepre_fit

    def recording(arch, theta, *rest):
        shapes.append(np.shape(theta))
        return loop(arch, theta, *rest)

    monkeypatch.setattr(attacks, "_edgepre_fit", recording)
    return shapes


@pytest.fixture
def gat_stack_shapes(monkeypatch):
    """The (g, P) parameter shape of every INFERGAT training loop run, in
    order; a lone fit is a stack of one, (1, P)."""
    shapes = []
    loop = attacks._infergat_fit

    def recording(flats, *rest):
        shapes.append(np.shape(flats))
        return loop(flats, *rest)

    monkeypatch.setattr(attacks, "_infergat_fit", recording)
    return shapes


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for name in ("test_acceptance", "tests.test_acceptance"):
        mod = sys.modules.get(name)
        if mod is not None:
            break
    lines = getattr(mod, "RESULTS", None) if mod is not None else None
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
