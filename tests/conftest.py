"""Shared pytest hooks and fixtures.

The acceptance module registers one summary line per numbered criterion; the
terminal-summary hook replays them in a dedicated section so the verdict is
visible even when every test passed and stdout was captured.
"""

import sys
from pathlib import Path

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


# damages to a saved log's partition.txt, as a function of its lines, and
# what the InvalidTrace that load_log raises for each says
PARTITION_DAMAGES = {
    "index_999": (lambda ls: [ls[0] + " 999", *ls[1:]], "holds sample 999, outside [0, "),
    "last_line_dropped": (lambda ls: ls[:-1], "lines; the topology has"),
    "index_x": (lambda ls: [ls[0] + " x", *ls[1:]], "a sample index that is not an integer"),
    "index_minus_1": (lambda ls: [ls[0] + " -1", *ls[1:]], "holds sample -1, outside [0, "),
    "overlap": (
        lambda ls: [ls[0], f"{ls[1]} {ls[0].split()[0]}", *ls[2:]], "which is already assigned"
    ),
    "empty_line": (lambda ls: [ls[0], "", *ls[2:]], "line 2 is empty"),
    # "\udcff" is written as the lone byte 0xff (see _rewrite_lines)
    "not_utf8": (lambda ls: [ls[0] + " \udcff", *ls[1:]], "is not UTF-8 text"),
}


# damages to a saved log's topology.edges and dataset.csv: the file, its new
# lines as a function of its lines, and what load_log's InvalidTrace says besides
# the file's name
INPUT_DAMAGES = {
    "dataset_non_numeric": (
        "dataset.csv", lambda ls: [*ls[:2], "abc," + ls[2].split(",", 1)[1], *ls[3:]],
        "line 3: non-numeric field in 'abc,",
    ),
    "dataset_rows_dropped": ("dataset.csv", lambda ls: ls[:1], "line 1: no data rows"),
    "topology_bad_sizes": (
        "topology.edges", lambda ls: ["0 1", "1 2"], "line 1: invalid sizes N=0 M=1"
    ),
    "topology_edge_dropped": ("topology.edges", lambda ls: ls[:-1], "edge lines, found"),
}


def _set(key, value):
    """A damage that sets ``key`` of config.ini to ``value``."""
    return lambda ls: [f"{key} = {value}" if ln.startswith(f"{key} = ") else ln for ln in ls]


# damages to a saved log's config.ini that the simulation's own checks refuse,
# in INPUT_DAMAGES' shape
CONFIG_DAMAGES = {
    "local_epochs_0": ("config.ini", _set("local_epochs", 0), "local_epochs must be >= 1, got 0"),
    "batch_size_0": ("config.ini", _set("batch_size", 0), "batch_size must be >= 1, got 0"),
    "learning_rate_nan": (
        "config.ini", _set("learning_rate", "nan"), "learning_rate must be finite and >= 0, got nan"
    ),
    "optimizer_bogus": (
        "config.ini", _set("optimizer", "bogus"), "optimizer must be sgd or adam, got 'bogus'"
    ),
    "hidden_sizes_0": ("config.ini", _set("hidden_sizes", 0), "all layer sizes must be >= 1"),
    "activation_bogus": ("config.ini", _set("activation", "bogus"), "activation must be one of"),
    "rounds_negative": ("config.ini", _set("rounds", -2), "rounds must be >= 1, got -2"),
    "dp_clip_norm_negative": (
        "config.ini", lambda ls: [*ls, "[dp]", "clip_norm = -1", "noise_sigma = 0.5", "seed = 0"],
        "clip_norm must be finite and > 0, got -1.0",
    ),
    "dp_noise_sigma_inf": (
        "config.ini", lambda ls: [*ls, "[dp]", "clip_norm = 1", "noise_sigma = inf", "seed = 0"],
        "noise_sigma must be finite and >= 0, got inf",
    ),
}


def _rewrite_lines(path, damage):
    text = "\n".join(damage(path.read_text().splitlines())) + "\n"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))


@pytest.fixture(params=list(PARTITION_DAMAGES))
def partition_damage(request):
    """Damage the partition.txt of the saved log in a directory; returns what
    the InvalidTrace that load_log raises then says."""
    damage, message = PARTITION_DAMAGES[request.param]

    def apply(log_dir):
        _rewrite_lines(Path(log_dir, "partition.txt"), damage)
        return message

    return apply


@pytest.fixture(params=[*INPUT_DAMAGES, *CONFIG_DAMAGES])
def input_damage(request):
    """Damage the topology.edges, dataset.csv or config.ini of the saved log in
    a directory; returns the file's name and what the InvalidTrace that
    load_log raises then says."""
    name, damage, message = {**INPUT_DAMAGES, **CONFIG_DAMAGES}[request.param]

    def apply(log_dir):
        _rewrite_lines(Path(log_dir, name), damage)
        return name, message

    return apply


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
