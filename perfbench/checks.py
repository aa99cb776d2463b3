"""Output checks. Each returns a list of problems; an empty list passes.

A job with any problem counts all of its cells as failed.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from topoleak.engine import closed_form_final
from topoleak.topology import aggregation_matrix

EVAL_FIELDS = ("f1_05", "best_f1", "best_tau", "auc", "precision", "recall")
CLOSED_FORM_TOL = 1e-9  # the bound of acceptance criterion 3


def check_soft(values, label: str = "soft") -> list[str]:
    """Square, symmetric, finite, every entry within [0, 1]."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        return [f"{label}: not square, shape {v.shape}"]
    if not np.isfinite(v).all():
        return [f"{label}: non-finite entries"]
    problems = []
    if not np.allclose(v, v.T, rtol=0.0, atol=1e-12):
        problems.append(f"{label}: not symmetric")
    if v.min() < 0.0 or v.max() > 1.0:
        problems.append(f"{label}: entries outside [0, 1]")
    return problems


def check_eval(ev: dict, label: str = "eval") -> list[str]:
    """Every EvalResult score field within [0, 1]."""
    return [
        f"{label}: {name}={ev[name]!r} outside [0, 1]"
        for name in EVAL_FIELDS
        if not 0.0 <= float(ev[name]) <= 1.0
    ]


def check_sweep_csv(text: str, columns, experiment_ids) -> list[str]:
    """Header equals ``columns``; one ``ok`` row per cell, in cell order."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != tuple(columns):
        return ["sweep csv: header differs from CSV_COLUMNS"]
    body = rows[1:]
    got_ids = [r[0] for r in body]
    if got_ids != list(experiment_ids):
        return [f"sweep csv: {len(body)} rows do not match the {len(experiment_ids)} cells"]
    status = list(columns).index("status")
    bad = [r[0] for r in body if len(r) != len(columns) or r[status] != "ok"]
    return [f"sweep csv: row {eid} not ok" for eid in bad]


def closed_form_gap(log) -> float:
    """Max |final post-aggregation params - closed form| over a loaded log."""
    p = aggregation_matrix(log.adjacency)
    m0 = np.stack([q.flat for q in log.initial_params])
    deltas = [np.stack(tr.deltas) for tr in log.traces]
    post = np.stack([q.flat for q in log.traces[-1].params_post_agg])
    return float(np.abs(closed_form_final(p, m0, deltas) - post).max())
