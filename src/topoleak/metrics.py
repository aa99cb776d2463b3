"""Pairwise behavioral metrics between node models, and their orientation.

Two metrics compare node i's model with node j's, one per attacker
knowledge level: relative loss (model i evaluated on dataset j) for
attackers that hold the node datasets, and cosine similarity of parameter
vectors for those that do not.  ``orient_and_normalize`` turns either into
a FeatureMatrix in [0, 1] where larger means "more likely neighbors",
which is what the attack decoders consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConstantMetric, DegenerateModel, KnowledgeViolation, ParseError, ShapeError
from .nn import ModelParams, forward_batch, log_softmax


class MetricKind(Enum):
    RELATIVE_LOSS = "relative_loss"
    COSINE_SIMILARITY = "cosine_similarity"


@dataclass(frozen=True)
class MetricMatrix:
    kind: MetricKind
    values: np.ndarray
    round: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ShapeError(f"metric matrix must be square, got {v.shape}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class FeatureMatrix:
    """Oriented metric: off-diagonal min-maxed to [0, 1], diagonal = 1."""

    values: np.ndarray
    source_kinds: tuple[MetricKind, ...]
    norm_lo: float
    norm_hi: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if not np.isfinite(v).all():
            raise ShapeError("feature matrix entries must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]


def _check_models(models) -> np.ndarray:
    """Stack parameter vectors; accepts ModelParams or raw flat arrays."""
    if any(m is None for m in models):
        raise KnowledgeViolation("metric needs every node's model")
    return np.stack(
        [
            m.flat if isinstance(m, ModelParams) else np.asarray(m, dtype=np.float64)
            for m in models
        ]
    )


def _check_datasets(models, datasets) -> None:
    if len(datasets) != len(models) or any(d is None for d in datasets):
        raise KnowledgeViolation("metric needs every node's dataset")


def relative_loss(models, datasets, round: int = 0) -> MetricMatrix:
    """values[i][j] = mean softmax cross-entropy of model i on dataset j, from
    one forward per model over the datasets concatenated."""
    _check_models(models)
    _check_datasets(models, datasets)
    x = np.concatenate([d.features for d in datasets])
    y = np.concatenate([d.labels for d in datasets])
    bounds = np.cumsum([0] + [d.n_samples for d in datasets])
    out = np.zeros((len(models), len(datasets)))
    for i, model in enumerate(models):
        nll = -log_softmax(forward_batch(model, x))[np.arange(len(y)), y]
        out[i] = [nll[a:b].mean() for a, b in zip(bounds[:-1], bounds[1:])]
    return MetricMatrix(MetricKind.RELATIVE_LOSS, out, round)


def cosine_matrix(models, round: int = 0) -> MetricMatrix:
    flats = _check_models(models)
    norms = np.linalg.norm(flats, axis=1)
    if np.any(norms == 0):
        raise DegenerateModel("zero-norm parameter vector")
    unit = flats / norms[:, None]
    return MetricMatrix(MetricKind.COSINE_SIMILARITY, unit @ unit.T, round)


def orient_and_normalize(m: MetricMatrix) -> FeatureMatrix:
    """Map a metric to [0, 1] with larger = more likely connected.

    Cosine passes through.  Relative loss need not be symmetric, so it is
    averaged with its transpose, then negated (a lower loss is more alike).
    Off-diagonal entries are min-max normalized; the diagonal is set to 1.
    """
    v = m.values
    if m.kind is MetricKind.RELATIVE_LOSS:
        v = -0.5 * (v + v.T)
    n = v.shape[0]
    off = ~np.eye(n, dtype=bool)
    lo, hi = float(v[off].min()), float(v[off].max())
    if hi - lo <= 0.0:
        raise ConstantMetric(f"{m.kind.value} is constant off-diagonal; no signal")
    v = (v - lo) / (hi - lo)
    np.fill_diagonal(v, 1.0)
    return FeatureMatrix(v, (m.kind,), norm_lo=lo, norm_hi=hi)


# --- computing metrics from a simulation log --------------------------------

def metric_from_log(log, kind: MetricKind, phase: str = "post", last_k: int = 1) -> MetricMatrix:
    """Compute one metric from a log's snapshots.

    Defaults to the final round's post-aggregation models: aggregation pulls
    each neighbor's update directly into a node's parameters, so the mixed
    model scores its neighbors' data measurably better than strangers' data.
    Pre-aggregation snapshots see that coupling only one round delayed.
    last_k > 1 averages the metric over the last k rounds.
    """
    if phase not in ("pre", "post"):
        raise KnowledgeViolation(f"phase must be pre or post, got {phase!r}")
    t_final = len(log.deltas)
    if last_k < 1 or last_k > t_final:
        raise KnowledgeViolation(
            f"last_k={last_k} needs more rounds than the log's {t_final}"
        )
    datasets = [log.node_dataset(i) for i in range(log.n_nodes)]
    mats = []
    for t in range(t_final - last_k + 1, t_final + 1):
        models = log.models(t, phase)
        if kind is MetricKind.RELATIVE_LOSS:
            mats.append(relative_loss(models, datasets, round=t))
        elif kind is MetricKind.COSINE_SIMILARITY:
            mats.append(cosine_matrix(models, round=t))
        else:
            raise KnowledgeViolation(f"unknown metric kind {kind}")
    stacked = np.mean([m.values for m in mats], axis=0)
    return MetricMatrix(kind, stacked, round=t_final)


def feature_from_log(log, kind: MetricKind, **kw) -> FeatureMatrix:
    return orient_and_normalize(metric_from_log(log, kind, **kw))


# --- serialization ----------------------------------------------------------

def dump_matrix_csv(values: np.ndarray) -> str:
    return "\n".join(",".join(repr(float(x)) for x in row) for row in values) + "\n"


def load_matrix_csv(text: str) -> np.ndarray:
    """Rows of finite numbers, all of one length; blank lines are skipped."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = [float(x) for x in line.split(",")]
        except ValueError:
            raise ParseError(lineno, f"non-numeric field in {line!r}") from None
        if not np.isfinite(row).all():
            raise ParseError(lineno, f"non-finite field in {line!r}")
        if rows and len(row) != len(rows[0]):
            raise ParseError(lineno, f"expected {len(rows[0])} fields, got {len(row)}")
        rows.append(row)
    return np.array(rows, dtype=np.float64)

