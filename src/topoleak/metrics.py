"""Pairwise behavioral metrics between node models, and their orientation.

Six metrics compare node i's model with node j's model or local data:
three relative metrics (loss, entropy, sensitivity: model i evaluated on
dataset j) and three parameter-space metrics (cosine, euclidean similarity,
curvature divergence of update vectors).  ``orient_and_normalize`` turns any
of them into a FeatureMatrix in [0, 1] where larger means "more likely
neighbors", which is what the attack decoders consume.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ConstantMetric, DegenerateModel, KnowledgeViolation, ShapeError
from .nn import ModelParams, forward_batch, jacobian, log_softmax
from .seeds import rng_for

SENSITIVITY_SUBSAMPLE = 32


class MetricKind(Enum):
    RELATIVE_LOSS = "relative_loss"
    RELATIVE_ENTROPY = "relative_entropy"
    RELATIVE_SENSITIVITY = "relative_sensitivity"
    COSINE_SIMILARITY = "cosine_similarity"
    EUCLIDEAN_SIMILARITY = "euclidean_similarity"
    CURVATURE_DIVERGENCE = "curvature_divergence"


# kinds where larger values mean "more alike"; the rest get negated
SIMILARITY_KINDS = frozenset({MetricKind.COSINE_SIMILARITY, MetricKind.EUCLIDEAN_SIMILARITY})
# kinds where entry (i, j) need not equal (j, i); symmetrized by averaging
ASYMMETRIC_KINDS = frozenset(
    {MetricKind.RELATIVE_LOSS, MetricKind.RELATIVE_ENTROPY, MetricKind.RELATIVE_SENSITIVITY}
)


@dataclass(frozen=True)
class MetricMatrix:
    kind: MetricKind
    values: np.ndarray
    round: int
    diagonal_defined: bool = True

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


def relative_entropy(models, datasets, round: int = 0) -> MetricMatrix:
    """values[i][j] = -(1/|D_j|) sum_x sum_k y_k(x) log f_ik(x), one-hot y.

    Against a one-hot label only the true class's term survives, so this is
    relative_loss under its own kind.
    """
    return MetricMatrix(MetricKind.RELATIVE_ENTROPY, relative_loss(models, datasets, round).values, round)


def relative_sensitivity(
    models, datasets, subsample: int = SENSITIVITY_SUBSAMPLE, seed: int = 0, round: int = 0
) -> MetricMatrix:
    """Mean Frobenius norm of the softmax-output Jacobian of model i over a
    deterministic subsample of dataset j."""
    _check_models(models)
    _check_datasets(models, datasets)
    if subsample < 1:
        raise KnowledgeViolation(f"subsample must be >= 1, got {subsample}")
    n = len(models)
    picks = []
    for j, d in enumerate(datasets):
        take = min(subsample, d.n_samples)
        picks.append(rng_for(seed, "sens", j).choice(d.n_samples, size=take, replace=False))
    out = np.zeros((n, n))
    for i, model in enumerate(models):
        for j, d in enumerate(datasets):
            norms = [np.linalg.norm(jacobian(model, d.features[s])) for s in picks[j]]
            out[i, j] = np.mean(norms)
    return MetricMatrix(MetricKind.RELATIVE_SENSITIVITY, out, round)


def cosine_matrix(models, round: int = 0) -> MetricMatrix:
    flats = _check_models(models)
    norms = np.linalg.norm(flats, axis=1)
    if np.any(norms == 0):
        raise DegenerateModel("zero-norm parameter vector")
    unit = flats / norms[:, None]
    return MetricMatrix(MetricKind.COSINE_SIMILARITY, unit @ unit.T, round)


def euclidean_matrix(models, round: int = 0) -> MetricMatrix:
    flats = _check_models(models)
    diff = flats[:, None, :] - flats[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    return MetricMatrix(MetricKind.EUCLIDEAN_SIMILARITY, 1.0 / (1.0 + dist), round)


def curvature_divergence_matrix(models_t, models_t_minus_1, round: int = 0) -> MetricMatrix:
    """values[i][j] = |d_i - d_j| / ((|d_i| + |d_j|) / 2), d = theta_t - theta_{t-1}.

    Entries where both updates are zero are defined as 0 (identical motion).
    """
    now = _check_models(models_t)
    before = _check_models(models_t_minus_1)
    if now.shape != before.shape:
        raise ShapeError(f"snapshot shapes differ: {now.shape} vs {before.shape}")
    upd = now - before
    norms = np.linalg.norm(upd, axis=1)
    n = upd.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            denom = 0.5 * (norms[i] + norms[j])
            if denom == 0.0:
                out[i, j] = 0.0
            else:
                out[i, j] = np.linalg.norm(upd[i] - upd[j]) / denom
    return MetricMatrix(MetricKind.CURVATURE_DIVERGENCE, out, round)


def orient_and_normalize(m: MetricMatrix) -> FeatureMatrix:
    """Map a metric to [0, 1] with larger = more likely connected.

    Similarity kinds pass through; dissimilarity kinds are negated;
    asymmetric kinds are symmetrized by averaging with their transpose.
    Off-diagonal entries are min-max normalized; the diagonal is set to 1.
    """
    v = m.values.copy()
    if m.kind in ASYMMETRIC_KINDS:
        v = 0.5 * (v + v.T)
    if m.kind not in SIMILARITY_KINDS:
        v = -v
    n = v.shape[0]
    off = ~np.eye(n, dtype=bool)
    lo, hi = float(v[off].min()), float(v[off].max())
    if hi - lo <= 0.0:
        raise ConstantMetric(f"{m.kind.value} is constant off-diagonal; no signal")
    v = (v - lo) / (hi - lo)
    np.fill_diagonal(v, 1.0)
    return FeatureMatrix(v, (m.kind,), norm_lo=lo, norm_hi=hi)


# --- computing metrics from a simulation log --------------------------------

def metric_from_log(
    log,
    kind: MetricKind,
    phase: str = "post",
    last_k: int = 1,
    subsample: int = SENSITIVITY_SUBSAMPLE,
    seed: int = 0,
) -> MetricMatrix:
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
    first_needed = 2 if kind is MetricKind.CURVATURE_DIVERGENCE else 1
    if last_k < 1 or t_final - last_k + 1 < first_needed:
        raise KnowledgeViolation(
            f"last_k={last_k} needs more rounds than the log's {t_final}"
        )
    datasets = [log.node_dataset(i) for i in range(log.n_nodes)]
    mats = []
    for t in range(t_final - last_k + 1, t_final + 1):
        models = log.models(t, phase)
        if kind is MetricKind.RELATIVE_LOSS:
            mats.append(relative_loss(models, datasets, round=t))
        elif kind is MetricKind.RELATIVE_ENTROPY:
            mats.append(relative_entropy(models, datasets, round=t))
        elif kind is MetricKind.RELATIVE_SENSITIVITY:
            mats.append(relative_sensitivity(models, datasets, subsample, seed, round=t))
        elif kind is MetricKind.COSINE_SIMILARITY:
            mats.append(cosine_matrix(models, round=t))
        elif kind is MetricKind.EUCLIDEAN_SIMILARITY:
            mats.append(euclidean_matrix(models, round=t))
        elif kind is MetricKind.CURVATURE_DIVERGENCE:
            prev = log.models(t - 1, phase)
            mats.append(curvature_divergence_matrix(models, prev, round=t))
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
    rows = [
        [float(x) for x in line.split(",")]
        for line in text.splitlines()
        if line.strip()
    ]
    return np.array(rows, dtype=np.float64)


def save_metric(m: MetricMatrix, path_base) -> None:
    base = Path(path_base)
    base.with_suffix(".csv").write_text(dump_matrix_csv(m.values))
    meta = {"kind": m.kind.value, "round": m.round, "diagonal_defined": m.diagonal_defined}
    base.with_suffix(".meta.json").write_text(json.dumps(meta, indent=2) + "\n")


def save_feature(fm: FeatureMatrix, path_base) -> None:
    base = Path(path_base)
    base.with_suffix(".csv").write_text(dump_matrix_csv(fm.values))
    meta = {
        "kinds": [k.value for k in fm.source_kinds],
        "norm_lo": fm.norm_lo,
        "norm_hi": fm.norm_hi,
    }
    base.with_suffix(".meta.json").write_text(json.dumps(meta, indent=2) + "\n")
