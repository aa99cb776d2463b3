"""Pairwise behavioral metrics between node models, and their orientation.

Two metrics compare node i's model with node j's, one per attacker
knowledge level: relative loss (model i evaluated on dataset j) for
attackers that hold the node datasets, and cosine similarity of parameter
vectors for those that do not.  Each is a plain float64 (n, n) array;
``orient_and_normalize(values, kind)`` turns either into a FeatureMatrix in
[0, 1] where larger means "more likely neighbors", which the attacks consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .data import number_rows
from .errors import ConstantMetric, DegenerateModel, InvalidConfig, KnowledgeViolation, ShapeError
from .nn import MlpArchitecture, forward_batch, log_softmax


class MetricKind(Enum):
    RELATIVE_LOSS = "relative_loss"
    COSINE_SIMILARITY = "cosine_similarity"


def frozen_symmetric(values, name: str) -> np.ndarray:
    """A read-only float64 copy of ``values``, which must be finite (checked
    first: NaN is not equal to itself), square and exactly symmetric."""
    v = np.asarray(values, dtype=np.float64)
    if not np.isfinite(v).all():
        raise ShapeError(f"{name} entries must be finite")
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ShapeError(f"{name} must be square, got {v.shape}")
    if not np.array_equal(v, v.T):
        raise ShapeError(f"{name} must be exactly symmetric")
    v = v.copy()
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class FeatureMatrix:
    """Oriented metric: off-diagonal min-maxed to [0, 1], diagonal = 1.

    Square, finite and exactly symmetric: x_ij is one score of the unordered
    pair {i, j}, so an attack reads it once, at i < j.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", frozen_symmetric(self.values, "feature matrix"))

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]


def relative_loss(arch: MlpArchitecture, params: np.ndarray, datasets) -> np.ndarray:
    """out[i][j] = mean softmax cross-entropy of model i (row i of an (n, P)
    stack) on dataset j, from one forward per model over the datasets concatenated.

    The datasets of one length are gathered as the rows of one array and
    summed along them, then divided by that length: a row sum adds a dataset's
    losses in the order its own ``.mean()`` does, so the bits are the same.
    """
    if len(datasets) != len(params) or any(d is None for d in datasets):
        raise KnowledgeViolation("metric needs every node's dataset")
    x = np.concatenate([d.features for d in datasets])
    y = np.concatenate([d.labels for d in datasets])
    sizes = np.array([d.n_samples for d in datasets])
    starts = np.cumsum(sizes) - sizes
    groups = []
    for size in set(sizes.tolist()):
        cols = np.flatnonzero(sizes == size)
        groups.append((cols, starts[cols, None] + np.arange(size), size))
    rows = np.arange(len(y))
    out = np.zeros((len(params), len(datasets)))
    for i, theta in enumerate(params):
        nll = -log_softmax(forward_batch((arch, theta), x))[rows, y]
        for cols, idx, size in groups:
            out[i, cols] = nll[idx].sum(axis=1) / size
    return out


def cosine_matrix(params: np.ndarray) -> np.ndarray:
    """[i][j] = cosine similarity of rows i and j of an (n, P) stack, (n, n)."""
    flats = np.asarray(params, dtype=np.float64)
    norms = np.linalg.norm(flats, axis=1)
    if np.any(norms == 0):
        raise DegenerateModel("zero-norm parameter vector")
    unit = flats / norms[:, None]
    return unit @ unit.T


def orient_and_normalize(values: np.ndarray, kind: MetricKind) -> FeatureMatrix:
    """Map a square metric of ``kind`` to [0, 1] with larger = more likely connected.

    Cosine passes through.  Relative loss need not be symmetric, so it is
    averaged with its transpose, then negated (a lower loss is more alike).
    Off-diagonal entries are min-max normalized; the diagonal is set to 1.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ShapeError(f"metric matrix must be square, got {v.shape}")
    if kind is MetricKind.RELATIVE_LOSS:
        v = -0.5 * (v + v.T)
    n = v.shape[0]
    off = ~np.eye(n, dtype=bool)
    lo, hi = float(v[off].min()), float(v[off].max())
    if hi - lo <= 0.0:
        raise ConstantMetric(f"{kind.value} is constant off-diagonal; no signal")
    v = (v - lo) / (hi - lo)
    np.fill_diagonal(v, 1.0)
    return FeatureMatrix(v)


# --- computing metrics from a simulation log --------------------------------

# the pipeline's metric read, the one ``ExperimentDefaults`` and the CLI use:
# the mean over the final rounds' post-aggregation models
METRIC_PHASE = "post"
METRIC_LAST_K = 3  # single snapshots are noisier


def check_last_k(last_k: int, rounds: int | None = None, error=InvalidConfig) -> None:
    """What ``metric_from_log`` refuses of ``last_k``: below 1, or, raised as
    ``error``, above the ``rounds`` of a log or of a config that will run them."""
    if last_k < 1:
        raise InvalidConfig(f"metric last_k must be >= 1, got {last_k}")
    if rounds is not None and last_k > rounds:
        raise error(f"metric last_k={last_k} is above the run's {rounds} rounds")


def check_phase(phase: str, error=InvalidConfig) -> None:
    """What ``SimulationLog.snapshot`` refuses of ``phase``, raised as ``error``."""
    if phase not in ("pre", "post"):
        raise error(f"metric phase must be pre or post, got {phase!r}")


def metric_from_log(
    log, kind: MetricKind, phase: str = METRIC_PHASE, last_k: int = METRIC_LAST_K
) -> np.ndarray:
    """Compute one metric from a log's snapshots: its mean over the last
    ``last_k`` rounds, read in ``phase``, as a float64 (n, n) array.

    Defaults to the pipeline's read, post-aggregation models: aggregation
    pulls each neighbor's update directly into a node's parameters, so the
    mixed model scores its neighbors' data measurably better than strangers'
    data. Pre-aggregation snapshots see that coupling only one round delayed.
    A log of fewer than ``last_k`` rounds raises ``KnowledgeViolation``.
    """
    t_final = len(log.deltas)
    check_last_k(last_k, t_final, KnowledgeViolation)
    if kind is MetricKind.RELATIVE_LOSS:
        datasets = [log.node_dataset(i) for i in range(log.n_nodes)]
        metric = partial(relative_loss, log.config.architecture(log.dataset), datasets=datasets)
    elif kind is MetricKind.COSINE_SIMILARITY:
        metric = cosine_matrix
    else:
        raise KnowledgeViolation(f"unknown metric kind {kind}")
    rounds = range(t_final - last_k + 1, t_final + 1)
    return np.mean([metric(log.snapshot(t, phase)) for t in rounds], axis=0)


def feature_from_log(log, kind: MetricKind, **kw) -> FeatureMatrix:
    return orient_and_normalize(metric_from_log(log, kind, **kw), kind)


# --- serialization ----------------------------------------------------------

def dump_matrix_csv(values: np.ndarray) -> str:
    return "\n".join(",".join(repr(float(x)) for x in row) for row in values) + "\n"


def load_matrix_csv(text: str) -> np.ndarray:
    """Rows of finite numbers, all of one length; blank lines are skipped."""
    return np.array(number_rows(enumerate(text.splitlines(), start=1)), dtype=np.float64)
