"""Synthetic classification datasets and their partitioning across nodes.

Desk-scale stand-in for image benchmarks: Gaussian blobs whose class means
sit on scaled hypercube corners (random directions when classes outnumber
corners).  Partitioning is either IID (shuffle + near-equal split) or
label-skewed via per-class Dirichlet proportions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig, ParseError, PartitionFailed

DIRICHLET_MAX_REDRAWS = 1_000
TRAIN_FRACTION = 0.8


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (n_samples x n_features) with integer labels in [0, K)."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        f = np.array(self.features, dtype=np.float64)  # a copy: the caller's arrays stay writeable
        y = np.array(self.labels, dtype=np.int64)
        if f.ndim != 2 or f.shape[0] == 0:
            raise InvalidConfig(f"features must be a nonempty 2-d array, got shape {f.shape}")
        if y.shape != (f.shape[0],):
            raise InvalidConfig(f"labels shape {y.shape} does not match {f.shape[0]} samples")
        if y.min() < 0:
            raise InvalidConfig("labels must be nonnegative")
        f.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", y)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx])


@dataclass(frozen=True)
class PartitionPlan:
    """Per-node disjoint sample-index lists covering the whole dataset."""

    assignments: tuple[tuple[int, ...], ...]
    alpha: float | None = field(default=None)

    def __post_init__(self):
        flat = [i for node in self.assignments for i in node]
        if len(flat) != len(set(flat)):
            raise InvalidConfig("partition assignments overlap")

    @property
    def n_nodes(self) -> int:
        return len(self.assignments)


def _class_centers(k: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Distinct hypercube corners scaled to norm sqrt(d); random directions
    of the same norm when k exceeds the corner count."""
    if d <= 20 and k <= 2**d:
        corner_ids = rng.choice(2**d, size=k, replace=False)
        bits = ((corner_ids[:, None] >> np.arange(d)[None, :]) & 1).astype(np.float64)
        return 2.0 * bits - 1.0
    dirs = rng.standard_normal((k, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs * np.sqrt(d)


def check_blobs(k_classes: int, n_features: int, n_per_class: int, spread: float) -> None:
    """What ``gen_blobs`` refuses before it draws."""
    if k_classes < 2:
        raise InvalidConfig(f"k_classes must be >= 2, got {k_classes}")
    if n_features < 2:
        raise InvalidConfig(f"n_features must be >= 2, got {n_features}")
    if n_per_class < 10:
        raise InvalidConfig(f"n_per_class must be >= 10, got {n_per_class}")
    if not 0 < spread < np.inf:  # NaN fails too
        raise InvalidConfig(f"spread must be finite and > 0, got {spread}")


def gen_blobs(k_classes: int, n_features: int, n_per_class: int, spread: float, seed: int) -> Dataset:
    """Isotropic Gaussian blob per class, exactly n_per_class samples each."""
    check_blobs(k_classes, n_features, n_per_class, spread)
    rng = np.random.default_rng(seed)
    centers = _class_centers(k_classes, n_features, rng)
    blocks = [
        centers[c] + spread * rng.standard_normal((n_per_class, n_features))
        for c in range(k_classes)
    ]
    features = np.concatenate(blocks, axis=0)
    labels = np.repeat(np.arange(k_classes), n_per_class)
    return Dataset(features, labels)


def check_node_count(n_samples: int, n_classes: int, n_nodes: int) -> None:
    """What a partition refuses of its node count: below 2, or more nodes
    than the samples can give ``n_classes`` each."""
    if n_nodes < 2:
        raise InvalidConfig(f"need n_nodes >= 2, got {n_nodes}")
    if n_samples < n_nodes * n_classes:
        raise InvalidConfig(f"{n_samples} samples cannot give {n_nodes} nodes >= {n_classes} samples each")


def partition_iid(d: Dataset, n_nodes: int, seed: int) -> PartitionPlan:
    """Shuffle all indices and split near-equally (sizes differ by <= 1)."""
    check_node_count(d.n_samples, d.n_classes, n_nodes)
    rng = np.random.default_rng(seed)
    order = rng.permutation(d.n_samples)
    chunks = np.array_split(order, n_nodes)
    return PartitionPlan(tuple(tuple(int(i) for i in c) for c in chunks))


def check_alpha(alpha: float) -> None:
    """What ``partition_dirichlet`` refuses of its concentration alpha."""
    if not 0 < alpha < np.inf:  # NaN fails too
        raise InvalidConfig(f"alpha must be finite and > 0, got {alpha}")


def partition_dirichlet(d: Dataset, n_nodes: int, alpha: float, seed: int) -> PartitionPlan:
    """Label-skewed split: per class, node proportions ~ Dirichlet(alpha).

    Redraws the whole plan until every node holds at least K samples
    (K = number of classes); K per node keeps relative-loss entries defined.
    """
    check_alpha(alpha)
    check_node_count(d.n_samples, d.n_classes, n_nodes)
    rng = np.random.default_rng(seed)
    k = d.n_classes
    by_class = [np.flatnonzero(d.labels == c) for c in range(k)]
    alphas = np.full(n_nodes, alpha)
    for _ in range(DIRICHLET_MAX_REDRAWS):
        # a draw is kept as (permutation, cuts) per class and split only once
        # accepted. The cuts are nondecreasing (a cumsum of proportions >= 0),
        # so a node's share of a class is the difference of its bounds, and
        # its size is the difference of the bounds summed over classes.
        draws = []
        bounds = np.zeros(n_nodes + 1, dtype=np.int64)
        bounds[-1] = d.n_samples
        for idx in by_class:
            idx = rng.permutation(idx)
            props = rng.dirichlet(alphas)
            cuts = (np.cumsum(props)[:-1] * len(idx)).astype(np.int64)
            draws.append((idx, cuts))
            bounds[1:-1] += cuts
        if np.diff(bounds).min() >= k:
            nodes: list[list[int]] = [[] for _ in range(n_nodes)]
            for idx, cuts in draws:
                for node, part in enumerate(np.split(idx, cuts)):
                    nodes[node].extend(part.tolist())
            return PartitionPlan(tuple(tuple(a) for a in nodes), alpha=alpha)
    raise PartitionFailed(
        f"no plan with >= {k} samples per node in {DIRICHLET_MAX_REDRAWS} draws "
        f"(alpha={alpha}, n_nodes={n_nodes})"
    )


def split_train_holdout(indices, seed: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Shuffle a node's sample indices into an 80/20 train/holdout split."""
    idx = np.asarray(list(indices), dtype=np.int64)
    if len(idx) == 0:
        raise InvalidConfig("cannot split an empty index list")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(idx))
    n_train = max(1, int(TRAIN_FRACTION * len(idx)))
    train = idx[order[:n_train]]
    hold = idx[order[n_train:]]
    return tuple(int(i) for i in train), tuple(int(i) for i in hold)


def dump_csv(d: Dataset) -> str:
    """Serialize to the same CSV format load_csv reads (floats via repr)."""
    header = ",".join([f"f{i}" for i in range(d.n_features)] + ["label"])
    rows = [
        ",".join([repr(float(v)) for v in row] + [str(int(y))])
        for row, y in zip(d.features, d.labels)
    ]
    return "\n".join([header] + rows) + "\n"


def number_rows(lines, width: int | None = None) -> list[list[float]]:
    """Each numbered line that is not blank as a row of finite comma-separated
    numbers, all ``width`` long (by default the first row's); a row that is not
    raises ParseError at its line."""
    rows = []
    for lineno, line in lines:
        if not line.strip():
            continue
        fields = line.split(",")
        if width is None:
            width = len(fields)
        if len(fields) != width:
            raise ParseError(lineno, f"expected {width} fields, got {len(fields)}")
        try:
            row = [float(f) for f in fields]
        except ValueError:
            raise ParseError(lineno, f"non-numeric field in {line!r}") from None
        if not np.isfinite(row).all():
            raise ParseError(lineno, f"non-finite field in {line!r}")
        rows.append(row)
    return rows


def load_csv(text: str) -> Dataset:
    """Parse "f0,...,f{d-1},label" CSV; labels remapped to contiguous 0..K-1."""
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ParseError(0, "empty document")
    head_line, head = lines[0]
    header = [h.strip() for h in head.split(",")]
    d = len(header) - 1
    if d < 1 or header[-1] != "label" or header[:-1] != [f"f{i}" for i in range(d)]:
        raise ParseError(head_line, f"header must be 'f0,...,f{{d-1}},label', got {head!r}")
    if len(lines) == 1:
        raise ParseError(head_line, "no data rows")
    rows = np.array(number_rows(lines[1:], d + 1), dtype=np.float64)
    _, labels = np.unique(rows[:, d], return_inverse=True)
    return Dataset(rows[:, :d], labels)
