"""Topology inference attacks over behavioral feature matrices.

Two reconstruction strategies plus diagnostics:

- EDGEPRE (supervised): an MLP decoder on the pair's own feature entries
  [x_ij, x_ji], trained with BCE on the attacker's labeled pairs E', then
  scoring every pair.
- INFERGAT (unsupervised): a single-layer multi-head graph-attention encoder
  over the complete graph embeds nodes; a sigmoid MLP decoder scores pairs;
  the loop minimizes MSE between the symmetrized soft adjacency and the
  feature matrix itself.
- Baselines: logistic regression on pair features, scalar 2-means over the
  feature entries, and a fixed threshold.

Attacks see only the FeatureMatrix and E' labels; the dispatcher never
touches the simulation's ground-truth adjacency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateLabels,
    InvalidConfig,
    KnowledgeViolation,
    ShapeError,
    Unsupported,
)
from .metrics import FeatureMatrix, MetricKind, feature_from_log
from .nn import MlpArchitecture, ModelParams, backward_from_logits, forward_cached, init_params
from .topology import Topology

LABELED_FRACTION = 0.3
LEAKY_SLOPE = 0.2
_SAMPLE_RETRIES = 1_000

SCENARIO_FEATURE_KIND = {
    1: MetricKind.RELATIVE_LOSS,
    2: MetricKind.COSINE_SIMILARITY,
    3: MetricKind.RELATIVE_LOSS,
    4: MetricKind.COSINE_SIMILARITY,
}


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)


class _Adam:
    def __init__(self, size: int, lr: float, b1=0.9, b2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, b1, b2, eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.b1 * self.m + (1 - self.b1) * grad
        self.v = self.b2 * self.v + (1 - self.b2) * grad * grad
        m_hat = self.m / (1 - self.b1**self.t)
        v_hat = self.v / (1 - self.b2**self.t)
        return theta - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# --- knowledge taxonomy -----------------------------------------------------

@dataclass(frozen=True)
class ScenarioKnowledge:
    """What the attacker holds: model set M', dataset set D', labeled pairs E'."""

    scenario: int
    known_models: frozenset[int]
    known_datasets: frozenset[int]
    known_pairs: tuple[tuple[int, int, int], ...] = ()

    def validate(self, n_nodes: int) -> None:
        if self.scenario not in (1, 2, 3, 4, 5):
            raise KnowledgeViolation(f"scenario must be 1..5, got {self.scenario}")
        all_nodes = frozenset(range(n_nodes))
        n_pairs_total = n_nodes * (n_nodes - 1) // 2
        seen = set()
        for i, j, label in self.known_pairs:
            if not (0 <= i < j < n_nodes):
                raise KnowledgeViolation(f"pair ({i}, {j}) not canonical for {n_nodes} nodes")
            if label not in (0, 1):
                raise KnowledgeViolation(f"pair label must be 0/1, got {label}")
            if (i, j) in seen:
                raise KnowledgeViolation(f"duplicate labeled pair ({i}, {j})")
            seen.add((i, j))

        s = self.scenario
        if s in (1, 2, 3, 4) and self.known_models != all_nodes:
            raise KnowledgeViolation(f"SC{s} requires model access to every node")
        if s == 5 and not (0 < len(self.known_models) < n_nodes):
            raise KnowledgeViolation("SC5 requires a proper nonempty model subset")
        if s in (1, 3):
            if self.known_datasets != all_nodes:
                raise KnowledgeViolation(f"SC{s} requires dataset access to every node")
        elif self.known_datasets:
            raise KnowledgeViolation(f"SC{s} forbids dataset access")
        if s in (1, 2):
            if not (0 < len(self.known_pairs) < n_pairs_total):
                raise KnowledgeViolation(
                    f"SC{s} requires a nonempty proper subset of labeled pairs"
                )
        elif self.known_pairs:
            raise KnowledgeViolation(f"SC{s} forbids labeled pairs")


def sample_knowledge(
    scenario: int, topology: Topology, rho: float = LABELED_FRACTION, seed: int = 0
) -> ScenarioKnowledge:
    """Assemble attacker knowledge for a scenario.

    For SC1/SC2, E' is a uniform sample of a fraction rho of all unordered
    pairs carrying their true labels; resampled until both classes appear.
    """
    n = topology.n_nodes
    all_nodes = frozenset(range(n))
    models = all_nodes if scenario in (1, 2, 3, 4) else frozenset(range(max(1, n // 2)))
    datasets = all_nodes if scenario in (1, 3) else frozenset()

    pairs: tuple[tuple[int, int, int], ...] = ()
    if scenario in (1, 2):
        if not (0.0 < rho < 1.0):
            raise InvalidConfig(f"labeled fraction must be in (0, 1), got {rho}")
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = set(topology.edges)
        # floor keeps the labeled share at most rho; 45 pairs at 0.3 -> 13
        n_take = max(1, int(rho * len(all_pairs)))
        n_take = min(n_take, len(all_pairs) - 1)  # keep E' proper
        rng = np.random.default_rng(seed)
        for _ in range(_SAMPLE_RETRIES):
            take = rng.choice(len(all_pairs), size=n_take, replace=False)
            labeled = tuple(
                (all_pairs[t][0], all_pairs[t][1], int(all_pairs[t] in edges)) for t in sorted(take)
            )
            got = {label for _, _, label in labeled}
            if got == {0, 1}:
                pairs = labeled
                break
        else:
            raise DegenerateLabels(
                f"could not sample both an edge and a non-edge in {_SAMPLE_RETRIES} tries"
            )

    k = ScenarioKnowledge(scenario, models, datasets, pairs)
    k.validate(n)
    return k


# --- shared feature plumbing ------------------------------------------------

def build_pair_features(x_i: np.ndarray, x_j: np.ndarray, use_interactions: bool = True) -> np.ndarray:
    """[x_i || x_j], plus x_i * x_j and |x_i - x_j| when interactions are on."""
    x_i = np.asarray(x_i, dtype=np.float64)
    x_j = np.asarray(x_j, dtype=np.float64)
    if x_i.shape != x_j.shape or x_i.ndim != 1:
        raise ShapeError(f"pair features need equal 1-d vectors, got {x_i.shape}, {x_j.shape}")
    parts = [x_i, x_j]
    if use_interactions:
        parts += [x_i * x_j, np.abs(x_i - x_j)]
    return np.concatenate(parts)


def _pair_feature_rows(values: np.ndarray, pairs) -> np.ndarray:
    """Pair (i, j)'s input is its own entries [x_ij, x_ji].

    Row-level functions of x_i and x_j do not say where in those rows the
    pair sits, so a decoder on them cannot read x_ij for a held-out pair.
    """
    idx = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    i, j = idx[:, 0], idx[:, 1]
    return np.stack([values[i, j], values[j, i]], axis=1)


def _check_pair_labels(labeled_pairs) -> np.ndarray:
    labels = np.array([label for _, _, label in labeled_pairs], dtype=np.float64)
    if len(labels) == 0 or len(set(labels.tolist())) < 2:
        raise DegenerateLabels("training pairs must include both classes")
    return labels


@dataclass(frozen=True)
class SoftAdjacency:
    """Symmetric pair scores in [0, 1]; the diagonal carries no meaning."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ShapeError(f"soft adjacency must be square, got {v.shape}")
        if not np.isfinite(v).all():
            raise ShapeError("soft adjacency entries must be finite")
        if not np.allclose(v, v.T, atol=1e-12):
            raise ShapeError("soft adjacency must be symmetric")
        if v.min() < 0.0 or v.max() > 1.0:
            raise ShapeError("soft adjacency entries must lie in [0, 1]")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]


def binarize(soft: SoftAdjacency, tau: float = 0.5) -> np.ndarray:
    out = (soft.values > tau).astype(np.int64)
    np.fill_diagonal(out, 0)
    return out


def _ordered_pairs(n: int) -> np.ndarray:
    """Every (i, j) with i != j, in row-major order."""
    return np.argwhere(~np.eye(n, dtype=bool))


def _symmetric_soft(n: int, pairs: np.ndarray, scores: np.ndarray) -> SoftAdjacency:
    """Place ordered-pair scores, average with the transpose, zero the diagonal."""
    a = np.zeros((n, n))
    a[pairs[:, 0], pairs[:, 1]] = scores
    a = 0.5 * (a + a.T)
    np.fill_diagonal(a, 0.0)
    return SoftAdjacency(a)


# --- EDGEPRE ----------------------------------------------------------------

@dataclass(frozen=True)
class EdgePreConfig:
    hidden_sizes: tuple[int, ...] = (64, 32)
    epochs: int = 300
    learning_rate: float = 1e-2
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise InvalidConfig(f"epochs must be >= 1, got {self.epochs}")
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))


@dataclass(frozen=True)
class EdgeDecoder:
    params: ModelParams


def edgepre_train(x: FeatureMatrix, labeled_pairs, cfg: EdgePreConfig) -> EdgeDecoder:
    """Fit the pair decoder on E' by full-batch Adam over sigmoid BCE."""
    labels = _check_pair_labels(labeled_pairs)
    rows = _pair_feature_rows(x.values, [(i, j) for i, j, _ in labeled_pairs])
    arch = MlpArchitecture((rows.shape[1], *cfg.hidden_sizes, 1), activation="relu")
    p = init_params(arch, cfg.seed)
    opt = _Adam(arch.n_params, cfg.learning_rate)
    theta = p.flat.copy()
    n = len(labels)
    for _ in range(cfg.epochs):
        cur = p.with_flat(theta)
        logits, cache = forward_cached(cur, rows)
        dlogits = (_sigmoid(logits[:, 0]) - labels)[:, None] / n
        grad, _ = backward_from_logits(cur, cache, dlogits)
        theta = opt.step(theta, grad)
    return EdgeDecoder(p.with_flat(theta))


def edgepre_bce(decoder: EdgeDecoder, x: FeatureMatrix, labeled_pairs) -> float:
    """Mean BCE of the decoder on a labeled pair set (training diagnostic)."""
    labels = _check_pair_labels(labeled_pairs)
    rows = _pair_feature_rows(x.values, [(i, j) for i, j, _ in labeled_pairs])
    logits, _ = forward_cached(decoder.params, rows)
    z = logits[:, 0]
    return float(np.mean(_softplus(z) - labels * z))


def edgepre_infer(decoder: EdgeDecoder, x: FeatureMatrix) -> SoftAdjacency:
    """Score every ordered pair, average with the transpose, zero the diagonal."""
    pairs = _ordered_pairs(x.n_nodes)
    logits, _ = forward_cached(decoder.params, _pair_feature_rows(x.values, pairs))
    return _symmetric_soft(x.n_nodes, pairs, _sigmoid(logits[:, 0]))


# --- INFERGAT ---------------------------------------------------------------

@dataclass(frozen=True)
class InferGatConfig:
    embed_dim: int = 16
    heads: int = 2
    epochs: int = 500
    learning_rate: float = 5e-3
    decoder_hidden: tuple[int, ...] = (16,)
    optimizer: str = "adam"
    knn_k: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.heads < 1:
            raise InvalidConfig(f"heads must be >= 1, got {self.heads}")
        if self.embed_dim % self.heads != 0:
            raise InvalidConfig(
                f"embed_dim {self.embed_dim} must be divisible by heads {self.heads}"
            )
        if self.epochs < 1:
            raise InvalidConfig(f"epochs must be >= 1, got {self.epochs}")
        if self.optimizer not in ("gd", "adam"):
            raise InvalidConfig(f"optimizer must be gd or adam, got {self.optimizer!r}")
        object.__setattr__(self, "decoder_hidden", tuple(int(h) for h in self.decoder_hidden))


@dataclass(frozen=True)
class GatModel:
    """Packed encoder (per head: W then a) and decoder parameters."""

    flat: np.ndarray
    d_in: int
    cfg: InferGatConfig
    dec_arch: MlpArchitecture


def _gat_dims(cfg: InferGatConfig):
    """Head width and the pair decoder's architecture (tanh hidden layers)."""
    d_head = cfg.embed_dim // cfg.heads
    dec_arch = MlpArchitecture((2 * cfg.embed_dim, *cfg.decoder_hidden, 1), activation="tanh")
    return d_head, dec_arch


def _gat_init(d_in: int, cfg: InferGatConfig) -> np.ndarray:
    d_head, dec_arch = _gat_dims(cfg)
    rng = np.random.default_rng(cfg.seed)
    parts = []
    for _ in range(cfg.heads):
        bound = np.sqrt(6.0 / d_in)
        parts.append(rng.uniform(-bound, bound, size=d_in * d_head))
        parts.append(rng.uniform(-0.5, 0.5, size=2 * d_head))
    parts.append(init_params(dec_arch, seed=rng.integers(1 << 31)).flat)
    return np.concatenate(parts)


def _attention_mask(x: np.ndarray, knn_k: int | None) -> np.ndarray:
    """Complete-graph attention by default; otherwise row-wise k-NN.

    Row i attends to the min(knn_k, n - 1) entries with the smallest key
    -x[i, j], ties going to the lower index. Self's key is -inf, so self
    sorts first: knn_k = 5 attends to self plus the 4 largest-feature
    others, and knn_k = 1 to self alone.
    """
    n = x.shape[0]
    if knn_k is None:
        return np.ones((n, n), dtype=bool)
    k = min(knn_k, n - 1)
    keys = -x + np.where(np.eye(n, dtype=bool), -np.inf, 0.0)
    nearest = np.argsort(keys, axis=1, kind="stable")[:, :k]
    mask = np.zeros((n, n), dtype=bool)
    mask[np.arange(n)[:, None], nearest] = True
    np.fill_diagonal(mask, True)
    return mask


def _gat_unpack(flat: np.ndarray, d_in: int, cfg: InferGatConfig):
    """Views into the packed vector: (W, a) per head, then (W, b) per decoder layer."""
    d_head, dec_arch = _gat_dims(cfg)
    shapes = [(d_in, d_head), (2 * d_head,)] * cfg.heads
    sizes = dec_arch.layer_sizes
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        shapes += [(fan_in, fan_out), (fan_out,)]
    blocks, off = [], 0
    for shape in shapes:
        size = math.prod(shape)
        blocks.append(flat[off : off + size].reshape(shape))
        off += size
    pairs = list(zip(blocks[::2], blocks[1::2]))
    return pairs[: cfg.heads], pairs[cfg.heads :]


def _gat_forward(flat: np.ndarray, x: np.ndarray, d_in: int, cfg: InferGatConfig, mask):
    """Encoder plus pair decoder over every ordered pair at once.

    Returns the symmetrized soft adjacency (zero diagonal) and the cache the
    backward pass reads. The decoder's first weight splits as [W_a; W_b], so
    pair (i, j)'s first pre-activation is z_i W_a + z_j W_b + b: two products
    per node, broadcast onto the (n, n) node grid (Kipf & Welling,
    arXiv:1611.07308). Later layers run on that grid, n^2 rows including the
    diagonal, which the loss masks out.
    """
    heads, dec = _gat_unpack(flat, d_in, cfg)
    d_head = cfg.embed_dim // cfg.heads
    enc = []
    for w, a in heads:
        u = x @ w
        e_raw = (u @ a[:d_head])[:, None] + (u @ a[d_head:])[None, :]
        e = np.where(e_raw > 0, e_raw, LEAKY_SLOPE * e_raw)
        e = np.where(mask, e, -np.inf)
        exp = np.exp(e - e.max(axis=1, keepdims=True))
        alpha = exp / exp.sum(axis=1, keepdims=True)
        enc.append((u, e_raw, alpha, np.tanh(alpha @ u)))
    z = np.concatenate([z_h for *_, z_h in enc], axis=1)

    n, e_dim = z.shape
    w1, b1 = dec[0]
    grid = (z @ w1[:e_dim])[:, None, :] + (z @ w1[e_dim:])[None, :, :]
    h = grid.reshape(n * n, -1) + b1
    acts = []
    for w, b in dec[1:]:
        h = np.tanh(h)
        acts.append(h)
        h = h @ w + b
    sig = _sigmoid(h.reshape(n, n))
    soft = 0.5 * (sig + sig.T)
    np.fill_diagonal(soft, 0.0)
    return soft, (heads, dec, enc, z, acts, sig)


def _gat_loss_and_grad(
    flat: np.ndarray, x: np.ndarray, d_in: int, cfg: InferGatConfig, mask=None
):
    """Total-loss gradient for all encoder and decoder parameters at once.

    ``mask`` is the attention mask of x; it is built here when not given.
    """
    if mask is None:
        mask = _attention_mask(x, cfg.knn_k)
    n = x.shape[0]
    soft, (heads, dec, enc, z, acts, sig) = _gat_forward(flat, x, d_in, cfg, mask)
    resid = np.where(~np.eye(n, dtype=bool), soft - x, 0.0)
    count = n * (n - 1)
    loss = float((resid**2).sum() / count)

    # backward: MSE -> symmetrization -> sigmoid -> decoder -> embeddings;
    # the masked residual leaves the diagonal of delta at 0
    d_sym = 2.0 * resid / count
    d_raw = 0.5 * (d_sym + d_sym.T)
    delta = (d_raw * sig * (1.0 - sig)).reshape(n * n, 1)
    dec_grads = []
    for (w, _), h in zip(dec[:0:-1], acts[::-1]):
        dec_grads.append(np.concatenate([(h.T @ delta).ravel(), delta.sum(axis=0)]))
        delta = (delta @ w.T) * (1.0 - h * h)
    # first layer: z_i reaches row i of the grid through W_a, z_j column j through W_b
    grid = delta.reshape(n, n, -1)
    d_rows, d_cols = grid.sum(axis=1), grid.sum(axis=0)
    e_dim = z.shape[1]
    w1 = dec[0][0]
    dec_grads.append(
        np.concatenate([(z.T @ d_rows).ravel(), (z.T @ d_cols).ravel(), d_rows.sum(axis=0)])
    )
    dec_grads.reverse()
    dz = d_rows @ w1[:e_dim].T + d_cols @ w1[e_dim:].T

    # encoder backward per head
    d_head = cfg.embed_dim // cfg.heads
    grad_parts = []
    for hd, ((w, a), (u, e_raw, alpha, z_h)) in enumerate(zip(heads, enc)):
        dz_h = dz[:, hd * d_head : (hd + 1) * d_head]
        dh = dz_h * (1.0 - z_h * z_h)
        dalpha = dh @ u.T
        du = alpha.T @ dh
        de = alpha * (dalpha - (dalpha * alpha).sum(axis=1, keepdims=True))
        de_raw = de * np.where(e_raw > 0, 1.0, LEAKY_SLOPE)
        ds_l = de_raw.sum(axis=1)
        ds_r = de_raw.sum(axis=0)
        du += ds_l[:, None] * a[None, :d_head]
        du += ds_r[:, None] * a[None, d_head:]
        da = np.concatenate([u.T @ ds_l, u.T @ ds_r])
        dw = x.T @ du
        grad_parts.append(dw.ravel())
        grad_parts.append(da)
    return loss, np.concatenate(grad_parts + dec_grads)


def infergat_train(x: FeatureMatrix, cfg: InferGatConfig):
    """Fit encoder and decoder to reproduce the feature matrix off-diagonal.

    Returns (model, per-epoch loss history)."""
    vals = x.values
    d_in = vals.shape[1]
    flat = _gat_init(d_in, cfg)
    _, dec_arch = _gat_dims(cfg)
    mask = _attention_mask(vals, cfg.knn_k)
    opt = _Adam(flat.shape[0], cfg.learning_rate) if cfg.optimizer == "adam" else None
    losses = []
    for _ in range(cfg.epochs):
        loss, grad = _gat_loss_and_grad(flat, vals, d_in, cfg, mask)
        losses.append(loss)
        flat = opt.step(flat, grad) if opt else flat - cfg.learning_rate * grad
    return GatModel(flat, d_in, cfg, dec_arch), losses


def infergat_infer(model: GatModel, x: FeatureMatrix) -> SoftAdjacency:
    vals = x.values
    mask = _attention_mask(vals, model.cfg.knn_k)
    soft, _ = _gat_forward(model.flat, vals, model.d_in, model.cfg, mask)
    return SoftAdjacency(soft)


# --- baselines --------------------------------------------------------------

def baseline_logistic(
    x: FeatureMatrix,
    labeled_pairs,
    l2: float = 0.0,
    epochs: int = 300,
    learning_rate: float = 0.1,
) -> SoftAdjacency:
    """Linear pair scorer with sigmoid output and full L2 penalty.

    Deterministic: weights (bias included) start at zero, full-batch descent
    on mean BCE + l2 * ||w||^2; the penalty covers the bias so l2 -> inf
    drives every score to 0.5.
    """
    labels = _check_pair_labels(labeled_pairs)
    if l2 < 0:
        raise InvalidConfig(f"l2 must be >= 0, got {l2}")
    rows = _pair_feature_rows(x.values, [(i, j) for i, j, _ in labeled_pairs])
    rows = np.hstack([rows, np.ones((rows.shape[0], 1))])  # bias column
    w = np.zeros(rows.shape[1])
    n = len(labels)
    for _ in range(epochs):
        z = rows @ w
        grad = rows.T @ (_sigmoid(z) - labels) / n + 2.0 * l2 * w
        w = w - learning_rate * grad
    pairs = _ordered_pairs(x.n_nodes)
    all_rows = _pair_feature_rows(x.values, pairs)
    all_rows = np.hstack([all_rows, np.ones((all_rows.shape[0], 1))])
    return _symmetric_soft(x.n_nodes, pairs, _sigmoid(all_rows @ w))


def baseline_kmeans(x: FeatureMatrix, seed: int = 0, restarts: int = 50) -> np.ndarray:
    """Scalar 2-means over off-diagonal entries; high cluster = edges."""
    from .errors import ConstantMetric

    vals = x.values
    n = vals.shape[0]
    off = ~np.eye(n, dtype=bool)
    pts = vals[off]
    if np.unique(pts).size < 2:
        raise ConstantMetric("2-means needs at least two distinct feature values")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        centers = rng.choice(np.unique(pts), size=2, replace=False)
        for _ in range(100):
            assign = np.abs(pts[:, None] - centers[None, :]).argmin(axis=1)
            new = np.array(
                [pts[assign == c].mean() if np.any(assign == c) else centers[c] for c in (0, 1)]
            )
            if np.allclose(new, centers):
                break
            centers = new
        inertia = ((pts - centers[assign]) ** 2).sum()
        if best is None or inertia < best[0]:
            best = (inertia, centers.copy(), assign.copy())
    _, centers, assign = best
    edge_cluster = int(np.argmax(centers))
    binary = np.zeros((n, n), dtype=np.int64)
    binary[off] = (assign == edge_cluster).astype(np.int64)
    return binary


def baseline_threshold(x: FeatureMatrix, tau: float) -> np.ndarray:
    """Edge wherever the feature strictly exceeds tau."""
    if not (0.0 <= tau <= 1.0):
        raise InvalidConfig(f"tau must be in [0, 1], got {tau}")
    binary = (x.values > tau).astype(np.int64)
    np.fill_diagonal(binary, 0)
    return binary


# --- scenario dispatch ------------------------------------------------------

@dataclass(frozen=True)
class AttackResult:
    scenario: int
    feature_kind: MetricKind
    feature: FeatureMatrix
    soft: SoftAdjacency
    binary: np.ndarray
    train_losses: tuple[float, ...] = ()


def run_scenario(
    knowledge: ScenarioKnowledge,
    log,
    edgepre_cfg: EdgePreConfig | None = None,
    infergat_cfg: InferGatConfig | None = None,
    metric_phase: str = "post",
    metric_last_k: int = 1,
) -> AttackResult:
    """Dispatch: SC1/SC3 use relative-loss features, SC2/SC4 cosine features;
    SC1/SC2 run the supervised decoder on E', SC3/SC4 the attention
    autoencoder; predictions are binarized at 0.5."""
    if knowledge.scenario == 5:
        raise Unsupported("scenario 5 (partial model access only) is not supported")
    n = log.n_nodes
    knowledge.validate(n)
    kind = SCENARIO_FEATURE_KIND[knowledge.scenario]
    x = feature_from_log(log, kind, phase=metric_phase, last_k=metric_last_k)
    if knowledge.scenario in (1, 2):
        cfg = edgepre_cfg if edgepre_cfg is not None else EdgePreConfig()
        decoder = edgepre_train(x, knowledge.known_pairs, cfg)
        soft = edgepre_infer(decoder, x)
        losses = ()
    else:
        cfg = infergat_cfg if infergat_cfg is not None else InferGatConfig()
        model, losses = infergat_train(x, cfg)
        soft = infergat_infer(model, x)
    return AttackResult(
        scenario=knowledge.scenario,
        feature_kind=kind,
        feature=x,
        soft=soft,
        binary=binarize(soft),
        train_losses=tuple(losses),
    )
