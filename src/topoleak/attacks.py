"""Topology inference attacks over behavioral feature matrices.

Two reconstruction strategies plus diagnostics:

- EDGEPRE (supervised): an MLP decoder on the pair's own feature entries
  [x_ij, x_ji], trained with BCE on the attacker's labeled pairs E', then
  scoring every pair. Every fit trains in a (g, P) stack: fits of one shape and
  config share one, fits that differ get their own, and a lone fit is g = 1.
- INFERGAT (unsupervised): a single-layer multi-head graph-attention encoder
  (Velickovic et al., arXiv:1710.10903) over a k-NN attention mask, or the
  complete graph, embeds nodes; a sigmoid MLP decoder scores pairs; the loop
  minimizes MSE between the symmetrized soft adjacency and the feature matrix
  itself. Every fit trains in a (g, P) stack too, with a model axis in front
  of the heads' axis and each model's own attention mask; a stack makes its
  parameter views, gradient buffer and every intermediate of an epoch once,
  then trains in place.
- Baselines: logistic regression on pair features, exact scalar 2-means over
  the feature entries, and a fixed threshold.

Both attacks group their fits into stacks the same way (``_train_stacks``):
by input shape and by config with the seed set aside.

``run_scenario`` reads a scenario's feature (``scenario_feature``, by default
as the pipeline does: ``metrics.METRIC_PHASE`` and ``METRIC_LAST_K``), trains
its model and scores every pair. A sweep calls it in three phases: it
computes the features of every simulation's scenarios and drops each log,
trains every model of the sweep together (the SC1/SC2 decoders in
``edgepre_train_many``, the SC3/SC4 autoencoders in ``infergat_train_many``,
one stack per input shape and config), then hands each scenario its feature
and model, with no log. Attacks see only the FeatureMatrix and E' labels;
this module never reads the simulation's ground-truth adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from .errors import (
    ConstantMetric,
    DegenerateLabels,
    InvalidConfig,
    KnowledgeViolation,
    ShapeError,
)
from .metrics import (
    METRIC_LAST_K, METRIC_PHASE, FeatureMatrix, MetricKind, feature_from_log, frozen_symmetric,
)
from .nn import (
    Adam,
    MlpArchitecture,
    ModelParams,
    Workspace,
    backward_from_logits,
    forward_cached,
    init_params,
    unpack,
)
from .topology import Topology, adjacency_matrix, pair_index

LABELED_FRACTION = 0.3
LEAKY_SLOPE = 0.2
_SAMPLE_RETRIES = 1_000


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, both from e^-|z|,
    which never overflows."""
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)


# --- knowledge taxonomy -----------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """A scenario's attacker holds every model, every dataset or none, and a
    labeled pair set E' or none. Its feature is relative loss exactly when it
    holds the datasets; its attack is EDGEPRE exactly when it holds E'."""

    holds_data: bool
    holds_labels: bool

    @property
    def feature_kind(self) -> MetricKind:
        return MetricKind.RELATIVE_LOSS if self.holds_data else MetricKind.COSINE_SIMILARITY

    @staticmethod
    def of(scenario) -> "Scenario":
        """The table's entry; any other value, hashable or not, is a KnowledgeViolation."""
        try:
            return SCENARIOS[scenario]
        except (KeyError, TypeError):
            raise KnowledgeViolation(f"scenario must be 1..4, got {scenario}") from None


SCENARIOS = MappingProxyType({
    1: Scenario(holds_data=True, holds_labels=True),
    2: Scenario(holds_data=False, holds_labels=True),
    3: Scenario(holds_data=True, holds_labels=False),
    4: Scenario(holds_data=False, holds_labels=False),
})


@dataclass(frozen=True)
class ScenarioKnowledge:
    """What the attacker holds beyond every node's model: the datasets, as its
    scenario's ``SCENARIOS`` entry says, and the labeled pairs E'."""

    scenario: int
    known_pairs: tuple[tuple[int, int, int], ...] = ()

    def validate(self, n_nodes: int) -> None:
        spec = Scenario.of(self.scenario)
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
        if spec.holds_labels:
            if not (0 < len(self.known_pairs) < n_pairs_total):
                raise KnowledgeViolation(
                    f"SC{s} requires a nonempty proper subset of labeled pairs"
                )
        elif self.known_pairs:
            raise KnowledgeViolation(f"SC{s} forbids labeled pairs")


def check_labeled_fraction(rho: float) -> None:
    """What ``sample_knowledge`` refuses of the labeled fraction: rho outside (0, 1)."""
    if not 0.0 < rho < 1.0:  # NaN fails too
        raise InvalidConfig(f"labeled fraction rho must be in (0, 1), got {rho}")


def sample_knowledge(
    scenario: int, topology: Topology, rho: float = LABELED_FRACTION, seed: int = 0
) -> ScenarioKnowledge:
    """Assemble attacker knowledge for a scenario, as ``SCENARIOS`` describes it.

    Where the scenario holds labels (SC1/SC2), E' is a uniform sample of a
    fraction rho of all unordered pairs carrying their true labels; resampled
    until both classes appear.
    Where no proper E' can hold both classes, it raises ``DegenerateLabels``
    before any draw.
    """
    spec = Scenario.of(scenario)
    n = topology.n_nodes
    pairs: tuple[tuple[int, int, int], ...] = ()
    if spec.holds_labels:
        check_labeled_fraction(rho)
        candidates = pair_index(n)
        adj = adjacency_matrix(topology).astype(np.int64)
        # floor keeps the labeled share at most rho; 45 pairs at 0.3 -> 13
        n_take = max(1, int(rho * len(candidates)))
        n_take = min(n_take, len(candidates) - 1)  # keep E' proper
        n_edges = int(adj[tuple(candidates.T)].sum())
        if n_take < 2 or n_edges in (0, len(candidates)):
            raise DegenerateLabels(
                f"a proper labeled set of {max(n_take, 0)} pairs cannot hold both classes"
                f" when {n_edges} of the {len(candidates)} pairs are edges"
            )
        rng = np.random.default_rng(seed)
        for _ in range(_SAMPLE_RETRIES):
            i, j = candidates[np.sort(rng.choice(len(candidates), size=n_take, replace=False))].T
            labels = adj[i, j]
            if 0 < labels.sum() < len(labels):  # both classes
                pairs = tuple(zip(i.tolist(), j.tolist(), labels.tolist()))
                break
        else:
            raise DegenerateLabels(
                f"could not sample both an edge and a non-edge in {_SAMPLE_RETRIES} tries"
            )

    k = ScenarioKnowledge(scenario, pairs)
    k.validate(n)
    return k


# --- shared feature plumbing ------------------------------------------------

def _pair_feature_rows(values: np.ndarray, pairs) -> np.ndarray:
    """Pair (i, j)'s input is its own entries [x_ij, x_ji].

    Row-level functions of x_i and x_j do not say where in those rows the
    pair sits, so a decoder on them cannot read x_ij for a held-out pair.
    """
    idx = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    i, j = idx[:, 0], idx[:, 1]
    return np.stack([values[i, j], values[j, i]], axis=1)


def _labeled_rows(values: np.ndarray, labeled_pairs) -> tuple[np.ndarray, np.ndarray]:
    """The feature rows and 0/1 labels of E' (``(i, j, label)`` triples), which
    must hold both classes."""
    triples = np.asarray(labeled_pairs, dtype=np.int64).reshape(-1, 3)
    labels = triples[:, 2].astype(np.float64)
    if not 0 < labels.sum() < len(labels):
        raise DegenerateLabels("training pairs must include both classes")
    return _pair_feature_rows(values, triples[:, :2]), labels


@dataclass(frozen=True)
class SoftAdjacency:
    """Pair scores in [0, 1], as exactly symmetric as a FeatureMatrix; the
    diagonal carries no meaning."""

    values: np.ndarray

    def __post_init__(self):
        v = frozen_symmetric(self.values, "soft adjacency")
        if v.min() < 0.0 or v.max() > 1.0:
            raise ShapeError("soft adjacency entries must lie in [0, 1]")
        object.__setattr__(self, "values", v)

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]


def binarize(soft: SoftAdjacency | FeatureMatrix, tau: float = 0.5) -> np.ndarray:
    out = (soft.values > tau).astype(np.int64)
    np.fill_diagonal(out, 0)
    return out


def _symmetric(n: int, scores: np.ndarray) -> np.ndarray:
    """The n x n matrix with the pair scores, in ``pair_index(n)`` order, in
    both triangles and a zero diagonal."""
    a = np.zeros((n, n), dtype=scores.dtype)
    i, j = pair_index(n).T
    a[i, j] = scores
    a[j, i] = scores
    return a


def _train_stacks(shapes, cfgs, train) -> list:
    """Each fit's result, in input order, from ``train(members, cfg)`` run once
    per stack of fits: those whose inputs share a shape and whose configs
    differ at most in seed, in order of first appearance. ``cfg`` is their
    config with seed 0, ``members`` their indices, and ``train`` returns one
    result per member, in that order."""
    stacks = {}  # (input shape, config but its seed) -> its fits
    for k, (shape, cfg) in enumerate(zip(shapes, cfgs)):
        stacks.setdefault((shape, replace(cfg, seed=0)), []).append(k)
    out = [None] * len(cfgs)
    for (_, cfg), members in stacks.items():
        for k, result in zip(members, train(members, cfg)):
            out[k] = result
    return out


# --- EDGEPRE ----------------------------------------------------------------

def _check_fit(cfg, decoder_sizes: str) -> None:
    """The bounds both attack configs check: epochs >= 1, a finite learning_rate
    above 0, and one or more decoder sizes >= 1 (the field ``decoder_sizes``, made ints)."""
    if cfg.epochs < 1:
        raise InvalidConfig(f"epochs must be >= 1, got {cfg.epochs}")
    if not (np.isfinite(cfg.learning_rate) and cfg.learning_rate > 0):
        raise InvalidConfig(f"learning_rate must be finite and > 0, got {cfg.learning_rate}")
    sizes = tuple(int(h) for h in getattr(cfg, decoder_sizes))
    if not sizes or min(sizes) < 1:
        raise InvalidConfig(f"{decoder_sizes} must be one or more sizes >= 1, got {sizes}")
    object.__setattr__(cfg, decoder_sizes, sizes)


@dataclass(frozen=True)
class EdgePreConfig:
    hidden_sizes: tuple[int, ...] = (64, 32)
    epochs: int = 300
    learning_rate: float = 1e-2
    seed: int = 0

    def __post_init__(self):
        _check_fit(self, "hidden_sizes")


def _edgepre_fit(
    arch: MlpArchitecture, theta: np.ndarray, rows: np.ndarray, labels: np.ndarray,
    cfg: EdgePreConfig,
) -> np.ndarray:
    """The EDGEPRE loop: full-batch Adam over sigmoid BCE from ``theta``, a (g, P)
    stack on (g, |E'|, d) rows, where every model gets the bits of its lone fit."""
    ws = Workspace(arch, theta)
    opt = Adam(ws.theta.shape, cfg.learning_rate)
    n = labels.shape[-1]
    for _ in range(cfg.epochs):
        logits, cache = forward_cached(ws, rows)
        dlogits = (_sigmoid(logits[..., 0]) - labels)[..., None] / n
        opt.step(ws.theta, backward_from_logits(cache, dlogits))
    return ws.theta


def edgepre_train(x: FeatureMatrix, labeled_pairs, cfg: EdgePreConfig) -> ModelParams:
    """Fit the pair decoder on E' by full-batch Adam over sigmoid BCE."""
    return edgepre_train_many([(x, labeled_pairs, cfg)])[0]


def edgepre_train_many(fits) -> list[ModelParams]:
    """``edgepre_train`` on each ``(x, labeled_pairs, cfg)`` fit, in order.

    Every fit's E' is checked before any training. Fits whose E' rows share a
    shape and whose configs differ at most in seed train as one (g, P) stack
    (``_train_stacks``), each from its own seed's init; a lone fit is a stack
    of one.
    """
    data = [(*_labeled_rows(x.values, pairs), cfg) for x, pairs, cfg in fits]

    def train(members, cfg):
        rows, labels, cfgs = zip(*(data[k] for k in members))
        arch = MlpArchitecture((rows[0].shape[1], *cfg.hidden_sizes, 1), activation="relu")
        theta = np.stack([init_params(arch, c.seed).flat for c in cfgs])
        thetas = _edgepre_fit(arch, theta, np.stack(rows), np.stack(labels), cfg)
        return [ModelParams(arch, t) for t in thetas]

    return _train_stacks([rows.shape for rows, _, _ in data], [cfg for *_, cfg in data], train)


def edgepre_bce(decoder: ModelParams, x: FeatureMatrix, labeled_pairs) -> float:
    """Mean BCE of the decoder on a labeled pair set (training diagnostic)."""
    rows, labels = _labeled_rows(x.values, labeled_pairs)
    logits, _ = forward_cached(decoder, rows)
    z = logits[:, 0]
    return float(np.mean(_softplus(z) - labels * z))


def edgepre_infer(decoder: ModelParams, x: FeatureMatrix) -> SoftAdjacency:
    """Score every unordered pair once; the diagonal is zero."""
    n = x.n_nodes
    logits, _ = forward_cached(decoder, _pair_feature_rows(x.values, pair_index(n)))
    return SoftAdjacency(_symmetric(n, _sigmoid(logits[:, 0])))


# --- INFERGAT ---------------------------------------------------------------

@dataclass(frozen=True)
class InferGatConfig:
    embed_dim: int = 16
    heads: int = 2
    epochs: int = 1500
    learning_rate: float = 5e-3
    decoder_hidden: tuple[int, ...] = (16,)
    knn_k: int | None = 5  # None: complete-graph attention
    seed: int = 0

    def __post_init__(self):
        if self.heads < 1:
            raise InvalidConfig(f"heads must be >= 1, got {self.heads}")
        if self.embed_dim < 1:
            raise InvalidConfig(f"embed_dim must be >= 1, got {self.embed_dim}")
        if self.embed_dim % self.heads != 0:
            raise InvalidConfig(
                f"embed_dim {self.embed_dim} must be divisible by heads {self.heads}"
            )
        _check_fit(self, "decoder_hidden")
        if self.knn_k is not None and self.knn_k < 1:
            raise InvalidConfig(f"knn_k must be >= 1, got {self.knn_k}")


@dataclass(frozen=True)
class GatModel:
    """Packed encoder (per head: W then a) and decoder parameters."""

    flat: np.ndarray
    d_in: int
    cfg: InferGatConfig


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
    """Row-wise k-NN attention, or complete-graph attention for ``knn_k=None``.

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
    """Views into a (g, P) stack of packed vectors: the encoder on a leading
    model axis and then a head axis, then the decoder's ``nn.unpack`` layers.

    Head h's block is W (d_in x d_head, row-major), then a = [a_l; a_r]; the
    blocks sit back to back, so W is a (g, H, d_in, d_head) view and a_l, a_r
    are (g, H, d_head) views.
    """
    d_head, dec_arch = _gat_dims(cfg)
    g = flat.shape[0]
    n_w = d_in * d_head
    n_enc = cfg.heads * (n_w + 2 * d_head)
    blocks = flat[:, :n_enc].reshape(g, cfg.heads, -1)
    w = blocks[..., :n_w].reshape(g, cfg.heads, d_in, d_head)
    a_l, a_r = blocks[..., n_w : n_w + d_head], blocks[..., n_w + d_head :]
    return (w, a_l, a_r), unpack((dec_arch, flat[:, n_enc:]))


class _GatFit:
    """The buffers of g INFERGAT fits that share a feature shape and a config
    but their seed, made once: the (g, P) parameter stack and a gradient
    buffer with the ``_gat_unpack`` views of each, each model's additive
    attention mask, every intermediate of an epoch and the views of them an
    epoch reads, but ``sig``, which each forward pass sets to a new
    ``_sigmoid`` of the decoder's output for the backward pass to read. The
    optimizer updates ``flat`` in place, so the views stay valid for the whole fit.

    Every model gets the bits of its lone fit: each step is the lone fit's
    operation with a leading model axis, and every reduction runs along the
    same axis in the same order.
    """

    def __init__(self, flats, x: np.ndarray, cfg: InferGatConfig):
        """A fit of a copy of the (g, P) stack ``flats`` on the (g, n, d_in)
        features ``x``; each model's attention mask is built from its feature."""
        g, n, d_in = x.shape
        heads, e_dim = cfg.heads, cfg.embed_dim
        d_head, dec_arch = _gat_dims(cfg)
        hidden = dec_arch.layer_sizes[1:-1]
        self.flat = flat = np.array(flats, dtype=np.float64)
        self.x, self.n = x, n
        self.params = _gat_unpack(flat, d_in, cfg)
        self.grad = np.empty_like(flat)
        self.grads = _gat_unpack(self.grad, d_in, cfg)
        masks = np.stack([_attention_mask(v, cfg.knn_k) for v in x])
        self.att_bias = np.where(masks, 0.0, -np.inf)[:, None]
        att = (g, heads, n, n)
        # forward: encoder, then the (n, n, hidden) decoder grid and each later
        # layer's output, which is the tanh the next layer reads
        self.u, self.z_h = np.empty((g, heads, n, d_head)), np.empty((g, heads, n, d_head))
        self.s_l, self.s_r = np.empty((g, heads, n, 1)), np.empty((g, heads, n, 1))
        self.e_raw, self.alpha = np.empty(att), np.empty(att)
        self.row = np.empty((g, heads, n, 1))
        self.z = np.empty((g, n, e_dim))
        self.z_a, self.z_b = np.empty((g, n, hidden[0])), np.empty((g, n, hidden[0]))
        self.grid = np.empty((g, n, n, hidden[0]))
        self.outs = [np.empty((g, n * n, k)) for k in dec_arch.layer_sizes[2:]]
        self.soft = np.empty((g, n, n))
        # backward
        self.resid, self.d_raw = np.empty((g, n, n)), np.empty((g, n, n))
        self.loss = np.empty(g)
        self.back = [np.empty((g, n * n, k)) for k in hidden]
        self.d_rows, self.d_cols = np.empty((g, n, hidden[0])), np.empty((g, n, hidden[0]))
        self.dz, self.dz_b = np.empty((g, n, e_dim)), np.empty((g, n, e_dim))
        self.du, self.dalpha = np.empty((g, heads, n, d_head)), np.empty(att)
        self.slope_at = np.empty(att, dtype=bool)
        self.ds_l, self.ds_r = np.empty((g, heads, n)), np.empty((g, heads, n))
        # the views an epoch reads: a_l and a_r as columns and rows, the two
        # halves W_a, W_b of the first decoder weight and of its gradient, z
        # and dz split by head, and each decoder layer's input
        (_, a_l, a_r), dec = self.params
        (_, ga_l, ga_r), g_dec = self.grads
        w1 = dec[0][0]
        self.x_t = x.swapaxes(1, 2)[:, None]
        self.a_cols = a_l[..., None], a_r[..., None]
        self.a_rows = a_l[:, :, None, :], a_r[:, :, None, :]
        self.ga_cols = ga_l[..., None], ga_r[..., None]
        self.ds_cols = self.ds_l[..., None], self.ds_r[..., None]
        self.w_ab = w1[:, :e_dim], w1[:, e_dim:]
        self.w_ab_t = w1[:, :e_dim].swapaxes(1, 2), w1[:, e_dim:].swapaxes(1, 2)
        self.gw_ab = g_dec[0][0][:, :e_dim], g_dec[0][0][:, e_dim:]
        self.z_heads = self.z.reshape(g, n, heads, d_head)
        self.dz_heads = self.dz.reshape(g, n, heads, d_head).transpose(0, 2, 1, 3)
        self.acts = [self.grid.reshape(g, n * n, -1), *self.outs[:-1]]
        self.diag = np.s_[:, :: n + 1]

    def loss_and_grad(self) -> np.ndarray:
        """Each model's total loss at ``flat``, (g,); the gradients are written
        into ``grad``."""
        x, n = self.x, self.n
        dec, g_dec = self.params[1], self.grads[1]
        soft = _gat_forward(self)
        g = len(soft)
        count = n * (n - 1)
        resid = np.subtract(soft, x, out=self.resid)
        resid.reshape(g, -1)[self.diag] = 0.0
        sq = np.multiply(resid, resid, out=self.d_raw)  # d_raw's buffer as scratch
        np.add.reduce(sq.reshape(g, -1), axis=1, out=self.loss)
        self.loss /= count

        # backward: MSE -> symmetrization -> sigmoid -> decoder -> embeddings;
        # the zeroed diagonal of the residual leaves the diagonal of delta at 0
        d_sym = np.multiply(resid, 2.0, out=resid)
        d_sym /= count
        d_raw = np.add(d_sym, d_sym.swapaxes(1, 2), out=self.d_raw)
        d_raw *= 0.5
        d_raw *= self.sig
        d_raw *= np.subtract(1.0, self.sig, out=resid)
        delta = d_raw.reshape(g, n * n, 1)
        layers = zip(dec[:0:-1], g_dec[:0:-1], self.acts[::-1], self.back[::-1])
        for (w, _), (gw_l, gb_l), h, back in layers:
            np.matmul(h.swapaxes(1, 2), delta, out=gw_l)
            np.add.reduce(delta, axis=1, keepdims=True, out=gb_l)
            # the last layer has one output, where delta @ w.T is the outer product
            if w.shape[2] == 1:
                np.einsum("gi,gj->gij", delta[..., 0], w[..., 0], out=back)
            else:
                np.matmul(delta, w.swapaxes(1, 2), out=back)
            # h is spent: it becomes 1 - h^2 in place
            np.multiply(h, h, out=h)
            np.subtract(1.0, h, out=h)
            back *= h
            delta = back
        # first layer: z_i reaches row i of the grid through W_a, z_j column j through W_b
        grid = delta.reshape(g, n, n, -1)
        d_rows = np.einsum("gijk->gik", grid, out=self.d_rows)
        d_cols = np.add.reduce(grid, axis=1, out=self.d_cols)
        z_t = self.z.swapaxes(1, 2)
        np.matmul(z_t, d_rows, out=self.gw_ab[0])
        np.matmul(z_t, d_cols, out=self.gw_ab[1])
        np.add.reduce(d_rows, axis=1, keepdims=True, out=g_dec[0][1])
        dz = np.matmul(d_rows, self.w_ab_t[0], out=self.dz)
        dz += np.matmul(d_cols, self.w_ab_t[1], out=self.dz_b)

        # encoder backward, every head at once; dz splits head-major as z did.
        # Spent forward buffers hold what follows: z_h's holds 1 - z_h^2, then
        # dh, then a du term; e_raw's holds dalpha * alpha; dalpha's holds de
        u, alpha, z_h = self.u, self.alpha, self.z_h
        u_t = u.swapaxes(2, 3)
        np.multiply(z_h, z_h, out=z_h)
        np.subtract(1.0, z_h, out=z_h)
        dh = np.multiply(self.dz_heads, z_h, out=z_h)
        dalpha = np.matmul(dh, u_t, out=self.dalpha)
        du = np.matmul(alpha.swapaxes(2, 3), dh, out=self.du)
        # LeakyReLU's slope where e_raw is not positive
        slope_at = np.less_equal(self.e_raw, 0.0, out=self.slope_at)
        dalpha -= np.add.reduce(
            np.multiply(dalpha, alpha, out=self.e_raw), axis=3, keepdims=True, out=self.row
        )
        de = np.multiply(alpha, dalpha, out=dalpha)
        np.multiply(de, LEAKY_SLOPE, out=de, where=slope_at)
        np.add.reduce(de, axis=3, out=self.ds_l)
        np.add.reduce(de, axis=2, out=self.ds_r)
        for ds, a, ga in zip(self.ds_cols, self.a_rows, self.ga_cols):
            du += np.multiply(ds, a, out=dh)
            np.matmul(u_t, ds, out=ga)
        np.matmul(self.x_t, du, out=self.grads[0][0])
        return self.loss


def _gat_forward(fit: _GatFit) -> np.ndarray:
    """Encoder plus pair decoder of every model of a ``_GatFit`` over every
    ordered pair at once, in the fit's buffers.

    Every head runs on one axis after the model axis: one ``x @ W``, one
    LeakyReLU and one softmax over the (g, H, n, n) scores plus each model's
    attention bias (0 where attention is allowed, -inf where its mask forbids
    it), and one ``tanh(alpha @ U)``. The embedding z concatenates the heads,
    head-major.

    Returns the (g, n, n) symmetrized soft adjacency (zero diagonal); the
    buffers keep what the backward pass reads. The decoder's first weight
    splits as [W_a; W_b], so pair (i, j)'s first pre-activation is
    z_i W_a + z_j W_b + b: two products per node, broadcast onto the (n, n)
    node grid (Kipf & Welling, arXiv:1611.07308). Later layers run on that
    grid, n^2 rows including the diagonal, which the loss masks out.
    """
    (w, _, _), dec = fit.params
    n = fit.n
    g = len(fit.x)
    u = np.matmul(fit.x[:, None], w, out=fit.u)
    np.matmul(u, fit.a_cols[0], out=fit.s_l)
    np.matmul(u, fit.a_cols[1], out=fit.s_r)
    e_raw = np.add(fit.s_l, fit.s_r.swapaxes(2, 3), out=fit.e_raw)
    e = np.multiply(e_raw, LEAKY_SLOPE, out=fit.alpha)
    np.maximum(e_raw, e, out=e)
    e += fit.att_bias
    e -= np.maximum.reduce(e, axis=3, keepdims=True, out=fit.row)
    alpha = np.exp(e, out=e)
    alpha /= np.add.reduce(alpha, axis=3, keepdims=True, out=fit.row)
    z_h = np.tanh(np.matmul(alpha, u, out=fit.z_h), out=fit.z_h)
    np.copyto(fit.z_heads, z_h.transpose(0, 2, 1, 3))

    grid = fit.grid
    np.copyto(grid, np.matmul(fit.z, fit.w_ab[1], out=fit.z_b)[:, None, :, :])
    grid += np.matmul(fit.z, fit.w_ab[0], out=fit.z_a)[:, :, None, :]
    h = fit.acts[0]
    h += dec[0][1]
    for (w, b), out in zip(dec[1:], fit.outs):
        np.tanh(h, out=h)
        h = np.matmul(h, w, out=out)
        h += b
    sig = fit.sig = _sigmoid(h.reshape(g, n, n))
    soft = np.add(sig, sig.swapaxes(1, 2), out=fit.soft)
    soft *= 0.5
    soft.reshape(g, -1)[fit.diag] = 0.0
    return soft


def _gat_loss_and_grad(flat: np.ndarray, x: np.ndarray, d_in: int, cfg: InferGatConfig):
    """Total loss and its gradient for all encoder and decoder parameters at once.

    ``flat`` is one (P,) model on (n, d_in) features, or a (g, P) stack on
    (g, n, d_in) features, which gives (g,) losses and a (g, P) gradient.
    """
    lone = flat.ndim == 1
    if lone:
        flat, x = flat[None], x[None]
    if x.shape[2] != d_in:
        raise ShapeError(f"features of width {x.shape[2]} for d_in = {d_in}")
    fit = _GatFit(flat, x, cfg)
    losses = fit.loss_and_grad()
    return (float(losses[0]), fit.grad[0]) if lone else (losses, fit.grad)


def _infergat_fit(flats, xs: np.ndarray, cfg: InferGatConfig) -> tuple[np.ndarray, np.ndarray]:
    """The INFERGAT loop: full-batch Adam over the reconstruction MSE from the
    (g, P) stack ``flats`` on (g, n, d_in) features. Returns the trained stack
    and the (epochs, g) loss history."""
    fit = _GatFit(flats, xs, cfg)
    opt = Adam(fit.flat.shape, cfg.learning_rate)
    losses = np.empty((cfg.epochs, len(xs)))
    for epoch in losses:
        epoch[:] = fit.loss_and_grad()
        opt.step(fit.flat, fit.grad)
    return fit.flat, losses


def infergat_train(x: FeatureMatrix, cfg: InferGatConfig):
    """Fit encoder and decoder to reproduce the feature matrix off-diagonal.

    Returns (model, per-epoch loss history)."""
    return infergat_train_many([(x, cfg)])[0]


def infergat_train_many(fits) -> list[tuple[GatModel, list[float]]]:
    """``infergat_train`` on each ``(x, cfg)`` fit: its (model, loss history),
    in input order.

    Fits whose features share a shape and whose configs differ at most in
    seed train as one (g, P) stack (``_train_stacks``), each from its own
    seed's init and with its own attention mask; a lone fit is a stack of one.
    """
    fits = list(fits)
    xs = [x.values for x, _ in fits]
    cfgs = [cfg for _, cfg in fits]

    def train(members, cfg):
        d_in = xs[members[0]].shape[1]
        inits = [_gat_init(d_in, cfgs[k]) for k in members]
        flats, losses = _infergat_fit(inits, np.stack([xs[k] for k in members]), cfg)
        return [
            (GatModel(flat.copy(), d_in, cfgs[k]), history.tolist())
            for k, flat, history in zip(members, flats, losses.T)
        ]

    return _train_stacks([x.shape for x in xs], cfgs, train)


def infergat_infer(model: GatModel, x: FeatureMatrix) -> SoftAdjacency:
    if x.n_nodes != model.d_in:
        raise ShapeError(f"the model was trained on {model.d_in} nodes, the feature has {x.n_nodes}")
    fit = _GatFit(model.flat[None], x.values[None], model.cfg)
    return SoftAdjacency(_gat_forward(fit)[0])


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
    rows, labels = _labeled_rows(x.values, labeled_pairs)
    if l2 < 0:
        raise InvalidConfig(f"l2 must be >= 0, got {l2}")
    rows = np.hstack([rows, np.ones((rows.shape[0], 1))])  # bias column
    w = np.zeros(rows.shape[1])
    n = len(labels)
    for _ in range(epochs):
        z = rows @ w
        grad = rows.T @ (_sigmoid(z) - labels) / n + 2.0 * l2 * w
        w = w - learning_rate * grad
    n = x.n_nodes
    all_rows = _pair_feature_rows(x.values, pair_index(n))
    all_rows = np.hstack([all_rows, np.ones((all_rows.shape[0], 1))])
    return SoftAdjacency(_symmetric(n, _sigmoid(all_rows @ w)))


def two_means_cut(scores: np.ndarray) -> float:
    """The exact scalar 2-means split as a cut: ``scores > cut`` is the high class.

    The optimum splits the m sorted scores into a low prefix and a high suffix
    (Fisher, JASA 1958; the Otsu threshold); a prefix may end only where the
    next score is larger, so ties are never split. The prefix size k with the
    largest k (m - k) (mu_hi - mu_lo)^2, from prefix sums, has the least
    within-class SSE without its cancellation. The first maximum wins, and the
    cut is the prefix's last score.
    """
    s = np.sort(np.ravel(scores))
    k = np.flatnonzero(s[:-1] < s[1:]) + 1
    if k.size == 0:
        raise ConstantMetric("2-means needs at least two distinct feature values")
    m, prefix = s.size, np.cumsum(s)
    low_sum = prefix[k - 1]
    gap = (prefix[-1] - low_sum) / (m - k) - low_sum / k
    return float(s[k[np.argmax(k * (m - k) * gap**2)] - 1])


def baseline_kmeans(x: FeatureMatrix) -> np.ndarray:
    """Exact scalar 2-means over the unordered pairs' entries; high class = edges."""
    n = x.n_nodes
    pts = x.values[tuple(pair_index(n).T)]
    return _symmetric(n, (pts > two_means_cut(pts)).astype(np.int64))


def baseline_threshold(x: FeatureMatrix, tau: float) -> np.ndarray:
    """Edge wherever the feature strictly exceeds tau."""
    if not (0.0 <= tau <= 1.0):
        raise InvalidConfig(f"tau must be in [0, 1], got {tau}")
    return binarize(x, tau)


# --- scenario dispatch ------------------------------------------------------

@dataclass(frozen=True)
class AttackResult:
    scenario: int
    feature: FeatureMatrix
    soft: SoftAdjacency
    train_losses: tuple[float, ...] = ()

    @property
    def feature_kind(self) -> MetricKind:
        return SCENARIOS[self.scenario].feature_kind


def scenario_feature(
    knowledge: ScenarioKnowledge, log, metric_phase: str = METRIC_PHASE,
    metric_last_k: int = METRIC_LAST_K,
) -> FeatureMatrix:
    """The feature the scenario's attacker reads from the log, once its
    knowledge is checked against the log: its ``SCENARIOS`` entry's kind, by
    default in the pipeline's read (``METRIC_PHASE``, ``METRIC_LAST_K``)."""
    knowledge.validate(log.n_nodes)
    kind = SCENARIOS[knowledge.scenario].feature_kind
    return feature_from_log(log, kind, phase=metric_phase, last_k=metric_last_k)


def run_scenario(
    knowledge: ScenarioKnowledge,
    log,
    edgepre_cfg: EdgePreConfig | None = None,
    infergat_cfg: InferGatConfig | None = None,
    metric_phase: str = METRIC_PHASE,
    metric_last_k: int = METRIC_LAST_K,
    feature: FeatureMatrix | None = None,
    decoder: ModelParams | tuple[GatModel, list[float]] | None = None,
) -> AttackResult:
    """Dispatch on the scenario's ``SCENARIOS`` entry: its feature kind, then
    the supervised decoder on E' (SC1/SC2) or the attention autoencoder
    (SC3/SC4).

    A caller that already holds the scenario's ``feature`` (from
    ``scenario_feature``) and the model trained on it passes them in, and the
    log, which may then be None, is not read nor the model retrained: the
    ``decoder`` is the ``ModelParams`` of ``edgepre_train`` for SC1/SC2 and
    the ``(model, losses)`` of ``infergat_train`` for SC3/SC4. A sweep does
    so after training every model of its scenarios in stacks. Otherwise the
    scenario trains its one model here.
    """
    spec = Scenario.of(knowledge.scenario)
    x = feature if feature is not None else scenario_feature(
        knowledge, log, metric_phase, metric_last_k
    )
    if spec.holds_labels:  # EDGEPRE
        if decoder is None:
            cfg = edgepre_cfg if edgepre_cfg is not None else EdgePreConfig()
            decoder = edgepre_train(x, knowledge.known_pairs, cfg)
        soft = edgepre_infer(decoder, x)
        losses = ()
    else:
        if decoder is None:
            cfg = infergat_cfg if infergat_cfg is not None else InferGatConfig()
            decoder = infergat_train(x, cfg)
        model, losses = decoder
        soft = infergat_infer(model, x)
    return AttackResult(
        scenario=knowledge.scenario, feature=x, soft=soft, train_losses=tuple(losses)
    )
