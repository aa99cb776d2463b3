import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoleak import attacks
from topoleak.attacks import (
    LEAKY_SLOPE,
    SCENARIOS,
    EdgePreConfig,
    GatModel,
    InferGatConfig,
    ScenarioKnowledge,
    SoftAdjacency,
    baseline_kmeans,
    baseline_logistic,
    baseline_threshold,
    binarize,
    edgepre_bce,
    edgepre_infer,
    edgepre_train,
    edgepre_train_many,
    infergat_infer,
    infergat_train,
    infergat_train_many,
    run_scenario,
    sample_knowledge,
    two_means_cut,
    _attention_mask,
    _gat_dims,
    _gat_loss_and_grad,
    _gat_init,
    _pair_feature_rows,
    _sigmoid,
)
from topoleak.data import gen_blobs, partition_iid
from topoleak.engine import FederationConfig, run_simulation
from topoleak.errors import (
    ConstantMetric,
    DegenerateLabels,
    InvalidConfig,
    KnowledgeViolation,
    ShapeError,
)
from topoleak.metrics import FeatureMatrix, MetricKind, feature_from_log
from topoleak.nn import MlpArchitecture, ModelParams, forward_cached, init_params, unpack
from topoleak.topology import Topology, adjacency_matrix, gen_erdos_renyi, gen_ring, gen_star


def planted_feature(adj: np.ndarray, hi=0.9, lo=0.1) -> FeatureMatrix:
    v = np.where(adj > 0, hi, lo)
    np.fill_diagonal(v, 1.0)
    return FeatureMatrix(v)


def two_clique_adjacency(n=6) -> np.ndarray:
    half = n // 2
    adj = np.zeros((n, n))
    for grp in (range(half), range(half, n)):
        for a in grp:
            for b in grp:
                if a != b:
                    adj[a, b] = 1.0
    return adj


def all_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def random_feature_values(n, seed, decimals=None):
    rng = np.random.default_rng(seed)
    vals = rng.random((n, n))
    vals = 0.5 * (vals + vals.T)
    if decimals is not None:
        vals = vals.round(decimals)  # ties exercise the stable order
    np.fill_diagonal(vals, 1.0)
    return vals


def reference_attention_mask(x, knn_k):
    """Row-at-a-time k-NN mask: the loop the vectorized mask must reproduce."""
    n = x.shape[0]
    if knn_k is None:
        return np.ones((n, n), dtype=bool)
    k = min(knn_k, n - 1)
    mask = np.zeros((n, n), dtype=bool)
    for i in range(n):
        others = np.argsort(-x[i] + np.where(np.arange(n) == i, -np.inf, 0.0), kind="stable")[:k]
        mask[i, others] = True
        mask[i, i] = True
    return mask


def reference_gat_unpack(flat, d_in, cfg):
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


def reference_gat_forward(params, x, cfg, mask):
    """INFERGAT's forward one head at a time, on ``reference_gat_unpack``'s
    views and a boolean attention mask; returns (soft, (enc, z, acts, sig))."""
    heads, dec = params
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
    sig = reference_sigmoid(h.reshape(n, n))
    soft = 0.5 * (sig + sig.T)
    np.fill_diagonal(soft, 0.0)
    return soft, (enc, z, acts, sig)


def reference_pair_scores(flat, x, d_in, cfg):
    """Soft adjacency from the decoder run row by row on [z_i || z_j]."""
    n = x.shape[0]
    params = reference_gat_unpack(flat, d_in, cfg)
    _, (_, z, _, _) = reference_gat_forward(params, x, cfg, reference_attention_mask(x, cfg.knn_k))
    _, dec_arch = _gat_dims(cfg)
    n_enc = flat.size - dec_arch.n_params
    ii, jj = np.where(~np.eye(n, dtype=bool))
    logits, _ = forward_cached(
        ModelParams(dec_arch, flat[n_enc:]), np.concatenate([z[ii], z[jj]], axis=1)
    )
    a = np.zeros((n, n))
    a[ii, jj] = _sigmoid(logits[:, 0])
    return 0.5 * (a + a.T)


def reference_sigmoid(z):
    """The two-branch sigmoid: boolean scatter of each sign's stable form."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class ReferenceAdam:
    """Out-of-place Adam: every step builds new m, v and theta."""

    def __init__(self, size, lr):
        self.lr, self.t = lr, 0
        self.m, self.v = np.zeros(size), np.zeros(size)

    def step(self, theta, grad):
        self.t += 1
        self.m = 0.9 * self.m + (1 - 0.9) * grad
        self.v = 0.999 * self.v + (1 - 0.999) * grad * grad
        m_hat = self.m / (1 - 0.9**self.t)
        v_hat = self.v / (1 - 0.999**self.t)
        return theta - self.lr * m_hat / (np.sqrt(v_hat) + 1e-8)


def reference_edgepre(x, labeled_pairs, cfg):
    """EDGEPRE's out-of-place loop: unpack every epoch, concatenate the
    gradient, compute the input gradient too, and step to a new theta."""
    labels = np.array([label for *_, label in labeled_pairs], dtype=np.float64)
    rows = _pair_feature_rows(x.values, [(i, j) for i, j, _ in labeled_pairs])
    arch = MlpArchitecture((rows.shape[1], *cfg.hidden_sizes, 1), activation="relu")
    theta = init_params(arch, cfg.seed).flat
    opt = ReferenceAdam(arch.n_params, cfg.learning_rate)
    for _ in range(cfg.epochs):
        layers = unpack((arch, theta))
        hs, pre = [rows], []
        for li, (w, b) in enumerate(layers):
            a = hs[-1] @ w + b
            pre.append(a)
            hs.append(np.maximum(a, 0.0) if li < len(layers) - 1 else a)
        delta = (reference_sigmoid(hs[-1][:, 0]) - labels)[:, None] / len(labels)
        grads = [None] * len(layers)
        for li in range(len(layers) - 1, -1, -1):
            grads[li] = (hs[li].T @ delta).ravel(), delta.sum(axis=0)
            delta = delta @ layers[li][0].T
            if li > 0:
                delta = delta * (pre[li - 1] > 0).astype(np.float64)
        theta = opt.step(theta, np.concatenate([part for layer in grads for part in layer]))
    return theta


def reference_ordered_pairs(n):
    """Every (i, j) with i != j, row-major: the pairs the attacks scored before
    each unordered pair was scored once."""
    return np.argwhere(~np.eye(n, dtype=bool))


def reference_symmetric_soft(n, pairs, scores):
    """Ordered-pair scores averaged with their transpose, zero diagonal."""
    a = np.zeros((n, n))
    a[pairs[:, 0], pairs[:, 1]] = scores
    a = 0.5 * (a + a.T)
    np.fill_diagonal(a, 0.0)
    return a


def reference_edgepre_infer(decoder, x):
    pairs = reference_ordered_pairs(x.n_nodes)
    logits, _ = forward_cached(decoder, _pair_feature_rows(x.values, pairs))
    return reference_symmetric_soft(x.n_nodes, pairs, _sigmoid(logits[:, 0]))


def reference_logistic(x, labeled_pairs, l2=0.0, epochs=300, learning_rate=0.1):
    """The logistic baseline scoring every ordered pair."""
    labels = np.array([label for *_, label in labeled_pairs], dtype=np.float64)
    rows = _pair_feature_rows(x.values, [(i, j) for i, j, _ in labeled_pairs])
    rows = np.hstack([rows, np.ones((rows.shape[0], 1))])
    w = np.zeros(rows.shape[1])
    for _ in range(epochs):
        z = rows @ w
        w = w - learning_rate * (rows.T @ (_sigmoid(z) - labels) / len(labels) + 2.0 * l2 * w)
    pairs = reference_ordered_pairs(x.n_nodes)
    all_rows = _pair_feature_rows(x.values, pairs)
    all_rows = np.hstack([all_rows, np.ones((all_rows.shape[0], 1))])
    return reference_symmetric_soft(x.n_nodes, pairs, _sigmoid(all_rows @ w))


def two_class_sse(pts, high):
    """Within-class sum of squares of the split of pts into ~high and high."""
    return sum(((part - part.mean()) ** 2).sum() for part in (pts[~high], pts[high]))


def exhaustive_split_sses(x):
    """The pair scores of x, and the SSE of the split ``pts > t`` for every
    t in ``np.unique(pts)[:-1]``: each split of the sorted scores that keeps
    ties together, tried one by one."""
    pts = x.values[np.triu_indices(x.n_nodes, 1)]
    return pts, np.array([two_class_sse(pts, pts > t) for t in np.unique(pts)[:-1]])


def assert_exact_two_means(x, binary):
    """binary is symmetric, splits the pair scores into two nonempty classes
    with every score of the high class above every score of the low class,
    and its SSE is the exhaustive minimum within a relative 1e-12."""
    assert binary.dtype == np.int64
    np.testing.assert_array_equal(binary, binary.T)
    np.testing.assert_array_equal(np.diag(binary), 0)
    pts, sses = exhaustive_split_sses(x)
    high = binary[np.triu_indices(x.n_nodes, 1)].astype(bool)
    assert 0 < high.sum() < len(pts)
    assert pts[~high].max() < pts[high].min()  # no tied value is split
    assert two_class_sse(pts, high) == pytest.approx(sses.min(), rel=1e-12, abs=0)


def reference_sample_pairs(topology, rho, seed):
    """E' drawn over the row-major comprehension, labels read from the edge set."""
    n = topology.n_nodes
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = set(topology.edges)
    n_take = min(max(1, int(rho * len(pairs))), len(pairs) - 1)
    rng = np.random.default_rng(seed)
    while True:
        take = rng.choice(len(pairs), size=n_take, replace=False)
        labeled = tuple((*pairs[t], int(pairs[t] in edges)) for t in sorted(take))
        if {label for *_, label in labeled} == {0, 1}:
            return labeled


def reference_gat_loss_and_grad(flat, x, d_in, cfg, mask):
    """INFERGAT's out-of-place backward: unpack every epoch, build the
    off-diagonal mask, run every decoder layer's delta @ w.T as a matmul and
    concatenate the gradient."""
    n = x.shape[0]
    heads, dec = reference_gat_unpack(flat, d_in, cfg)
    soft, (enc, z, acts, sig) = reference_gat_forward((heads, dec), x, cfg, mask)
    resid = np.where(~np.eye(n, dtype=bool), soft - x, 0.0)
    count = n * (n - 1)
    loss = float((resid**2).sum() / count)
    d_sym = 2.0 * resid / count
    d_raw = 0.5 * (d_sym + d_sym.T)
    delta = (d_raw * sig * (1.0 - sig)).reshape(n * n, 1)
    dec_grads = []
    for (w, _), h in zip(dec[:0:-1], acts[::-1]):
        dec_grads.append(np.concatenate([(h.T @ delta).ravel(), delta.sum(axis=0)]))
        delta = (delta @ w.T) * (1.0 - h * h)
    grid = delta.reshape(n, n, -1)
    d_rows, d_cols = grid.sum(axis=1), grid.sum(axis=0)
    e_dim = z.shape[1]
    w1 = dec[0][0]
    dec_grads.append(
        np.concatenate([(z.T @ d_rows).ravel(), (z.T @ d_cols).ravel(), d_rows.sum(axis=0)])
    )
    dec_grads.reverse()
    dz = d_rows @ w1[:e_dim].T + d_cols @ w1[e_dim:].T
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
        grad_parts.append((x.T @ du).ravel())
        grad_parts.append(np.concatenate([u.T @ ds_l, u.T @ ds_r]))
    return loss, np.concatenate(grad_parts + dec_grads)


def reference_infergat(vals, cfg):
    """INFERGAT's out-of-place loop; returns (theta, loss history)."""
    d_in = vals.shape[1]
    flat = _gat_init(d_in, cfg)
    mask = reference_attention_mask(vals, cfg.knn_k)
    opt = ReferenceAdam(flat.size, cfg.learning_rate)
    losses = []
    for _ in range(cfg.epochs):
        loss, grad = reference_gat_loss_and_grad(flat, vals, d_in, cfg, mask)
        losses.append(loss)
        flat = opt.step(flat, grad)
    return flat, losses


def labeled_from(adj, pairs):
    return tuple((i, j, int(adj[i, j] > 0)) for i, j in pairs)


def exact_match(binary, adj):
    return np.array_equal(binary, adj.astype(np.int64))


def tiny_log(topology=None, seed=0):
    t = topology if topology is not None else gen_ring(5)
    d = gen_blobs(2, 2, 10 * t.n_nodes, spread=0.5, seed=seed)
    plan = partition_iid(d, t.n_nodes, seed=seed)
    from topoleak.nn import TrainConfig

    cfg = FederationConfig(
        topology=t,
        train=TrainConfig(local_epochs=1, learning_rate=0.05, batch_size=16),
        hidden_sizes=(4,),
    )
    return run_simulation(cfg, d, plan, seed=seed)


class TestScenarioKnowledge:
    def test_sc1_requires_partial_pairs(self):
        t = gen_ring(5)
        k = sample_knowledge(1, t, seed=0)
        k.validate(5)
        assert 0 < len(k.known_pairs) < 10

    @pytest.mark.parametrize("rho", [0.0, 1.0, 1.5, math.nan])
    def test_labeled_fraction_outside_0_1_rejected(self, rho):
        # ExperimentDefaults refuses the same values with the same message
        with pytest.raises(InvalidConfig, match=r"labeled fraction rho must be in \(0, 1\)"):
            sample_knowledge(1, gen_ring(5), rho=rho)

    @pytest.mark.parametrize(
        "pairs, message",
        [(((0, 1, 2), (0, 2, 0)), "pair label must be 0/1, got 2"),
         (((0, 1, 1), (0, 2, 0), (0, 1, 1)), r"duplicate labeled pair \(0, 1\)")],
        ids=["label_2", "duplicate_pair"],
    )
    def test_bad_labeled_pairs_rejected(self, pairs, message):
        with pytest.raises(KnowledgeViolation, match=message):
            ScenarioKnowledge(1, pairs).validate(5)

    def test_sc3_forbids_pairs(self):
        with pytest.raises(KnowledgeViolation):
            ScenarioKnowledge(3, ((0, 1, 1),)).validate(5)

    @pytest.mark.parametrize("scenario", [0, 5, [1]], ids=["0", "5", "unhashable"])
    def test_scenario_outside_1_to_4_rejected(self, scenario):
        with pytest.raises(KnowledgeViolation, match="scenario must be 1..4"):
            ScenarioKnowledge(scenario).validate(5)
        with pytest.raises(KnowledgeViolation, match="scenario must be 1..4"):
            sample_knowledge(scenario, gen_ring(5))

    def test_sampled_pairs_carry_true_labels(self):
        t = gen_star(6)
        k = sample_knowledge(1, t, rho=0.5, seed=3)
        edges = set(t.edges)
        for i, j, label in k.known_pairs:
            assert label == int((i, j) in edges)
        labels = {label for _, _, label in k.known_pairs}
        assert labels == {0, 1}

    def test_sampling_deterministic(self):
        t = gen_ring(6)
        assert sample_knowledge(2, t, seed=9) == sample_knowledge(2, t, seed=9)

    @staticmethod
    def refuse_draws(monkeypatch):
        """Fail any random draw: an impossible E' is refused before sampling."""
        def refuse(*args, **kwargs):
            raise AssertionError("sample_knowledge drew at random")
        monkeypatch.setattr(attacks.np.random, "default_rng", refuse)

    @pytest.mark.parametrize("scenario", [1, 2])
    def test_complete_graph_cannot_yield_negatives(self, scenario, monkeypatch):
        t = gen_erdos_renyi(5, 1.0, seed=0)
        self.refuse_draws(monkeypatch)
        with pytest.raises(DegenerateLabels, match="when 10 of the 10 pairs are edges"):
            sample_knowledge(scenario, t, rho=0.3, seed=0)

    def test_two_nodes_cannot_yield_a_proper_labeled_set(self, monkeypatch):
        # one pair in all: a proper E' is empty, so it never holds both classes
        t = gen_star(2)
        self.refuse_draws(monkeypatch)
        with pytest.raises(DegenerateLabels, match="set of 0 pairs cannot hold both classes"):
            sample_knowledge(1, t, rho=0.3, seed=0)

    def test_one_labeled_pair_cannot_hold_both_classes(self, monkeypatch):
        # floor(0.3 * 3) = 0 is raised to 1 pair, which is one class or the other
        t = gen_star(3)
        self.refuse_draws(monkeypatch)
        with pytest.raises(DegenerateLabels, match="set of 1 pairs cannot hold both classes"):
            sample_knowledge(1, t, rho=0.3, seed=0)

    @pytest.mark.parametrize("n,p", [(5, 0.5), (10, 0.3), (17, 0.5), (30, 0.2)])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("scenario,rho", [(1, 0.3), (2, 0.3), (1, 0.7)])
    def test_labeled_pairs_reproduce_the_reference(self, n, p, seed, scenario, rho):
        t = gen_erdos_renyi(n, p, seed=seed)
        k = sample_knowledge(scenario, t, rho=rho, seed=seed)
        assert k.known_pairs == reference_sample_pairs(t, rho, seed)
        assert all(type(v) is int for triple in k.known_pairs for v in triple)

    def test_pair_validation(self):
        with pytest.raises(KnowledgeViolation):
            ScenarioKnowledge(1, ((1, 0, 1),)).validate(4)


class TestPairFeatures:
    def test_pair_rows_are_the_pairs_own_entries(self):
        vals = np.arange(16, dtype=float).reshape(4, 4)
        rows = _pair_feature_rows(vals, [(0, 1), (3, 2)])
        np.testing.assert_array_equal(rows, [[1.0, 4.0], [14.0, 11.0]])


class TestEdgePre:
    def test_separable_features_reach_tiny_bce(self):
        # a symmetric block: pairs inside {0, 1, 2} read 1, pairs inside
        # {3, 4, 5} read 0, so positives and negatives are separable and the
        # optimizer can push BCE under 0.01
        n = 6
        vals = np.zeros((n, n))
        vals[:3, :3] = 1.0
        np.fill_diagonal(vals, 1.0)
        x = FeatureMatrix(vals)
        labeled = ((0, 1, 1), (0, 2, 1), (3, 4, 0), (3, 5, 0))
        decoder = edgepre_train(x, labeled, EdgePreConfig(seed=1))
        assert edgepre_bce(decoder, x, labeled) < 0.01

    def test_zero_decoder_scores_half_everywhere(self):
        x = planted_feature(two_clique_adjacency(4))
        # the decoder's input is the pair's own entries [x_ij, x_ji]
        arch = MlpArchitecture((2, 8, 1))
        dec = ModelParams(arch, np.zeros(arch.n_params))
        soft = edgepre_infer(dec, x)
        off = ~np.eye(4, dtype=bool)
        np.testing.assert_allclose(soft.values[off], 0.5, atol=1e-15)
        np.testing.assert_array_equal(np.diag(soft.values), 0.0)

    def test_same_seed_identical(self):
        x = planted_feature(two_clique_adjacency(6))
        labeled = labeled_from(two_clique_adjacency(6), all_pairs(6))[:8]
        a = edgepre_train(x, labeled, EdgePreConfig(seed=4))
        b = edgepre_train(x, labeled, EdgePreConfig(seed=4))
        np.testing.assert_array_equal(a.flat, b.flat)

    def test_single_class_labels_rejected(self):
        x = planted_feature(two_clique_adjacency(6))
        with pytest.raises(DegenerateLabels):
            edgepre_train(x, ((0, 1, 1), (0, 2, 1)), EdgePreConfig())

    def test_inference_is_symmetric_bounded(self):
        adj = two_clique_adjacency(6)
        x = planted_feature(adj)
        labeled = labeled_from(adj, all_pairs(6)[:10])
        decoder = edgepre_train(x, labeled, EdgePreConfig(seed=0))
        soft = edgepre_infer(decoder, x)
        np.testing.assert_allclose(soft.values, soft.values.T, atol=1e-12)
        assert soft.values.min() >= 0 and soft.values.max() <= 1

    def test_known_pairs_scored_on_correct_side(self):
        adj = two_clique_adjacency(6)
        x = planted_feature(adj)
        labeled = labeled_from(adj, all_pairs(6)[:9])
        decoder = edgepre_train(x, labeled, EdgePreConfig(seed=0))
        soft = edgepre_infer(decoder, x)
        for i, j, label in labeled:
            if label == 1:
                assert soft.values[i, j] > 0.5
            else:
                assert soft.values[i, j] < 0.5


@pytest.mark.parametrize("config", [EdgePreConfig, InferGatConfig])
@pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_bad_attack_learning_rate_rejected(config, rate):
    # NaN trains to a NaN fit that fails three stages later; <= 0 stands still or ascends
    with pytest.raises(InvalidConfig, match="learning_rate must be finite and > 0"):
        config(learning_rate=rate)


class TestInferGat:
    @pytest.mark.parametrize("knn_k", [0, -1, -30])
    def test_knn_k_below_one_rejected(self, knn_k):
        # a slice [:, :k] would read k < 1 as "self only" or "n - 1 - |k| others"
        with pytest.raises(InvalidConfig, match=f"knn_k must be >= 1, got {knn_k}"):
            InferGatConfig(knn_k=knn_k)

    def test_loss_decreases_on_two_clique(self):
        x = planted_feature(two_clique_adjacency(6))
        _, losses = infergat_train(x, InferGatConfig(epochs=500, knn_k=None, seed=0))
        assert losses[-1] < losses[0]

    def test_same_seed_identical_trajectory(self):
        x = planted_feature(two_clique_adjacency(6))
        cfg = InferGatConfig(epochs=50, knn_k=None, seed=2)
        m1, l1 = infergat_train(x, cfg)
        m2, l2 = infergat_train(x, cfg)
        assert l1 == l2
        np.testing.assert_array_equal(m1.flat, m2.flat)

    def test_gradient_matches_finite_differences(self):
        # oracle: central differences on the packed parameter vector
        rng = np.random.default_rng(42)
        cfg = InferGatConfig(embed_dim=4, heads=1, knn_k=None, seed=7)
        vals = rng.random((5, 5))
        vals = 0.5 * (vals + vals.T)
        np.fill_diagonal(vals, 1.0)
        flat = _gat_init(5, cfg)
        _, grad = _gat_loss_and_grad(flat, vals, 5, cfg)
        coords = rng.choice(flat.size, size=30, replace=False)
        step = 1e-5
        fd = np.zeros(len(coords))
        for n, c in enumerate(coords):
            up, down = flat.copy(), flat.copy()
            up[c] += step
            down[c] -= step
            lu, _ = _gat_loss_and_grad(up, vals, 5, cfg)
            ld, _ = _gat_loss_and_grad(down, vals, 5, cfg)
            fd[n] = (lu - ld) / (2 * step)
        rel = np.linalg.norm(grad[coords] - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-3

    @pytest.mark.parametrize(
        "heads,decoder_hidden,knn_k",
        [(2, (16,), None), (1, (8, 4), None), (1, (16,), 2), (2, (8, 4), 2)],
    )
    def test_gradient_matches_finite_differences_on_every_path(
        self, heads, decoder_hidden, knn_k
    ):
        # multi-head slices of dz, the decoder layers after the first, and a
        # sparse attention mask
        n = 6
        cfg = InferGatConfig(
            embed_dim=4 * heads, heads=heads, decoder_hidden=decoder_hidden, knn_k=knn_k, seed=3
        )
        vals = random_feature_values(n, seed=11)
        flat = _gat_init(n, cfg)
        _, grad = _gat_loss_and_grad(flat, vals, n, cfg)
        coords = np.random.default_rng(5).choice(flat.size, size=40, replace=False)
        step = 1e-5
        fd = np.zeros(len(coords))
        for k, c in enumerate(coords):
            up, down = flat.copy(), flat.copy()
            up[c] += step
            down[c] -= step
            lu, _ = _gat_loss_and_grad(up, vals, n, cfg)
            ld, _ = _gat_loss_and_grad(down, vals, n, cfg)
            fd[k] = (lu - ld) / (2 * step)
        rel = np.linalg.norm(grad[coords] - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-3

    @pytest.mark.parametrize("n", [5, 30])
    @pytest.mark.parametrize("k", [1, 2, 5, "n"])
    def test_attention_mask_matches_row_loop(self, n, k):
        knn_k = n if k == "n" else k
        for decimals in (None, 1):
            vals = random_feature_values(n, seed=n, decimals=decimals)
            mask = _attention_mask(vals, knn_k)
            np.testing.assert_array_equal(mask, reference_attention_mask(vals, knn_k))
            # self plus min(k, n - 1) - 1 others per row
            np.testing.assert_array_equal(mask.sum(axis=1), min(knn_k, n - 1))

    @pytest.mark.parametrize("heads,decoder_hidden,knn_k", [(2, (16,), None), (1, (8, 4), 2)])
    def test_inference_is_the_training_forward(self, heads, decoder_hidden, knn_k):
        x = planted_feature(adjacency_matrix(gen_ring(7)))
        cfg = InferGatConfig(
            embed_dim=4 * heads, heads=heads, decoder_hidden=decoder_hidden, knn_k=knn_k,
            epochs=20, seed=4,
        )
        model, _ = infergat_train(x, cfg)
        soft = infergat_infer(model, x).values
        np.testing.assert_array_equal(np.diag(soft), 0.0)
        np.testing.assert_array_equal(soft, soft.T)
        # the factorized grid equals the decoder run on every [z_i || z_j]
        expected = reference_pair_scores(model.flat, x.values, model.d_in, cfg)
        off = ~np.eye(7, dtype=bool)
        np.testing.assert_allclose(soft[off], expected[off], rtol=1e-12, atol=0)
        # and the training loss is the MSE of exactly this grid
        loss, _ = _gat_loss_and_grad(model.flat, x.values, model.d_in, cfg)
        assert loss == pytest.approx(((soft - x.values)[off] ** 2).mean(), rel=1e-12)

    @pytest.mark.parametrize("n", [8, 12])
    def test_inference_refuses_a_feature_of_another_node_count(self, n):
        model, _ = infergat_train(planted_feature(adjacency_matrix(gen_ring(10))), InferGatConfig(epochs=2))
        x = planted_feature(adjacency_matrix(gen_ring(n)))
        with pytest.raises(ShapeError, match=f"trained on 10 nodes, the feature has {n}"):
            infergat_infer(model, x)

    def test_two_clique_separation_after_training(self):
        adj = two_clique_adjacency(6)
        x = planted_feature(adj)
        model, _ = infergat_train(x, InferGatConfig(epochs=500, knn_k=None, seed=0))
        soft = infergat_infer(model, x)
        within = soft.values[(adj > 0)]
        off = ~np.eye(6, dtype=bool)
        across = soft.values[off & (adj == 0)]
        assert within.mean() > across.mean()

    def test_inference_symmetric_bounded(self):
        x = planted_feature(two_clique_adjacency(6))
        model, _ = infergat_train(x, InferGatConfig(epochs=30, knn_k=None, seed=1))
        soft = infergat_infer(model, x)
        assert np.array_equal(soft.values, soft.values.T)
        assert soft.values.min() >= 0 and soft.values.max() <= 1

    def test_knn_attention_override(self):
        x = planted_feature(adjacency_matrix(gen_ring(6)))
        cfg = InferGatConfig(epochs=30, knn_k=2, seed=0)
        model, losses = infergat_train(x, cfg)
        soft = infergat_infer(model, x)
        assert losses[-1] < losses[0]
        assert np.array_equal(soft.values, soft.values.T)


class TestInPlaceTraining:
    """The in-place loops give the bits of the out-of-place references."""

    def test_sigmoid_equals_the_two_branch_form(self):
        rng = np.random.default_rng(0)
        z = np.concatenate(
            [rng.standard_normal(500) * 30, [800.0, -800.0, np.inf, -np.inf, 0.0, -0.0, 1e-300]]
        )
        assert _sigmoid(z).tobytes() == reference_sigmoid(z).tobytes()
        grid = z[:36].reshape(6, 6)
        assert _sigmoid(grid).tobytes() == reference_sigmoid(grid).tobytes()

    @pytest.mark.parametrize("n_pairs", [13, 100])
    @pytest.mark.parametrize("hidden", [(64, 32), (8,)])
    def test_edgepre_equals_out_of_place_loop(self, n_pairs, hidden):
        n = 15
        vals = random_feature_values(n, seed=n_pairs)
        x = FeatureMatrix(vals)
        before = x.values.tobytes()
        pairs = all_pairs(n)[:n_pairs]
        labeled = tuple((i, j, int(vals[i, j] > 0.5)) for i, j in pairs)
        cfg = EdgePreConfig(hidden_sizes=hidden, epochs=300, seed=3)
        decoder = edgepre_train(x, labeled, cfg)
        assert decoder.flat.tobytes() == reference_edgepre(x, labeled, cfg).tobytes()
        assert x.values.tobytes() == before

    @pytest.mark.parametrize(
        "heads,n", [(1, 10), (2, 10), (4, 10), (1, 30), (4, 30)], ids=["1", "2", "4", "1-n30", "4-n30"]
    )
    @pytest.mark.parametrize("knn_k", [None, 5])
    @pytest.mark.parametrize("decoder_hidden", [(16,), (8, 4)])
    def test_infergat_equals_out_of_place_loop(self, heads, n, knn_k, decoder_hidden):
        x = FeatureMatrix(random_feature_values(n, seed=heads))
        before = x.values.tobytes()
        cfg = InferGatConfig(
            embed_dim=8, heads=heads, epochs=60, decoder_hidden=decoder_hidden, knn_k=knn_k, seed=5
        )
        model, losses = infergat_train(x, cfg)
        want_flat, want_losses = reference_infergat(x.values, cfg)
        assert model.flat.tobytes() == want_flat.tobytes()
        assert np.array(losses).tobytes() == np.array(want_losses).tobytes()
        assert x.values.tobytes() == before

    def test_init_params_are_left_unchanged(self, monkeypatch):
        made = []

        def recording_init(arch, seed):
            p = init_params(arch, seed)
            made.append((p, p.flat.tobytes()))
            return p

        monkeypatch.setattr(attacks, "init_params", recording_init)
        x = planted_feature(two_clique_adjacency(6))
        edgepre_train(x, labeled_from(two_clique_adjacency(6), all_pairs(6)[:5]), EdgePreConfig(epochs=5))
        infergat_train(x, InferGatConfig(epochs=5, knn_k=None))
        assert len(made) == 2
        for p, bytes_at_init in made:
            assert p.flat.tobytes() == bytes_at_init


def edgepre_fit_inputs(n, seed, n_pairs=13, **cfg):
    """A feature on n nodes, n_pairs labeled pairs drawn from it and a config
    seeded from ``seed``: an (x, labeled_pairs, cfg) fit."""
    vals = random_feature_values(n, seed=seed)
    pairs = all_pairs(n)
    pick = np.sort(np.random.default_rng(seed).choice(len(pairs), n_pairs, replace=False))
    labeled = tuple((i, j, int(vals[i, j] > 0.5)) for i, j in (pairs[k] for k in pick))
    return FeatureMatrix(vals), labeled, EdgePreConfig(seed=100 + seed, **cfg)


class TestEdgePreStack:
    """Every EDGEPRE fit trains in a (g, P) stack and gets the bits of the
    reference loop; a lone fit is a stack of one."""

    @pytest.mark.parametrize("nodes", [(10, 12), (10, 15, 12)], ids=["g2", "g3"])
    def test_stack_equals_separate_fits(self, nodes, stack_shapes):
        fits = [edgepre_fit_inputs(n, seed) for seed, n in enumerate(nodes)]
        lone = [edgepre_train(*fit).flat.tobytes() for fit in fits]
        P = MlpArchitecture((2, 64, 32, 1)).n_params
        assert stack_shapes == [(1, P)] * len(fits)
        stack_shapes.clear()
        stacked = edgepre_train_many(fits)
        assert stack_shapes == [(len(fits), P)]
        assert [d.flat.tobytes() for d in stacked] == lone
        for fit, want in zip(fits, lone):
            assert reference_edgepre(*fit).tobytes() == want

    @pytest.mark.parametrize(
        "differ",
        [dict(n_pairs=14), dict(hidden_sizes=(8,)), dict(epochs=200), dict(learning_rate=5e-3)],
        ids=["pairs", "hidden", "epochs", "rate"],
    )
    def test_a_mismatched_fit_trains_in_its_own_stack(self, differ, stack_shapes):
        # every EDGEPRE input is [x_ij, x_ji], so width cannot differ here;
        # |E'| and the config fields can
        fits = [edgepre_fit_inputs(10, 0), edgepre_fit_inputs(12, 1, **differ),
                edgepre_fit_inputs(11, 2)]
        trained = edgepre_train_many(fits)
        P = MlpArchitecture((2, 64, 32, 1)).n_params
        P_b = MlpArchitecture((2, *fits[1][2].hidden_sizes, 1)).n_params
        assert stack_shapes == [(2, P), (1, P_b)]
        assert [d.flat.tobytes() for d in trained] == [
            reference_edgepre(*fit).tobytes() for fit in fits
        ]

    def test_interleaved_groups_come_back_in_input_order(self, stack_shapes):
        a, c = edgepre_fit_inputs(10, 0), edgepre_fit_inputs(11, 2)
        b1 = edgepre_fit_inputs(12, 1, hidden_sizes=(8,))
        b2 = edgepre_fit_inputs(9, 3, hidden_sizes=(8,))
        fits = [a, b1, c, b2]
        trained = edgepre_train_many(fits)
        P = MlpArchitecture((2, 64, 32, 1)).n_params
        P_b = MlpArchitecture((2, 8, 1)).n_params
        assert stack_shapes == [(2, P), (2, P_b)]
        assert [d.arch.layer_sizes for d in trained] == [(2, 64, 32, 1), (2, 8, 1)] * 2
        assert [d.flat.tobytes() for d in trained] == [
            reference_edgepre(*fit).tobytes() for fit in fits
        ]

    def test_a_bad_fit_fails_before_any_training(self, stack_shapes):
        x, labeled, cfg = edgepre_fit_inputs(10, 0)
        one_class = tuple((i, j, 1) for i, j, _ in labeled)
        with pytest.raises(DegenerateLabels):
            edgepre_train_many([(x, labeled, cfg), (x, one_class, cfg)])
        assert stack_shapes == []


def gat_fit_inputs(n, seed, knn_k=None, **cfg):
    """A feature on n nodes and an INFERGAT config seeded from ``seed``: an
    (x, cfg) fit."""
    cfg = InferGatConfig(embed_dim=8, epochs=40, knn_k=knn_k, seed=100 + seed, **cfg)
    return FeatureMatrix(random_feature_values(n, seed=seed)), cfg


def gat_n_params(n, **cfg):
    return _gat_init(n, InferGatConfig(embed_dim=8, **cfg)).size


class TestInferGatStack:
    """Every INFERGAT fit trains in a (g, P) stack and gets the bits of the
    reference loop; a lone fit is a stack of one."""

    def test_mixed_fits_equal_the_reference_in_input_order(self, gat_stack_shapes):
        fits = [
            gat_fit_inputs(8, 0), gat_fit_inputs(10, 1), gat_fit_inputs(8, 2, heads=4),
            gat_fit_inputs(8, 3), gat_fit_inputs(10, 4, knn_k=3), gat_fit_inputs(10, 5),
            gat_fit_inputs(8, 6, heads=4),
        ]
        lone = infergat_train(*fits[0])
        assert gat_stack_shapes == [(1, gat_n_params(8))]
        gat_stack_shapes.clear()
        trained = infergat_train_many(fits)
        # stacks by feature shape and config but its seed, in order of first appearance
        assert gat_stack_shapes == [
            (2, gat_n_params(8)), (2, gat_n_params(10)), (2, gat_n_params(8, heads=4)),
            (1, gat_n_params(10)),
        ]
        assert trained[0][0].flat.tobytes() == lone[0].flat.tobytes()
        for (x, cfg), (model, losses) in zip(fits, trained):
            want_flat, want_losses = reference_infergat(x.values, cfg)
            assert model.cfg == cfg and model.d_in == x.n_nodes
            assert model.flat.tobytes() == want_flat.tobytes()
            assert np.array(losses).tobytes() == np.array(want_losses).tobytes()

    def test_gradient_of_a_stack_slice_matches_finite_differences(self):
        n = 6
        cfg = InferGatConfig(embed_dim=8, heads=2, decoder_hidden=(8, 4), knn_k=2)
        xs = np.stack([random_feature_values(n, seed=s) for s in (11, 12)])
        stack = np.stack([_gat_init(n, dataclasses.replace(cfg, seed=s)) for s in (3, 4)])
        losses, grads = _gat_loss_and_grad(stack, xs, n, cfg)
        # each slice is its lone model's loss and gradient, bit for bit
        for k in range(2):
            loss, grad = _gat_loss_and_grad(stack[k], xs[k], n, cfg)
            assert losses[k] == loss
            assert grads[k].tobytes() == grad.tobytes()
        coords = np.random.default_rng(5).choice(stack.shape[1], size=40, replace=False)
        step = 1e-5
        fd = np.zeros(len(coords))
        for k, c in enumerate(coords):
            up, down = stack.copy(), stack.copy()
            up[1, c] += step
            down[1, c] -= step
            fd[k] = (_gat_loss_and_grad(up, xs, n, cfg)[0][1]
                     - _gat_loss_and_grad(down, xs, n, cfg)[0][1]) / (2 * step)
        rel = np.linalg.norm(grads[1, coords] - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-3


def probe_cases():
    """(feature, topology) pairs of every kind the attacks meet: planted features,
    random ones with and without ties, and both metric kinds of small simulations."""
    cases = [(planted_feature(adjacency_matrix(t)), t) for t in (gen_ring(9), gen_star(7))]
    for n in (5, 12, 20):
        t = gen_erdos_renyi(n, 0.4, seed=n)
        cases += [(FeatureMatrix(random_feature_values(n, seed=n, decimals=d)), t) for d in (None, 1)]
    for seed in range(3):
        log = tiny_log(gen_erdos_renyi(8, 0.5, seed=seed), seed=seed)
        cases += [(feature_from_log(log, kind, last_k=2), log.config.topology) for kind in MetricKind]
    return cases


@pytest.fixture(scope="module")
def probes():
    """Each probe case's feature and an E' drawn from its topology."""
    return [(x, sample_knowledge(1, t, seed=k).known_pairs) for k, (x, t) in enumerate(probe_cases())]


class TestUnorderedPairsScoredOnce:
    """Each unordered pair is scored once and written into both triangles;
    the references score all n(n - 1) ordered pairs and average."""

    def test_kmeans_is_the_exhaustive_split_optimum(self, probes):
        # scores rounded to one decimal tie in SSE exactly, and there the cut
        # and the oracle may pick different, equally good splits
        for x, _ in probes:
            assert_exact_two_means(x, baseline_kmeans(x))

    def test_logistic_equals_the_ordered_pair_reference(self, probes):
        for x, labeled in probes:
            for l2 in (0.0, 0.05):
                got = baseline_logistic(x, labeled, l2=l2).values
                assert got.tobytes() == reference_logistic(x, labeled, l2=l2).tobytes()

    def test_edgepre_is_symmetric_and_within_1e15_of_the_reference(self, probes):
        for k, (x, labeled) in enumerate(probes):
            decoder = edgepre_train(x, labeled, EdgePreConfig(hidden_sizes=(16, 8), epochs=40, seed=k))
            got = edgepre_infer(decoder, x).values
            assert np.array_equal(got, got.T)
            np.testing.assert_array_equal(np.diag(got), 0.0)
            np.testing.assert_allclose(got, reference_edgepre_infer(decoder, x), rtol=0, atol=1e-15)


class TestBaselines:
    def test_logistic_separates_labeled_pairs(self):
        adj = two_clique_adjacency(6)
        x = planted_feature(adj)
        labeled = labeled_from(adj, all_pairs(6))
        soft = baseline_logistic(x, labeled, l2=0.0)
        for i, j, label in labeled:
            assert (soft.values[i, j] > 0.5) == (label == 1)

    def test_logistic_huge_l2_collapses_to_half(self):
        # the penalized optimum sits at w ~ grad/(2*l2), so scores approach
        # 0.5 like 1/l2; assert the limit with a tolerance matching l2=1000
        adj = two_clique_adjacency(6)
        x = planted_feature(adj)
        labeled = labeled_from(adj, all_pairs(6))
        soft = baseline_logistic(x, labeled, l2=1000.0, learning_rate=1e-4)
        off = ~np.eye(6, dtype=bool)
        np.testing.assert_allclose(soft.values[off], 0.5, atol=5e-3)

    def test_logistic_deterministic(self):
        adj = two_clique_adjacency(6)
        x = planted_feature(adj)
        labeled = labeled_from(adj, all_pairs(6)[:8])
        a = baseline_logistic(x, labeled)
        b = baseline_logistic(x, labeled)
        np.testing.assert_array_equal(a.values, b.values)

    def test_kmeans_bimodal_exact_split(self):
        adj = two_clique_adjacency(6)
        x = planted_feature(adj)
        binary = baseline_kmeans(x)
        assert exact_match(binary, adj)
        np.testing.assert_array_equal(binary, binary.T)

    def test_kmeans_constant_rejected(self):
        vals = np.full((4, 4), 0.3)
        np.fill_diagonal(vals, 1.0)
        x = FeatureMatrix(vals)
        with pytest.raises(ConstantMetric):
            baseline_kmeans(x)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 30),
        seed=st.integers(0, 2**32 - 1),
        decimals=st.sampled_from([None, 1, 2]),
        a=st.floats(0.1, 10.0),
        b=st.floats(-5.0, 5.0),
    )
    def test_kmeans_exact_and_affine_invariant(self, n, seed, decimals, a, b):
        vals = random_feature_values(n, seed, decimals)
        if np.unique(vals[np.triu_indices(n, 1)]).size < 2:
            return  # one distinct score: ConstantMetric, tested above
        x = FeatureMatrix(vals)
        binary = baseline_kmeans(x)
        assert_exact_two_means(x, binary)
        # a x + b with a > 0 keeps the order and scales every split's SSE by
        # a^2, so a unique optimum gives the same edge set; exact SSE ties and
        # scores merged by rounding may go either way
        sses = np.sort(exhaustive_split_sses(x)[1])
        unique_optimum = sses.size == 1 or sses[1] > sses[0] * (1 + 1e-9)
        moved = FeatureMatrix(a * vals + b)
        same_ties = np.unique(moved.values[np.triu_indices(n, 1)]).size == sses.size + 1
        if unique_optimum and same_ties:
            np.testing.assert_array_equal(baseline_kmeans(moved), binary)

    def test_cut_is_the_high_class_boundary(self):
        # a score equal to the cut is in the low class, as in binarize
        scores = np.array([0.1, 0.1, 0.2, 0.8, 0.9, 0.9])
        assert two_means_cut(scores) == 0.2
        assert two_means_cut(scores[::-1]) == 0.2
        with pytest.raises(ConstantMetric):
            two_means_cut(np.full(5, 0.4))

    def test_threshold_extremes_and_monotonicity(self):
        adj = two_clique_adjacency(6)
        x = planted_feature(adj)  # off-diagonal values 0.1 and 0.9, all > 0
        n_off = 30
        assert baseline_threshold(x, 0.0).sum() == n_off  # complete graph
        assert baseline_threshold(x, 1.0).sum() == 0  # empty graph
        low = baseline_threshold(x, 0.2)
        high = baseline_threshold(x, 0.8)
        assert np.all(high <= low)  # higher tau keeps a subset

    def test_threshold_midpoint_recovers_planted(self):
        adj = two_clique_adjacency(6)
        x = planted_feature(adj)
        assert exact_match(baseline_threshold(x, 0.5), adj)


class TestMonotoneSignalRecovery:
    # whenever every edge feature strictly exceeds every non-edge feature,
    # the label-free routes recover the exact edge set; the supervised
    # decoder is only guaranteed on the pairs it was trained on
    def test_label_free_routes_exact_on_planted_ring(self):
        t = gen_ring(6)
        adj = adjacency_matrix(t)
        x = planted_feature(adj)

        assert exact_match(baseline_threshold(x, 0.5), adj)
        assert exact_match(baseline_kmeans(x), adj)

        model, _ = infergat_train(x, InferGatConfig(epochs=500, knn_k=None, seed=0))
        assert exact_match(binarize(infergat_infer(model, x)), adj)

    def test_edgepre_exact_on_its_labeled_pairs(self):
        t = gen_ring(6)
        adj = adjacency_matrix(t)
        x = planted_feature(adj)
        labeled = labeled_from(adj, all_pairs(6)[:9])

        decoder = edgepre_train(x, labeled, EdgePreConfig(seed=0))
        soft = edgepre_infer(decoder, x)
        for i, j, label in labeled:
            assert (soft.values[i, j] > 0.5) == (label == 1)


class TestRunScenario:
    def test_scenario_5_is_a_knowledge_violation(self):
        log = tiny_log()
        k = ScenarioKnowledge(5)
        with pytest.raises(KnowledgeViolation, match="scenario must be 1..4"):
            run_scenario(k, log)

    def test_knowledge_mismatch_rejected(self):
        log = tiny_log()
        # E' names a node the 5-node log does not have
        bad = ScenarioKnowledge(2, ((0, 1, 1), (1, 5, 0)))
        with pytest.raises(KnowledgeViolation, match="not canonical for 5 nodes"):
            run_scenario(bad, log)

    def test_feature_kind_per_scenario(self):
        log = tiny_log()
        kinds = [MetricKind.RELATIVE_LOSS, MetricKind.COSINE_SIMILARITY] * 2
        for scenario, kind in zip((1, 2, 3, 4), kinds):
            k = sample_knowledge(scenario, log.config.topology, seed=2)
            res = run_scenario(
                k, log, edgepre_cfg=EdgePreConfig(epochs=5, seed=0),
                infergat_cfg=InferGatConfig(epochs=5, knn_k=None, seed=0), metric_last_k=1,
            )
            assert res.feature_kind is kind, scenario

    @pytest.mark.parametrize("scenario", [1, 3])
    def test_default_metric_read_is_the_pipelines(self, scenario):
        log = tiny_log()
        k = sample_knowledge(scenario, log.config.topology, seed=2)
        cfgs = dict(edgepre_cfg=EdgePreConfig(epochs=5, seed=0),
                    infergat_cfg=InferGatConfig(epochs=5, knn_k=None, seed=0))
        bare = run_scenario(k, log, **cfgs)
        pipeline = run_scenario(k, log, **cfgs, metric_phase="post", metric_last_k=3)
        assert bare.soft.values.tobytes() == pipeline.soft.values.tobytes()

    def test_every_metric_kind_is_read_by_a_scenario(self):
        assert {spec.feature_kind for spec in SCENARIOS.values()} == set(MetricKind)

    @pytest.mark.parametrize("scenario", list(SCENARIOS))
    def test_scenario_follows_the_table(self, scenario):
        spec, log = SCENARIOS[scenario], tiny_log()
        k = sample_knowledge(scenario, log.config.topology, seed=2)
        assert bool(k.known_pairs) is spec.holds_labels

        # relative loss exactly when the attacker holds data; EDGEPRE, which
        # keeps no loss history, exactly when it holds labels
        res = run_scenario(
            k, log, edgepre_cfg=EdgePreConfig(epochs=5, seed=0),
            infergat_cfg=InferGatConfig(epochs=5, knn_k=None, seed=0), metric_last_k=1,
        )
        assert (res.feature_kind is MetricKind.RELATIVE_LOSS) is spec.holds_data
        assert (res.train_losses == ()) is spec.holds_labels

        # flipping whether valid knowledge holds E' is a violation
        labeled = sample_knowledge(1, log.config.topology, seed=2).known_pairs
        flipped = dataclasses.replace(k, known_pairs=() if spec.holds_labels else labeled)
        with pytest.raises(KnowledgeViolation):
            flipped.validate(5)

    def test_sc1_routes_through_supervised_decoder(self, monkeypatch):
        # SC1 must produce exactly what the supervised pipeline produces when
        # invoked by hand on the same features, labels, and config
        t = gen_ring(6)
        adj = adjacency_matrix(t)
        x = planted_feature(adj)
        monkeypatch.setattr("topoleak.attacks.feature_from_log", lambda *a, **kw: x)
        log = tiny_log(t)
        k = sample_knowledge(1, t, rho=0.3, seed=1)
        res = run_scenario(k, log, edgepre_cfg=EdgePreConfig(seed=0))

        decoder = edgepre_train(x, k.known_pairs, EdgePreConfig(seed=0))
        manual = edgepre_infer(decoder, x)
        np.testing.assert_array_equal(res.soft.values, manual.values)
        binary = binarize(res.soft)
        np.testing.assert_array_equal(binary, binarize(manual))
        for i, j, label in k.known_pairs:
            assert binary[i, j] == label

    def test_attack_never_reads_ground_truth(self):
        # the log's truth swapped for another graph on the same nodes changes no bit of
        # any scenario's result: the truth reaches an attack only through its E' labels
        log = tiny_log()
        swapped = dataclasses.replace(log, config=dataclasses.replace(log.config, topology=gen_star(5)))
        assert not np.array_equal(swapped.adjacency, log.adjacency)
        cfgs = dict(edgepre_cfg=EdgePreConfig(epochs=20, seed=0),
                    infergat_cfg=InferGatConfig(epochs=5, knn_k=None, seed=0), metric_last_k=1)
        for scenario in SCENARIOS:
            k = sample_knowledge(scenario, log.config.topology, seed=2)
            res, blind = (run_scenario(k, lg, **cfgs) for lg in (log, swapped))
            assert res.soft.values.tobytes() == blind.soft.values.tobytes()

    def test_infergat_loss_history_kept(self):
        log = tiny_log()
        cfg = InferGatConfig(epochs=5, knn_k=None, seed=0)
        res3 = run_scenario(
            sample_knowledge(3, log.config.topology), log, infergat_cfg=cfg, metric_last_k=1
        )
        assert res3.train_losses == tuple(infergat_train(res3.feature, cfg)[1])
        assert len(res3.train_losses) == 5
        k1 = sample_knowledge(1, log.config.topology, seed=2)
        res1 = run_scenario(k1, log, edgepre_cfg=EdgePreConfig(epochs=20, seed=0), metric_last_k=1)
        assert res1.train_losses == ()

    @pytest.mark.parametrize("scenario", [3, 4])
    def test_a_log_trains_through_infergat_train_once(self, scenario, monkeypatch):
        # what wraps attacks.infergat_train sees every fit run_scenario trains from a log
        calls = []
        train = attacks.infergat_train

        def counting(x, cfg):
            out = train(x, cfg)
            calls.append(out)
            return out

        monkeypatch.setattr(attacks, "infergat_train", counting)
        log = tiny_log()
        cfg = InferGatConfig(epochs=7, knn_k=None, seed=0)
        knowledge = sample_knowledge(scenario, log.config.topology)
        res = attacks.run_scenario(knowledge, log, infergat_cfg=cfg, metric_last_k=1)
        assert len(calls) == 1
        model, losses = calls[0]
        assert isinstance(model, GatModel) and len(losses) == cfg.epochs
        assert res.train_losses == tuple(losses)

    def test_binarization_at_half(self):
        vals = np.array([[0.0, 0.6, 0.4], [0.6, 0.0, 0.5], [0.4, 0.5, 0.0]])
        soft = SoftAdjacency(vals)
        binary = binarize(soft)
        np.testing.assert_array_equal(
            binary, [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_soft_adjacency_rejected(self, bad):
        vals = np.full((3, 3), 0.5)
        vals[0, 1] = vals[1, 0] = bad
        with pytest.raises(ShapeError, match="finite"):
            SoftAdjacency(vals)

    def test_asymmetry_of_1e15_rejected(self):
        # one exact contract with FeatureMatrix: every producer writes both
        # triangles from one score, so any asymmetry is a fault
        vals = np.full((3, 3), 0.5)
        vals[0, 1] += 1e-15
        with pytest.raises(ShapeError, match="exactly symmetric"):
            SoftAdjacency(vals)
