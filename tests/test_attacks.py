import dataclasses

import numpy as np
import pytest

from topoleak import attacks
from topoleak.attacks import (
    LEAKY_SLOPE,
    SCENARIO_FEATURE_KIND,
    AttackResult,
    EdgeDecoder,
    EdgePreConfig,
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
    infergat_infer,
    infergat_train,
    run_scenario,
    sample_knowledge,
    _attention_mask,
    _gat_dims,
    _gat_forward,
    _gat_loss_and_grad,
    _gat_init,
    _gat_unpack,
    _pair_feature_rows,
    _sigmoid,
)
from topoleak.data import gen_blobs, partition_iid
from topoleak.engine import FederationConfig, run_simulation
from topoleak.errors import (
    ConstantMetric,
    DegenerateLabels,
    KnowledgeViolation,
    ShapeError,
    Unsupported,
)
from topoleak.metrics import FeatureMatrix, MetricKind
from topoleak.nn import MlpArchitecture, ModelParams, forward_cached, init_params, unpack
from topoleak.topology import Topology, adjacency_matrix, gen_ring, gen_star


def planted_feature(adj: np.ndarray, hi=0.9, lo=0.1) -> FeatureMatrix:
    v = np.where(adj > 0, hi, lo)
    np.fill_diagonal(v, 1.0)
    return FeatureMatrix(v, (MetricKind.COSINE_SIMILARITY,), 0.0, 1.0)


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


def reference_pair_scores(flat, x, d_in, cfg):
    """Soft adjacency from the decoder run row by row on [z_i || z_j]."""
    n = x.shape[0]
    params = _gat_unpack(flat, d_in, cfg)
    _, (_, z, _, _) = _gat_forward(params, x, cfg, _attention_mask(x, cfg.knn_k))
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


def reference_gat_loss_and_grad(flat, x, d_in, cfg, mask):
    """INFERGAT's out-of-place backward: unpack every epoch, build the
    off-diagonal mask, run every decoder layer's delta @ w.T as a matmul and
    concatenate the gradient."""
    n = x.shape[0]
    heads, dec = _gat_unpack(flat, d_in, cfg)
    soft, (enc, z, acts, sig) = _gat_forward((heads, dec), x, cfg, mask)
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
    mask = _attention_mask(vals, cfg.knn_k)
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
        assert k.known_datasets == frozenset(range(5))

    def test_sc2_forbids_datasets(self):
        with pytest.raises(KnowledgeViolation):
            ScenarioKnowledge(
                2, frozenset(range(5)), frozenset({0}), ((0, 1, 1), (2, 3, 0))
            ).validate(5)

    def test_sc3_forbids_pairs(self):
        with pytest.raises(KnowledgeViolation):
            ScenarioKnowledge(
                3, frozenset(range(5)), frozenset(range(5)), ((0, 1, 1),)
            ).validate(5)

    def test_sc5_needs_proper_model_subset(self):
        ScenarioKnowledge(5, frozenset({0, 1}), frozenset()).validate(5)
        with pytest.raises(KnowledgeViolation):
            ScenarioKnowledge(5, frozenset(range(5)), frozenset()).validate(5)

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

    def test_complete_graph_cannot_yield_negatives(self):
        from topoleak.topology import gen_erdos_renyi

        t = gen_erdos_renyi(5, 1.0, seed=0)
        with pytest.raises(DegenerateLabels):
            sample_knowledge(1, t, rho=0.3, seed=0)

    def test_pair_validation(self):
        with pytest.raises(KnowledgeViolation):
            ScenarioKnowledge(
                1, frozenset(range(4)), frozenset(range(4)), ((1, 0, 1),)
            ).validate(4)


class TestPairFeatures:
    def test_pair_rows_are_the_pairs_own_entries(self):
        vals = np.arange(16, dtype=float).reshape(4, 4)
        rows = _pair_feature_rows(vals, [(0, 1), (3, 2)])
        np.testing.assert_array_equal(rows, [[1.0, 4.0], [14.0, 11.0]])


class TestEdgePre:
    def test_separable_features_reach_tiny_bce(self):
        # positives concatenate 1-vectors, negatives 0-vectors: separable,
        # so the optimizer can push BCE under 0.01
        n = 6
        vals = np.zeros((n, n))
        vals[:3] = 1.0
        x = FeatureMatrix(vals, (MetricKind.COSINE_SIMILARITY,), 0.0, 1.0)
        labeled = ((0, 1, 1), (0, 2, 1), (3, 4, 0), (3, 5, 0))
        decoder = edgepre_train(x, labeled, EdgePreConfig(seed=1))
        assert edgepre_bce(decoder, x, labeled) < 0.01

    def test_zero_decoder_scores_half_everywhere(self):
        x = planted_feature(two_clique_adjacency(4))
        # the decoder's input is the pair's own entries [x_ij, x_ji]
        arch = MlpArchitecture((2, 8, 1))
        dec = EdgeDecoder(ModelParams(arch, np.zeros(arch.n_params)))
        soft = edgepre_infer(dec, x)
        off = ~np.eye(4, dtype=bool)
        np.testing.assert_allclose(soft.values[off], 0.5, atol=1e-15)
        np.testing.assert_array_equal(np.diag(soft.values), 0.0)

    def test_same_seed_identical(self):
        x = planted_feature(two_clique_adjacency(6))
        labeled = labeled_from(two_clique_adjacency(6), all_pairs(6))[:8]
        a = edgepre_train(x, labeled, EdgePreConfig(seed=4))
        b = edgepre_train(x, labeled, EdgePreConfig(seed=4))
        np.testing.assert_array_equal(a.params.flat, b.params.flat)

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


class TestInferGat:
    def test_loss_decreases_on_two_clique(self):
        x = planted_feature(two_clique_adjacency(6))
        _, losses = infergat_train(x, InferGatConfig(seed=0))
        assert losses[-1] < losses[0]

    def test_same_seed_identical_trajectory(self):
        x = planted_feature(two_clique_adjacency(6))
        cfg = InferGatConfig(epochs=50, seed=2)
        m1, l1 = infergat_train(x, cfg)
        m2, l2 = infergat_train(x, cfg)
        assert l1 == l2
        np.testing.assert_array_equal(m1.flat, m2.flat)

    def test_gradient_matches_finite_differences(self):
        # oracle: central differences on the packed parameter vector
        rng = np.random.default_rng(42)
        cfg = InferGatConfig(embed_dim=4, heads=1, seed=7)
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

    @pytest.mark.parametrize("knn_k", [None, 2])
    def test_explicit_mask_gives_same_loss_and_gradient(self, knn_k):
        cfg = InferGatConfig(embed_dim=4, heads=2, knn_k=knn_k, seed=1)
        vals = random_feature_values(7, seed=2)
        flat = _gat_init(7, cfg)
        l_built, g_built = _gat_loss_and_grad(flat, vals, 7, cfg)
        l_given, g_given = _gat_loss_and_grad(flat, vals, 7, cfg, _attention_mask(vals, knn_k))
        assert l_built == l_given
        np.testing.assert_array_equal(g_built, g_given)

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

    def test_two_clique_separation_after_training(self):
        adj = two_clique_adjacency(6)
        x = planted_feature(adj)
        model, _ = infergat_train(x, InferGatConfig(seed=0))
        soft = infergat_infer(model, x)
        within = soft.values[(adj > 0)]
        off = ~np.eye(6, dtype=bool)
        across = soft.values[off & (adj == 0)]
        assert within.mean() > across.mean()

    def test_inference_symmetric_bounded(self):
        x = planted_feature(two_clique_adjacency(6))
        model, _ = infergat_train(x, InferGatConfig(epochs=30, seed=1))
        soft = infergat_infer(model, x)
        np.testing.assert_allclose(soft.values, soft.values.T, atol=1e-12)
        assert soft.values.min() >= 0 and soft.values.max() <= 1

    def test_knn_attention_override(self):
        x = planted_feature(adjacency_matrix(gen_ring(6)))
        cfg = InferGatConfig(epochs=30, knn_k=2, seed=0)
        model, losses = infergat_train(x, cfg)
        soft = infergat_infer(model, x)
        assert losses[-1] < losses[0]
        np.testing.assert_allclose(soft.values, soft.values.T, atol=1e-12)


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
        x = FeatureMatrix(vals, (MetricKind.COSINE_SIMILARITY,), 0.0, 1.0)
        before = x.values.tobytes()
        pairs = all_pairs(n)[:n_pairs]
        labeled = tuple((i, j, int(vals[i, j] > 0.5)) for i, j in pairs)
        cfg = EdgePreConfig(hidden_sizes=hidden, epochs=300, seed=3)
        decoder = edgepre_train(x, labeled, cfg)
        assert decoder.params.flat.tobytes() == reference_edgepre(x, labeled, cfg).tobytes()
        assert x.values.tobytes() == before

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("knn_k", [None, 5])
    @pytest.mark.parametrize("decoder_hidden", [(16,), (8, 4)])
    def test_infergat_equals_out_of_place_loop(self, heads, knn_k, decoder_hidden):
        x = FeatureMatrix(random_feature_values(10, seed=heads), (MetricKind.COSINE_SIMILARITY,), 0.0, 1.0)
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
        infergat_train(x, InferGatConfig(epochs=5))
        assert len(made) == 2
        for p, bytes_at_init in made:
            assert p.flat.tobytes() == bytes_at_init


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
        binary = baseline_kmeans(x, seed=0)
        assert exact_match(binary, adj)
        np.testing.assert_array_equal(binary, binary.T)

    def test_kmeans_constant_rejected(self):
        vals = np.full((4, 4), 0.3)
        np.fill_diagonal(vals, 1.0)
        x = FeatureMatrix(vals, (MetricKind.COSINE_SIMILARITY,), 0.0, 1.0)
        with pytest.raises(ConstantMetric):
            baseline_kmeans(x)

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
        assert exact_match(baseline_kmeans(x, seed=0), adj)

        model, _ = infergat_train(x, InferGatConfig(seed=0))
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
    def test_sc5_unsupported(self):
        log = tiny_log()
        k = ScenarioKnowledge(5, frozenset({0, 1}), frozenset())
        with pytest.raises(Unsupported):
            run_scenario(k, log)

    def test_knowledge_mismatch_rejected(self):
        log = tiny_log()
        bad = ScenarioKnowledge(
            2, frozenset(range(5)), frozenset({0}), ((0, 1, 1), (1, 2, 0))
        )
        with pytest.raises(KnowledgeViolation):
            run_scenario(bad, log)

    def test_feature_kind_per_scenario(self):
        log = tiny_log()
        k3 = sample_knowledge(3, log.config.topology)
        res3 = run_scenario(k3, log, infergat_cfg=InferGatConfig(epochs=5, seed=0))
        assert res3.feature_kind is MetricKind.RELATIVE_LOSS
        k4 = sample_knowledge(4, log.config.topology)
        res4 = run_scenario(k4, log, infergat_cfg=InferGatConfig(epochs=5, seed=0))
        assert res4.feature_kind is MetricKind.COSINE_SIMILARITY

    def test_every_metric_kind_is_read_by_a_scenario(self):
        assert set(SCENARIO_FEATURE_KIND.values()) == set(MetricKind)

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
        np.testing.assert_array_equal(res.binary, binarize(manual))
        for i, j, label in k.known_pairs:
            assert res.binary[i, j] == label

    def test_attack_never_reads_ground_truth(self):
        # removing the adjacency from the log must not affect any scenario
        log = tiny_log()
        blinded = dataclasses.replace(log, adjacency=None)
        k = sample_knowledge(4, log.config.topology)
        res = run_scenario(k, blinded, infergat_cfg=InferGatConfig(epochs=5, seed=0))
        assert isinstance(res, AttackResult)
        k1 = sample_knowledge(1, log.config.topology, seed=2)
        res1 = run_scenario(k1, blinded, edgepre_cfg=EdgePreConfig(epochs=20, seed=0))
        assert isinstance(res1.soft, SoftAdjacency)

    def test_infergat_loss_history_kept(self):
        log = tiny_log()
        cfg = InferGatConfig(epochs=5, seed=0)
        res3 = run_scenario(sample_knowledge(3, log.config.topology), log, infergat_cfg=cfg)
        assert res3.train_losses == tuple(infergat_train(res3.feature, cfg)[1])
        assert len(res3.train_losses) == 5
        k1 = sample_knowledge(1, log.config.topology, seed=2)
        res1 = run_scenario(k1, log, edgepre_cfg=EdgePreConfig(epochs=20, seed=0))
        assert res1.train_losses == ()

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
