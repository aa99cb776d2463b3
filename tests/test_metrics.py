import math

import numpy as np
import pytest

from topoleak.data import Dataset, gen_blobs, partition_iid
from topoleak.engine import FederationConfig, run_simulation
from topoleak.errors import ConstantMetric, DegenerateModel, KnowledgeViolation, ShapeError
from topoleak.metrics import (
    FeatureMatrix,
    MetricKind,
    MetricMatrix,
    cosine_matrix,
    curvature_divergence_matrix,
    dump_matrix_csv,
    euclidean_matrix,
    feature_from_log,
    load_matrix_csv,
    metric_from_log,
    orient_and_normalize,
    relative_entropy,
    relative_loss,
    relative_sensitivity,
    save_feature,
    save_metric,
)
from topoleak.nn import (
    MlpArchitecture,
    ModelParams,
    TrainConfig,
    cross_entropy,
    forward,
    init_params,
    pack,
    softmax,
)
from topoleak.topology import gen_ring


def zero_model(d_in=2, k=2):
    arch = MlpArchitecture((d_in, 3, k))
    return ModelParams(arch, np.zeros(arch.n_params))


def tiny_dataset(seed, n=6, d=2, k=2):
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((n, d)), rng.integers(0, k, size=n))


def small_log(topology=None, seed=3, rounds=None, lr=0.05, epochs=1):
    t = topology if topology is not None else gen_ring(5)
    d = gen_blobs(2, 2, 10 * t.n_nodes, spread=0.5, seed=seed)
    plan = partition_iid(d, t.n_nodes, seed=seed)
    cfg = FederationConfig(
        topology=t,
        train=TrainConfig(local_epochs=epochs, learning_rate=lr, batch_size=16),
        rounds=rounds,
        hidden_sizes=(4,),
    )
    return run_simulation(cfg, d, plan, seed=seed)


class TestRelativeLoss:
    def test_uniform_model_gives_log_k(self):
        models = [zero_model(k=3) for _ in range(3)]
        datasets = [tiny_dataset(s, k=3) for s in range(3)]
        m = relative_loss(models, datasets)
        np.testing.assert_allclose(m.values, math.log(3), atol=1e-12)

    def test_diagonal_is_own_data_loss(self):
        rng = np.random.default_rng(0)
        models = [init_params(MlpArchitecture((2, 3, 2)), seed=s) for s in range(3)]
        datasets = [tiny_dataset(s) for s in range(3)]
        m = relative_loss(models, datasets)
        for i in range(3):
            own = cross_entropy(models[i], datasets[i].features, datasets[i].labels)
            assert m.values[i, i] == pytest.approx(own, abs=1e-12)

    def test_missing_dataset_rejected(self):
        models = [zero_model() for _ in range(2)]
        with pytest.raises(KnowledgeViolation):
            relative_loss(models, [tiny_dataset(0), None])


class TestRelativeEntropy:
    def test_confident_correct_model_near_zero(self):
        arch = MlpArchitecture((2, 2, 2), activation="relu")
        p = pack(arch, [(np.eye(2) * 50, np.zeros(2)), (np.eye(2), np.zeros(2))])
        d = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]))
        m = relative_entropy([p], [d])
        assert m.values[0, 0] < 1e-8

    def test_uniform_model_log_k(self):
        m = relative_entropy([zero_model(k=4)], [tiny_dataset(1, k=4)])
        assert m.values[0, 0] == pytest.approx(math.log(4), abs=1e-12)

    def test_identity_with_relative_loss_under_one_hot(self):
        models = [init_params(MlpArchitecture((2, 4, 3)), seed=s) for s in range(4)]
        datasets = [tiny_dataset(s, k=3) for s in range(4)]
        a = relative_loss(models, datasets)
        b = relative_entropy(models, datasets)
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)


class TestRelativeSensitivity:
    def test_zero_model_zero_sensitivity(self):
        m = relative_sensitivity([zero_model()], [tiny_dataset(0)])
        np.testing.assert_allclose(m.values, 0.0, atol=1e-15)

    def test_matches_finite_difference_jacobians(self):
        # oracle: central differences of softmax outputs per input coordinate
        models = [init_params(MlpArchitecture((2, 4, 2), activation="tanh"), seed=s) for s in range(3)]
        datasets = [tiny_dataset(s, n=5) for s in range(3)]
        m = relative_sensitivity(models, datasets, subsample=32)
        step = 1e-6
        for i, model in enumerate(models):
            for j, d in enumerate(datasets):
                norms = []
                for x in d.features:  # subsample >= n picks every sample
                    fd = np.zeros((2, 2))
                    for c in range(2):
                        up, down = x.copy(), x.copy()
                        up[c] += step
                        down[c] -= step
                        fd[:, c] = (softmax(forward(model, up)) - softmax(forward(model, down))) / (
                            2 * step
                        )
                    norms.append(np.linalg.norm(fd))
                assert m.values[i, j] == pytest.approx(np.mean(norms), abs=1e-4)

    def test_nonnegative(self):
        models = [init_params(MlpArchitecture((2, 3, 2)), seed=s) for s in range(3)]
        datasets = [tiny_dataset(s) for s in range(3)]
        assert np.all(relative_sensitivity(models, datasets).values >= 0)

    def test_deterministic_subsample(self):
        models = [init_params(MlpArchitecture((2, 3, 2)), seed=s) for s in range(2)]
        datasets = [tiny_dataset(s, n=50) for s in range(2)]
        a = relative_sensitivity(models, datasets, subsample=8, seed=5)
        b = relative_sensitivity(models, datasets, subsample=8, seed=5)
        np.testing.assert_array_equal(a.values, b.values)


class TestCosineEuclidean:
    def test_cosine_hand_values(self):
        m = cosine_matrix([np.array([1.0, 2.0]), np.array([2.0, 4.0]), np.array([-2.0, 1.0])])
        assert m.values[0, 1] == pytest.approx(1.0)  # positive scaling
        assert m.values[0, 2] == pytest.approx(0.0, abs=1e-12)  # orthogonal
        np.testing.assert_allclose(np.diag(m.values), 1.0, atol=1e-12)

    def test_cosine_zero_vector_rejected(self):
        with pytest.raises(DegenerateModel):
            cosine_matrix([np.zeros(3), np.ones(3)])

    def test_euclidean_hand_values(self):
        m = euclidean_matrix([np.array([0.0, 0.0]), np.array([3.0, 4.0])])
        assert m.values[0, 1] == pytest.approx(1.0 / 6.0)
        assert m.values[0, 0] == pytest.approx(1.0)
        assert np.all(m.values > 0) and np.all(m.values <= 1)


class TestCurvatureDivergence:
    def test_equal_updates_zero(self):
        now = [np.array([1.0, 1.0]), np.array([2.0, 0.0])]
        before = [np.array([0.0, 0.0]), np.array([1.0, -1.0])]
        m = curvature_divergence_matrix(now, before)
        assert m.values[0, 1] == pytest.approx(0.0)  # both updates are (1, 1)

    def test_opposite_updates_maximal(self):
        now = [np.array([1.0, 0.0]), np.array([-1.0, 0.0])]
        before = [np.zeros(2), np.zeros(2)]
        m = curvature_divergence_matrix(now, before)
        assert m.values[0, 1] == pytest.approx(2.0)

    def test_both_zero_updates_defined_as_zero(self):
        now = [np.zeros(2), np.zeros(2)]
        m = curvature_divergence_matrix(now, now)
        np.testing.assert_array_equal(m.values, 0.0)

    def test_range_bounded_by_two(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            now = [rng.standard_normal(5) for _ in range(4)]
            before = [rng.standard_normal(5) for _ in range(4)]
            m = curvature_divergence_matrix(now, before)
            assert np.all(m.values >= 0) and np.all(m.values <= 2 + 1e-12)


class TestOrientAndNormalize:
    def test_cosine_order_preserved(self):
        rng = np.random.default_rng(0)
        vecs = [rng.standard_normal(6) for _ in range(5)]
        m = cosine_matrix(vecs)
        f = orient_and_normalize(m)
        off = ~np.eye(5, dtype=bool)
        assert f.values[off].min() == pytest.approx(0.0)
        assert f.values[off].max() == pytest.approx(1.0)
        np.testing.assert_array_equal(np.diag(f.values), 1.0)
        order_m = np.argsort(m.values[off], kind="stable")
        order_f = np.argsort(f.values[off], kind="stable")
        np.testing.assert_array_equal(order_m, order_f)

    def test_loss_orientation_flips(self):
        # the smallest loss pair must map to feature 1.0
        vals = np.array([[0.1, 0.5, 0.9], [0.5, 0.1, 0.3], [0.9, 0.3, 0.1]])
        m = MetricMatrix(MetricKind.RELATIVE_LOSS, vals, round=1)
        f = orient_and_normalize(m)
        assert f.values[1, 2] == pytest.approx(1.0)  # smallest off-diag loss 0.3
        assert f.values[0, 2] == pytest.approx(0.0)  # largest off-diag loss 0.9

    def test_symmetrization_averages(self):
        vals = np.array(
            [[0.0, 1.0, 0.2], [3.0, 0.0, 0.6], [0.4, 0.8, 0.0]]
        )
        m = MetricMatrix(MetricKind.RELATIVE_LOSS, vals, round=1)
        f = orient_and_normalize(m)
        # symmetrized off-diagonals: (0,1)->2.0, (0,2)->0.3, (1,2)->0.7;
        # negation + min-max maps 2.0 -> 0, 0.3 -> 1, 0.7 -> (2-0.7)/1.7
        assert f.values[0, 1] == pytest.approx(0.0)
        assert f.values[0, 2] == pytest.approx(1.0)
        assert f.values[1, 2] == pytest.approx((2.0 - 0.7) / 1.7)
        np.testing.assert_allclose(f.values, f.values.T, atol=1e-12)

    def test_two_node_constant_after_symmetrize(self):
        vals = np.array([[0.0, 1.0], [3.0, 0.0]])
        m = MetricMatrix(MetricKind.RELATIVE_LOSS, vals, round=1)
        with pytest.raises(ConstantMetric):
            orient_and_normalize(m)

    def test_symmetric_input_unchanged_by_symmetrization(self):
        rng = np.random.default_rng(1)
        raw = rng.random((4, 4))
        sym = 0.5 * (raw + raw.T)
        a = orient_and_normalize(MetricMatrix(MetricKind.RELATIVE_LOSS, sym, round=1))
        # negation + min-max of an already symmetric matrix
        off = ~np.eye(4, dtype=bool)
        neg = -sym
        lo, hi = neg[off].min(), neg[off].max()
        expected = (neg - lo) / (hi - lo)
        np.fill_diagonal(expected, 1.0)
        np.testing.assert_allclose(a.values, expected, atol=1e-12)

    def test_constant_metric_rejected(self):
        m = MetricMatrix(MetricKind.COSINE_SIMILARITY, np.ones((3, 3)), round=1)
        with pytest.raises(ConstantMetric):
            orient_and_normalize(m)

    def test_feature_values_are_a_read_only_copy(self):
        # attacks read x.values directly, so no caller can alter a feature
        vals = np.full((3, 3), 0.5)
        f = FeatureMatrix(vals, (MetricKind.COSINE_SIMILARITY,), 0.0, 1.0)
        vals[0, 1] = 0.9
        assert f.values[0, 1] == 0.5
        with pytest.raises(ValueError):
            f.values[0, 1] = 0.9

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_feature_matrix_rejected(self, bad):
        vals = np.full((3, 3), 0.5)
        vals[2, 0] = bad
        with pytest.raises(ShapeError, match="finite"):
            FeatureMatrix(vals, (MetricKind.COSINE_SIMILARITY,), 0.0, 1.0)


class TestMetricFromLog:
    def test_default_is_final_round_post(self):
        log = small_log()
        m = metric_from_log(log, MetricKind.COSINE_SIMILARITY)
        models = log.traces[-1].params_post_agg
        np.testing.assert_allclose(m.values, cosine_matrix(models).values, atol=1e-12)
        assert m.round == len(log.traces)

    def test_pre_phase(self):
        log = small_log()
        m = metric_from_log(log, MetricKind.COSINE_SIMILARITY, phase="pre")
        models = log.traces[-1].params_pre_agg
        np.testing.assert_allclose(m.values, cosine_matrix(models).values, atol=1e-12)

    def test_last_k_averages(self):
        log = small_log()
        m = metric_from_log(log, MetricKind.EUCLIDEAN_SIMILARITY, last_k=2)
        a = euclidean_matrix(log.traces[-1].params_post_agg).values
        b = euclidean_matrix(log.traces[-2].params_post_agg).values
        np.testing.assert_allclose(m.values, (a + b) / 2, atol=1e-12)

    def test_curvature_uses_consecutive_same_phase_snapshots(self):
        log = small_log()
        m = metric_from_log(log, MetricKind.CURVATURE_DIVERGENCE)
        expected = curvature_divergence_matrix(
            log.traces[-1].params_post_agg, log.traces[-2].params_post_agg
        )
        np.testing.assert_allclose(m.values, expected.values, atol=1e-12)

    def test_curvature_needs_two_rounds(self):
        log = small_log(rounds=1)
        with pytest.raises(KnowledgeViolation):
            metric_from_log(log, MetricKind.CURVATURE_DIVERGENCE)

    def test_relative_loss_from_log_uses_full_node_sets(self):
        log = small_log()
        m = metric_from_log(log, MetricKind.RELATIVE_LOSS)
        models = log.traces[-1].params_post_agg
        d0 = log.node_dataset(0)
        own = cross_entropy(models[0], d0.features, d0.labels)
        assert m.values[0, 0] == pytest.approx(own, abs=1e-12)

    def test_feature_from_log(self):
        log = small_log()
        f = feature_from_log(log, MetricKind.COSINE_SIMILARITY)
        assert isinstance(f, FeatureMatrix)
        assert f.source_kinds == (MetricKind.COSINE_SIMILARITY,)


class TestSerialization:
    def test_matrix_csv_round_trip(self):
        rng = np.random.default_rng(2)
        vals = rng.standard_normal((4, 4))
        np.testing.assert_array_equal(load_matrix_csv(dump_matrix_csv(vals)), vals)

    def test_save_metric_writes_sidecar(self, tmp_path):
        m = MetricMatrix(MetricKind.COSINE_SIMILARITY, np.eye(3), round=7)
        save_metric(m, tmp_path / "cos")
        assert (tmp_path / "cos.csv").exists()
        meta = (tmp_path / "cos.meta.json").read_text()
        assert '"cosine_similarity"' in meta and '"round": 7' in meta

    def test_save_feature_records_bounds(self, tmp_path):
        rng = np.random.default_rng(3)
        f = orient_and_normalize(cosine_matrix([rng.standard_normal(5) for _ in range(4)]))
        save_feature(f, tmp_path / "feat")
        meta = (tmp_path / "feat.meta.json").read_text()
        assert '"norm_lo"' in meta and '"norm_hi"' in meta
