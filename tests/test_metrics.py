import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoleak.data import Dataset, gen_blobs, partition_iid
from topoleak.engine import FederationConfig, run_simulation
from topoleak.errors import (
    ConstantMetric,
    DegenerateModel,
    InvalidConfig,
    InvalidTrace,
    KnowledgeViolation,
    ParseError,
    ShapeError,
)
from topoleak.evaluation import ExperimentDefaults
from topoleak.metrics import (
    FeatureMatrix,
    MetricKind,
    cosine_matrix,
    dump_matrix_csv,
    feature_from_log,
    load_matrix_csv,
    metric_from_log,
    orient_and_normalize,
    relative_loss,
)
from topoleak.nn import (
    MlpArchitecture,
    TrainConfig,
    cross_entropy,
    forward_batch,
    init_params,
    log_softmax,
)
from topoleak.topology import gen_ring


def zero_models(n, d_in=2, k=2):
    """An architecture and an (n, P) stack of all-zero models."""
    arch = MlpArchitecture((d_in, 3, k))
    return arch, np.zeros((n, arch.n_params))


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
        arch, params = zero_models(3, k=3)
        datasets = [tiny_dataset(s, k=3) for s in range(3)]
        m = relative_loss(arch, params, datasets)
        np.testing.assert_allclose(m, math.log(3), atol=1e-12)

    def test_diagonal_is_own_data_loss(self):
        rng = np.random.default_rng(0)
        arch = MlpArchitecture((2, 3, 2))
        params = np.stack([init_params(arch, seed=s).flat for s in range(3)])
        datasets = [tiny_dataset(s) for s in range(3)]
        m = relative_loss(arch, params, datasets)
        for i in range(3):
            own = cross_entropy((arch, params[i]), datasets[i].features, datasets[i].labels)
            assert m[i, i] == pytest.approx(own, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 40), min_size=2, max_size=7),
        act=st.sampled_from(["relu", "tanh"]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_pairwise_loop(self, sizes, act, seed):
        arch = MlpArchitecture((3, 5, 4), act)
        rng = np.random.default_rng(seed)
        params = np.stack([init_params(arch, seed + i).flat for i in range(len(sizes))])
        datasets = [
            Dataset(rng.standard_normal((m, 3)) * 3, rng.integers(0, 4, size=m)) for m in sizes
        ]
        want = np.array([
            [-log_softmax(forward_batch((arch, p), d.features))[np.arange(d.n_samples), d.labels].mean()
             for d in datasets]
            for p in params
        ])
        got = relative_loss(arch, params, datasets)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 30),
        alpha=st.sampled_from([0.1, 0.5, 5.0]),
        seed=st.integers(0, 2**16),
    )
    def test_bytes_equal_the_per_slice_means(self, n, alpha, seed):
        # Dirichlet shares of 20 samples per node, at least 2 each: unequal
        # lengths, several shards of one length, and lengths past 8 and 128,
        # where the pairwise sum changes its blocking
        rng = np.random.default_rng(seed)
        sizes = 2 + rng.multinomial(18 * n, rng.dirichlet(np.full(n, alpha)))
        arch = MlpArchitecture((3, 5, 4), "tanh")
        params = np.stack([init_params(arch, seed + i).flat for i in range(n)])
        datasets = [
            Dataset(rng.standard_normal((m, 3)) * 3, rng.integers(0, 4, size=m)) for m in sizes
        ]
        x = np.concatenate([d.features for d in datasets])
        y = np.concatenate([d.labels for d in datasets])
        bounds = np.cumsum([0, *sizes])
        want = np.zeros((n, n))
        for i, p in enumerate(params):
            nll = -log_softmax(forward_batch((arch, p), x))[np.arange(len(y)), y]
            want[i] = [nll[a:b].mean() for a, b in zip(bounds[:-1], bounds[1:])]
        assert relative_loss(arch, params, datasets).tobytes() == want.tobytes()

    def test_missing_dataset_rejected(self):
        arch, params = zero_models(2)
        with pytest.raises(KnowledgeViolation):
            relative_loss(arch, params, [tiny_dataset(0), None])


class TestCosineEuclidean:
    def test_cosine_hand_values(self):
        m = cosine_matrix(np.array([[1.0, 2.0], [2.0, 4.0], [-2.0, 1.0]]))
        assert m[0, 1] == pytest.approx(1.0)  # positive scaling
        assert m[0, 2] == pytest.approx(0.0, abs=1e-12)  # orthogonal
        np.testing.assert_allclose(np.diag(m), 1.0, atol=1e-12)

    def test_cosine_zero_vector_rejected(self):
        with pytest.raises(DegenerateModel):
            cosine_matrix(np.array([np.zeros(3), np.ones(3)]))

class TestOrientAndNormalize:
    def test_cosine_order_preserved(self):
        rng = np.random.default_rng(0)
        vecs = rng.standard_normal((5, 6))
        m = cosine_matrix(vecs)
        f = orient_and_normalize(m, MetricKind.COSINE_SIMILARITY)
        off = ~np.eye(5, dtype=bool)
        assert f.values[off].min() == pytest.approx(0.0)
        assert f.values[off].max() == pytest.approx(1.0)
        np.testing.assert_array_equal(np.diag(f.values), 1.0)
        order_m = np.argsort(m[off], kind="stable")
        order_f = np.argsort(f.values[off], kind="stable")
        np.testing.assert_array_equal(order_m, order_f)

    def test_loss_orientation_flips(self):
        # the smallest loss pair must map to feature 1.0
        vals = np.array([[0.1, 0.5, 0.9], [0.5, 0.1, 0.3], [0.9, 0.3, 0.1]])
        f = orient_and_normalize(vals, MetricKind.RELATIVE_LOSS)
        assert f.values[1, 2] == pytest.approx(1.0)  # smallest off-diag loss 0.3
        assert f.values[0, 2] == pytest.approx(0.0)  # largest off-diag loss 0.9

    def test_symmetrization_averages(self):
        vals = np.array(
            [[0.0, 1.0, 0.2], [3.0, 0.0, 0.6], [0.4, 0.8, 0.0]]
        )
        f = orient_and_normalize(vals, MetricKind.RELATIVE_LOSS)
        # symmetrized off-diagonals: (0,1)->2.0, (0,2)->0.3, (1,2)->0.7;
        # negation + min-max maps 2.0 -> 0, 0.3 -> 1, 0.7 -> (2-0.7)/1.7
        assert f.values[0, 1] == pytest.approx(0.0)
        assert f.values[0, 2] == pytest.approx(1.0)
        assert f.values[1, 2] == pytest.approx((2.0 - 0.7) / 1.7)
        np.testing.assert_allclose(f.values, f.values.T, atol=1e-12)

    def test_two_node_constant_after_symmetrize(self):
        vals = np.array([[0.0, 1.0], [3.0, 0.0]])
        with pytest.raises(ConstantMetric):
            orient_and_normalize(vals, MetricKind.RELATIVE_LOSS)

    def test_symmetric_input_unchanged_by_symmetrization(self):
        rng = np.random.default_rng(1)
        raw = rng.random((4, 4))
        sym = 0.5 * (raw + raw.T)
        a = orient_and_normalize(sym, MetricKind.RELATIVE_LOSS)
        # negation + min-max of an already symmetric matrix
        off = ~np.eye(4, dtype=bool)
        neg = -sym
        lo, hi = neg[off].min(), neg[off].max()
        expected = (neg - lo) / (hi - lo)
        np.fill_diagonal(expected, 1.0)
        np.testing.assert_allclose(a.values, expected, atol=1e-12)

    def test_constant_metric_rejected(self):
        with pytest.raises(ConstantMetric):
            orient_and_normalize(np.ones((3, 3)), MetricKind.COSINE_SIMILARITY)

    @pytest.mark.parametrize("kind", list(MetricKind))
    @pytest.mark.parametrize("shape", [(3, 4), (9,), (2, 2, 2)], ids=["3x4", "9", "2x2x2"])
    def test_non_square_metric_rejected(self, kind, shape):
        with pytest.raises(ShapeError, match=re.escape(f"metric matrix must be square, got {shape}")):
            orient_and_normalize(np.arange(np.prod(shape), dtype=float).reshape(shape), kind)

    def test_feature_values_are_a_read_only_copy(self):
        # attacks read x.values directly, so no caller can alter a feature
        vals = np.full((3, 3), 0.5)
        f = FeatureMatrix(vals)
        vals[0, 1] = 0.9
        assert f.values[0, 1] == 0.5
        with pytest.raises(ValueError):
            f.values[0, 1] = 0.9

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_feature_matrix_rejected(self, bad):
        vals = np.full((3, 3), 0.5)
        vals[2, 0] = bad
        with pytest.raises(ShapeError, match="finite"):
            FeatureMatrix(vals)

    def test_asymmetric_feature_matrix_rejected(self):
        # one ulp off is enough: attacks read each pair at i < j only
        vals = np.full((3, 3), 0.5)
        vals[2, 0] = np.nextafter(0.5, 1.0)
        with pytest.raises(ShapeError, match="symmetric"):
            FeatureMatrix(vals)

    @pytest.mark.parametrize("shape", [(3, 4), (9,), (2, 2, 2)])
    def test_non_square_feature_matrix_rejected(self, shape):
        with pytest.raises(ShapeError, match="square"):
            FeatureMatrix(np.full(shape, 0.5))


class TestMetricFromLog:
    def test_default_is_final_round_post(self):
        log = small_log()
        m = metric_from_log(log, MetricKind.COSINE_SIMILARITY, last_k=1)
        np.testing.assert_allclose(m, cosine_matrix(log.params[-1]), atol=1e-12)

    def test_pre_phase(self):
        log = small_log()
        m = metric_from_log(log, MetricKind.COSINE_SIMILARITY, phase="pre", last_k=1)
        pre = log.params[-2] + log.deltas[-1]
        np.testing.assert_allclose(m, cosine_matrix(pre), atol=1e-12)

    def test_last_k_averages(self):
        log = small_log()
        m = metric_from_log(log, MetricKind.COSINE_SIMILARITY, last_k=2)
        a = cosine_matrix(log.params[-1])
        b = cosine_matrix(log.params[-2])
        np.testing.assert_allclose(m, (a + b) / 2, atol=1e-12)

    def test_unknown_phase_rejected(self):
        with pytest.raises(InvalidTrace, match="phase must be pre or post"):
            metric_from_log(small_log(), MetricKind.COSINE_SIMILARITY, phase="mid")

    def test_a_config_and_a_trace_refuse_a_phase_in_one_message(self):
        with pytest.raises(InvalidConfig) as config_error:
            ExperimentDefaults(metric_phase="mid")
        with pytest.raises(InvalidTrace) as trace_error:
            small_log().snapshot(1, "mid")
        assert str(trace_error.value) == str(config_error.value) == "metric phase must be pre or post, got 'mid'"

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_last_k_bounds(self, kind):
        log = small_log(rounds=2)
        # below 1 is the config bound ExperimentDefaults checks; above the rounds only a log knows
        with pytest.raises(InvalidConfig, match="metric last_k must be >= 1, got 0"):
            metric_from_log(log, kind, last_k=0)
        with pytest.raises(KnowledgeViolation):
            metric_from_log(log, kind, last_k=3)
        metric_from_log(log, kind, last_k=2)  # every round of the log may be averaged

    @pytest.mark.parametrize("kind", ["cosine_similarity", None, 1])
    def test_a_kind_that_is_not_a_metric_kind_is_refused(self, kind):
        with pytest.raises(KnowledgeViolation, match=f"unknown metric kind {kind}"):
            metric_from_log(small_log(), kind, last_k=1)

    def test_relative_loss_from_log_uses_full_node_sets(self):
        log = small_log()
        m = metric_from_log(log, MetricKind.RELATIVE_LOSS, last_k=1)
        d0 = log.node_dataset(0)
        arch = log.config.architecture(log.dataset)
        own = cross_entropy((arch, log.params[-1, 0]), d0.features, d0.labels)
        assert m[0, 0] == pytest.approx(own, abs=1e-12)

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_feature_from_log(self, kind):
        # both kinds meet the FeatureMatrix contract: exactly symmetric
        log = small_log()
        f = feature_from_log(log, kind, last_k=2)
        assert isinstance(f, FeatureMatrix)
        expected = orient_and_normalize(metric_from_log(log, kind, last_k=2), kind)
        assert f.values.tobytes() == expected.values.tobytes()
        assert np.array_equal(f.values, f.values.T)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def square_matrices(draw, min_n=1):
    n = draw(st.integers(min_n, 6))
    return np.array(draw(st.lists(FINITE, min_size=n * n, max_size=n * n))).reshape(n, n)


class TestSerialization:
    def test_blank_lines_are_skipped_and_keep_line_numbers(self):
        np.testing.assert_array_equal(load_matrix_csv("\n1,2\n  \n3,4\n"), [[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ParseError) as exc:
            load_matrix_csv("1,2\n\n3\n")
        assert exc.value.line == 3

    def test_matrix_csv_round_trip(self):
        rng = np.random.default_rng(2)
        vals = rng.standard_normal((4, 4))
        np.testing.assert_array_equal(load_matrix_csv(dump_matrix_csv(vals)), vals)

    @settings(max_examples=100, deadline=None)
    @given(square_matrices())
    def test_matrix_csv_round_trip_is_bit_exact(self, vals):
        back = load_matrix_csv(dump_matrix_csv(vals))
        assert back.shape == vals.shape and back.tobytes() == vals.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(square_matrices(min_n=2), st.data())
    def test_bad_row_names_its_line(self, vals, data):
        lines = dump_matrix_csv(vals).splitlines()
        ragged = data.draw(st.booleans(), label="ragged")
        # row 1 sets the expected width, so a ragged row comes later
        k = data.draw(st.integers(2 if ragged else 1, len(lines)), label="line")
        if ragged:
            lines[k - 1] += ",0.0"
            message = f"expected {len(vals)} fields"
        else:
            fields = lines[k - 1].split(",")
            fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(
                st.sampled_from(["nan", "inf", "-inf", "1e999"])
            )
            lines[k - 1] = ",".join(fields)
            message = "non-finite field"
        with pytest.raises(ParseError) as exc:
            load_matrix_csv("\n".join(lines) + "\n")
        assert exc.value.line == k
        assert message in str(exc.value)

