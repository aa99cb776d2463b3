import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoleak.data import (
    DIRICHLET_MAX_REDRAWS,
    Dataset,
    dump_csv,
    gen_blobs,
    load_csv,
    partition_dirichlet,
    partition_iid,
    split_train_holdout,
)
from topoleak.errors import InvalidConfig, ParseError, PartitionFailed


def label_histogram(d: Dataset, indices) -> np.ndarray:
    return np.bincount(d.labels[np.asarray(indices, dtype=np.int64)], minlength=d.n_classes)


class TestGenBlobs:
    def test_counts_and_balance(self):
        d = gen_blobs(4, 3, 50, spread=1.0, seed=0)
        assert d.n_samples == 200
        assert d.n_features == 3
        np.testing.assert_array_equal(np.bincount(d.labels), [50, 50, 50, 50])

    def test_deterministic(self):
        a = gen_blobs(3, 4, 20, spread=1.0, seed=9)
        b = gen_blobs(3, 4, 20, spread=1.0, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_tiny_spread_is_linearly_separable(self):
        # spread -> 0 collapses classes onto distinct centers; nearest
        # centroid then classifies the training set perfectly
        d = gen_blobs(2, 2, 30, spread=1e-4, seed=3)
        centroids = np.stack([d.features[d.labels == c].mean(axis=0) for c in range(2)])
        dists = np.linalg.norm(d.features[:, None, :] - centroids[None], axis=2)
        assert np.array_equal(dists.argmin(axis=1), d.labels)

    def test_many_classes_fall_back_to_directions(self):
        d = gen_blobs(8, 2, 10, spread=0.1, seed=1)  # 8 classes > 4 corners
        assert d.n_classes == 8

    def test_parameter_validation(self):
        with pytest.raises(InvalidConfig):
            gen_blobs(1, 2, 10, 1.0, 0)
        with pytest.raises(InvalidConfig):
            gen_blobs(2, 1, 10, 1.0, 0)
        with pytest.raises(InvalidConfig):
            gen_blobs(2, 2, 5, 1.0, 0)
        with pytest.raises(InvalidConfig):
            gen_blobs(2, 2, 10, 0.0, 0)


class TestPartitionIid:
    def test_equal_split(self):
        d = gen_blobs(2, 2, 50, 1.0, seed=0)  # 100 samples
        plan = partition_iid(d, 10, seed=1)
        assert plan.sizes() == [10] * 10

    def test_near_equal_split(self):
        feats = np.zeros((101, 2))
        labels = np.array([0, 1] * 50 + [0])
        plan = partition_iid(Dataset(feats, labels), 10, seed=1)
        assert sorted(set(plan.sizes())) == [10, 11]

    def test_exact_partition_property(self):
        rng = np.random.default_rng(42)
        d = gen_blobs(3, 2, 40, 1.0, seed=0)
        for _ in range(20):
            plan = partition_iid(d, int(rng.integers(2, 9)), seed=int(rng.integers(1 << 31)))
            flat = sorted(i for a in plan.assignments for i in a)
            assert flat == list(range(d.n_samples))

    def test_too_few_samples(self):
        feats = np.zeros((5, 2))
        labels = np.array([0, 1, 2, 0, 1])
        with pytest.raises(InvalidConfig):
            partition_iid(Dataset(feats, labels), 2, seed=0)


def reference_partition_dirichlet(d, n_nodes, alpha, seed):
    """The list-building redraw loop: every draw is split into per-node lists
    of Python ints before its node sizes are checked."""
    rng = np.random.default_rng(seed)
    k = d.n_classes
    by_class = [np.flatnonzero(d.labels == c) for c in range(k)]
    for _ in range(DIRICHLET_MAX_REDRAWS):
        nodes = [[] for _ in range(n_nodes)]
        for idx in by_class:
            idx = rng.permutation(idx)
            props = rng.dirichlet(np.full(n_nodes, alpha))
            cuts = (np.cumsum(props)[:-1] * len(idx)).astype(np.int64)
            for node, part in enumerate(np.split(idx, cuts)):
                nodes[node].extend(int(i) for i in part)
        if min(len(a) for a in nodes) >= k:
            return tuple(tuple(a) for a in nodes)
    return None


class TestPartitionDirichlet:
    def test_exact_partition_and_minimum(self):
        rng = np.random.default_rng(42)
        d = gen_blobs(3, 2, 100, 1.0, seed=0)
        for _ in range(10):
            plan = partition_dirichlet(d, 5, alpha=0.1, seed=int(rng.integers(1 << 31)))
            flat = sorted(i for a in plan.assignments for i in a)
            assert flat == list(range(d.n_samples))
            assert min(plan.sizes()) >= d.n_classes

    def test_reproducible(self):
        d = gen_blobs(3, 2, 100, 1.0, seed=0)
        a = partition_dirichlet(d, 5, alpha=0.5, seed=77)
        b = partition_dirichlet(d, 5, alpha=0.5, seed=77)
        assert a.assignments == b.assignments

    def test_high_alpha_close_to_iid_expectation(self):
        # oracle: with alpha -> inf the Dirichlet concentrates on the uniform
        # vector, so each node's expected class count is n_c / n_nodes
        d = gen_blobs(2, 2, 500, 1.0, seed=0)  # 500 per class, 10 nodes -> 50
        totals = np.zeros((10, 2))
        for seed in range(20):
            plan = partition_dirichlet(d, 10, alpha=1000.0, seed=seed)
            for node, idx in enumerate(plan.assignments):
                totals[node] += label_histogram(d, idx)
        mean_counts = totals / 20
        np.testing.assert_allclose(mean_counts, 50.0, rtol=0.2)

    def test_low_alpha_more_skewed_than_high(self):
        d = gen_blobs(4, 2, 250, 1.0, seed=0)

        def mean_entropy(alpha):
            ents = []
            for seed in range(10):
                plan = partition_dirichlet(d, 5, alpha=alpha, seed=seed)
                for idx in plan.assignments:
                    p = label_histogram(d, idx) / len(idx)
                    p = p[p > 0]
                    ents.append(-(p * np.log(p)).sum())
            return float(np.mean(ents))

        assert mean_entropy(0.1) < mean_entropy(1000.0)

    @pytest.mark.parametrize(
        "n_classes,n_per_class,n_nodes,alpha,seeds",
        [
            (2, 8, 6, 0.1, range(7)),  # seeds 2 and 6 raise
            (3, 40, 10, 0.1, range(3)),  # the benchmark sweep's Dirichlet cells
        ],
    )
    def test_equals_list_building_loop(self, n_classes, n_per_class, n_nodes, alpha, seeds):
        # a partition reads only the labels, which gen_blobs lays out class by class
        labels = np.repeat(np.arange(n_classes), n_per_class)
        d = Dataset(np.zeros((len(labels), 2)), labels)
        raised = []
        for seed in seeds:
            want = reference_partition_dirichlet(d, n_nodes, alpha, seed)
            if want is None:
                raised.append(seed)
                with pytest.raises(PartitionFailed):
                    partition_dirichlet(d, n_nodes, alpha, seed)
            else:
                got = partition_dirichlet(d, n_nodes, alpha, seed).assignments
                assert got == want
                assert all(type(i) is int for a in got for i in a)
        assert raised == ([2, 6] if n_nodes == 6 else [])

    def test_retry_budget_exhausted(self):
        # 10 nodes, 2 classes, 20 samples: satisfying >= K per node needs an
        # exactly even split, which skewed draws essentially never produce
        feats = np.zeros((20, 2))
        labels = np.array([0] * 10 + [1] * 10)
        with pytest.raises(PartitionFailed):
            partition_dirichlet(Dataset(feats, labels), 10, alpha=0.1, seed=0)


class TestSplitTrainHoldout:
    def test_eighty_twenty(self):
        train, hold = split_train_holdout(range(10), seed=0)
        assert len(train) == 8 and len(hold) == 2
        assert sorted(train + hold) == list(range(10))

    def test_tiny_node_keeps_one_train_sample(self):
        train, hold = split_train_holdout([4], seed=0)
        assert train == (4,) and hold == ()

    def test_deterministic(self):
        assert split_train_holdout(range(25), seed=5) == split_train_holdout(range(25), seed=5)


@st.composite
def datasets(draw):
    """Finite features; labels 0..K-1 with every class present, as load_csv returns them."""
    m, d = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=m * d, max_size=m * d))
    raw = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    return Dataset(np.array(values).reshape(m, d), np.unique(raw, return_inverse=True)[1])


class TestLoadCsv:
    def test_minimal(self):
        d = load_csv("f0,f1,label\n0.5,1.5,0\n2.5,3.5,1\n")
        assert d.n_samples == 2
        np.testing.assert_allclose(d.features, [[0.5, 1.5], [2.5, 3.5]])

    def test_label_remapping(self):
        d = load_csv("f0,f1,label\n0,0,3\n1,1,7\n2,2,3\n")
        np.testing.assert_array_equal(d.labels, [0, 1, 0])

    def test_missing_header(self):
        with pytest.raises(ParseError):
            load_csv("0.1,0.2,0\n0.3,0.4,1\n")

    def test_ragged_row(self):
        with pytest.raises(ParseError) as exc:
            load_csv("f0,f1,label\n1,2,0\n1,2\n")
        assert exc.value.line == 3

    def test_non_numeric(self):
        with pytest.raises(ParseError):
            load_csv("f0,f1,label\n1,x,0\n")

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf", "NaN", "infinity", "1e999"])
    @pytest.mark.parametrize("column", [0, 2])
    def test_non_finite_field_names_its_line(self, field, column):
        row = ["1", "2", "0"]
        row[column] = field
        with pytest.raises(ParseError) as exc:
            load_csv("f0,f1,label\n0,0,0\n3,4,1\n" + ",".join(row) + "\n")
        assert exc.value.line == 4
        assert "non-finite" in str(exc.value)

    @pytest.mark.parametrize(
        "bad, message",
        [("1,2", "expected 3 fields"), ("1,x,0", "non-numeric"), ("1,nan,0", "non-finite")],
    )
    @pytest.mark.parametrize("blank", ["\n", "\n  \n"])
    def test_bad_row_after_blank_lines_names_its_line(self, bad, message, blank):
        text = "f0,f1,label\n1,2,0\n" + blank + bad + "\n"
        with pytest.raises(ParseError) as exc:
            load_csv(text)
        assert exc.value.line == text.splitlines().index(bad) + 1
        assert message in str(exc.value)

    @settings(max_examples=100, deadline=None)
    @given(datasets())
    def test_dump_load_round_trip_is_bit_exact(self, d):
        text = dump_csv(d)
        back = load_csv(text)
        assert back.features.tobytes() == d.features.tobytes()
        np.testing.assert_array_equal(back.labels, d.labels)
        assert dump_csv(back) == text

    @settings(max_examples=60, deadline=None)
    @given(datasets(), st.data())
    def test_bad_row_names_its_line(self, d, data):
        lines = dump_csv(d).splitlines()
        k = data.draw(st.integers(2, len(lines)), label="line")
        fields = lines[k - 1].split(",")
        if data.draw(st.booleans(), label="ragged"):
            fields.pop(data.draw(st.integers(0, len(fields) - 1)))
            message = f"expected {d.n_features + 1} fields"
        else:
            fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(
                st.sampled_from(["nan", "inf", "-inf", "1e999"])
            )
            message = "non-finite field"
        lines[k - 1] = ",".join(fields)
        with pytest.raises(ParseError) as exc:
            load_csv("\n".join(lines) + "\n")
        assert exc.value.line == k
        assert message in str(exc.value)

    def test_round_trip_with_blobs(self):
        d = gen_blobs(2, 3, 10, 1.0, seed=2)
        header = "f0,f1,f2,label"
        rows = [
            ",".join([repr(float(v)) for v in row] + [str(y)])
            for row, y in zip(d.features, d.labels)
        ]
        back = load_csv("\n".join([header] + rows))
        np.testing.assert_allclose(back.features, d.features)
        np.testing.assert_array_equal(back.labels, d.labels)
