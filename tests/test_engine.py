import ast
import itertools
import warnings
from pathlib import Path

import numpy as np
import pytest

from topoleak import engine
from topoleak.data import Dataset, gen_blobs, partition_dirichlet, partition_iid, split_train_holdout
from topoleak.engine import (
    DpConfig,
    FederationConfig,
    apply_dp,
    closed_form_final,
    consensus_gap,
    load_log,
    run_simulation,
    save_log,
)
from topoleak.errors import DivergedTraining, InvalidConfig, InvalidTrace
from topoleak.nn import MlpArchitecture, TrainConfig, init_params, train_local
from topoleak.seeds import derive_seed, rng_for
from topoleak.topology import (
    Topology,
    adjacency_matrix,
    aggregation_matrix,
    gen_erdos_renyi,
    gen_ring,
    gen_star,
    stats,
)


def small_setup(topology, n_per_class=30, seed=0, **train_kw):
    d = gen_blobs(2, 3, n_per_class, spread=0.5, seed=seed)
    plan = partition_iid(d, topology.n_nodes, seed=seed + 1)
    kw = dict(local_epochs=1, learning_rate=0.05, batch_size=16)
    kw.update(train_kw)
    cfg = FederationConfig(topology=topology, train=TrainConfig(**kw), hidden_sizes=(4,))
    return cfg, d, plan


LOG_FILES = (
    "config.ini",
    "topology.edges",
    "dataset.csv",
    "partition.txt",
    "params.npy",
    "deltas.npy",
    "manifest.txt",
)


def assert_same_trace(a, b):
    """Post-aggregation params and deltas equal bit for bit (pre-aggregation params derive from them)."""
    assert a.params.shape == b.params.shape and a.deltas.shape == b.deltas.shape
    assert a.params.tobytes() == b.params.tobytes()
    assert a.deltas.tobytes() == b.deltas.tobytes()


class TestRunSimulation:
    def test_zero_lr_reduces_to_power_of_p(self):
        t = gen_ring(5)
        cfg, d, plan = small_setup(t, learning_rate=0.0)
        log = run_simulation(cfg, d, plan, seed=7)
        assert not log.deltas.any()
        p = aggregation_matrix(adjacency_matrix(t))
        expected = np.linalg.matrix_power(p, cfg.n_rounds) @ log.params[0]
        np.testing.assert_allclose(log.params[-1], expected, atol=1e-9)

    def test_two_nodes_reach_midpoint(self):
        t = Topology.from_pairs(2, [(0, 1)])
        cfg, d, plan = small_setup(t, learning_rate=0.0)
        log = run_simulation(cfg, d, plan, seed=3)
        mid = log.params[0].mean(axis=0)
        post = log.params[1]
        np.testing.assert_allclose(post[0], mid, atol=1e-12)
        np.testing.assert_allclose(post[1], mid, atol=1e-12)

    def test_star_smoke_run_invariants(self):
        t = gen_star(10)
        cfg, d, plan = small_setup(t, n_per_class=100, local_epochs=3)
        log = run_simulation(cfg, d, plan, seed=11)
        n_params = log.config.architecture(log.dataset).n_params
        # rounds default to n_nodes
        assert log.params.shape == (11, 10, n_params) and log.deltas.shape == (10, 10, n_params)
        # aggregation is exactly P applied to the same round's pre params
        p = aggregation_matrix(adjacency_matrix(t))
        np.testing.assert_allclose(log.snapshot(5), p @ log.snapshot(5, "pre"), atol=1e-12)

    def test_rounds_default_and_override(self):
        t = gen_ring(4)
        cfg, d, plan = small_setup(t, learning_rate=0.0)
        assert cfg.n_rounds == 4
        cfg2 = FederationConfig(topology=t, train=cfg.train, rounds=2, hidden_sizes=(4,))
        log = run_simulation(cfg2, d, plan, seed=0)
        assert len(log.deltas) == 2

    def test_partition_topology_mismatch(self):
        t = gen_ring(5)
        d = gen_blobs(2, 3, 30, 0.5, seed=0)
        plan = partition_iid(d, 6, seed=0)
        cfg = FederationConfig(topology=t, train=TrainConfig(1, 0.1, 8), hidden_sizes=(4,))
        with pytest.raises(InvalidConfig):
            run_simulation(cfg, d, plan, seed=0)

    def test_deterministic_per_seed(self):
        t = gen_erdos_renyi(6, 0.5, seed=1)
        cfg, d, plan = small_setup(t, local_epochs=2)
        a = run_simulation(cfg, d, plan, seed=42)
        b = run_simulation(cfg, d, plan, seed=42)
        np.testing.assert_array_equal(a.params, b.params)
        c = run_simulation(cfg, d, plan, seed=43)
        assert not np.array_equal(a.params[-1], c.params[-1])

    def test_mean_preserved_by_doubly_stochastic_aggregation(self):
        # ring degrees are equal, so P is symmetric and doubly stochastic
        t = gen_ring(8)
        cfg, d, plan = small_setup(t, n_per_class=80, local_epochs=2)
        log = run_simulation(cfg, d, plan, seed=5)
        for t in range(1, len(log.deltas) + 1):
            np.testing.assert_allclose(
                log.snapshot(t, "pre").mean(axis=0), log.snapshot(t).mean(axis=0), atol=1e-12
            )

    def test_divergence_names_first_node_and_round(self, monkeypatch):
        d = gen_blobs(3, 8, 40, 1.0, seed=1)
        plan = partition_iid(d, 10, 2)
        cfg = FederationConfig(
            topology=gen_ring(10),
            train=TrainConfig(local_epochs=3, learning_rate=1e4, batch_size=16),
            rounds=10,
        )
        calls = []
        train = engine.train_local
        monkeypatch.setattr(engine, "train_local", lambda *a: calls.append(1) or train(*a))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DivergedTraining) as info:
                run_simulation(cfg, d, plan, seed=3)
        # rounds 1-2 stay finite; round 3's first node is the first non-finite one
        assert (info.value.node, info.value.round) == (0, 3)
        assert len(calls) == 3  # one stacked step per round: the shards have one size
        assert [str(w.message) for w in caught] == []

    def test_divergence_names_the_node_whose_update_broke(self, monkeypatch):
        # node 3's update turns non-finite in round 2; aggregation would spread it
        # to nodes 2 and 4, but the error names node 3
        cfg, d, plan = small_setup(gen_ring(6))
        calls = []
        train = engine.train_local

        def broken(*args):
            theta, delta = train(*args)
            calls.append(1)
            if len(calls) == 2:
                delta[3, 0] = np.inf
            return theta, delta

        monkeypatch.setattr(engine, "train_local", broken)
        with pytest.raises(DivergedTraining) as info:
            run_simulation(cfg, d, plan, seed=1)
        assert (info.value.node, info.value.round) == (3, 2)

    def test_a_node_that_overflows_is_named_at_its_own_update(self):
        # node 2's samples are scaled to 1e300, so its own first update is
        # non-finite while the nodes stepped in the same stack stay finite
        cfg, d, plan = small_setup(gen_ring(4), n_per_class=40, local_epochs=3)
        features = d.features.copy()
        features[list(plan.assignments[2])] *= 1e300
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DivergedTraining) as info:
                run_simulation(cfg, Dataset(features, d.labels), plan, seed=0)
        assert (info.value.node, info.value.round) == (2, 1)
        assert [str(w.message) for w in caught] == []

    def test_dirichlet_dp_equals_per_node_loop(self):
        d = gen_blobs(4, 5, 30, 1.0, seed=6)
        plan = partition_dirichlet(d, 10, 0.1, seed=9)
        dp = DpConfig(clip_norm=0.5, noise_sigma=0.2, seed=2)
        cfg = FederationConfig(
            topology=gen_erdos_renyi(10, 0.4, seed=1),
            train=TrainConfig(local_epochs=2, learning_rate=0.1, batch_size=4),
            rounds=4,
            dp=dp,
            hidden_sizes=(8,),
        )
        log = run_simulation(cfg, d, plan, seed=17)

        splits = [
            split_train_holdout(a, derive_seed(17, "split", i))[0] for i, a in enumerate(plan.assignments)
        ]
        sizes = sorted(len(s) for s in splits)
        assert len(set(sizes)) < len(sizes) and len(set(sizes)) > 2  # stacks of one and of several
        arch = MlpArchitecture((5, 8, 4))
        p_matrix = aggregation_matrix(adjacency_matrix(cfg.topology))
        params = np.stack([init_params(arch, derive_seed(17, "init", i)).flat for i in range(10)])
        assert (log.params[0] == params).all()
        for t in range(1, 5):
            deltas = np.empty_like(params)
            for i, idx in enumerate(splits):
                x, y = d.features[list(idx)], d.labels[list(idx)]
                seed = derive_seed(17, "train", i, t)
                _, delta = train_local((arch, params[i][None]), x[None], y[None], cfg.train, [seed])
                deltas[i] = apply_dp(delta[0], dp.clip_norm, dp.noise_sigma, rng_for(dp.seed, "dp", i, t))
            params = p_matrix @ (params + deltas)
            assert (log.deltas[t - 1] == deltas).all()
            assert (log.params[t] == params).all()


class TestClosedForm:
    def test_zero_deltas(self):
        p = aggregation_matrix(adjacency_matrix(gen_ring(4)))
        rng = np.random.default_rng(0)
        m0 = rng.standard_normal((4, 6))
        zeros = [np.zeros((4, 6)) for _ in range(3)]
        np.testing.assert_allclose(
            closed_form_final(p, m0, zeros), np.linalg.matrix_power(p, 3) @ m0, atol=1e-12
        )

    def test_single_round(self):
        # T=1: one training delta then one aggregation -> P (M0 + d1)
        p = aggregation_matrix(adjacency_matrix(gen_ring(4)))
        rng = np.random.default_rng(1)
        m0 = rng.standard_normal((4, 6))
        d1 = rng.standard_normal((4, 6))
        np.testing.assert_allclose(closed_form_final(p, m0, [d1]), p @ (m0 + d1), atol=1e-12)

    def test_matches_simulation(self):
        # the iterative simulation is the oracle for the expansion
        t = gen_erdos_renyi(5, 0.5, seed=2)
        cfg, d, plan = small_setup(t, local_epochs=2)
        cfg = FederationConfig(topology=t, train=cfg.train, rounds=5, hidden_sizes=(4,))
        log = run_simulation(cfg, d, plan, seed=9)
        p = aggregation_matrix(log.adjacency)
        final = closed_form_final(p, log.params[0], log.deltas)
        np.testing.assert_allclose(final, log.params[-1], atol=1e-9)

    def test_shape_mismatch(self):
        p = aggregation_matrix(adjacency_matrix(gen_ring(4)))
        with pytest.raises(InvalidTrace):
            closed_form_final(p, np.zeros((4, 6)), [np.zeros((4, 5))])


class TestApplyDp:
    def test_identity_when_inside_clip(self):
        rng = np.random.default_rng(0)
        delta = np.array([0.3, -0.4])  # norm 0.5
        out = apply_dp(delta, clip_norm=1.0, noise_sigma=0.0, rng=rng)
        np.testing.assert_array_equal(out, delta)

    def test_clips_to_exact_norm(self):
        rng = np.random.default_rng(0)
        delta = np.array([3.0, 4.0])  # norm 5 = 2 * clip
        out = apply_dp(delta, clip_norm=2.5, noise_sigma=0.0, rng=rng)
        assert np.linalg.norm(out) == pytest.approx(2.5, rel=1e-12)
        np.testing.assert_allclose(out, delta / 2, atol=1e-12)

    def test_noise_variance_monte_carlo(self):
        # oracle: per-coordinate variance sigma^2 * clip^2 over 1e5 draws
        rng = np.random.default_rng(123)
        delta = np.zeros(100_000)
        out = apply_dp(delta, clip_norm=2.0, noise_sigma=0.5, rng=rng)
        assert out.var() == pytest.approx(0.25 * 4.0, rel=0.1)

    def test_invalid_params(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidConfig):
            apply_dp(np.ones(3), clip_norm=0.0, noise_sigma=0.1, rng=rng)
        with pytest.raises(InvalidConfig):
            apply_dp(np.ones(3), clip_norm=1.0, noise_sigma=-0.1, rng=rng)

    def test_dp_changes_simulation(self):
        t = gen_ring(5)
        cfg, d, plan = small_setup(t)
        dp_cfg = FederationConfig(
            topology=t, train=cfg.train, dp=DpConfig(1.0, 0.5, seed=4), hidden_sizes=(4,)
        )
        base = run_simulation(cfg, d, plan, seed=1)
        noised = run_simulation(dp_cfg, d, plan, seed=1)
        assert not np.allclose(base.params[-1], noised.params[-1])


class TestConsensusGap:
    def test_identical_params_zero(self):
        assert consensus_gap(np.ones((3, 4))) == 0.0

    def test_two_scalars(self):
        assert consensus_gap(np.array([[0.0], [1.0]])) == pytest.approx(1.0)

    @pytest.mark.parametrize("shape", [(1, 4), (4,), (2, 3, 4)])
    def test_needs_a_stack_of_two_or_more_rows(self, shape):
        with pytest.raises(InvalidConfig):
            consensus_gap(np.ones(shape))

    def test_ring_decay_bounded_by_second_eigenvalue(self):
        # rate oracle: |lambda_2| from the spectral statistics
        t = gen_ring(10)
        cfg, d, plan = small_setup(t, n_per_class=50, learning_rate=0.0)
        log = run_simulation(cfg, d, plan, seed=21)
        lam = stats(t).second_eigenvalue_modulus
        gap0 = consensus_gap(log.params[0])
        for t, post in enumerate(log.params[1:], start=1):
            assert consensus_gap(post) <= gap0 * (lam + 1e-6) ** t

    def test_monotone_nonincreasing_with_zero_deltas(self):
        t = gen_star(6)
        cfg, d, plan = small_setup(t, learning_rate=0.0)
        log = run_simulation(cfg, d, plan, seed=2)
        gaps = [consensus_gap(post) for post in log.params]
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


class TestLogPersistence:
    def test_round_trip(self, tmp_path):
        t = gen_erdos_renyi(5, 0.6, seed=3)
        cfg, d, plan = small_setup(t, local_epochs=2)
        log = run_simulation(cfg, d, plan, seed=13)
        save_log(log, tmp_path / "log")
        back = load_log(tmp_path / "log")

        assert back.config.topology == log.config.topology
        assert back.config.train == log.config.train
        assert back.root_seed == log.root_seed
        assert back.plan.assignments == log.plan.assignments
        np.testing.assert_array_equal(back.dataset.features, log.dataset.features)
        assert_same_trace(log, back)

    def test_rerun_byte_identical(self, tmp_path):
        t = gen_ring(4)
        cfg, d, plan = small_setup(t)
        for name in ("a", "b"):
            save_log(run_simulation(cfg, d, plan, seed=5), tmp_path / name)
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        assert names == sorted(LOG_FILES)
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_trace_is_read_only(self, tmp_path):
        cfg, d, plan = small_setup(gen_ring(4))
        log = run_simulation(cfg, d, plan, seed=2)
        save_log(log, tmp_path)
        for lg in (log, load_log(tmp_path)):
            for arr in (lg.params, lg.deltas, lg.params.base, lg.deltas.base):
                if arr is not None:
                    with pytest.raises(ValueError):
                        arr[(0,) * arr.ndim] = 1.0
            for stack in (lg.snapshot(0), lg.snapshot(4), lg.snapshot(4, "pre")):
                with pytest.raises(ValueError):
                    stack[0, 0] = 1.0
            # a post-aggregation snapshot is a view of the trace, not a copy
            assert np.shares_memory(lg.snapshot(4), lg.params)

    @pytest.mark.parametrize("damage", ["missing", "short", "shape", "float32", "object", "config"])
    def test_damaged_array_is_invalid_trace(self, tmp_path, damage):
        cfg, d, plan = small_setup(gen_ring(4))
        save_log(run_simulation(cfg, d, plan, seed=2), tmp_path)
        path = tmp_path / "params.npy"
        params = np.load(path)
        if damage == "missing":
            path.unlink()
        elif damage == "short":
            path.write_bytes(path.read_bytes()[:-5])
        elif damage == "shape":  # one round fewer than config.ini and the manifest
            np.save(path, params[:-1])
        elif damage == "float32":
            np.save(path, params.astype(np.float32))
        elif damage == "object":
            np.save(path, params.astype(object), allow_pickle=True)
        else:  # a hidden layer the arrays were not trained with
            text = (tmp_path / "config.ini").read_text()
            (tmp_path / "config.ini").write_text(text.replace("hidden_sizes = 4", "hidden_sizes = 5"))
        with pytest.raises(InvalidTrace, match="params.npy"):
            load_log(tmp_path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(InvalidTrace):
            load_log(tmp_path)

    @pytest.mark.parametrize(
        "manifest",
        [
            "nodes 5\nrounds 4\nround 1\nround 2\nround 3\nround 4\n",
            "nodes 4\nrounds 3\nround 1\nround 2\nround 3\nround 4\n",
            "nodes 4\nrounds 4\nround 1\nround 2\nround 4\n",
            "nodes 4\nrounds 4\nround 1\nround 2\nround 3\nround 4\nround 4\n",
            "nodes 4\nnodes 4\nrounds 4\nround 1\nround 2\nround 3\nround 4\n",
            "nodes 4\nrounds four\n",
            "hello\n",
            "",
        ],
    )
    def test_manifest_must_match_topology_and_config(self, tmp_path, manifest):
        cfg, d, plan = small_setup(gen_ring(4))  # 4 nodes, 4 rounds
        save_log(run_simulation(cfg, d, plan, seed=2), tmp_path)
        (tmp_path / "manifest.txt").write_text(manifest)
        with pytest.raises(InvalidTrace, match="manifest.txt"):
            load_log(tmp_path)

    def test_config_without_federation_section(self, tmp_path):
        cfg, d, plan = small_setup(gen_ring(4))
        save_log(run_simulation(cfg, d, plan, seed=2), tmp_path)
        (tmp_path / "config.ini").write_text("[train]\nlocal_epochs = 1\n")
        with pytest.raises(InvalidTrace, match="config.ini"):
            load_log(tmp_path)

    def test_dp_config_round_trip(self, tmp_path):
        t = gen_ring(4)
        _, d, plan = small_setup(t)
        cfg = FederationConfig(
            topology=t,
            train=TrainConfig(1, 0.05, 16),
            dp=DpConfig(1.0, 0.5, seed=8),
            hidden_sizes=(4,),
        )
        log = run_simulation(cfg, d, plan, seed=1)
        save_log(log, tmp_path / "log")
        back = load_log(tmp_path / "log")
        assert back.config.dp == cfg.dp
        assert_same_trace(log, back)


@pytest.fixture(scope="module")
def ring4_log():
    cfg, d, plan = small_setup(gen_ring(4))
    cfg = FederationConfig(topology=cfg.topology, train=cfg.train, rounds=3, hidden_sizes=(4,))
    return run_simulation(cfg, d, plan, seed=2)


class TestSnapshot:
    def test_phases_read_the_arrays(self, ring4_log):
        log = ring4_log
        for t in range(4):
            assert log.snapshot(t).tobytes() == log.params[t].tobytes()
        for t in range(1, 4):
            pre = log.params[t - 1] + log.deltas[t - 1]
            assert log.snapshot(t, "pre").tobytes() == pre.tobytes()

    def test_pre_phase_of_round_zero_is_rejected(self, ring4_log):
        with pytest.raises(InvalidTrace, match="pre rounds 1..3"):
            ring4_log.snapshot(0, "pre")

    @pytest.mark.parametrize("phase", ["post", "pre"])
    def test_negative_round_is_rejected(self, ring4_log, phase):
        with pytest.raises(InvalidTrace, match="not round -1"):
            ring4_log.snapshot(-1, phase)

    @pytest.mark.parametrize("phase", ["post", "pre"])
    def test_round_after_the_last_is_rejected(self, ring4_log, phase):
        with pytest.raises(InvalidTrace, match="not round 4"):
            ring4_log.snapshot(4, phase)

    @pytest.mark.parametrize("phase", ["Post", "after", ""])
    def test_unknown_phase_is_rejected(self, ring4_log, phase):
        with pytest.raises(InvalidTrace, match="phase must be pre or post"):
            ring4_log.snapshot(1, phase)


SHIM = ("initial_params", "traces", "RoundTrace")
SHIM_READS = {".initial_params", ".traces", ".models", "RoundTrace"}


def _names_read(node):
    """Attributes (with a leading dot), names and imports a syntax tree reads,
    outside the shim's own definitions."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in SHIM:
        return
    if isinstance(node, ast.Attribute):
        yield "." + node.attr
    elif isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.alias):
        yield node.name
    for child in ast.iter_child_nodes(node):
        yield from _names_read(child)


class TestTraceShim:
    """initial_params, traces and RoundTrace are a per-round object view of the
    arrays that only the benchmark's closed-form check still reads."""

    def test_shim_equals_the_arrays_bit_for_bit(self, ring4_log):
        log = ring4_log
        assert np.stack([q.flat for q in log.initial_params]).tobytes() == log.params[0].tobytes()
        assert [tr.round for tr in log.traces] == [1, 2, 3]
        for tr in log.traces:
            post = np.stack([q.flat for q in tr.params_post_agg])
            assert post.tobytes() == log.params[tr.round].tobytes()
            assert np.stack(tr.deltas).tobytes() == log.deltas[tr.round - 1].tobytes()

    def test_no_module_reads_the_shim(self):
        for path in sorted(Path(engine.__file__).parent.glob("*.py")):
            reads = set(_names_read(ast.parse(path.read_text())))
            assert not reads & SHIM_READS, path.name
