import itertools

import numpy as np
import pytest

from topoleak.data import gen_blobs, partition_iid
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
from topoleak.nn import TrainConfig
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


def stack_pre(trace):
    return np.stack([p.flat for p in trace.params_pre_agg])


def stack_post(trace):
    return np.stack([p.flat for p in trace.params_post_agg])


class TestRunSimulation:
    def test_zero_lr_reduces_to_power_of_p(self):
        t = gen_ring(5)
        cfg, d, plan = small_setup(t, learning_rate=0.0)
        log = run_simulation(cfg, d, plan, seed=7)
        assert all(np.all(np.asarray(tr.deltas) == 0) for tr in log.traces)
        p = aggregation_matrix(adjacency_matrix(t))
        m0 = np.stack([q.flat for q in log.initial_params])
        expected = np.linalg.matrix_power(p, cfg.n_rounds) @ m0
        np.testing.assert_allclose(stack_post(log.traces[-1]), expected, atol=1e-9)

    def test_two_nodes_reach_midpoint(self):
        t = Topology.from_pairs(2, [(0, 1)])
        cfg, d, plan = small_setup(t, learning_rate=0.0)
        log = run_simulation(cfg, d, plan, seed=3)
        m0 = np.stack([q.flat for q in log.initial_params])
        mid = m0.mean(axis=0)
        post = stack_post(log.traces[0])
        np.testing.assert_allclose(post[0], mid, atol=1e-12)
        np.testing.assert_allclose(post[1], mid, atol=1e-12)

    def test_star_smoke_run_invariants(self):
        t = gen_star(10)
        cfg, d, plan = small_setup(t, n_per_class=100, local_epochs=3)
        log = run_simulation(cfg, d, plan, seed=11)
        assert len(log.traces) == 10  # rounds default to n_nodes
        for tr in log.traces:
            assert len(tr.params_pre_agg) == 10
            for delta, norm in zip(tr.deltas, tr.delta_norms):
                assert norm == pytest.approx(np.linalg.norm(delta))
        # aggregation is exactly P applied to the same round's pre params
        p = aggregation_matrix(adjacency_matrix(t))
        np.testing.assert_allclose(
            stack_post(log.traces[4]), p @ stack_pre(log.traces[4]), atol=1e-12
        )

    def test_rounds_default_and_override(self):
        t = gen_ring(4)
        cfg, d, plan = small_setup(t, learning_rate=0.0)
        assert cfg.n_rounds == 4
        cfg2 = FederationConfig(topology=t, train=cfg.train, rounds=2, hidden_sizes=(4,))
        log = run_simulation(cfg2, d, plan, seed=0)
        assert len(log.traces) == 2

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
        for ta, tb in zip(a.traces, b.traces):
            np.testing.assert_array_equal(stack_post(ta), stack_post(tb))
        c = run_simulation(cfg, d, plan, seed=43)
        assert not np.array_equal(stack_post(a.traces[-1]), stack_post(c.traces[-1]))

    def test_mean_preserved_by_doubly_stochastic_aggregation(self):
        # ring degrees are equal, so P is symmetric and doubly stochastic
        t = gen_ring(8)
        cfg, d, plan = small_setup(t, n_per_class=80, local_epochs=2)
        log = run_simulation(cfg, d, plan, seed=5)
        for tr in log.traces:
            np.testing.assert_allclose(
                stack_pre(tr).mean(axis=0), stack_post(tr).mean(axis=0), atol=1e-12
            )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_first_node_and_round(self):
        d = gen_blobs(3, 8, 40, 1.0, seed=1)
        plan = partition_iid(d, 10, 2)
        cfg = FederationConfig(
            topology=gen_ring(10),
            train=TrainConfig(local_epochs=3, learning_rate=1e4, batch_size=16),
            rounds=10,
        )
        with pytest.raises(DivergedTraining) as info:
            run_simulation(cfg, d, plan, seed=3)
        # rounds 1-2 stay finite; round 3 leaves nodes 0-2 non-finite
        assert (info.value.node, info.value.round) == (0, 3)


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
        m0 = np.stack([q.flat for q in log.initial_params])
        deltas = [np.stack(tr.deltas) for tr in log.traces]
        final = closed_form_final(p, m0, deltas)
        np.testing.assert_allclose(final, stack_post(log.traces[-1]), atol=1e-9)

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
        assert not np.allclose(stack_post(base.traces[-1]), stack_post(noised.traces[-1]))


class TestConsensusGap:
    def test_identical_params_zero(self):
        flats = [np.ones(4)] * 3
        assert consensus_gap(flats) == 0.0

    def test_two_scalars(self):
        assert consensus_gap([np.array([0.0]), np.array([1.0])]) == pytest.approx(1.0)

    def test_ring_decay_bounded_by_second_eigenvalue(self):
        # rate oracle: |lambda_2| from the spectral statistics
        t = gen_ring(10)
        cfg, d, plan = small_setup(t, n_per_class=50, learning_rate=0.0)
        log = run_simulation(cfg, d, plan, seed=21)
        lam = stats(t).second_eigenvalue_modulus
        gap0 = consensus_gap(log.initial_params)
        for tr in log.traces:
            assert consensus_gap(tr.params_post_agg) <= gap0 * (lam + 1e-6) ** tr.round

    def test_monotone_nonincreasing_with_zero_deltas(self):
        t = gen_star(6)
        cfg, d, plan = small_setup(t, learning_rate=0.0)
        log = run_simulation(cfg, d, plan, seed=2)
        gaps = [consensus_gap(log.initial_params)]
        gaps += [consensus_gap(tr.params_post_agg) for tr in log.traces]
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
        for ta, tb in zip(log.traces, back.traces):
            np.testing.assert_array_equal(stack_pre(ta), stack_pre(tb))
            np.testing.assert_array_equal(stack_post(ta), stack_post(tb))
            np.testing.assert_array_equal(np.stack(ta.deltas), np.stack(tb.deltas))

    def test_rerun_byte_identical(self, tmp_path):
        t = gen_ring(4)
        cfg, d, plan = small_setup(t)
        for name in ("a", "b"):
            save_log(run_simulation(cfg, d, plan, seed=5), tmp_path / name)
        for rel in ["manifest.txt", "rounds/round_002/post/node_001.bin"]:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

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
        assert load_log(tmp_path / "log").config.dp == cfg.dp
