import ast
import configparser
import dataclasses
import itertools
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    dump_topology,
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
)


def assert_same_log(a, b):
    """Every field of two logs equal: the configs, seed and plan by value, the arrays bit for bit."""
    assert (a.config, a.root_seed, a.plan) == (b.config, b.root_seed, b.plan)
    for x, y in ((a.dataset.features, b.dataset.features), (a.dataset.labels, b.dataset.labels)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert_same_trace(a, b)


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
                deltas[i] = apply_dp(delta[0], dp, rng_for(dp.seed, "dp", i, t))
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
        out = apply_dp(delta, DpConfig(clip_norm=1.0, noise_sigma=0.0), rng)
        np.testing.assert_array_equal(out, delta)

    def test_clips_to_exact_norm(self):
        rng = np.random.default_rng(0)
        delta = np.array([3.0, 4.0])  # norm 5 = 2 * clip
        out = apply_dp(delta, DpConfig(clip_norm=2.5, noise_sigma=0.0), rng)
        assert np.linalg.norm(out) == pytest.approx(2.5, rel=1e-12)
        np.testing.assert_allclose(out, delta / 2, atol=1e-12)

    def test_noise_variance_monte_carlo(self):
        # oracle: per-coordinate variance sigma^2 * clip^2 over 1e5 draws
        rng = np.random.default_rng(123)
        delta = np.zeros(100_000)
        out = apply_dp(delta, DpConfig(clip_norm=2.0, noise_sigma=0.5), rng)
        assert out.var() == pytest.approx(0.25 * 4.0, rel=0.1)

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

    def test_adjacency_is_derived_from_the_topology(self, tmp_path):
        # the truth is held once, in config.topology, and a saved log does not restate it
        cfg, d, plan = small_setup(gen_star(4))
        log = run_simulation(cfg, d, plan, seed=0)
        fields = [f.name for f in dataclasses.fields(log)]
        assert fields == ["config", "root_seed", "dataset", "plan", "params", "deltas"]
        save_log(log, tmp_path)
        for lg in (log, load_log(tmp_path)):
            assert lg.adjacency.tobytes() == adjacency_matrix(gen_star(4)).tobytes()

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

    def test_loaded_arrays_are_read_only_views_of_a_file_map(self, tmp_path):
        cfg, d, plan = small_setup(gen_ring(4))
        save_log(run_simulation(cfg, d, plan, seed=2), tmp_path)
        log = load_log(tmp_path)
        for name, arr in (("params.npy", log.params), ("deltas.npy", log.deltas)):
            # a plain array, so nothing computed from it is a memmap
            assert type(arr) is np.ndarray and not arr.flags.writeable
            assert isinstance(arr.base, np.memmap) and arr.base.mode == "r"
            assert not arr.base.flags.writeable
            assert Path(arr.base.filename) == tmp_path / name

    def test_fortran_order_is_mapped_and_other_formats_refused(self, tmp_path):
        cfg, d, plan = small_setup(gen_ring(4))
        log = run_simulation(cfg, d, plan, seed=2)
        save_log(log, tmp_path)
        np.save(tmp_path / "params.npy", np.asfortranarray(log.params))
        back = load_log(tmp_path)
        assert back.params.flags.f_contiguous and back.params.tobytes() == log.params.tobytes()
        path = tmp_path / "deltas.npy"
        np.save(path, log.deltas.astype(">f8"))
        with pytest.raises(InvalidTrace, match=r"deltas.npy holds >f8"):
            load_log(tmp_path)
        with open(path, "wb") as fh:  # a version 2.0 header is read as well as 1.0
            np.lib.format.write_array(fh, log.deltas, version=(2, 0))
        assert load_log(tmp_path).deltas.tobytes() == log.deltas.tobytes()
        raw = path.read_bytes()
        path.write_bytes(raw[:6] + b"\x09\x00" + raw[8:])  # a version numpy does not know
        with pytest.raises(InvalidTrace, match=r"deltas.npy is not a complete .npy array"):
            load_log(tmp_path)

    def test_an_npz_archive_under_the_name_is_refused(self, tmp_path):
        cfg, d, plan = small_setup(gen_ring(4))
        log = run_simulation(cfg, d, plan, seed=2)
        save_log(log, tmp_path)
        with open(tmp_path / "params.npy", "wb") as fh:
            np.savez(fh, params=log.params)
        with pytest.raises(InvalidTrace, match=r"params.npy is an .npz archive"):
            load_log(tmp_path)

    def test_resave_into_a_loaded_logs_directory(self, tmp_path):
        cfg, d, plan = small_setup(gen_ring(4))
        first, other = (run_simulation(cfg, d, plan, seed=s) for s in (2, 3))
        save_log(first, tmp_path)
        loaded = load_log(tmp_path)
        save_log(loaded, tmp_path)  # each file it maps is replaced while it is live
        assert_same_log(load_log(tmp_path), loaded)
        save_log(other, tmp_path)  # the same shapes, other values
        assert_same_trace(load_log(tmp_path), other)
        assert_same_trace(loaded, first)  # a live log keeps the bytes it was loaded from
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(LOG_FILES)

    @pytest.mark.parametrize("failing", [0, 1])  # params.npy, or deltas.npy after params.npy
    def test_a_save_that_fails_midway_leaves_every_name_as_it_was(self, tmp_path, monkeypatch, failing):
        cfg, d, plan = small_setup(gen_ring(4))
        old, new = (run_simulation(cfg, d, plan, seed=s) for s in (2, 3))
        for name in ("old", "log"):
            save_log(old, tmp_path / name)
        saves = []

        def fail_midway(fh, arr, allow_pickle):
            saves.append(arr)
            if len(saves) > failing:
                fh.write(b"\x93NUMPY\x01\x00")  # part of a header
                raise OSError(28, "No space left on device")
            real_save(fh, arr, allow_pickle=allow_pickle)

        real_save = np.save
        monkeypatch.setattr(np, "save", fail_midway)
        for name in ("log", "fresh"):
            saves.clear()
            with pytest.raises(OSError, match="No space left"):
                save_log(new, tmp_path / name)
        monkeypatch.undo()
        # every name holds the old log byte for byte; no temporary file is left
        assert sorted(p.name for p in (tmp_path / "log").iterdir()) == sorted(LOG_FILES)
        for name in LOG_FILES:
            assert (tmp_path / "log" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()
        assert list((tmp_path / "fresh").iterdir()) == []

    @pytest.mark.parametrize("moved", range(len(LOG_FILES)))
    def test_a_save_cut_between_moves_leaves_no_log_to_load(self, tmp_path, monkeypatch, moved):
        # a crash after `moved` of the six moves: config.ini is gone until the last
        # one, so the directory is refused rather than read as a mix of two logs
        cfg, d, plan = small_setup(gen_ring(4))
        old, new = (run_simulation(cfg, d, plan, seed=s) for s in (2, 3))
        save_log(old, tmp_path)

        class Crash(BaseException):
            pass

        def cut(src, dst):
            if len(moves) == moved:
                raise Crash
            moves.append(Path(dst).name)
            real_replace(src, dst)

        moves, real_replace = [], engine.os.replace
        monkeypatch.setattr(engine.os, "replace", cut)
        with pytest.raises(Crash):
            save_log(new, tmp_path)
        monkeypatch.undo()
        assert "config.ini" not in moves and not (tmp_path / "config.ini").exists()
        with pytest.raises(InvalidTrace, match="config.ini"):
            load_log(tmp_path)
        save_log(new, tmp_path)  # the next whole save mends it
        assert_same_trace(load_log(tmp_path), new)

    @pytest.mark.parametrize(
        "damage", ["missing", "short", "trailing", "no_newline", "shape", "float32", "object", "config"]
    )
    def test_damaged_array_is_invalid_trace(self, tmp_path, damage):
        cfg, d, plan = small_setup(gen_ring(4))
        save_log(run_simulation(cfg, d, plan, seed=2), tmp_path)
        path = tmp_path / "params.npy"
        params = np.load(path)
        raw, header = path.read_bytes(), path.stat().st_size - params.nbytes
        if damage == "missing":
            path.unlink()
        elif damage == "short":
            path.write_bytes(raw[:-5])
        elif damage == "trailing":
            path.write_bytes(raw + b"\0")
        elif damage == "no_newline":  # a space parses as the header's padding
            path.write_bytes(raw[: header - 1] + b" " + raw[header:])
        elif damage == "shape":  # one round fewer than config.ini
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
        # an empty directory, which lacks every file of a log of either layout
        with pytest.raises(InvalidTrace):
            load_log(tmp_path)

    @pytest.mark.parametrize(
        "damage, named",
        [("rounds", "params.npy"), ("fewer_nodes", "partition.txt"), ("more_nodes", "partition.txt")],
    )
    def test_files_must_agree_on_nodes_and_rounds(self, tmp_path, damage, named):
        cfg, d, plan = small_setup(gen_ring(4))  # 4 nodes, 4 rounds
        save_log(run_simulation(cfg, d, plan, seed=2), tmp_path)
        if damage == "rounds":
            text = (tmp_path / "config.ini").read_text()
            (tmp_path / "config.ini").write_text(text.replace("rounds = 4", "rounds = 3"))
        else:
            n = 3 if damage == "fewer_nodes" else 5
            (tmp_path / "topology.edges").write_text(dump_topology(gen_ring(n)))
        with pytest.raises(InvalidTrace, match=named):
            load_log(tmp_path)

    def test_old_manifest_is_ignored(self, tmp_path):
        # logs written before the layout dropped manifest.txt still load, to the same log
        cfg, d, plan = small_setup(gen_ring(4))
        save_log(run_simulation(cfg, d, plan, seed=2), tmp_path)
        new = load_log(tmp_path)
        manifest = ["nodes 4", "rounds 4"] + [f"round {t}" for t in range(1, 5)]
        (tmp_path / "manifest.txt").write_text("\n".join(manifest) + "\n")
        assert_same_log(load_log(tmp_path), new)

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

    def test_config_ini_sections_are_the_config_fields(self, tmp_path):
        # every field holds a value that is not its default, the pipeline's or DP_ON's,
        # so a field the codec left out or read by the wrong name shows
        t = gen_ring(4)
        _, d, _ = small_setup(t)
        plan = partition_dirichlet(d, 4, 0.5, seed=3)
        train = TrainConfig(local_epochs=2, learning_rate=0.03, batch_size=5, optimizer="adam")
        dp = DpConfig(clip_norm=0.7, noise_sigma=0.2, seed=11)
        cfg = FederationConfig(t, train, rounds=2, dp=dp, hidden_sizes=(5, 3), activation="tanh")
        save_log(run_simulation(cfg, d, plan, seed=4), tmp_path)
        ini = configparser.ConfigParser()
        ini.read(tmp_path / "config.ini")
        for section, cls in (("train", TrainConfig), ("dp", DpConfig)):
            assert list(ini[section]) == [f.name for f in dataclasses.fields(cls)]
        assert list(ini["federation"]) == ["seed", "rounds", "hidden_sizes", "activation", "alpha"]
        back = load_log(tmp_path)
        assert back.config == cfg
        assert (back.root_seed, back.plan) == (4, plan) and back.plan.alpha == 0.5


@st.composite
def logs_with_drawn_arrays(draw):
    """A small ring log whose params and deltas are replaced by drawn float64
    arrays of the same shapes, non-finite values included."""
    n, rounds, hidden = draw(st.integers(3, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    cfg, d, plan = small_setup(gen_ring(n), n_per_class=10)
    cfg = FederationConfig(topology=cfg.topology, train=cfg.train, rounds=rounds, hidden_sizes=(hidden,))
    log = run_simulation(cfg, d, plan, seed=draw(st.integers(0, 2**16)))
    return dataclasses.replace(
        log,
        params=draw(hnp.arrays(np.float64, log.params.shape)),
        deltas=draw(hnp.arrays(np.float64, log.deltas.shape)),
    )


class TestNpyReader:
    """Properties of the .npy files of a saved log: what save_log writes,
    load_log reads back byte for byte, and any damage raises InvalidTrace
    naming the file."""

    @settings(max_examples=25, deadline=None)
    @given(log=logs_with_drawn_arrays())
    def test_round_trip_keeps_every_byte(self, log):
        with tempfile.TemporaryDirectory() as tmp:
            save_log(log, tmp)
            back = load_log(tmp)
        assert back.params.dtype == back.deltas.dtype == np.float64
        assert_same_trace(log, back)

    @settings(max_examples=60, deadline=None)
    @given(
        log=logs_with_drawn_arrays(),
        name=st.sampled_from(["params.npy", "deltas.npy"]),
        damage=st.sampled_from(["truncated", "trailing", "no_newline", "shape"]),
        data=st.data(),
    )
    def test_damaged_array_is_invalid_trace(self, log, name, damage, data):
        arr = log.params if name == "params.npy" else log.deltas
        with tempfile.TemporaryDirectory() as tmp:
            save_log(log, tmp)
            path = Path(tmp, name)
            raw = path.read_bytes()
            header = len(raw) - arr.nbytes
            if damage == "truncated":  # lose 1 byte up to the whole payload
                path.write_bytes(raw[: -data.draw(st.integers(1, arr.nbytes))])
            elif damage == "trailing":
                path.write_bytes(raw + data.draw(st.binary(min_size=1, max_size=64)))
            elif damage == "no_newline":  # the header's last byte, which must be \n
                assert raw[header - 1 : header] == b"\n"
                byte = data.draw(st.sampled_from([b" ", b"\x00", b"\r"]))
                path.write_bytes(raw[: header - 1] + byte + raw[header:])
            else:
                shape = data.draw(
                    hnp.array_shapes(min_dims=0, max_dims=4, min_side=0).filter(lambda s: s != arr.shape)
                )
                np.save(path, np.zeros(shape))
            with pytest.raises(InvalidTrace, match=name):
                load_log(tmp)


@pytest.fixture(scope="module")
def ring4_log():
    cfg, d, plan = small_setup(gen_ring(4))
    cfg = FederationConfig(topology=cfg.topology, train=cfg.train, rounds=3, hidden_sizes=(4,))
    return run_simulation(cfg, d, plan, seed=2)


def test_damaged_partition_is_invalid_trace(ring4_log, partition_damage, tmp_path):
    save_log(ring4_log, tmp_path)
    message = partition_damage(tmp_path)
    with pytest.raises(InvalidTrace, match="partition.txt") as info:
        load_log(tmp_path)
    assert message in str(info.value)


def test_damaged_input_is_invalid_trace(ring4_log, input_damage, tmp_path):
    # the parsers' and the config classes' own errors come back as InvalidTrace naming the file
    save_log(ring4_log, tmp_path)
    name, message = input_damage(tmp_path)
    with pytest.raises(InvalidTrace) as info:
        load_log(tmp_path)
    assert str(info.value).startswith(f"{tmp_path / name}: ") and message in str(info.value)


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
