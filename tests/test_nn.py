import ast
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoleak.data import gen_blobs, partition_iid
from topoleak.engine import FederationConfig, load_log, run_simulation, save_log
from topoleak.errors import InvalidConfig, InvalidTrace, ShapeError
from topoleak.nn import (
    Adam,
    MlpArchitecture,
    ModelParams,
    TrainConfig,
    Workspace,
    backward_from_logits,
    cross_entropy,
    forward_batch,
    forward_cached,
    init_params,
    loss_and_grad,
    log_softmax,
    pack,
    train_local,
    unpack,
)
from topoleak.topology import gen_ring


def finite_diff_grad(p, x, y, coords, step=1e-5):
    """Central finite differences of the mean cross-entropy, chosen coords."""
    out = np.zeros(len(coords))
    for n, c in enumerate(coords):
        up = p.flat.copy()
        up[c] += step
        down = p.flat.copy()
        down[c] -= step
        out[n] = (
            cross_entropy(p.with_flat(up), x, y) - cross_entropy(p.with_flat(down), x, y)
        ) / (2 * step)
    return out


def train_one(p, x, y, cfg, seed):
    """train_local on a stack of one model; returns (new params, delta)."""
    theta, delta = train_local((p.arch, p.flat[None]), x[None], y[None], cfg, [seed])
    return p.with_flat(theta[0]), delta[0]


class TestArchitectureAndInit:
    def test_param_count(self):
        arch = MlpArchitecture((2, 3, 2))
        assert arch.n_params == 2 * 3 + 3 + 3 * 2 + 2  # 17
        assert init_params(arch, seed=0).flat.shape == (17,)

    def test_same_seed_identical(self):
        arch = MlpArchitecture((4, 8, 3))
        a = init_params(arch, seed=5)
        b = init_params(arch, seed=5)
        np.testing.assert_array_equal(a.flat, b.flat)

    def test_biases_zero_and_weights_bounded(self):
        arch = MlpArchitecture((2, 3, 2))
        p = init_params(arch, seed=1)
        (w1, b1), (w2, b2) = unpack(p)
        np.testing.assert_array_equal(b1, 0.0)
        np.testing.assert_array_equal(b2, 0.0)
        assert np.all(np.abs(w1) <= math.sqrt(6 / 2))
        assert np.all(np.abs(w2) <= math.sqrt(6 / 3))

    def test_needs_hidden_layer(self):
        with pytest.raises(InvalidConfig):
            MlpArchitecture((4, 2))

    def test_pack_unpack_round_trip(self):
        arch = MlpArchitecture((3, 5, 4, 2), activation="tanh")
        p = init_params(arch, seed=9)
        assert np.array_equal(pack(arch, unpack(p)).flat, p.flat)


class TestForward:
    def test_zero_weights_uniform_softmax(self):
        arch = MlpArchitecture((3, 4, 5))
        p = ModelParams(arch, np.zeros(arch.n_params))
        logits = forward_batch(p, np.array([[1.0, -2.0, 0.5]]))[0]
        np.testing.assert_array_equal(logits, np.zeros(5))
        np.testing.assert_allclose(np.exp(log_softmax(logits)), np.full(5, 0.2))

    def test_identity_passthrough(self):
        # relu hidden layer with identity weights passes positive inputs
        # through unchanged
        arch = MlpArchitecture((2, 2, 2), activation="relu")
        p = pack(arch, [(np.eye(2), np.zeros(2)), (np.eye(2), np.zeros(2))])
        np.testing.assert_allclose(forward_batch(p, np.array([[0.3, 1.7]]))[0], [0.3, 1.7])

    def test_hand_computed_tanh_net(self):
        # oracle: arithmetic done by hand for a 2-2-2 tanh network
        arch = MlpArchitecture((2, 2, 2), activation="tanh")
        w1 = np.array([[0.5, -0.25], [0.1, 0.3]])
        b1 = np.array([0.1, -0.2])
        w2 = np.array([[1.0, 0.5], [-0.5, 0.25]])
        b2 = np.array([0.05, -0.05])
        p = pack(arch, [(w1, b1), (w2, b2)])
        # a1 = [0.5 - 0.2 + 0.1, -0.25 - 0.6 - 0.2] = [0.4, -1.05]
        h0, h1 = math.tanh(0.4), math.tanh(-1.05)
        expected = [h0 * 1.0 + h1 * -0.5 + 0.05, h0 * 0.5 + h1 * 0.25 - 0.05]
        np.testing.assert_allclose(forward_batch(p, np.array([[1.0, -2.0]]))[0], expected, atol=1e-15)

    def test_dimension_mismatch(self):
        p = init_params(MlpArchitecture((3, 4, 2)), seed=0)
        with pytest.raises(ShapeError):
            forward_batch(p, np.zeros((1, 5)))

    def test_forward_batch_matches_forward(self):
        p = init_params(MlpArchitecture((3, 5, 4)), seed=2)
        rng = np.random.default_rng(0)
        xb = rng.standard_normal((6, 3))
        batched = forward_batch(p, xb)
        for i in range(6):
            np.testing.assert_allclose(batched[i], forward_batch(p, xb[i][None])[0], atol=1e-15)


class TestLossAndGrad:
    def test_zero_net_loss_is_log_k(self):
        for k in (2, 3, 7):
            arch = MlpArchitecture((2, 4, k))
            p = ModelParams(arch, np.zeros(arch.n_params))
            x = np.zeros((6, 2))
            y = np.arange(6) % k
            loss, _ = loss_and_grad(p, x, y)
            assert loss == pytest.approx(math.log(k), abs=1e-12)

    def test_confident_correct_predictions_loss_near_zero(self):
        arch = MlpArchitecture((2, 2, 2), activation="relu")
        # large passthrough weights make the logit margin huge
        p = pack(arch, [(np.eye(2) * 50, np.zeros(2)), (np.eye(2), np.zeros(2))])
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([0, 1])
        loss, _ = loss_and_grad(p, x, y)
        assert loss < 1e-8

    def test_gradient_matches_finite_differences(self):
        # oracle: central finite differences, step 1e-5, norm-relative
        rng = np.random.default_rng(42)
        shapes = [(3, 8, 6, 2), (4, 5, 5, 3), (2, 6, 4, 4)]
        for case in range(50):
            arch = MlpArchitecture(
                shapes[case % len(shapes)],
                activation="tanh" if case % 2 else "relu",
            )
            p = init_params(arch, seed=int(rng.integers(1 << 31)))
            x = rng.standard_normal((5, arch.d_in))
            y = rng.integers(0, arch.layer_sizes[-1], size=5)
            _, grad = loss_and_grad(p, x, y)
            coords = rng.choice(arch.n_params, size=20, replace=False)
            fd = finite_diff_grad(p, x, y, coords)
            rel = np.linalg.norm(grad[coords] - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-4


class TestTrainLocal:
    @pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf, -0.1])
    def test_bad_learning_rate_rejected(self, rate):
        # NaN passes a bare "< 0" check; 0 stays legal (no training)
        with pytest.raises(InvalidConfig, match="learning_rate must be finite and >= 0"):
            TrainConfig(local_epochs=1, learning_rate=rate, batch_size=8)

    def test_zero_lr_identity(self):
        d = gen_blobs(2, 2, 10, 1.0, seed=0)
        p = init_params(MlpArchitecture((2, 4, 2)), seed=0)
        cfg = TrainConfig(local_epochs=3, learning_rate=0.0, batch_size=8)
        p_new, delta = train_one(p, d.features, d.labels, cfg, seed=1)
        np.testing.assert_array_equal(delta, 0.0)
        np.testing.assert_array_equal(p_new.flat, p.flat)

    def test_single_full_batch_step_is_vanilla_sgd(self):
        d = gen_blobs(2, 2, 10, 1.0, seed=0)
        p = init_params(MlpArchitecture((2, 4, 2)), seed=3)
        _, grad = loss_and_grad(p, d.features, d.labels)
        cfg = TrainConfig(local_epochs=1, learning_rate=0.1, batch_size=d.n_samples)
        p_new, delta = train_one(p, d.features, d.labels, cfg, seed=1)
        np.testing.assert_allclose(delta, -0.1 * grad, atol=1e-15)

    def test_more_epochs_lower_training_loss(self):
        d = gen_blobs(2, 3, 30, spread=0.5, seed=4)
        p = init_params(MlpArchitecture((3, 8, 2)), seed=0)

        def loss_after(epochs):
            cfg = TrainConfig(local_epochs=epochs, learning_rate=0.05, batch_size=16)
            p_new, _ = train_one(p, d.features, d.labels, cfg, seed=2)
            return cross_entropy(p_new, d.features, d.labels)

        assert loss_after(10) <= loss_after(3)

    def test_deterministic(self):
        d = gen_blobs(3, 2, 15, 1.0, seed=1)
        p = init_params(MlpArchitecture((2, 6, 3)), seed=2)
        cfg = TrainConfig(local_epochs=2, learning_rate=0.05, batch_size=8, optimizer="adam")
        a, da = train_one(p, d.features, d.labels, cfg, seed=9)
        b, db = train_one(p, d.features, d.labels, cfg, seed=9)
        np.testing.assert_array_equal(a.flat, b.flat)
        np.testing.assert_array_equal(da, db)

    def test_adam_reduces_loss(self):
        d = gen_blobs(2, 2, 25, spread=0.5, seed=6)
        p = init_params(MlpArchitecture((2, 8, 2)), seed=1)
        cfg = TrainConfig(local_epochs=5, learning_rate=0.01, batch_size=10, optimizer="adam")
        p_new, _ = train_one(p, d.features, d.labels, cfg, seed=0)
        assert cross_entropy(p_new, d.features, d.labels) < cross_entropy(p, d.features, d.labels)


def reference_train(arch, theta, x, y, cfg, seed):
    """The per-node loop: one model, its own shuffle per epoch, a step per minibatch."""
    rng = np.random.default_rng(seed)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    step = 0
    for _ in range(cfg.local_epochs):
        order = rng.permutation(len(y))
        for start in range(0, len(y), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            _, grad = loss_and_grad(ModelParams(arch, theta), x[idx], y[idx])
            step += 1
            if cfg.optimizer == "adam":
                m = 0.9 * m + (1 - 0.9) * grad
                v = 0.999 * v + (1 - 0.999) * grad * grad
                m_hat = m / (1 - 0.9**step)
                v_hat = v / (1 - 0.999**step)
                theta = theta - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
            else:
                theta = theta - cfg.learning_rate * grad
    return theta


class TestStackedTraining:
    @settings(max_examples=80, deadline=None)
    @given(
        g=st.sampled_from([1, 2, 7]),
        sizes=st.lists(st.integers(1, 40), min_size=7, max_size=7),
        ragged=st.booleans(),
        batch_size=st.integers(1, 16),
        act=st.sampled_from(["relu", "tanh"]),
        optimizer=st.sampled_from(["sgd", "adam"]),
        seed=st.integers(0, 2**16),
    )
    def test_equals_per_node_loop(self, g, sizes, ragged, batch_size, act, optimizer, seed):
        # nodes are grouped by shard size as run_simulation groups them
        sizes = sizes[:g] if ragged else [sizes[0]] * g
        arch = MlpArchitecture((3, 6, 5, 4), act)
        rng = np.random.default_rng(seed)
        thetas = np.stack([init_params(arch, seed + k).flat for k in range(g)])
        shards = [(rng.standard_normal((m, 3)) * 2, rng.integers(0, 4, size=m)) for m in sizes]
        seeds = [seed + 100 + k for k in range(g)]
        cfg = TrainConfig(local_epochs=2, learning_rate=0.05, batch_size=batch_size, optimizer=optimizer)
        got = np.empty_like(thetas)
        for m in set(sizes):
            nodes = [k for k in range(g) if sizes[k] == m]
            theta, delta = train_local(
                (arch, thetas[nodes]),
                np.stack([shards[k][0] for k in nodes]),
                np.stack([shards[k][1] for k in nodes]),
                cfg,
                [seeds[k] for k in nodes],
            )
            assert (delta == theta - thetas[nodes]).all()
            got[nodes] = theta
        for k in range(g):
            assert (got[k] == reference_train(arch, thetas[k], *shards[k], cfg, seeds[k])).all()

    def test_stacked_loss_and_grad_rows_are_per_model(self):
        arch = MlpArchitecture((3, 5, 2), "tanh")
        rng = np.random.default_rng(1)
        thetas = np.stack([init_params(arch, k).flat for k in range(3)])
        x = rng.standard_normal((3, 6, 3))
        y = rng.integers(0, 2, size=(3, 6))
        loss, grad = loss_and_grad((arch, thetas), x, y)
        assert loss.shape == (3,) and grad.shape == (3, arch.n_params)
        for k in range(3):
            want_loss, want_grad = loss_and_grad(ModelParams(arch, thetas[k]), x[k], y[k])
            assert loss[k] == want_loss
            assert (grad[k] == want_grad).all()

    def test_bad_stacks_rejected(self):
        arch = MlpArchitecture((2, 3, 2))
        theta = np.stack([init_params(arch, k).flat for k in range(2)])
        x, y = np.zeros((2, 5, 2)), np.zeros((2, 5), dtype=int)
        cfg = TrainConfig(local_epochs=1, learning_rate=0.1, batch_size=2)
        with pytest.raises(ShapeError):
            train_local((arch, theta[0]), x[0], y[0], cfg, [0])
        with pytest.raises(ShapeError):
            train_local((arch, theta), x, y[:, :4], cfg, [0, 1])
        with pytest.raises(ShapeError):
            train_local((arch, theta), x[:1], y[:1], cfg, [0])
        with pytest.raises(ShapeError):
            train_local((arch, theta), x, y, cfg, [0])
        with pytest.raises(ShapeError):
            train_local((arch, theta[:, 1:]), x, y, cfg, [0, 1])
        with pytest.raises(InvalidConfig):
            train_local((arch, theta), x[:, :0], y[:, :0], cfg, [0, 1])


class TestInPlaceTraining:
    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from([(1,), (9,), (3, 5)]),
        lr=st.floats(1e-4, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_adam_step_equals_the_formula(self, shape, lr, seed):
        rng = np.random.default_rng(seed)
        theta = rng.standard_normal(shape)
        want = theta.copy()
        m = np.zeros(shape)
        v = np.zeros(shape)
        opt = Adam(shape, lr)
        for t in range(1, 21):
            grad = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 4)
            opt.step(theta, grad)
            m = 0.9 * m + (1 - 0.9) * grad
            v = 0.999 * v + (1 - 0.999) * grad * grad
            m_hat = m / (1 - 0.9**t)
            v_hat = v / (1 - 0.999**t)
            want = want - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert theta.tobytes() == want.tobytes()
        assert opt.m.tobytes() == m.tobytes() and opt.v.tobytes() == v.tobytes()

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_read_only_theta_stack_is_left_unchanged(self, optimizer):
        arch = MlpArchitecture((3, 5, 2))
        rng = np.random.default_rng(0)
        theta = np.stack([init_params(arch, k).flat for k in range(2)])
        theta.setflags(write=False)
        before = theta.copy()
        x, y = rng.standard_normal((2, 9, 3)), rng.integers(0, 2, size=(2, 9))
        cfg = TrainConfig(local_epochs=2, learning_rate=0.1, batch_size=4, optimizer=optimizer)
        new, delta = train_local((arch, theta), x, y, cfg, [0, 1])
        assert theta.tobytes() == before.tobytes()
        assert not np.shares_memory(new, theta) and not np.shares_memory(delta, new)
        assert (delta == new - theta).all() and (delta != 0).any()

    def test_a_diverging_row_leaves_the_others_bit_equal(self):
        arch = MlpArchitecture((3, 6, 2))
        rng = np.random.default_rng(4)
        theta = np.stack([init_params(arch, k).flat for k in range(3)])
        x, y = rng.standard_normal((3, 8, 3)), rng.integers(0, 2, size=(3, 8))
        x[1] *= 1e300
        cfg = TrainConfig(local_epochs=2, learning_rate=0.1, batch_size=3)
        with np.errstate(over="ignore", invalid="ignore"):
            _, delta = train_local((arch, theta), x, y, cfg, [5, 6, 7])
        assert not np.isfinite(delta[1]).all()
        for k in (0, 2):
            _, alone = train_local((arch, theta[k : k + 1]), x[k : k + 1], y[k : k + 1], cfg, [5 + k])
            assert delta[k].tobytes() == alone[0].tobytes()

    @pytest.mark.parametrize("g", [None, 3])
    def test_workspace_runs_the_same_core(self, g):
        arch = MlpArchitecture((4, 5, 3), "tanh")
        rng = np.random.default_rng(2)
        lead = () if g is None else (g,)
        theta = init_params(arch, 1).flat if g is None else np.stack(
            [init_params(arch, k).flat for k in range(g)]
        )
        x = rng.standard_normal(lead + (6, 4))
        ws = Workspace(arch, theta)
        assert not np.shares_memory(ws.theta, theta)
        got, cache = forward_cached(ws, x)
        want, want_cache = forward_cached((arch, theta), x)
        assert got.tobytes() == want.tobytes()
        dlogits = rng.standard_normal(got.shape)
        grad = backward_from_logits(cache, dlogits)
        assert grad is ws.grad
        assert grad.tobytes() == backward_from_logits(want_cache, dlogits).tobytes()
        # the views follow in-place updates of theta
        ws.theta -= 0.5
        moved, _ = forward_cached(ws, x)
        assert moved.tobytes() == forward_cached((arch, theta - 0.5), x)[0].tobytes()


class TestModelParams:
    def test_writable_array_is_copied(self):
        arch = MlpArchitecture((2, 3, 2))
        src = init_params(arch, seed=0).flat.copy()
        p = ModelParams(arch, src)
        src[0] += 1.0
        assert p.flat[0] == src[0] - 1.0
        assert not np.shares_memory(p.flat, src)

    def test_read_only_view_of_writable_array_is_copied(self):
        arch = MlpArchitecture((2, 3, 2))
        owner = np.zeros((2, arch.n_params))
        row = owner[1]
        row.setflags(write=False)
        p = ModelParams(arch, row)
        owner[1, 0] = 5.0
        assert p.flat[0] == 0.0

    def test_frozen_row_is_copied(self):
        arch = MlpArchitecture((2, 3, 2))
        owner = np.ones((2, arch.n_params))
        owner.setflags(write=False)
        p = ModelParams(arch, owner[1])
        assert not np.shares_memory(p.flat, owner)
        with pytest.raises(ValueError):
            p.flat[0] = 1.0


class TestSerialization:
    """Model parameters persist as one float64 .npy array per log (params.npy)."""

    @pytest.fixture
    def saved(self, tmp_path):
        d = gen_blobs(2, 3, 20, spread=0.5, seed=0)
        cfg = FederationConfig(
            topology=gen_ring(4),
            train=TrainConfig(local_epochs=1, learning_rate=0.05, batch_size=16),
            rounds=2,
            hidden_sizes=(7,),
            activation="tanh",
        )
        log = run_simulation(cfg, d, partition_iid(d, 4, seed=1), seed=11)
        save_log(log, tmp_path)
        return log, tmp_path

    def test_round_trip(self, saved):
        log, root = saved
        back = load_log(root)
        assert back.config.architecture(back.dataset) == MlpArchitecture((3, 7, 2), activation="tanh")
        np.testing.assert_array_equal(back.params, log.params)

    def test_header_is_readable_ascii(self, saved):
        log, root = saved
        line = (root / "params.npy").read_bytes().split(b"\n", 1)[0]
        assert line[:6] == b"\x93NUMPY"
        header = ast.literal_eval(line[10:].decode("ascii"))
        assert header == {"descr": "<f8", "fortran_order": False, "shape": log.params.shape}

    def test_rejects_garbage_header(self, saved):
        _, root = saved
        (root / "params.npy").write_bytes(b"nope 1,2\n" + b"\x00" * 8)
        with pytest.raises(InvalidTrace, match="params.npy"):
            load_log(root)

    def test_rejects_missing_newline(self, saved):
        _, root = saved
        path = root / "params.npy"
        blob = path.read_bytes()
        head, payload = blob.split(b"\n", 1)
        path.write_bytes(head + b" " + payload)  # same length; numpy alone accepts it
        with pytest.raises(InvalidTrace, match="params.npy has an .npy header that does not end"):
            load_log(root)
        path.write_bytes(b"")
        with pytest.raises(InvalidTrace, match="params.npy"):
            load_log(root)

    def test_rejects_partial_float(self, saved):
        _, root = saved
        path = root / "params.npy"
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(InvalidTrace, match="params.npy is not a complete .npy array"):
            load_log(root)

    @pytest.mark.parametrize("delta", [-8, 8])
    def test_rejects_wrong_payload_length(self, saved, delta):
        _, root = saved
        path = root / "params.npy"
        blob = path.read_bytes()
        path.write_bytes(blob[:delta] if delta < 0 else blob + b"\x00" * delta)
        with pytest.raises(InvalidTrace, match="params.npy"):
            load_log(root)
