import math

import numpy as np
import pytest

from topoleak.data import gen_blobs
from topoleak.errors import InvalidConfig, InvalidTrace, ShapeError
from topoleak.nn import (
    MlpArchitecture,
    ModelParams,
    TrainConfig,
    cross_entropy,
    dump_params,
    forward,
    forward_batch,
    init_params,
    jacobian,
    load_params,
    loss_and_grad,
    pack,
    softmax,
    train_local,
    unpack,
)


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
        logits = forward(p, np.array([1.0, -2.0, 0.5]))
        np.testing.assert_array_equal(logits, np.zeros(5))
        np.testing.assert_allclose(softmax(logits), np.full(5, 0.2))

    def test_identity_passthrough(self):
        # relu hidden layer with identity weights passes positive inputs
        # through unchanged
        arch = MlpArchitecture((2, 2, 2), activation="relu")
        p = pack(arch, [(np.eye(2), np.zeros(2)), (np.eye(2), np.zeros(2))])
        np.testing.assert_allclose(forward(p, np.array([0.3, 1.7])), [0.3, 1.7])

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
        np.testing.assert_allclose(forward(p, np.array([1.0, -2.0])), expected, atol=1e-15)

    def test_dimension_mismatch(self):
        p = init_params(MlpArchitecture((3, 4, 2)), seed=0)
        with pytest.raises(ShapeError):
            forward(p, np.zeros(5))


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
            y = rng.integers(0, arch.d_out, size=5)
            _, grad = loss_and_grad(p, x, y)
            coords = rng.choice(arch.n_params, size=20, replace=False)
            fd = finite_diff_grad(p, x, y, coords)
            rel = np.linalg.norm(grad[coords] - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-4

    def test_softmax_rows_sum_to_one_extreme_logits(self):
        z = np.array([[1e4, -1e4, 0.0], [300.0, 299.0, -300.0]])
        np.testing.assert_allclose(softmax(z).sum(axis=1), 1.0, atol=1e-12)


class TestTrainLocal:
    def test_zero_lr_identity(self):
        d = gen_blobs(2, 2, 10, 1.0, seed=0)
        p = init_params(MlpArchitecture((2, 4, 2)), seed=0)
        cfg = TrainConfig(local_epochs=3, learning_rate=0.0, batch_size=8, seed=1)
        p_new, delta = train_local(p, d.features, d.labels, cfg)
        np.testing.assert_array_equal(delta, 0.0)
        np.testing.assert_array_equal(p_new.flat, p.flat)

    def test_single_full_batch_step_is_vanilla_sgd(self):
        d = gen_blobs(2, 2, 10, 1.0, seed=0)
        p = init_params(MlpArchitecture((2, 4, 2)), seed=3)
        _, grad = loss_and_grad(p, d.features, d.labels)
        cfg = TrainConfig(local_epochs=1, learning_rate=0.1, batch_size=d.n_samples, seed=1)
        p_new, delta = train_local(p, d.features, d.labels, cfg)
        np.testing.assert_allclose(delta, -0.1 * grad, atol=1e-15)

    def test_more_epochs_lower_training_loss(self):
        d = gen_blobs(2, 3, 30, spread=0.5, seed=4)
        p = init_params(MlpArchitecture((3, 8, 2)), seed=0)

        def loss_after(epochs):
            cfg = TrainConfig(local_epochs=epochs, learning_rate=0.05, batch_size=16, seed=2)
            p_new, _ = train_local(p, d.features, d.labels, cfg)
            return cross_entropy(p_new, d.features, d.labels)

        assert loss_after(10) <= loss_after(3)

    def test_deterministic(self):
        d = gen_blobs(3, 2, 15, 1.0, seed=1)
        p = init_params(MlpArchitecture((2, 6, 3)), seed=2)
        cfg = TrainConfig(local_epochs=2, learning_rate=0.05, batch_size=8, optimizer="adam", seed=9)
        a, da = train_local(p, d.features, d.labels, cfg)
        b, db = train_local(p, d.features, d.labels, cfg)
        np.testing.assert_array_equal(a.flat, b.flat)
        np.testing.assert_array_equal(da, db)

    def test_adam_reduces_loss(self):
        d = gen_blobs(2, 2, 25, spread=0.5, seed=6)
        p = init_params(MlpArchitecture((2, 8, 2)), seed=1)
        cfg = TrainConfig(local_epochs=5, learning_rate=0.01, batch_size=10, optimizer="adam", seed=0)
        p_new, _ = train_local(p, d.features, d.labels, cfg)
        assert cross_entropy(p_new, d.features, d.labels) < cross_entropy(p, d.features, d.labels)


class TestJacobian:
    def test_zero_net_zero_jacobian(self):
        arch = MlpArchitecture((3, 4, 2))
        p = ModelParams(arch, np.zeros(arch.n_params))
        np.testing.assert_array_equal(jacobian(p, np.array([1.0, 2.0, 3.0])), 0.0)

    def test_matches_finite_differences(self):
        # oracle: central differences of softmax outputs w.r.t. each input
        rng = np.random.default_rng(42)
        for _ in range(10):
            arch = MlpArchitecture((4, 6, 3), activation="tanh")
            p = init_params(arch, seed=int(rng.integers(1 << 31)))
            x = rng.standard_normal(4)
            j = jacobian(p, x)
            step = 1e-6
            fd = np.zeros_like(j)
            for c in range(4):
                up, down = x.copy(), x.copy()
                up[c] += step
                down[c] -= step
                fd[:, c] = (softmax(forward(p, up)) - softmax(forward(p, down))) / (2 * step)
            np.testing.assert_allclose(j, fd, atol=1e-5)

    def test_frobenius_invariant_under_matched_permutation(self):
        arch = MlpArchitecture((4, 5, 3), activation="tanh")
        p = init_params(arch, seed=7)
        x = np.array([0.3, -1.2, 0.8, 2.0])
        perm = np.array([2, 0, 3, 1])
        layers = unpack(p)
        permuted = [(layers[0][0][perm, :], layers[0][1])] + layers[1:]
        p2 = pack(arch, permuted)
        n1 = np.linalg.norm(jacobian(p, x))
        n2 = np.linalg.norm(jacobian(p2, x[perm]))
        assert n1 == pytest.approx(n2, rel=1e-12)


class TestSerialization:
    def test_round_trip(self):
        arch = MlpArchitecture((3, 7, 2), activation="tanh")
        p = init_params(arch, seed=11)
        back = load_params(dump_params(p))
        assert back.arch == arch
        np.testing.assert_array_equal(back.flat, p.flat)

    def test_header_is_readable_ascii(self):
        p = init_params(MlpArchitecture((2, 3, 2)), seed=0)
        blob = dump_params(p)
        assert blob.split(b"\n", 1)[0] == b"mlp relu 2,3,2"

    def test_rejects_garbage_header(self):
        with pytest.raises(InvalidTrace):
            load_params(b"nope 1,2\n" + b"\x00" * 8)

    @pytest.mark.parametrize(
        "header",
        [b"mlp relu", b"mlp relu 2,x,2", b"mlp relu 2,2", b"mlp swish 2,3,2", b"mlp relu 2,0,2", b"\xff\xfe"],
    )
    def test_rejects_bad_header_fields(self, header):
        with pytest.raises(InvalidTrace):
            load_params(header + b"\n" + b"\x00" * 8 * 17)

    def test_rejects_missing_newline(self):
        blob = dump_params(init_params(MlpArchitecture((2, 3, 2)), seed=0))
        with pytest.raises(InvalidTrace):
            load_params(blob.split(b"\n", 1)[0])
        with pytest.raises(InvalidTrace):
            load_params(b"")

    def test_rejects_partial_float(self):
        blob = dump_params(init_params(MlpArchitecture((2, 3, 2)), seed=0))
        with pytest.raises(InvalidTrace):
            load_params(blob[:-3])

    @pytest.mark.parametrize("delta", [-8, 8])
    def test_rejects_wrong_payload_length(self, delta):
        blob = dump_params(init_params(MlpArchitecture((2, 3, 2)), seed=0))
        cut = blob[:delta] if delta < 0 else blob + b"\x00" * delta
        with pytest.raises(InvalidTrace):
            load_params(cut)

    def test_forward_batch_matches_forward(self):
        p = init_params(MlpArchitecture((3, 5, 4)), seed=2)
        rng = np.random.default_rng(0)
        xb = rng.standard_normal((6, 3))
        batched = forward_batch(p, xb)
        for i in range(6):
            np.testing.assert_allclose(batched[i], forward(p, xb[i]), atol=1e-15)
