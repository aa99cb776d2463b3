"""Minimal feed-forward network in numpy with exact analytic gradients.

Models expose logits; softmax lives at the loss/metric boundary where it can
be computed stably via log-sum-exp.  Parameters travel as one flat float64
vector (per layer: row-major weights then biases), which is what the
federation aggregates, perturbs, and stores.

The core runs on a leading node axis: a model is a ``ModelParams`` or an
``(arch, theta)`` pair, and a ``(g, P)`` theta stack runs g models on a
``(g, B, d_in)`` batch with one matmul per layer.  One model is the same body
without that axis, and gives the same bits as its slice of any stack.

The cached forward / backward pair is the shared differentiation core: the
cross-entropy loss here, and the sigmoid-output decoders in the attack
module, all reduce to a custom gradient at the logits fed through
``backward_from_logits``.  A training loop runs it on a ``Workspace``: theta,
its gradient and their layer views are made once per fit, and ``Adam`` and the
SGD step update theta in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidConfig, ShapeError

_ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class MlpArchitecture:
    """Layer sizes [d_in, h1, ..., d_out] with a hidden activation."""

    layer_sizes: tuple[int, ...]
    activation: str = "relu"

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 3:
            raise InvalidConfig(f"need at least one hidden layer, got sizes {sizes}")
        if any(s < 1 for s in sizes):
            raise InvalidConfig(f"all layer sizes must be >= 1, got {sizes}")
        if self.activation not in _ACTIVATIONS:
            raise InvalidConfig(f"activation must be one of {_ACTIVATIONS}")

    @property
    def d_in(self) -> int:
        return self.layer_sizes[0]

    @cached_property
    def n_params(self) -> int:
        sizes = self.layer_sizes
        return sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))


@dataclass(frozen=True)
class ModelParams:
    """Flat parameter vector bound to its architecture, held as a read-only copy."""

    arch: MlpArchitecture
    flat: np.ndarray

    def __post_init__(self):
        v = np.array(self.flat, dtype=np.float64)
        if v.shape != (self.arch.n_params,):
            raise ShapeError(f"flat length {v.shape} != expected ({self.arch.n_params},)")
        v.setflags(write=False)
        object.__setattr__(self, "flat", v)

    def with_flat(self, flat: np.ndarray) -> "ModelParams":
        return ModelParams(self.arch, flat)


@dataclass(frozen=True)
class TrainConfig:
    local_epochs: int
    learning_rate: float
    batch_size: int
    optimizer: str = "sgd"

    def __post_init__(self):
        if self.local_epochs < 1:
            raise InvalidConfig(f"local_epochs must be >= 1, got {self.local_epochs}")
        # 0 is legal (no training); NaN passes a bare "< 0" test
        if not np.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise InvalidConfig(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise InvalidConfig(f"batch_size must be >= 1, got {self.batch_size}")
        if self.optimizer not in ("sgd", "adam"):
            raise InvalidConfig(f"optimizer must be sgd or adam, got {self.optimizer!r}")


def _arch_theta(model) -> tuple[MlpArchitecture, np.ndarray]:
    """A ModelParams, or an (arch, theta) pair with theta (P,) or a (g, P) stack."""
    if isinstance(model, ModelParams):
        return model.arch, model.flat
    arch, theta = model
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim not in (1, 2) or theta.shape[-1] != arch.n_params:
        raise ShapeError(f"theta shape {theta.shape} is not (P,) or (g, P) with P={arch.n_params}")
    return arch, theta


def unpack(model) -> list[tuple[np.ndarray, np.ndarray]]:
    """Flat vector(s) -> [(W, b), ...] views, W (..., fan_in, fan_out), b (..., 1, fan_out)."""
    arch, theta = _arch_theta(model)
    lead = theta.shape[:-1]
    layers = []
    offset = 0
    sizes = arch.layer_sizes
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = theta[..., offset : offset + fan_in * fan_out].reshape(*lead, fan_in, fan_out)
        offset += fan_in * fan_out
        b = theta[..., offset : offset + fan_out].reshape(*lead, 1, fan_out)
        offset += fan_out
        layers.append((w, b))
    return layers


def pack(arch: MlpArchitecture, layers) -> ModelParams:
    parts = []
    for w, b in layers:
        parts.append(np.asarray(w, dtype=np.float64).ravel())
        parts.append(np.asarray(b, dtype=np.float64).ravel())
    return ModelParams(arch, np.concatenate(parts))


def init_params(arch: MlpArchitecture, seed: int) -> ModelParams:
    """Uniform fan-in-scaled weights (bound sqrt(6/fan_in)), zero biases."""
    rng = np.random.default_rng(seed)
    layers = []
    sizes = arch.layer_sizes
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        layers.append((w, np.zeros(fan_out)))
    return pack(arch, layers)


def _act(a: np.ndarray, kind: str) -> np.ndarray:
    return np.maximum(a, 0.0) if kind == "relu" else np.tanh(a)


def _act_grad(a: np.ndarray, h: np.ndarray, kind: str) -> np.ndarray:
    # a = pre-activation, h = activation output; relu's boolean mask multiplies
    # as 1.0 / 0.0, the bits of the float mask without making it
    return a > 0 if kind == "relu" else 1.0 - h * h


class Workspace:
    """One fit's buffers, made once: a writable copy of a (P,) or (g, P) theta,
    a gradient buffer of the same shape, and the layer views of each.

    ``forward_cached`` reads the views instead of unpacking, and
    ``backward_from_logits`` writes the gradient through its views instead of
    concatenating.  Optimizer steps update ``theta`` in place, so the views
    stay valid for the whole fit; ``grad`` is overwritten by the next backward.
    """

    def __init__(self, arch: MlpArchitecture, theta):
        self.arch = arch
        self.theta = np.array(theta, dtype=np.float64)
        self.layers = unpack((arch, self.theta))
        self.grad = np.empty_like(self.theta)
        self.grad_layers = unpack((arch, self.grad))


def forward_cached(model, x_batch: np.ndarray):
    """Batched forward pass returning (logits, cache for backward): x_batch is
    (B, d_in) for one model and (g, B, d_in) for a (g, P) stack, logits (..., B, d_out).
    ``model`` may also be a Workspace, whose views are read as they are."""
    if isinstance(model, Workspace):
        arch, theta, layers = model.arch, model.theta, model.layers
    else:
        arch, theta = _arch_theta(model)
        layers = unpack((arch, theta))
    x = np.asarray(x_batch, dtype=np.float64)
    if x.ndim != theta.ndim + 1 or x.shape[:-2] != theta.shape[:-1] or x.shape[-1] != arch.d_in:
        raise ShapeError(f"input shape {x.shape} incompatible with d_in={arch.d_in}, theta {theta.shape}")
    hs = [x]  # layer inputs
    pre = []
    h = x
    for li, (w, b) in enumerate(layers):
        a = h @ w + b
        pre.append(a)
        h = _act(a, arch.activation) if li < len(layers) - 1 else a
        hs.append(h)
    return hs[-1], (model, arch, layers, hs, pre)


def backward_from_logits(cache, dlogits: np.ndarray) -> np.ndarray:
    """Exact gradient (..., P) given d(loss)/d(logits).  For a Workspace it is
    written into, and returned as, the workspace's ``grad`` buffer."""
    model, arch, layers, hs, pre = cache
    delta = np.asarray(dlogits, dtype=np.float64)
    if isinstance(model, Workspace):
        grad, grad_layers = model.grad, model.grad_layers
    else:
        grad = np.empty(delta.shape[:-2] + (arch.n_params,))
        grad_layers = unpack((arch, grad))
    for li in range(len(layers) - 1, -1, -1):
        gw, gb = grad_layers[li]
        np.matmul(hs[li].swapaxes(-1, -2), delta, out=gw)
        np.add.reduce(delta, axis=-2, keepdims=True, out=gb)
        if li > 0:  # the input gradient of layer 0 is read by no caller
            delta = delta @ layers[li][0].swapaxes(-1, -2)
            delta = delta * _act_grad(pre[li - 1], hs[li], arch.activation)
    return grad


def forward_batch(p: ModelParams, x_batch: np.ndarray) -> np.ndarray:
    logits, _ = forward_cached(p, x_batch)
    return logits


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    m = z.max(axis=-1, keepdims=True)
    return z - m - np.log(np.exp(z - m).sum(axis=-1, keepdims=True))


def cross_entropy(p: ModelParams, x_batch: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy of the model on a labeled batch."""
    logits = forward_batch(p, x_batch)
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (logits.shape[0],):
        raise ShapeError(f"labels shape {y.shape} does not match batch {logits.shape[0]}")
    return float(-log_softmax(logits)[np.arange(len(y)), y].mean())


def loss_and_grad(model, x_batch: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and its exact gradient w.r.t. the flat params; for a
    (g, P) stack on (g, B, d_in) and (g, B) labels, a (g,) loss and (g, P) gradient."""
    y = np.asarray(labels, dtype=np.int64)
    x = np.asarray(x_batch, dtype=np.float64)
    if x.ndim >= 2 and x.shape[-2] == 0:
        raise ShapeError("empty batch")
    if y.shape != x.shape[:-1]:
        raise ShapeError(f"labels shape {y.shape} does not match batch {x.shape[:-1]}")
    logits, cache = forward_cached(model, x)
    logp = log_softmax(logits)
    hot = y[..., None] == np.arange(logp.shape[-1])
    loss = -logp[hot].reshape(y.shape).sum(axis=-1) / y.shape[-1]
    grad = backward_from_logits(cache, (np.exp(logp) - hot) / y.shape[-1])
    return loss, grad


class Adam:
    """Adam (Kingma & Ba, arXiv:1412.6980) whose step updates theta, m and v in place."""

    B1, B2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, shape, lr: float):
        self.lr = lr
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self._num = np.empty(shape)
        self._den = np.empty(shape)
        self.t = 0

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        """theta -= lr * m_hat / (sqrt(v_hat) + eps), with
        m = b1 * m + (1 - b1) * grad and v = b2 * v + (1 - b2) * grad * grad,
        each operation in that order, so the bits are those of the formula."""
        self.t += 1
        m, v, num, den = self.m, self.v, self._num, self._den
        m *= self.B1
        m += np.multiply(grad, 1 - self.B1, out=num)
        v *= self.B2
        np.multiply(grad, 1 - self.B2, out=num)
        v += np.multiply(num, grad, out=num)
        np.divide(m, 1 - self.B1**self.t, out=num)
        num *= self.lr
        np.divide(v, 1 - self.B2**self.t, out=den)
        np.sqrt(den, out=den)
        den += self.EPS
        num /= den
        theta -= num


def train_local(model, features: np.ndarray, labels: np.ndarray, cfg: TrainConfig, seeds):
    """Mini-batch training of an (arch, (g, P) theta) stack on g shards, features
    (g, m, d_in) and labels (g, m): model k shuffles each epoch with
    default_rng(seeds[k]) and all step together on each minibatch; optimizer
    state is fresh per call.  Returns (new theta, delta = new - old)."""
    arch, theta0 = _arch_theta(model)
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    sizes_agree = len(x) == len(theta0) == len(seeds) and y.shape == x.shape[:2]
    if theta0.ndim != 2 or x.ndim != 3 or not sizes_agree:
        raise ShapeError(
            f"need theta (g, P), features (g, m, d), labels (g, m) and g seeds; "
            f"got {theta0.shape}, {x.shape}, {y.shape} and {len(seeds)} seeds"
        )
    if y.shape[1] < 1:
        raise InvalidConfig("local dataset must contain at least one sample")
    rngs = [np.random.default_rng(s) for s in seeds]
    n_local = y.shape[1]
    # minibatches are gathered from the flattened stack, where shard k starts at row k * n_local
    flat_x, flat_y = x.reshape(-1, x.shape[2]), y.ravel()
    offsets = np.arange(0, y.size, n_local)[:, None]
    ws = Workspace(arch, theta0)
    opt = Adam(theta0.shape, cfg.learning_rate) if cfg.optimizer == "adam" else None
    for _ in range(cfg.local_epochs):
        order = np.stack([rng.permutation(n_local) for rng in rngs]) + offsets
        for start in range(0, n_local, cfg.batch_size):
            idx = order[:, start : start + cfg.batch_size]
            _, grad = loss_and_grad(ws, flat_x.take(idx, axis=0), flat_y.take(idx))
            if opt:
                opt.step(ws.theta, grad)
            else:  # theta - lr * grad; grad is the workspace's own buffer
                grad *= cfg.learning_rate
                ws.theta -= grad
    return ws.theta, ws.theta - theta0
