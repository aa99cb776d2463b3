"""Minimal feed-forward network in numpy with exact analytic gradients.

Models expose logits; softmax lives at the loss/metric boundary where it can
be computed stably via log-sum-exp.  Parameters travel as one flat float64
vector (per layer: row-major weights then biases), which is what the
federation aggregates, perturbs, and serializes.

The cached forward / backward pair is the shared differentiation core: the
cross-entropy loss here, and the sigmoid-output decoders in the attack
module, all reduce to a custom gradient at the logits fed through
``backward_from_logits``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig, InvalidTrace, ShapeError

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

    @property
    def d_out(self) -> int:
        return self.layer_sizes[-1]

    @property
    def n_params(self) -> int:
        sizes = self.layer_sizes
        return sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))


@dataclass(frozen=True)
class ModelParams:
    """Flat parameter vector bound to its architecture."""

    arch: MlpArchitecture
    flat: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.flat, dtype=np.float64)
        if v.shape != (self.arch.n_params,):
            raise ShapeError(f"flat length {v.shape} != expected ({self.arch.n_params},)")
        v = v.copy()
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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.local_epochs < 1:
            raise InvalidConfig(f"local_epochs must be >= 1, got {self.local_epochs}")
        if self.learning_rate < 0:
            raise InvalidConfig(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise InvalidConfig(f"batch_size must be >= 1, got {self.batch_size}")
        if self.optimizer not in ("sgd", "adam"):
            raise InvalidConfig(f"optimizer must be sgd or adam, got {self.optimizer!r}")


def unpack(p: ModelParams) -> list[tuple[np.ndarray, np.ndarray]]:
    """Flat vector -> [(W, b), ...] with W of shape (fan_in, fan_out)."""
    layers = []
    offset = 0
    sizes = p.arch.layer_sizes
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = p.flat[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        b = p.flat[offset : offset + fan_out]
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
    # a = pre-activation, h = activation output
    return (a > 0).astype(np.float64) if kind == "relu" else 1.0 - h * h


def forward_cached(p: ModelParams, x_batch: np.ndarray):
    """Batched forward pass returning (logits, cache for backward).

    x_batch has shape (n, d_in); logits (n, d_out).
    """
    x = np.asarray(x_batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != p.arch.d_in:
        raise ShapeError(f"input shape {x.shape} incompatible with d_in={p.arch.d_in}")
    layers = unpack(p)
    hs = [x]  # layer inputs
    pre = []
    h = x
    for li, (w, b) in enumerate(layers):
        a = h @ w + b
        pre.append(a)
        h = _act(a, p.arch.activation) if li < len(layers) - 1 else a
        hs.append(h)
    return hs[-1], (layers, hs, pre)


def backward_from_logits(p: ModelParams, cache, dlogits: np.ndarray):
    """Exact gradient given d(loss)/d(logits); returns (grad_flat, dX)."""
    layers, hs, pre = cache
    grads = [None] * len(layers)
    delta = np.asarray(dlogits, dtype=np.float64)
    for li in range(len(layers) - 1, -1, -1):
        w, _ = layers[li]
        grads[li] = (hs[li].T @ delta, delta.sum(axis=0))
        delta = delta @ w.T
        if li > 0:
            delta = delta * _act_grad(pre[li - 1], hs[li], p.arch.activation)
    flat = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])
    return flat, delta


def forward(p: ModelParams, x: np.ndarray) -> np.ndarray:
    """Logits for a single feature vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"expected a 1-d feature vector, got shape {x.shape}")
    logits, _ = forward_cached(p, x[None, :])
    return logits[0]


def forward_batch(p: ModelParams, x_batch: np.ndarray) -> np.ndarray:
    logits, _ = forward_cached(p, x_batch)
    return logits


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    m = z.max(axis=-1, keepdims=True)
    return z - m - np.log(np.exp(z - m).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def cross_entropy(p: ModelParams, x_batch: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy of the model on a labeled batch."""
    logits = forward_batch(p, x_batch)
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (logits.shape[0],):
        raise ShapeError(f"labels shape {y.shape} does not match batch {logits.shape[0]}")
    return float(-log_softmax(logits)[np.arange(len(y)), y].mean())


def loss_and_grad(p: ModelParams, x_batch: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and its exact gradient w.r.t. the flat params."""
    y = np.asarray(labels, dtype=np.int64)
    x = np.asarray(x_batch, dtype=np.float64)
    if x.shape[0] == 0:
        raise ShapeError("empty batch")
    if y.shape != (x.shape[0],):
        raise ShapeError(f"labels shape {y.shape} does not match batch {x.shape[0]}")
    logits, cache = forward_cached(p, x)
    logp = log_softmax(logits)
    n = x.shape[0]
    loss = float(-logp[np.arange(n), y].mean())
    dlogits = np.exp(logp)
    dlogits[np.arange(n), y] -= 1.0
    grad, _ = backward_from_logits(p, cache, dlogits / n)
    return loss, grad


def train_local(p: ModelParams, features: np.ndarray, labels: np.ndarray, cfg: TrainConfig):
    """Mini-batch local training; returns (new params, delta = new - old).

    Epoch order is shuffled by cfg.seed; optimizer state is fresh per call.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.shape[0] < 1:
        raise InvalidConfig("local dataset must contain at least one sample")
    rng = np.random.default_rng(cfg.seed)
    theta = p.flat.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    step = 0
    for _ in range(cfg.local_epochs):
        order = rng.permutation(x.shape[0])
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            _, grad = loss_and_grad(p.with_flat(theta), x[idx], y[idx])
            step += 1
            if cfg.optimizer == "adam":
                m = cfg.beta1 * m + (1 - cfg.beta1) * grad
                v = cfg.beta2 * v + (1 - cfg.beta2) * grad * grad
                m_hat = m / (1 - cfg.beta1**step)
                v_hat = v / (1 - cfg.beta2**step)
                theta = theta - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)
            else:
                theta = theta - cfg.learning_rate * grad
    p_new = p.with_flat(theta)
    return p_new, theta - p.flat


def jacobian(p: ModelParams, x: np.ndarray) -> np.ndarray:
    """Exact d softmax(logits) / d x, shape (d_out, d_in)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != p.arch.d_in:
        raise ShapeError(f"input shape {x.shape} incompatible with d_in={p.arch.d_in}")
    logits, cache = forward_cached(p, x[None, :])
    k = p.arch.d_out
    j_logits = np.zeros((k, p.arch.d_in))
    for out in range(k):
        seed_grad = np.zeros((1, k))
        seed_grad[0, out] = 1.0
        _, dx = backward_from_logits(p, cache, seed_grad)
        j_logits[out] = dx[0]
    s = softmax(logits[0])
    return (np.diag(s) - np.outer(s, s)) @ j_logits


# --- snapshot serialization -------------------------------------------------

def dump_params(p: ModelParams) -> bytes:
    """Architecture header line + little-endian float64 payload."""
    sizes = ",".join(str(s) for s in p.arch.layer_sizes)
    header = f"mlp {p.arch.activation} {sizes}\n".encode("ascii")
    return header + p.flat.astype("<f8").tobytes()


def load_params(blob: bytes) -> ModelParams:
    """Inverse of dump_params; a malformed or truncated snapshot raises InvalidTrace."""
    head, newline, payload = blob.partition(b"\n")
    fields = head.decode("ascii", "replace").split()
    try:
        if not newline or len(fields) != 3 or fields[0] != "mlp":
            raise ValueError
        arch = MlpArchitecture(tuple(int(s) for s in fields[2].split(",")), activation=fields[1])
    except (ValueError, InvalidConfig):
        raise InvalidTrace(f"bad snapshot header {head[:80]!r}") from None
    if len(payload) != 8 * arch.n_params:
        raise InvalidTrace(
            f"snapshot payload is {len(payload)} bytes, architecture {arch.layer_sizes} "
            f"needs {arch.n_params} float64 values ({8 * arch.n_params} bytes)"
        )
    return ModelParams(arch, np.frombuffer(payload, dtype="<f8").astype(np.float64))
