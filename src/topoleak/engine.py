"""The federation protocol: local training, then neighbor averaging, per round.

Loop convention (fixed, matching the closed form below): starting from
per-node initial params M_0, each round t = 1..T does

    M_t     = M~_{t-1} + delta_t      (local training, optional DP on delta)
    M~_t    = P . M_t                 (neighbor aggregation)

so the attacker-visible post-aggregation snapshot satisfies

    M~_T = P^T M_0 + sum_{t=1..T} P^{T-t+1} delta_t.

All randomness (per-node init, per-round shuffles, DP noise, holdout splits)
derives from one root seed through keyed streams, so a log is reproducible
bit-exactly and independent of execution order.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from itertools import combinations, zip_longest
from pathlib import Path

import numpy as np

from .data import Dataset, PartitionPlan, dump_csv, load_csv, split_train_holdout
from .errors import DivergedTraining, InvalidConfig, InvalidTrace
from .nn import MlpArchitecture, ModelParams, TrainConfig, init_params, train_local
from .seeds import derive_seed, rng_for
from .topology import Topology, adjacency_matrix, aggregation_matrix, dump_topology, load_topology


@dataclass(frozen=True)
class DpConfig:
    """Update perturbation: L2 clip then per-coordinate Gaussian noise."""

    clip_norm: float
    noise_sigma: float
    seed: int = 0

    def __post_init__(self):
        if self.clip_norm <= 0:
            raise InvalidConfig(f"clip_norm must be positive, got {self.clip_norm}")
        if self.noise_sigma < 0:
            raise InvalidConfig(f"noise_sigma must be >= 0, got {self.noise_sigma}")


@dataclass(frozen=True)
class FederationConfig:
    topology: Topology
    train: TrainConfig
    rounds: int | None = None  # default: one round per node
    dp: DpConfig | None = None
    hidden_sizes: tuple[int, ...] = (32, 16)
    activation: str = "relu"

    def __post_init__(self):
        if self.rounds is not None and self.rounds < 1:
            raise InvalidConfig(f"rounds must be >= 1, got {self.rounds}")
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))

    @property
    def n_rounds(self) -> int:
        return self.rounds if self.rounds is not None else self.topology.n_nodes


def _frozen(a: np.ndarray) -> np.ndarray:
    """Make a and the array owning its memory read-only; returns a."""
    for arr in (a, a.base):
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
    return a


@dataclass(frozen=True)
class SimulationLog:
    """A run's inputs and its read-only trace: ``params`` (T+1, n, P) holds the
    init and each round after aggregation, ``deltas`` (T, n, P) each round's
    updates; round t before aggregation is ``params[t-1] + deltas[t-1]``."""

    config: FederationConfig
    root_seed: int
    dataset: Dataset
    plan: PartitionPlan
    params: np.ndarray
    deltas: np.ndarray
    adjacency: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.params.shape[1]

    def models(self, round: int, phase: str = "post") -> tuple[ModelParams, ...]:
        """Every node's model in one round (round 0 is the init), as read-only rows."""
        stack = self.params[round] if phase == "post" else _frozen(
            self.params[round - 1] + self.deltas[round - 1]
        )
        arch = _architecture(self.config, self.dataset)
        return tuple(ModelParams(arch, row) for row in stack)

    @property
    def initial_params(self) -> tuple[ModelParams, ...]:
        return self.models(0)

    @property
    def traces(self) -> tuple["RoundTrace", ...]:
        return tuple(RoundTrace(t, self) for t in range(1, len(self.deltas) + 1))

    def node_dataset(self, i: int) -> Dataset:
        """Node i's full local set (what an attacker with data access sees)."""
        return self.dataset.subset(self.plan.assignments[i])


@dataclass(frozen=True)
class RoundTrace:
    """One round of a log, read from the log's arrays when asked for."""

    round: int
    log: SimulationLog = field(repr=False, compare=False)

    @property
    def params_pre_agg(self) -> tuple[ModelParams, ...]:
        return self.log.models(self.round, "pre")

    @property
    def params_post_agg(self) -> tuple[ModelParams, ...]:
        return self.log.models(self.round)

    @property
    def deltas(self) -> tuple[np.ndarray, ...]:
        return tuple(self.log.deltas[self.round - 1])

    @property
    def delta_norms(self) -> tuple[float, ...]:
        return tuple(float(np.linalg.norm(d)) for d in self.deltas)


def _architecture(cfg: FederationConfig, dataset: Dataset) -> MlpArchitecture:
    return MlpArchitecture((dataset.n_features, *cfg.hidden_sizes, dataset.n_classes), cfg.activation)


def apply_dp(delta: np.ndarray, clip_norm: float, noise_sigma: float, rng) -> np.ndarray:
    """Scale delta to L2 norm <= clip_norm, add N(0, (sigma*clip)^2) noise."""
    if clip_norm <= 0:
        raise InvalidConfig(f"clip_norm must be positive, got {clip_norm}")
    if noise_sigma < 0:
        raise InvalidConfig(f"noise_sigma must be >= 0, got {noise_sigma}")
    d = np.asarray(delta, dtype=np.float64)
    norm = float(np.linalg.norm(d))
    if norm > clip_norm:
        d = d * (clip_norm / norm)
    if noise_sigma > 0:
        d = d + rng.normal(0.0, noise_sigma * clip_norm, size=d.shape)
    return d


def consensus_gap(params) -> float:
    """Max over node pairs of the L2 distance between parameter vectors."""
    if len(params) < 2:
        raise InvalidConfig("consensus gap needs at least 2 nodes")
    flats = np.stack([p.flat if isinstance(p, ModelParams) else np.asarray(p) for p in params])
    return max([0.0] + [float(np.linalg.norm(a - b)) for a, b in combinations(flats, 2)])


def run_simulation(
    cfg: FederationConfig, dataset: Dataset, plan: PartitionPlan, seed: int
) -> SimulationLog:
    """Execute T rounds of train-then-aggregate over the configured topology.

    Each node trains on the 80% train side of its local split, and the nodes
    whose splits have one size train as one stack; each node's shuffling seed
    is derived from (seed, node, round).
    """
    n = cfg.topology.n_nodes
    if plan.n_nodes != n:
        raise InvalidConfig(f"partition has {plan.n_nodes} nodes, topology has {n}")
    if any(len(a) == 0 for a in plan.assignments):
        raise InvalidConfig("every node needs a nonempty local dataset")

    arch = _architecture(cfg, dataset)
    adjacency = adjacency_matrix(cfg.topology)
    p_matrix = aggregation_matrix(adjacency)

    splits = [
        split_train_holdout(a, derive_seed(seed, "split", i))[0] for i, a in enumerate(plan.assignments)
    ]
    stacks = []
    for size in dict.fromkeys(len(s) for s in splits):
        nodes = [i for i, s in enumerate(splits) if len(s) == size]
        idx = np.array([splits[i] for i in nodes])
        stacks.append((nodes, dataset.features[idx], dataset.labels[idx]))

    rounds = cfg.n_rounds
    params = np.empty((rounds + 1, n, arch.n_params))
    deltas = np.empty((rounds, n, arch.n_params))
    for i in range(n):
        params[0, i] = init_params(arch, derive_seed(seed, "init", i)).flat

    # a diverging node overflows; it is caught by the finiteness checks below
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, rounds + 1):
            for nodes, xs, ys in stacks:
                seeds = [derive_seed(seed, "train", i, t) for i in nodes]
                model = (arch, params[t - 1, nodes])
                _, deltas[t - 1, nodes] = train_local(model, xs, ys, cfg.train, seeds)
            if cfg.dp is not None:
                for i, row in enumerate(deltas[t - 1]):
                    rng = rng_for(cfg.dp.seed, "dp", i, t)
                    row[:] = apply_dp(row, cfg.dp.clip_norm, cfg.dp.noise_sigma, rng)
            bad = ~np.isfinite(deltas[t - 1]).all(axis=1)
            if bad.any():
                raise DivergedTraining(int(np.argmax(bad)), t)
            pre = params[t - 1] + deltas[t - 1]
            params[t] = p_matrix @ pre
            bad = ~(np.isfinite(pre).all(axis=1) & np.isfinite(params[t]).all(axis=1))
            if bad.any():
                raise DivergedTraining(int(np.argmax(bad)), t)

    return SimulationLog(
        config=cfg,
        root_seed=seed,
        dataset=dataset,
        plan=plan,
        params=_frozen(params),
        deltas=_frozen(deltas),
        adjacency=adjacency,
    )


def closed_form_final(p_matrix: np.ndarray, m0: np.ndarray, deltas) -> np.ndarray:
    """Evaluate M~_T = P^T M_0 + sum_t P^(T-t+1) delta_t with matrix powers.

    m0 and each delta are (n_nodes, n_params) matrices, deltas ordered
    t = 1..T.  Independent of the iterative loop by construction.
    """
    m0 = np.asarray(m0, dtype=np.float64)
    deltas = [np.asarray(d, dtype=np.float64) for d in deltas]
    for d in deltas:
        if d.shape != m0.shape:
            raise InvalidTrace(f"delta shape {d.shape} != params shape {m0.shape}")
    t_total = len(deltas)
    out = np.linalg.matrix_power(p_matrix, t_total) @ m0
    for t, delta in enumerate(deltas, start=1):
        out = out + np.linalg.matrix_power(p_matrix, t_total - t + 1) @ delta
    return out


# --- log persistence --------------------------------------------------------

def save_log(log: SimulationLog, out_dir) -> None:
    """Persist a log as plain-text docs plus params.npy and deltas.npy."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)

    cfg = configparser.ConfigParser()
    fed = {
        "seed": str(log.root_seed),
        "rounds": str(log.config.n_rounds),
        "hidden_sizes": ",".join(str(h) for h in log.config.hidden_sizes),
        "activation": log.config.activation,
    }
    if log.plan.alpha is not None:
        fed["alpha"] = repr(float(log.plan.alpha))
    cfg["federation"] = fed
    cfg["train"] = {
        "local_epochs": str(log.config.train.local_epochs),
        "learning_rate": repr(log.config.train.learning_rate),
        "batch_size": str(log.config.train.batch_size),
        "optimizer": log.config.train.optimizer,
    }
    if log.config.dp is not None:
        cfg["dp"] = {
            "clip_norm": repr(log.config.dp.clip_norm),
            "noise_sigma": repr(log.config.dp.noise_sigma),
            "seed": str(log.config.dp.seed),
        }
    with open(root / "config.ini", "w") as fh:
        cfg.write(fh)

    (root / "topology.edges").write_text(dump_topology(log.config.topology))
    (root / "dataset.csv").write_text(dump_csv(log.dataset))
    (root / "partition.txt").write_text(
        "\n".join(" ".join(str(i) for i in a) for a in log.plan.assignments) + "\n"
    )

    np.save(root / "params.npy", log.params, allow_pickle=False)
    np.save(root / "deltas.npy", log.deltas, allow_pickle=False)

    manifest = _manifest_lines(log.n_nodes, log.config.n_rounds)
    (root / "manifest.txt").write_text("\n".join(manifest) + "\n")


def _manifest_lines(n_nodes: int, rounds: int) -> list[str]:
    return [f"nodes {n_nodes}", f"rounds {rounds}"] + [f"round {t}" for t in range(1, rounds + 1)]


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise InvalidTrace(f"cannot read {path}: {exc.strerror or exc}") from exc


def _read_array(path: Path, shape: tuple[int, ...]) -> np.ndarray:
    """A float64 array of the given shape from an .npy file, made read-only.

    The file must hold one array and nothing else: a header that ends in a
    newline, as the .npy format requires, then exactly the payload.
    """
    try:
        with open(path, "rb") as fh:
            a = np.lib.format.read_array(fh, allow_pickle=False)
            end = fh.tell()
            fh.seek(end - a.nbytes - 1)
            header_end = fh.read(1)
            fh.seek(end)
            trailing = fh.read(1)
    except OSError as exc:
        raise InvalidTrace(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (ValueError, EOFError) as exc:
        raise InvalidTrace(f"{path} is not a complete .npy array: {exc}") from exc
    if header_end != b"\n":
        raise InvalidTrace(f"{path} has an .npy header that does not end in a newline")
    if trailing:
        raise InvalidTrace(f"{path} has bytes after its array payload")
    if a.dtype != np.float64 or a.shape != shape:
        raise InvalidTrace(f"{path} holds {a.dtype} {a.shape}; the log's config needs float64 {shape}")
    return _frozen(a)


def _read_text(path: Path) -> str:
    try:
        return _read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidTrace(f"{path} is not UTF-8 text") from exc


def _check_manifest(path: Path, n_nodes: int, rounds: int) -> None:
    """The manifest must list the topology's node count and config.ini's rounds."""
    got = _read_text(path).splitlines()
    for k, (g, w) in enumerate(zip_longest(got, _manifest_lines(n_nodes, rounds), fillvalue=""), start=1):
        if g != w:
            raise InvalidTrace(f"{path} line {k} reads {g!r}, expected {w!r}")


def load_log(log_dir) -> SimulationLog:
    """Read a log written by save_log; a missing or inconsistent file raises InvalidTrace."""
    root = Path(log_dir)
    if not (root / "manifest.txt").exists():
        raise InvalidTrace(f"no manifest in {root}")

    cfg = configparser.ConfigParser()
    try:
        cfg.read_string(_read_text(root / "config.ini"))
        fed = cfg["federation"]
        seed = int(fed["seed"])
        rounds = int(fed["rounds"])
        hidden = tuple(int(h) for h in fed["hidden_sizes"].split(","))
        alpha = float(fed["alpha"]) if "alpha" in fed else None
        activation = fed["activation"]
        train = TrainConfig(
            local_epochs=int(cfg["train"]["local_epochs"]),
            learning_rate=float(cfg["train"]["learning_rate"]),
            batch_size=int(cfg["train"]["batch_size"]),
            optimizer=cfg["train"]["optimizer"],
        )
        dp = None
        if "dp" in cfg:
            dp = DpConfig(
                clip_norm=float(cfg["dp"]["clip_norm"]),
                noise_sigma=float(cfg["dp"]["noise_sigma"]),
                seed=int(cfg["dp"]["seed"]),
            )
    except (configparser.Error, KeyError, ValueError) as exc:
        raise InvalidTrace(f"malformed {root / 'config.ini'}: {exc!r}") from exc

    topology = load_topology(_read_text(root / "topology.edges"))
    n = topology.n_nodes
    _check_manifest(root / "manifest.txt", n, rounds)
    dataset = load_csv(_read_text(root / "dataset.csv"))
    assignments = tuple(
        tuple(int(i) for i in line.split())
        for line in _read_text(root / "partition.txt").splitlines()
        if line.strip()
    )
    plan = PartitionPlan(assignments, alpha=alpha)
    fc = FederationConfig(
        topology=topology,
        train=train,
        rounds=rounds,
        dp=dp,
        hidden_sizes=hidden,
        activation=activation,
    )

    n_params = _architecture(fc, dataset).n_params
    params = _read_array(root / "params.npy", (rounds + 1, n, n_params))
    deltas = _read_array(root / "deltas.npy", (rounds, n, n_params))

    return SimulationLog(
        config=fc,
        root_seed=seed,
        dataset=dataset,
        plan=plan,
        params=params,
        deltas=deltas,
        adjacency=adjacency_matrix(topology),
    )
