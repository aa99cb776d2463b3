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
import io
import os
import typing
from dataclasses import asdict, dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from .data import Dataset, PartitionPlan, dump_csv, load_csv, split_train_holdout
from .errors import DivergedTraining, InvalidConfig, InvalidTrace, TopoleakError
from .metrics import check_phase
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
        if not 0 < self.clip_norm < np.inf:  # NaN fails too
            raise InvalidConfig(f"clip_norm must be finite and > 0, got {self.clip_norm}")
        if not 0 <= self.noise_sigma < np.inf:  # a NaN sigma would add no noise at all
            raise InvalidConfig(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")


def rounds_run(rounds: int | None, n_nodes: int) -> int:
    """The rounds a federation runs: ``rounds``, or one per node if None."""
    return n_nodes if rounds is None else rounds


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
        MlpArchitecture((1, *self.hidden_sizes, 1), self.activation)  # the data fixes the outer sizes

    @property
    def n_rounds(self) -> int:
        return rounds_run(self.rounds, self.topology.n_nodes)

    def architecture(self, dataset: Dataset) -> MlpArchitecture:
        return MlpArchitecture((dataset.n_features, *self.hidden_sizes, dataset.n_classes), self.activation)


def _frozen(a: np.ndarray) -> np.ndarray:
    """Make a, an array that owns its memory, read-only; returns a."""
    a.setflags(write=False)
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

    @property
    def n_nodes(self) -> int:
        return self.params.shape[1]

    @property
    def adjacency(self) -> np.ndarray:
        """The ground truth, from ``config.topology``; no attack reads it."""
        return adjacency_matrix(self.config.topology)

    def snapshot(self, round: int, phase: str = "post") -> np.ndarray:
        """Every node's model in one round as a read-only (n, P) stack: "post" is
        after aggregation (round 0 is the init), "pre" before it (rounds 1..T)."""
        check_phase(phase, InvalidTrace)
        first, last = (0 if phase == "post" else 1), len(self.deltas)
        if not first <= round <= last:
            raise InvalidTrace(f"the log holds {phase} rounds {first}..{last}, not round {round}")
        if phase == "post":
            return self.params[round]
        return _frozen(self.params[round - 1] + self.deltas[round - 1])

    def node_dataset(self, i: int) -> Dataset:
        """Node i's full local set (what an attacker with data access sees)."""
        return self.dataset.subset(self.plan.assignments[i])

    # initial_params, traces and RoundTrace are read only by perfbench/checks.py::closed_form_gap,
    # until ROADMAP item 1 moves that check onto params and deltas; nothing in src/ reads them.
    @property
    def initial_params(self) -> tuple[ModelParams, ...]:
        return RoundTrace(0, self).params_post_agg

    @property
    def traces(self) -> tuple["RoundTrace", ...]:
        return tuple(RoundTrace(t, self) for t in range(1, len(self.deltas) + 1))


@dataclass(frozen=True)
class RoundTrace:
    round: int
    log: SimulationLog = field(repr=False, compare=False)

    @property
    def params_post_agg(self) -> tuple[ModelParams, ...]:
        arch = self.log.config.architecture(self.log.dataset)
        return tuple(ModelParams(arch, row) for row in self.log.snapshot(self.round))

    @property
    def deltas(self) -> np.ndarray:
        return self.log.deltas[self.round - 1]


def apply_dp(delta: np.ndarray, dp: DpConfig, rng) -> np.ndarray:
    """Scale delta to L2 norm <= clip_norm, add N(0, (sigma*clip)^2) noise."""
    d = np.asarray(delta, dtype=np.float64)
    norm = float(np.linalg.norm(d))
    if norm > dp.clip_norm:
        d = d * (dp.clip_norm / norm)
    if dp.noise_sigma > 0:
        d = d + rng.normal(0.0, dp.noise_sigma * dp.clip_norm, size=d.shape)
    return d


def consensus_gap(params: np.ndarray) -> float:
    """Max over node pairs of the L2 distance between the rows of an (n, P) stack."""
    params = np.asarray(params, dtype=np.float64)
    if params.ndim != 2 or len(params) < 2:
        raise InvalidConfig(f"consensus gap needs an (n, P) stack of 2+ nodes, got {params.shape}")
    return max(float(np.linalg.norm(a - b)) for a, b in combinations(params, 2))


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

    arch = cfg.architecture(dataset)
    p_matrix = aggregation_matrix(adjacency_matrix(cfg.topology))

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
                    row[:] = apply_dp(row, cfg.dp, rng)
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

def field_parser(hint):
    """A field's parser from its type hint: ``X | None`` parses as ``X``, and
    ``tuple[X, ...]`` as a comma list of ``X`` whose empty items are skipped."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        return lambda s: tuple(args[0](p.strip()) for p in s.split(",") if p.strip())
    return hint if origin is None else field_parser(next(a for a in args if a is not type(None)))


def _ini_section(values: dict) -> dict[str, str]:
    """Named values as INI text that ``field_parser`` reads back: a tuple as a
    comma list, another value as its str (a float's repr); None is left out."""
    return {k: ",".join(map(str, v)) if isinstance(v, tuple) else str(v)
            for k, v in values.items() if v is not None}


def _from_section(cls, section, **given):
    """``cls`` with the fields ``given`` names, and each other field parsed from
    the INI section's value of its name by the field's type hint."""
    return cls(**given, **{f: field_parser(hint)(section[f])
                           for f, hint in typing.get_type_hints(cls).items() if f not in given})


def _replace_files(root: Path, files: dict) -> None:
    """Write each of ``files`` (name: text, or an array as .npy) under a temporary name
    in ``root``, then move all onto their names, the last name removed before the first
    move: a failed write leaves every name as it was, a crash between moves leaves no
    last name, and a map of an old file lives on."""
    tmps = {root / name: root / (name + ".tmp") for name in files}
    try:
        for tmp, data in zip(tmps.values(), files.values()):
            with open(tmp, "wb") as fh:
                if isinstance(data, str):
                    fh.write(data.encode())
                else:
                    np.save(fh, data, allow_pickle=False)
        *_, last = tmps
        last.unlink(missing_ok=True)
        for path, tmp in tmps.items():
            os.replace(tmp, path)
    finally:
        for tmp in tmps.values():
            tmp.unlink(missing_ok=True)


def save_log(log: SimulationLog, out_dir) -> None:
    """Persist a log as plain-text docs plus params.npy and deltas.npy, all six moved into
    place once written and config.ini last, so a directory without it is a save cut short;
    config.ini's [train] and [dp] are the run's TrainConfig and DpConfig."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)

    fc, cfg = log.config, configparser.ConfigParser()
    cfg["federation"] = _ini_section({
        "seed": log.root_seed, "rounds": fc.n_rounds, "hidden_sizes": fc.hidden_sizes,
        "activation": fc.activation, "alpha": log.plan.alpha,
    })
    cfg["train"] = _ini_section(asdict(fc.train))
    if fc.dp is not None:
        cfg["dp"] = _ini_section(asdict(fc.dp))
    ini = io.StringIO()
    cfg.write(ini)
    partition = "".join(" ".join(map(str, a)) + "\n" for a in log.plan.assignments)
    _replace_files(root, {
        "topology.edges": dump_topology(fc.topology), "dataset.csv": dump_csv(log.dataset),
        "partition.txt": partition, "params.npy": log.params, "deltas.npy": log.deltas,
        "config.ini": ini.getvalue(),
    })


def _read_array(path: Path, shape: tuple[int, ...]) -> np.ndarray:
    """A read-only float64 array of the given shape, mapped by ``np.load`` so that
    a row's pages are read only when the row is. The file must hold the array and
    nothing else, which numpy does not check: a header that ends in a newline, as
    the .npy format requires, then exactly the payload."""
    try:
        arr = np.load(path, mmap_mode="r", allow_pickle=False)
        if not isinstance(arr, np.memmap):
            arr.close()
            raise InvalidTrace(f"{path} is an .npz archive, not an .npy array")
        with open(path, "rb") as fh:
            fh.seek(arr.offset - 1)
            newline, size = fh.read(1) == b"\n", os.fstat(fh.fileno()).st_size
    except OSError as exc:
        raise InvalidTrace(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (ValueError, EOFError) as exc:
        raise InvalidTrace(f"{path} is not a complete .npy array: {exc}") from exc
    if not newline:
        raise InvalidTrace(f"{path} has an .npy header that does not end in a newline")
    if arr.dtype != np.float64 or arr.shape != shape:
        raise InvalidTrace(f"{path} holds {arr.dtype} {arr.shape}; the log's config needs float64 {shape}")
    if size != arr.offset + arr.nbytes:
        raise InvalidTrace(f"{path} has bytes after its array payload")
    return arr.view(np.ndarray)


def _read_text(path: Path) -> str:
    try:
        return path.read_bytes().decode("utf-8")
    except OSError as exc:
        raise InvalidTrace(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidTrace(f"{path} is not UTF-8 text") from exc


def _parse_text(path: Path, parse):
    """``parse`` of the file's text; what it refuses raises InvalidTrace naming the file."""
    text = _read_text(path)
    try:
        return parse(text)
    except TopoleakError as exc:
        raise InvalidTrace(f"{path}: {exc}") from exc


def _read_partition(path: Path, n_nodes: int, n_samples: int) -> tuple[tuple[int, ...], ...]:
    """One nonempty line of sample indices per node, each index an integer in
    [0, n_samples) that no other line holds."""
    lines = _read_text(path).splitlines()
    if len(lines) != n_nodes:
        raise InvalidTrace(f"{path} has {len(lines)} lines; the topology has {n_nodes} nodes")
    try:
        assignments = tuple(tuple(int(i) for i in line.split()) for line in lines)
    except ValueError as exc:
        raise InvalidTrace(f"{path} holds a sample index that is not an integer: {exc}") from exc
    seen = set()
    for k, a in enumerate(assignments, start=1):
        if not a:
            raise InvalidTrace(f"{path} line {k} is empty")
        for i in a:
            if not 0 <= i < n_samples:
                raise InvalidTrace(f"{path} line {k} holds sample {i}, outside [0, {n_samples})")
            if i in seen:
                raise InvalidTrace(f"{path} line {k} holds sample {i}, which is already assigned")
            seen.add(i)
    return assignments


def load_log(log_dir) -> SimulationLog:
    """Read a log written by save_log; a missing or inconsistent file raises
    InvalidTrace. Any other file in the directory is not read."""
    root = Path(log_dir)
    topology = _parse_text(root / "topology.edges", load_topology)
    cfg = configparser.ConfigParser()
    try:
        cfg.read_string(_read_text(root / "config.ini"))
        fed = cfg["federation"]
        seed, alpha = int(fed["seed"]), float(fed["alpha"]) if "alpha" in fed else None
        train = _from_section(TrainConfig, cfg["train"])
        dp = _from_section(DpConfig, cfg["dp"]) if "dp" in cfg else None
        fc = _from_section(FederationConfig, fed, topology=topology, train=train, dp=dp)
    except (configparser.Error, KeyError, ValueError) as exc:
        raise InvalidTrace(f"malformed {root / 'config.ini'}: {exc!r}") from exc
    except InvalidConfig as exc:  # a value the simulation would refuse
        raise InvalidTrace(f"{root / 'config.ini'}: {exc}") from exc

    n, rounds = topology.n_nodes, fc.n_rounds
    dataset = _parse_text(root / "dataset.csv", load_csv)
    plan = PartitionPlan(_read_partition(root / "partition.txt", n, dataset.n_samples), alpha=alpha)

    n_params = fc.architecture(dataset).n_params
    params = _read_array(root / "params.npy", (rounds + 1, n, n_params))
    deltas = _read_array(root / "deltas.npy", (rounds, n, n_params))

    return SimulationLog(fc, seed, dataset, plan, params, deltas)
