"""Scoring of predicted adjacencies and the experiment sweep harness.

Scores are computed over an explicit list of node pairs so that the
supervised attacks can be measured on pairs they never saw labels for.
Sweeps run the pipeline in two stages, simulate (topology -> data ->
simulation) and attack (metric -> attack -> score), and emit plot-ready CSV
rows. Cells that share a simulation run it once. The CLI runs the same two
stages, so one config and one seed give one graph, one trace and one
labeled set wherever they are run.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .attacks import (
    AttackResult,
    EdgePreConfig,
    InferGatConfig,
    ScenarioKnowledge,
    SoftAdjacency,
    run_scenario,
    sample_knowledge,
)
from .data import Dataset, gen_blobs, partition_dirichlet, partition_iid
from .engine import DpConfig, FederationConfig, SimulationLog, run_simulation
from .errors import DegenerateLabels, InvalidConfig, InvalidEvalSet, TopoleakError
from .nn import TrainConfig
from .seeds import derive_seed
from .topology import Topology, gen_erdos_renyi, gen_ring, gen_star, stats

ALL_PAIRS = "all_pairs"
HELD_OUT = "held_out"

# CSV layout is part of the artifact contract; order is load-bearing.
CSV_COLUMNS = (
    "experiment_id",
    "scenario",
    "topology_kind",
    "n_nodes",
    "n_edges",
    "density",
    "alpha",
    "local_epochs",
    "dp_clip",
    "dp_sigma",
    "seed",
    "f1_05",
    "best_f1",
    "best_tau",
    "auc",
    "precision",
    "recall",
    "status",
    "wall_ms",
)


# --- pair policies ----------------------------------------------------------

def all_pairs(n_nodes: int) -> tuple[tuple[int, int], ...]:
    """Every unordered off-diagonal pair (i < j)."""
    return tuple((i, j) for i in range(n_nodes) for j in range(i + 1, n_nodes))


def held_out_pairs(n_nodes: int, known_pairs) -> tuple[tuple[int, int], ...]:
    """All unordered pairs minus those the attacker holds labels for."""
    known = {(i, j) for i, j, *_ in known_pairs}
    return tuple(p for p in all_pairs(n_nodes) if p not in known)


# --- scores -----------------------------------------------------------------

def _pair_index(eval_pairs) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index arrays of a nonempty, off-diagonal pair list."""
    pairs = np.asarray(list(eval_pairs), dtype=np.intp)
    if pairs.size == 0:
        raise InvalidEvalSet("cannot score an empty pair set")
    i, j = pairs.T
    if (i == j).any():
        k = int(i[np.argmax(i == j)])
        raise InvalidEvalSet(f"diagonal pair ({k}, {k}) in eval set")
    return i, j


def f1_score(pred_edges: np.ndarray, truth: np.ndarray, eval_pairs) -> tuple[float, float, float]:
    """(f1, precision, recall) over eval_pairs, edge = positive class.

    F1 is defined as 0 when precision + recall is 0.
    """
    i, j = _pair_index(eval_pairs)
    p = np.asarray(pred_edges)[i, j] > 0
    t = np.asarray(truth)[i, j] > 0
    tp, fp, fn = int((p & t).sum()), int((p & ~t).sum()), int((t & ~p).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    # single division keeps f1 bit-identical to confusion-matrix enumeration
    f1 = 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0
    return f1, precision, recall


def _best_threshold(scores: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Highest F1 of ``scores > tau`` over tau in {0} and the distinct scores.

    One stable sort; the positives above each tau are a suffix count, so the
    confusion counts are exact integers. The smallest tau reaching the best
    F1 wins, and (0.0, 0.5) stands when no tau reaches F1 > 0.
    """
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    pos_upto = np.concatenate(([0], np.cumsum(labels[order])))
    taus = s[np.concatenate((s[1:] != s[:-1], [True]))]
    if not (taus == 0.0).any():
        taus = np.insert(taus, np.searchsorted(taus, 0.0), 0.0)
    taus[taus == 0.0] = 0.0  # -0.0 compares equal to the 0.0 candidate; keep +0.0
    upto = np.searchsorted(s, taus, side="right")  # scores <= tau
    tp = pos_upto[-1] - pos_upto[upto]
    denom = (len(s) - upto) + pos_upto[-1]  # 2tp + fp + fn: predicted plus actual positives
    f1 = np.divide(2 * tp, denom, out=np.zeros(len(taus)), where=denom > 0)
    k = int(np.argmax(f1))
    return (float(f1[k]), float(taus[k])) if f1[k] > 0.0 else (0.0, 0.5)


def auc_roc(scores, labels) -> float:
    """Rank-based AUC: P(score+ > score-) + 0.5 * P(tie), computed exactly.

    Uses midranks, which reproduces the pairwise concordance count without
    enumerating pairs.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise InvalidEvalSet(f"scores/labels must be equal 1-d, got {scores.shape}, {labels.shape}")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos + n_neg != len(labels):
        raise InvalidEvalSet("labels must be 0/1")
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels(f"AUC needs both classes, got {n_pos} pos / {n_neg} neg")

    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    midranks = np.cumsum(counts) - (counts - 1) / 2.0  # 1-based, ties share one
    rank_sum_pos = float(midranks[group[labels == 1]].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass(frozen=True)
class EvalResult:
    f1_05: float
    best_f1: float
    best_tau: float
    auc: float
    precision: float
    recall: float
    n_eval_pairs: int
    eval_pair_policy: str
    auc_degenerate: bool = False

    def __post_init__(self):
        for name in ("f1_05", "best_f1", "auc", "precision", "recall"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise InvalidEvalSet(f"{name} must lie in [0, 1], got {v}")


def evaluate_soft(
    soft: SoftAdjacency | np.ndarray,
    truth: np.ndarray,
    eval_pairs,
    policy: str = ALL_PAIRS,
) -> EvalResult:
    """Score one soft adjacency: F1 at 0.5, best-threshold F1, and AUC."""
    values = soft.values if isinstance(soft, SoftAdjacency) else np.asarray(soft, dtype=np.float64)
    truth = np.asarray(truth)
    eval_pairs = list(eval_pairs)
    i, j = _pair_index(eval_pairs)
    scores = values[i, j]
    labels = (truth[i, j] > 0).astype(np.int64)

    f1, precision, recall = f1_score((values > 0.5).astype(np.int64), truth, eval_pairs)
    best_f1, best_tau = _best_threshold(scores, labels)

    try:
        auc = auc_roc(scores, labels)
        degenerate = False
    except DegenerateLabels:
        auc, degenerate = 0.5, True  # single-class truth, reported flat

    return EvalResult(
        f1_05=f1,
        best_f1=best_f1,
        best_tau=best_tau,
        auc=auc,
        precision=precision,
        recall=recall,
        n_eval_pairs=len(eval_pairs),
        eval_pair_policy=policy,
        auc_degenerate=degenerate,
    )


# --- sweep harness ----------------------------------------------------------

@dataclass(frozen=True)
class ExperimentDefaults:
    """Shared pipeline knobs for sweep cells and CLI runs; one place to calibrate."""

    k_classes: int = 3
    n_features: int = 8
    n_per_class: int = 40
    spread: float = 5.0  # well-separated blobs keep local losses informative
    learning_rate: float = 0.1
    batch_size: int = 16
    optimizer: str = "sgd"
    local_epochs: int = 3
    rounds: int | None = None  # None: one round per node
    hidden_sizes: tuple[int, ...] = (32, 16)
    activation: str = "relu"
    rho: float = 0.3
    metric_phase: str = "post"
    metric_last_k: int = 3  # average the final rounds; single snapshots are noisier
    edgepre: EdgePreConfig = field(default_factory=EdgePreConfig)
    infergat: InferGatConfig = field(
        default_factory=lambda: InferGatConfig(epochs=1500, knn_k=5)
    )


@dataclass(frozen=True)
class SweepCell:
    """One unit of work: a fully determined experiment configuration."""

    index: int
    experiment_id: str
    topology_kind: str  # ring | star | erdos_renyi
    n_nodes: int
    er_p: float | None
    alpha: float | None  # None: IID partition
    local_epochs: int
    dp: tuple[float, float] | None  # (clip, sigma) or None
    scenario: int
    seed: int
    rounds: int | None = None


@dataclass(frozen=True)
class SweepRow:
    cell: SweepCell
    n_edges: int
    density: float
    result: EvalResult | None
    status: str

    def csv_record(self) -> list[str]:
        c, r = self.cell, self.result
        return [
            c.experiment_id,
            str(c.scenario),
            c.topology_kind,
            str(c.n_nodes),
            str(self.n_edges),
            repr(float(self.density)),
            "" if c.alpha is None else repr(float(c.alpha)),
            str(c.local_epochs),
            "" if c.dp is None else repr(float(c.dp[0])),
            "" if c.dp is None else repr(float(c.dp[1])),
            str(c.seed),
            "" if r is None else repr(float(r.f1_05)),
            "" if r is None else repr(float(r.best_f1)),
            "" if r is None else repr(float(r.best_tau)),
            "" if r is None else repr(float(r.auc)),
            "" if r is None else repr(float(r.precision)),
            "" if r is None else repr(float(r.recall)),
            self.status,
            "0",  # wall time is pinned for reproducible artifacts
        ]


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]

    def select(self, **field_equals) -> list[SweepRow]:
        out = []
        for row in self.rows:
            if all(getattr(row.cell, k) == v for k, v in field_equals.items()):
                out.append(row)
        return out

    def mean(self, attr: str, **field_equals) -> float:
        picked = [
            getattr(r.result, attr)
            for r in self.select(**field_equals)
            if r.result is not None
        ]
        if not picked:
            raise InvalidEvalSet(f"no scored rows match {field_equals}")
        return float(np.mean(picked))


def generate_topology(kind: str, n_nodes: int, er_p: float | None, seed: int) -> Topology:
    """A ring, star or Erdos-Renyi overlay; ER is drawn from (seed, kind, n_nodes)."""
    if kind == "ring":
        return gen_ring(n_nodes)
    if kind == "star":
        return gen_star(n_nodes)
    if kind == "erdos_renyi":
        if er_p is None:
            raise InvalidConfig("an Erdos-Renyi topology needs an edge probability p")
        return gen_erdos_renyi(n_nodes, er_p, seed=derive_seed(seed, "topology", kind, n_nodes))
    raise TopoleakError(f"unknown topology kind {kind!r}")


# the SweepCell fields the simulate stage reads; cells that agree on them share one log
_SIM_FIELDS = ("topology_kind", "n_nodes", "er_p", "alpha", "local_epochs", "dp", "seed", "rounds")


def _sim_key(cell: SweepCell) -> tuple:
    return tuple(getattr(cell, f) for f in _SIM_FIELDS)


def simulate(
    defaults: ExperimentDefaults, *, topology_kind: str, n_nodes: int, er_p: float | None,
    alpha: float | None, local_epochs: int, dp: tuple[float, float] | None, seed: int,
    rounds: int | None, topology: Topology | None = None, dataset: Dataset | None = None,
) -> SimulationLog:
    """Simulate stage: topology, data, partition and the federation run.

    The kind and node count key the topology, partition and simulate seeds,
    so a topology the caller passes in is labeled by a kind too. A topology
    or dataset the caller holds is used as given; the stage generates the
    others. ``alpha`` None is an IID partition; ``dp`` is (clip, sigma) or None.
    """
    if topology is None:
        topology = generate_topology(topology_kind, n_nodes, er_p, seed)
    if dataset is None:
        dataset = gen_blobs(
            defaults.k_classes,
            defaults.n_features,
            defaults.n_per_class,
            defaults.spread,
            seed=derive_seed(seed, "data"),
        )
    part_seed = derive_seed(seed, "partition", topology_kind, n_nodes)
    if alpha is None:
        plan = partition_iid(dataset, n_nodes, part_seed)
    else:
        plan = partition_dirichlet(dataset, n_nodes, alpha, part_seed)
    fed = FederationConfig(
        topology=topology,
        train=TrainConfig(
            local_epochs=local_epochs,
            learning_rate=defaults.learning_rate,
            batch_size=defaults.batch_size,
            optimizer=defaults.optimizer,
        ),
        rounds=rounds,
        dp=None if dp is None else DpConfig(dp[0], dp[1], seed=derive_seed(seed, "dp")),
        hidden_sizes=defaults.hidden_sizes,
        activation=defaults.activation,
    )
    sim_seed = derive_seed(seed, "simulate", topology_kind, n_nodes)
    return run_simulation(fed, dataset, plan, seed=sim_seed)


def knowledge_and_pairs(
    scenario: int, topology: Topology, seed: int, rho: float | None, policy: str | None = None,
) -> tuple[ScenarioKnowledge, tuple[tuple[int, int], ...], str]:
    """The attacker's knowledge for (seed, scenario), and the pairs and policy
    that score its result.

    Unless a policy is given, SC1/SC2 are scored on the pairs they hold no
    label for and the other scenarios on every pair.
    """
    knowledge = sample_knowledge(
        scenario, topology, rho=rho, seed=derive_seed(seed, "knowledge", scenario)
    )
    if policy is None:
        policy = HELD_OUT if scenario in (1, 2) else ALL_PAIRS
    if policy == HELD_OUT:
        return knowledge, held_out_pairs(topology.n_nodes, knowledge.known_pairs), policy
    return knowledge, all_pairs(topology.n_nodes), policy


def attack_log(
    scenario: int, log: SimulationLog, seed: int, defaults: ExperimentDefaults,
    policy: str | None = None,
) -> tuple[AttackResult, EvalResult]:
    """Attack stage: one scenario against a simulated log, scored.

    Knowledge and training are seeded from (seed, scenario); the scored pairs
    follow ``knowledge_and_pairs``.
    """
    knowledge, pairs, policy = knowledge_and_pairs(
        scenario, log.config.topology, seed, defaults.rho, policy
    )
    attack_seed = derive_seed(seed, "attack", scenario)
    res = run_scenario(
        knowledge,
        log,
        edgepre_cfg=dataclasses.replace(defaults.edgepre, seed=attack_seed),
        infergat_cfg=dataclasses.replace(defaults.infergat, seed=attack_seed),
        metric_phase=defaults.metric_phase,
        metric_last_k=defaults.metric_last_k,
    )
    return res, evaluate_soft(res.soft, log.adjacency, pairs, policy)


def _error_row(cell: SweepCell, exc: TopoleakError) -> SweepRow:
    return SweepRow(
        cell=cell, n_edges=0, density=0.0, result=None, status=f"error:{type(exc).__name__}"
    )


def _run_group(cells: list[SweepCell], defaults: ExperimentDefaults) -> list[SweepRow]:
    """Rows for cells sharing one simulation key, in the order given.

    The group simulates once and attacks once per distinct scenario; every
    cell with that scenario gets the row. Failures become status rows.
    """
    try:
        log = simulate(defaults, **{f: getattr(cells[0], f) for f in _SIM_FIELDS})
    except TopoleakError as exc:
        failed = _error_row(cells[0], exc)
        return [dataclasses.replace(failed, cell=c) for c in cells]
    st = stats(log.config.topology)
    by_scenario: dict[int, SweepRow] = {}
    for c in cells:
        if c.scenario in by_scenario:
            continue
        try:
            _, ev = attack_log(c.scenario, log, c.seed, defaults)
        except TopoleakError as exc:
            by_scenario[c.scenario] = _error_row(c, exc)
        else:
            by_scenario[c.scenario] = SweepRow(
                cell=c, n_edges=st.n_edges, density=st.density, result=ev, status="ok"
            )
    return [dataclasses.replace(by_scenario[c.scenario], cell=c) for c in cells]


def run_cell(cell: SweepCell, defaults: ExperimentDefaults) -> SweepRow:
    """Full pipeline for one cell; failures become status rows, not raises."""
    return _run_group([cell], defaults)[0]


def _trim_to_complete_rows(path: Path) -> set[str]:
    """Ids of the complete rows of a sweep CSV, cutting off a half-written tail.

    A row is complete when it ends in a newline and has one field per column.
    The file is truncated after the last complete row, so the next append
    starts on a line of its own.
    """
    if not path.exists():
        return set()
    blob = path.read_bytes()
    done, keep = set(), 0
    for k, line in enumerate(blob.splitlines(keepends=True)):
        fields = next(csv.reader([line.decode("utf-8", "replace")]), [])
        if not line.endswith(b"\n") or len(fields) != len(CSV_COLUMNS):
            break
        if k:  # line 0 is the header
            done.add(fields[0])
        keep += len(line)
    if keep < len(blob):
        with path.open("r+b") as fh:
            fh.truncate(keep)
    return done


def run_sweep(
    cells: list[SweepCell],
    defaults: ExperimentDefaults,
    out_csv: str | Path | None = None,
    resume: bool = False,
) -> SweepResult:
    """Execute cells in order; CSV rows appear in cell-index order, so reruns
    and resumes are byte-identical.

    Cells that share a simulation key form one group (``_run_group``), run
    when the first of its cells comes up, so each distinct simulation and
    each distinct (simulation, scenario) attack runs once, and at most one
    log is alive at a time.
    """
    done: set[str] = set()
    fh = writer = None
    if out_csv is not None:
        path = Path(out_csv)
        if resume:
            done = _trim_to_complete_rows(path)
        mode = "a" if (resume and path.exists() and path.stat().st_size) else "w"
        fh = path.open(mode, newline="")
        writer = csv.writer(fh)
        if mode == "w":
            writer.writerow(CSV_COLUMNS)

    todo = [c for c in cells if c.experiment_id not in done]
    groups: dict[tuple, list[SweepCell]] = {}
    for c in todo:
        groups.setdefault(_sim_key(c), []).append(c)
    rows: list[SweepRow] = []
    streams = {}  # group rows come back in the group's cell order
    try:
        for c in todo:
            key = _sim_key(c)
            if key not in streams:
                streams[key] = iter(_run_group(groups.pop(key), defaults))
            row = next(streams[key])
            rows.append(row)
            if writer is not None:
                writer.writerow(row.csv_record())
                fh.flush()
    finally:
        if fh is not None:
            fh.close()
    return SweepResult(rows=tuple(rows))


def _grid(points, scenarios, seeds, defaults: ExperimentDefaults) -> list[SweepCell]:
    """One cell per (point, scenario, seed), nested in that order.

    A point is an experiment id prefix and the SweepCell fields it sets; the
    others run IID, without DP, at the defaults' local epochs and rounds.
    """
    base = dict(alpha=None, local_epochs=defaults.local_epochs, dp=None, rounds=defaults.rounds)
    cells = []
    for prefix, fields in points:
        for scenario in scenarios:
            for seed in seeds:
                cells.append(SweepCell(
                    index=len(cells), experiment_id=f"{prefix}-sc{scenario}-s{seed}",
                    scenario=int(scenario), seed=int(seed), **{**base, **fields},
                ))
    return cells


def density_sweep(
    ps,
    n_nodes: int,
    scenarios,
    seeds,
    defaults: ExperimentDefaults = ExperimentDefaults(),
    out_csv=None,
    resume: bool = False,
) -> SweepResult:
    """Pipeline per (edge probability, scenario, seed) on ER topologies."""
    points = [
        (f"density-p{p:g}", dict(topology_kind="erdos_renyi", n_nodes=n_nodes, er_p=float(p)))
        for p in ps
    ]
    return run_sweep(_grid(points, scenarios, seeds, defaults), defaults, out_csv, resume)


def size_sweep(
    ns,
    p: float,
    scenarios,
    seeds,
    defaults: ExperimentDefaults = ExperimentDefaults(),
    out_csv=None,
    resume: bool = False,
) -> SweepResult:
    """Pipeline per (node count, scenario, seed); rounds track the size."""
    points = [
        (f"size-n{n}", dict(topology_kind="erdos_renyi", n_nodes=int(n), er_p=float(p),
                            rounds=int(n)))
        for n in ns
    ]
    return run_sweep(_grid(points, scenarios, seeds, defaults), defaults, out_csv, resume)


MITIGATION_VARIANTS = (
    ("epochs3", dict(local_epochs=3)),
    ("epochs10", dict(local_epochs=10)),
    ("iid", dict(alpha=None)),
    ("dirichlet01", dict(alpha=0.1)),
    ("dp_off", dict(dp=None)),
    ("dp_on", dict(dp=(1.0, 0.5))),
)


def mitigation_experiment(
    scenarios,
    seeds,
    topology_kinds=("star", "ring", "erdos_renyi"),
    n_nodes: int = 10,
    er_p: float = 0.5,
    defaults: ExperimentDefaults = ExperimentDefaults(),
    out_csv=None,
    resume: bool = False,
) -> SweepResult:
    """Paired defense runs: cells in a pair share every seed, so topology,
    data, and initialization match and only the defense knob differs."""
    points = [
        (
            f"mitigation-{variant}-{kind}",
            dict(topology_kind=kind, n_nodes=n_nodes, er_p=er_p if kind == "erdos_renyi" else None,
                 **overrides),
        )
        for variant, overrides in MITIGATION_VARIANTS
        for kind in topology_kinds
    ]
    return run_sweep(_grid(points, scenarios, seeds, defaults), defaults, out_csv, resume)
