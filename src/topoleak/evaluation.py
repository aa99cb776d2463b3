"""Scoring of predicted adjacencies and the experiment sweep harness.

Scores are computed over an explicit list of node pairs so that the
supervised attacks can be measured on pairs they never saw labels for.
Sweeps run the pipeline in two stages, simulate (topology -> data ->
simulation) and attack (metric -> attack -> score), and emit plot-ready CSV
rows. Cells that share a simulation run it once. The attack stage has three
phases: prepare each simulation's scenarios (knowledge, scored pairs,
feature) and drop its log, train every attack model of the sweep at once
(the SC1/SC2 EDGEPRE decoders and the SC3/SC4 INFERGAT autoencoders),
stacked by shape and config, then run and score each scenario. The CLI runs
the same two stages, one scenario at a time, on ``ExperimentDefaults`` with
the fields its config sets replaced, so one config and one seed give one
graph, one trace, one labeled set and one result wherever they are run.
"""

from __future__ import annotations

import csv
import dataclasses
import inspect
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .attacks import (
    LABELED_FRACTION,
    SCENARIOS,
    AttackResult,
    EdgePreConfig,
    InferGatConfig,
    ScenarioKnowledge,
    SoftAdjacency,
    check_labeled_fraction,
    edgepre_train_many,
    infergat_train_many,
    run_scenario,
    sample_knowledge,
    scenario_feature,
)
from .data import Dataset, check_blobs, check_node_count, gen_blobs, partition_dirichlet, partition_iid
from .engine import DpConfig, FederationConfig, SimulationLog, rounds_run, run_simulation
from .errors import DegenerateLabels, InvalidConfig, InvalidEvalSet, TopoleakError
from .metrics import METRIC_LAST_K, METRIC_PHASE, check_last_k, check_phase
from .nn import TrainConfig
from .seeds import derive_seed
from .topology import Topology, check_generator, gen_erdos_renyi, gen_ring, gen_star, pair_index, stats

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

all_pairs = pair_index  # every unordered pair i < j, row-major


def held_out_pairs(n_nodes: int, known_pairs) -> np.ndarray:
    """``all_pairs`` minus the pairs (i < j) the attacker holds labels for."""
    known = np.zeros((n_nodes, n_nodes), dtype=bool)
    for i, j, *_ in known_pairs:
        known[i, j] = True
    pairs = pair_index(n_nodes)
    return pairs[~known[tuple(pairs.T)]]


# --- scores -----------------------------------------------------------------

def _pair_index(eval_pairs, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index arrays of a nonempty (m, 2) integer pair array
    whose indices lie in [0, n_nodes), with no diagonal pair."""
    pairs = np.asarray(eval_pairs)
    if pairs.size == 0:
        raise InvalidEvalSet("cannot score an empty pair set")
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
        raise InvalidEvalSet(f"eval pairs must be an (m, 2) integer array, got {pairs.shape}")
    if pairs.min() < 0 or pairs.max() >= n_nodes:
        raise InvalidEvalSet(f"eval pair index outside [0, {n_nodes})")
    i, j = pairs.T
    if (i == j).any():
        k = int(i[np.argmax(i == j)])
        raise InvalidEvalSet(f"diagonal pair ({k}, {k}) in eval set")
    return i, j


def f1_score(pred_edges: np.ndarray, truth: np.ndarray, eval_pairs) -> tuple[float, float, float]:
    """(f1, precision, recall) over eval_pairs, edge = positive class.

    F1 is defined as 0 when precision + recall is 0.
    """
    truth = np.asarray(truth)
    i, j = _pair_index(eval_pairs, truth.shape[0])
    p = np.asarray(pred_edges)[i, j] > 0
    t = truth[i, j] > 0
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
    i, j = _pair_index(eval_pairs, truth.shape[0])
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
        n_eval_pairs=len(i),
        eval_pair_policy=policy,
        auc_degenerate=degenerate,
    )


# --- sweep harness ----------------------------------------------------------

@dataclass(frozen=True)
class ExperimentDefaults:
    """Shared pipeline knobs for sweep cells and CLI runs, the one place each
    default is written; the model, metric read and attack configs are the
    library's own."""

    k_classes: int = 3
    n_features: int = 8
    n_per_class: int = 40
    spread: float = 5.0  # well-separated blobs keep local losses informative
    learning_rate: float = 0.1
    batch_size: int = 16
    optimizer: str = TrainConfig.optimizer
    local_epochs: int = 3
    rounds: int | None = None  # None: one round per node
    hidden_sizes: tuple[int, ...] = FederationConfig.hidden_sizes
    activation: str = FederationConfig.activation
    rho: float = LABELED_FRACTION
    metric_phase: str = METRIC_PHASE
    metric_last_k: int = METRIC_LAST_K
    edgepre: EdgePreConfig = field(default_factory=EdgePreConfig)
    infergat: InferGatConfig = field(default_factory=InferGatConfig)

    def __post_init__(self):
        check_labeled_fraction(self.rho)
        check_phase(self.metric_phase)
        check_last_k(self.metric_last_k)  # above the rounds: check_graph, and metric_from_log on a log
        # the simulate stage's own checks, run here so a bad value fails before
        # any work; no check reads the topology, which the stage makes later
        self.call(check_blobs)
        self.call(FederationConfig, topology=None, train=self.call(TrainConfig))

    def check_graph(self, kind: str, n_nodes: int, er_p: float | None, rounds: int | None) -> None:
        """What the simulate stage refuses of a graph it generates on data it
        generates (``n_per_class`` samples per class), before it draws either,
        and what the metric read refuses of the rounds it runs (``rounds``, or
        one per node if None)."""
        check_generator(kind, n_nodes, er_p)
        check_node_count(self.k_classes * self.n_per_class, self.k_classes, n_nodes)
        check_last_k(self.metric_last_k, rounds_run(rounds, n_nodes))

    def call(self, fn, **given):
        """``fn`` on the fields it takes by name (``defaults_taken_by``), ``given`` added or replacing."""
        return fn(**{**{f: getattr(self, f) for f in defaults_taken_by(fn)}, **given})


def defaults_taken_by(fn) -> tuple[str, ...]:
    """The ExperimentDefaults fields that ``fn``, a function or a config class,
    takes as arguments of the same names, in field order."""
    takes = inspect.signature(fn).parameters
    return tuple(f.name for f in dataclasses.fields(ExperimentDefaults) if f.name in takes)


# what a sweep family runs where its caller names no grid, and the node count
# the simulate stage generates where it names none: the CLI's [sweep] and
# [topology] n defaults
SWEEP_SCENARIOS = tuple(SCENARIOS)
SWEEP_SEEDS = tuple(range(5))
N_NODES = 10
ER_P = 0.5
DENSITY_PS = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
SIZE_NS = (10, 20, 30)
DP_ON = (1.0, 0.5)  # (clip, sigma) of mitigation's dp_on cells and a [dp] section's defaults


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


def generate_topology(kind: str, n_nodes: int, er_p: float | None, seed: int) -> Topology:
    """A ring, star or Erdos-Renyi overlay; ER is drawn from (seed, kind, n_nodes)."""
    check_generator(kind, n_nodes, er_p)
    if kind == "ring":
        return gen_ring(n_nodes)
    if kind == "star":
        return gen_star(n_nodes)
    return gen_erdos_renyi(n_nodes, er_p, seed=derive_seed(seed, "topology", kind, n_nodes))


# the SweepCell fields the simulate stage reads; cells that agree on them share one log
_SIM_FIELDS = ("topology_kind", "n_nodes", "er_p", "alpha", "local_epochs", "dp", "seed", "rounds")


def _sim_key(cell: SweepCell) -> tuple:
    return tuple(getattr(cell, f) for f in _SIM_FIELDS)


def simulate(
    defaults: ExperimentDefaults, *, topology_kind: str, n_nodes: int = N_NODES,
    er_p: float | None, alpha: float | None, local_epochs: int, dp: tuple[float, float] | None,
    seed: int, rounds: int | None, topology: Topology | None = None, dataset: Dataset | None = None,
) -> SimulationLog:
    """Simulate stage: topology, data, partition and the federation run.

    The kind and node count key the topology, partition and simulate seeds,
    so a topology the caller passes in is labeled by a kind too. A topology
    or dataset the caller holds is used as given; the stage generates the
    others. ``alpha`` None is an IID partition; ``dp`` is (clip, sigma) or None.
    The data, ``TrainConfig`` and ``FederationConfig`` take the defaults'
    fields of their arguments' names (``ExperimentDefaults.call``).
    """
    if topology is None:
        topology = generate_topology(topology_kind, n_nodes, er_p, seed)
    if dataset is None:
        dataset = defaults.call(gen_blobs, seed=derive_seed(seed, "data"))
    part_seed = derive_seed(seed, "partition", topology_kind, n_nodes)
    if alpha is None:
        plan = partition_iid(dataset, n_nodes, part_seed)
    else:
        plan = partition_dirichlet(dataset, n_nodes, alpha, part_seed)
    dp = None if dp is None else DpConfig(clip_norm=dp[0], noise_sigma=dp[1], seed=derive_seed(seed, "dp"))
    train = defaults.call(TrainConfig, local_epochs=local_epochs)
    fed = defaults.call(FederationConfig, topology=topology, train=train, rounds=rounds, dp=dp)
    check_last_k(defaults.metric_last_k, fed.n_rounds)  # a file's node count is known only here
    sim_seed = derive_seed(seed, "simulate", topology_kind, n_nodes)
    return run_simulation(fed, dataset, plan, seed=sim_seed)


def knowledge_and_pairs(
    scenario: int, topology: Topology, seed: int, rho: float | None
) -> tuple[ScenarioKnowledge, np.ndarray, str]:
    """The attacker's knowledge for (seed, scenario), and the pairs and policy
    that score its result: knowledge that holds labeled pairs (SC1/SC2) is
    scored on the pairs it holds no label for, and other knowledge on every pair.
    """
    knowledge = sample_knowledge(
        scenario, topology, rho=rho, seed=derive_seed(seed, "knowledge", scenario)
    )
    if knowledge.known_pairs:
        return knowledge, held_out_pairs(topology.n_nodes, knowledge.known_pairs), HELD_OUT
    return knowledge, all_pairs(topology.n_nodes), ALL_PAIRS


def _attack_configs(
    defaults: ExperimentDefaults, seed: int, scenario: int
) -> tuple[EdgePreConfig, InferGatConfig]:
    """The defaults' EDGEPRE and INFERGAT configs, seeded from (seed, scenario)."""
    s = derive_seed(seed, "attack", scenario)
    return (
        dataclasses.replace(defaults.edgepre, seed=s),
        dataclasses.replace(defaults.infergat, seed=s),
    )


@dataclass
class _Group:
    """What the attack stage keeps of one simulation once its log is dropped:
    the graph's stats, the truth its scenarios are scored on, each distinct
    scenario prepared for attack (knowledge, scored pairs, policy, feature),
    and each scenario's result or the error that stopped it."""

    seed: int
    n_edges: int = 0
    density: float = 0.0
    truth: np.ndarray | None = None
    prepared: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)


def _frameless(exc: TopoleakError) -> TopoleakError:
    """exc without the tracebacks of it and of the errors it chains, whose
    frames would hold alive what the failed stage held, such as its log."""
    e = exc
    while e is not None:
        e = e.with_traceback(None).__cause__ or e.__context__
    return exc


def _prepare(scenarios, log: SimulationLog, seed: int, defaults: ExperimentDefaults) -> _Group:
    """Phase 1 on one log: its graph's stats and truth, then each distinct
    scenario's knowledge, scored pairs (``knowledge_and_pairs``) and feature,
    or its error (``_frameless``). Nothing kept refers to the log."""
    topology = log.config.topology
    st = stats(topology)
    group = _Group(seed, st.n_edges, st.density, log.adjacency)
    for sc in dict.fromkeys(scenarios):
        try:
            knowledge, pairs, policy = knowledge_and_pairs(sc, topology, seed, defaults.rho)
            x = scenario_feature(knowledge, log, defaults.metric_phase, defaults.metric_last_k)
        except TopoleakError as exc:
            group.results[sc] = _frameless(exc)
        else:
            group.prepared[sc] = knowledge, pairs, policy, x
    return group


def _attack(groups: list[_Group], defaults: ExperimentDefaults) -> list[_Group]:
    """Phases 2 and 3 of prepared groups; returns the groups, each scored.

    Phase 2 trains every attack model of the groups: the supervised decoders
    (SC1/SC2, EDGEPRE) in one ``edgepre_train_many`` call and the attention
    autoencoders (SC3/SC4, INFERGAT) in one ``infergat_train_many`` call,
    each with one stack per input shape and config. A refused call fails the
    scenarios it held, and no others. Phase 3 hands each group's scenarios
    their features and trained models through ``run_scenario``, group by
    group, and scores them against the group's truth into its ``results``.
    Attack configs are seeded from (seed, scenario).
    """
    edgepre_fits, infergat_fits = {}, {}  # (group, scenario) -> its fit
    for g, group in enumerate(groups):
        for sc, (knowledge, _, _, x) in group.prepared.items():
            edgepre, infergat = _attack_configs(defaults, group.seed, sc)
            if SCENARIOS[sc].holds_labels:
                edgepre_fits[(g, sc)] = x, knowledge.known_pairs, edgepre
            else:
                infergat_fits[(g, sc)] = x, infergat
    trained = {}
    for fits, train_many in (
        (edgepre_fits, edgepre_train_many), (infergat_fits, infergat_train_many)
    ):
        try:
            trained.update(zip(fits, train_many(fits.values())))
        except TopoleakError as exc:
            for g, sc in fits:
                groups[g].results[sc] = exc
                del groups[g].prepared[sc]

    for g, group in enumerate(groups):
        for sc, (knowledge, pairs, policy, x) in group.prepared.items():
            try:
                res = run_scenario(knowledge, None, feature=x, decoder=trained[(g, sc)])
                group.results[sc] = res, evaluate_soft(res.soft, group.truth, pairs, policy)
            except TopoleakError as exc:
                group.results[sc] = exc
    return groups


def attack_log(
    scenario: int, log: SimulationLog, seed: int, defaults: ExperimentDefaults
) -> tuple[AttackResult, EvalResult]:
    """Attack stage: one scenario against a simulated log, scored; the
    one-scenario case of a sweep's stage, raising its error."""
    (group,) = _attack([_prepare([scenario], log, seed, defaults)], defaults)
    out = group.results[scenario]
    if isinstance(out, TopoleakError):
        raise out
    return out


def _simulated(cells: list[SweepCell], defaults: ExperimentDefaults) -> _Group:
    """Phase 1 of the cells that share a simulation key: simulate once and
    ``_prepare`` their distinct scenarios; the log is dropped on return. A
    failed simulation fails every scenario, and its graph reads as empty."""
    scenarios, seed = [c.scenario for c in cells], cells[0].seed
    try:
        log = simulate(defaults, **{f: getattr(cells[0], f) for f in _SIM_FIELDS})
    except TopoleakError as exc:
        return _Group(seed, results=dict.fromkeys(scenarios, _frameless(exc)))
    return _prepare(scenarios, log, seed, defaults)


def _row(cell: SweepCell, group: _Group) -> SweepRow:
    """The cell's row from its group's result for its scenario, or a status row
    for the error that stopped it."""
    res = group.results[cell.scenario]
    if isinstance(res, TopoleakError):
        result, status = None, f"error:{type(res).__name__}"
    else:
        result, status = res[1], "ok"
    return SweepRow(
        cell=cell, n_edges=group.n_edges, density=group.density, result=result, status=status
    )


def run_cell(cell: SweepCell, defaults: ExperimentDefaults) -> SweepRow:
    """Full pipeline for one cell, the one-cell case of ``run_sweep``;
    failures become status rows, not raises."""
    return run_sweep([cell], defaults).rows[0]


def _trim_to_complete_rows(path: Path) -> set[str]:
    """Ids of the complete rows of a sweep CSV, cutting off a half-written tail.

    A row is complete when it ends in a newline and has one field per column.
    The file is truncated after the last complete row, so the next append
    starts on a line of its own; a complete first line other than the header
    is another file, refused before anything is cut.
    """
    if not path.exists():
        return set()
    blob = path.read_bytes()
    done, keep = set(), 0
    for k, line in enumerate(blob.splitlines(keepends=True)):
        fields = next(csv.reader([line.decode("utf-8", "replace")]), [])
        if k == 0 and line.endswith(b"\n") and tuple(fields) != CSV_COLUMNS:
            raise InvalidConfig(f"cannot resume {path}: its header is not the sweep's CSV_COLUMNS")
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

    Cells that share a simulation key form one group, and the cells still to
    run go through the attack stage in three phases:

    1. each group simulates once, keeps its graph's stats and truth, and
       prepares each distinct scenario (knowledge, scored pairs, feature);
       its log is dropped before the next group simulates;
    2. every SC1/SC2 decoder of the sweep trains in one ``edgepre_train_many``
       call and every SC3/SC4 autoencoder in one ``infergat_train_many``
       call, one stack per input shape and config;
    3. each group's scenarios run and score, in the order of the groups'
       first cells; then each cell's row is written, in cell order.

    No row is written before phase 3 ends, so a sweep stopped before then
    reruns all its pending cells on resume.
    """
    done: set[str] = set()
    fh = writer = None
    rows: list[SweepRow] = []
    try:
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
        scored = dict(zip(groups, _attack([_simulated(g, defaults) for g in groups.values()], defaults)))
        for c in todo:
            row = _row(c, scored[_sim_key(c)])
            rows.append(row)
            if writer is not None:
                writer.writerow(row.csv_record())
                fh.flush()
    finally:
        if fh is not None:
            fh.close()
    return SweepResult(rows=tuple(rows))


def _grid(points, scenarios, seeds, defaults: ExperimentDefaults) -> list[SweepCell]:
    """One cell per (point, scenario, seed), nested in that order, once every
    point passes ``ExperimentDefaults.check_graph``.

    A point is an experiment id prefix and the SweepCell fields it sets; the
    others run IID, without DP, at the defaults' local epochs and rounds.
    """
    base = dict(alpha=None, local_epochs=defaults.local_epochs, dp=None, rounds=defaults.rounds)
    points = [(prefix, {**base, **fields}) for prefix, fields in points]
    for _, f in points:
        defaults.check_graph(f["topology_kind"], f["n_nodes"], f["er_p"], f["rounds"])
    cells = []
    for prefix, fields in points:
        for scenario in scenarios:
            for seed in seeds:
                cells.append(SweepCell(
                    index=len(cells), experiment_id=f"{prefix}-sc{scenario}-s{seed}",
                    scenario=int(scenario), seed=int(seed), **fields,
                ))
    return cells


def _sweep_of(cells_of):
    """The sweep that runs what the cell builder ``cells_of`` builds."""
    def sweep(*grid, defaults=ExperimentDefaults(), out_csv=None, resume=False, **named) -> SweepResult:
        """The grid's cells run by ``run_sweep``, to ``out_csv`` if given."""
        return run_sweep(cells_of(*grid, defaults=defaults, **named), defaults, out_csv, resume)
    return sweep


def density_cells(
    ps: tuple[float, ...] = DENSITY_PS, n_nodes: int = N_NODES,
    scenarios: tuple[int, ...] = SWEEP_SCENARIOS, seeds: tuple[int, ...] = SWEEP_SEEDS,
    defaults: ExperimentDefaults = ExperimentDefaults(),
) -> list[SweepCell]:
    """A cell per (edge probability, scenario, seed) on ER topologies."""
    points = [
        (f"density-p{p:g}", dict(topology_kind="erdos_renyi", n_nodes=n_nodes, er_p=float(p)))
        for p in ps
    ]
    return _grid(points, scenarios, seeds, defaults)


def size_cells(
    ns: tuple[int, ...] = SIZE_NS, p: float = ER_P,
    scenarios: tuple[int, ...] = SWEEP_SCENARIOS, seeds: tuple[int, ...] = SWEEP_SEEDS,
    defaults: ExperimentDefaults = ExperimentDefaults(),
) -> list[SweepCell]:
    """A cell per (node count, scenario, seed); rounds track the size."""
    points = [
        (f"size-n{n}", dict(topology_kind="erdos_renyi", n_nodes=int(n), er_p=float(p),
                            rounds=int(n)))
        for n in ns
    ]
    return _grid(points, scenarios, seeds, defaults)


MITIGATION_VARIANTS = (
    ("epochs3", dict(local_epochs=3)),
    ("epochs10", dict(local_epochs=10)),
    ("iid", dict(alpha=None)),
    ("dirichlet01", dict(alpha=0.1)),
    ("dp_off", dict(dp=None)),
    ("dp_on", dict(dp=DP_ON)),
)


def mitigation_cells(
    scenarios: tuple[int, ...] = SWEEP_SCENARIOS, seeds: tuple[int, ...] = SWEEP_SEEDS,
    topology_kinds=("star", "ring", "erdos_renyi"), n_nodes: int = N_NODES, er_p: float = ER_P,
    defaults: ExperimentDefaults = ExperimentDefaults(),
) -> list[SweepCell]:
    """Paired defense cells: cells in a pair share every seed, so topology,
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
    return _grid(points, scenarios, seeds, defaults)


density_sweep = _sweep_of(density_cells)
size_sweep = _sweep_of(size_cells)
mitigation_experiment = _sweep_of(mitigation_cells)
