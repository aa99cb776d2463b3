"""The three workloads. Each job is one seed's worth of work.

A workload turns the run's seed into job inputs (``job_input``), runs one job
against the program (``run``, the only timed part) and then reads back and
checks what the job wrote (``finish``). The program is called through module
attributes (``engine.run_simulation``, not a name imported from it), so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from topoleak import attacks, cli, data, engine, errors, evaluation, seeds, topology

import checks


def derive(*parts) -> int:
    """A 31-bit seed from a path of labels; the benchmark's own derivation."""
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


@dataclass
class JobResult:
    cells: int  # attack cells attempted
    ok: int  # cells whose status is ok / whose command exited 0
    evals: list[dict] = field(default_factory=list)  # EvalResult fields per scored cell
    problems: list[str] = field(default_factory=list)  # failed output checks
    fingerprint: str = ""  # sha256 of output CSV and soft-adjacency bytes

    @property
    def failed(self) -> int:
        return self.cells if self.problems else self.cells - self.ok


def _eval_dict(ev) -> dict:
    return {name: float(getattr(ev, name)) for name in checks.EVAL_FIELDS}


def _sha(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(b)
    return h.hexdigest()


class Sweep10:
    """``evaluation.mitigation_experiment`` with n=10, scenarios (1, 2), one seed."""

    name = "sweep10"
    scenarios = (1, 2)
    kinds = ("star", "ring", "erdos_renyi")
    er_p = 0.5

    def __init__(self, seed: int, n_nodes: int = 10):
        self.seed = seed
        self.n_nodes = n_nodes
        self.defaults = evaluation.ExperimentDefaults()
        self.cells_per_job = (
            len(evaluation.MITIGATION_VARIANTS) * len(self.kinds) * len(self.scenarios)
        )
        self.alphas = sorted(
            {ov["alpha"] for _, ov in evaluation.MITIGATION_VARIANTS if ov.get("alpha")}
        )
        self._accepted: list[int] = []
        self._candidate = 0
        self.skipped_seeds: list[int] = []

    def _partition_feasible(self, seed: int) -> bool:
        """Whether every Dirichlet partition of the job's cells can be drawn.

        ``partition_dirichlet`` refuses with PartitionFailed when its bounded
        redraws leave a node below K samples; such a seed is not a valid
        input for the sweep, so it is skipped. The derivation mirrors
        ``evaluation.run_cell``.
        """
        d = self.defaults
        dataset = data.gen_blobs(
            d.k_classes, d.n_features, d.n_per_class, d.spread, seed=seeds.derive_seed(seed, "data")
        )
        for kind in self.kinds:
            part_seed = seeds.derive_seed(seed, "partition", kind, self.n_nodes)
            for alpha in self.alphas:
                try:
                    data.partition_dirichlet(dataset, self.n_nodes, alpha, part_seed)
                except errors.PartitionFailed:
                    return False
        return True

    def job_input(self, k: int) -> int:
        while len(self._accepted) <= k:
            candidate = derive(self.name, self.seed, self._candidate)
            self._candidate += 1
            if self._partition_feasible(candidate):
                self._accepted.append(candidate)
            else:
                self.skipped_seeds.append(candidate)
        return self._accepted[k]

    def run(self, seed: int, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        softs = []
        run_scenario = evaluation.run_scenario

        def capture(*args, **kwargs):
            res = run_scenario(*args, **kwargs)
            softs.append(res.soft.values)
            return res

        evaluation.run_scenario = capture
        try:
            res = evaluation.mitigation_experiment(
                self.scenarios,
                (seed,),
                topology_kinds=self.kinds,
                n_nodes=self.n_nodes,
                er_p=self.er_p,
                defaults=self.defaults,
                out_csv=workdir / "sweep.csv",
            )
        finally:
            evaluation.run_scenario = run_scenario
        return res, softs

    def finish(self, raw, workdir: Path) -> JobResult:
        res, softs = raw
        rows = res.rows
        out = JobResult(cells=self.cells_per_job, ok=sum(r.status == "ok" for r in rows))
        text = (workdir / "sweep.csv").read_text()
        out.problems += checks.check_sweep_csv(
            text, evaluation.CSV_COLUMNS, [r.cell.experiment_id for r in rows]
        )
        if len(rows) != self.cells_per_job:
            out.problems.append(f"sweep returned {len(rows)} rows for {self.cells_per_job} cells")
        for i, v in enumerate(softs):
            out.problems += checks.check_soft(v, f"soft[{i}]")
        for r in rows:
            if r.result is not None:
                ev = _eval_dict(r.result)
                out.problems += checks.check_eval(ev, r.cell.experiment_id)
                out.evals.append(ev)
        out.fingerprint = _sha(text.encode(), *(np.ascontiguousarray(v).tobytes() for v in softs))
        return out


class Gat30:
    """One simulation on ER(30, 0.3), attacked by SC3 and SC4 (INFERGAT)."""

    name = "gat30"
    scenarios = (3, 4)
    er_p = 0.3

    def __init__(self, seed: int, n_nodes: int = 30, rounds: int = 30, gat_epochs: int | None = None):
        self.seed = seed
        self.n_nodes = n_nodes
        self.rounds = rounds
        self.defaults = evaluation.ExperimentDefaults()
        self.infergat = self.defaults.infergat
        if gat_epochs is not None:
            self.infergat = dataclasses.replace(self.infergat, epochs=gat_epochs)
        self.cells_per_job = len(self.scenarios)

    def job_input(self, k: int) -> int:
        return derive(self.name, self.seed, k)

    def run(self, seed: int, workdir: Path):
        d = self.defaults
        topo = topology.gen_erdos_renyi(self.n_nodes, self.er_p, seed=derive(seed, "topology"))
        dataset = data.gen_blobs(
            d.k_classes, d.n_features, d.n_per_class, d.spread, seed=derive(seed, "data")
        )
        plan = data.partition_iid(dataset, self.n_nodes, derive(seed, "partition"))
        cfg = engine.FederationConfig(
            topology=topo,
            train=engine.TrainConfig(
                local_epochs=d.local_epochs,
                learning_rate=d.learning_rate,
                batch_size=d.batch_size,
                optimizer=d.optimizer,
            ),
            rounds=self.rounds,
            hidden_sizes=d.hidden_sizes,
            activation=d.activation,
        )
        log = engine.run_simulation(cfg, dataset, plan, seed=derive(seed, "simulate"))
        pairs = evaluation.all_pairs(self.n_nodes)
        cells = []
        for sc in self.scenarios:
            knowledge = attacks.sample_knowledge(sc, topo, seed=derive(seed, "knowledge", sc))
            res = attacks.run_scenario(
                knowledge,
                log,
                infergat_cfg=dataclasses.replace(self.infergat, seed=derive(seed, "attack", sc)),
                metric_phase=d.metric_phase,
                metric_last_k=d.metric_last_k,
            )
            ev = evaluation.evaluate_soft(res.soft, log.adjacency, pairs, evaluation.ALL_PAIRS)
            cells.append((res.soft.values, ev))
        return cells

    def finish(self, cells, workdir: Path) -> JobResult:
        out = JobResult(cells=self.cells_per_job, ok=len(cells))
        for sc, (soft, ev) in zip(self.scenarios, cells):
            out.problems += checks.check_soft(soft, f"sc{sc} soft")
            evd = _eval_dict(ev)
            out.problems += checks.check_eval(evd, f"sc{sc}")
            out.evals.append(evd)
        out.fingerprint = _sha(*(np.ascontiguousarray(soft).tobytes() for soft, _ in cells))
        return out


class Cli50:
    """``topoleak simulate`` then ``attack --scenario 1`` and ``2``, in process."""

    name = "cli50"
    scenarios = (1, 2)
    er_p = 0.1  # at p=0.3 EDGEPRE is near chance on n=50 (AUC about 0.56)

    def __init__(self, seed: int, workdir: Path, n_nodes: int = 50, n_per_class: int = 200,
                 rounds: int = 50):
        self.seed = seed
        self.n_nodes = n_nodes
        self.rounds = rounds
        self.cells_per_job = len(self.scenarios)
        workdir.mkdir(parents=True, exist_ok=True)
        self.config = workdir / "cli50.ini"
        self.config.write_text(
            "[topology]\nkind = er\n"
            f"n = {n_nodes}\np = {self.er_p}\n\n"
            "[data]\nk_classes = 3\nn_features = 8\n"
            f"n_per_class = {n_per_class}\nspread = 5.0\n\n"
            "[train]\nlearning_rate = 0.1\n\n"
            f"[federation]\nrounds = {rounds}\n\n"
            "[metric]\nlast_k = 3\n"
        )

    def expected_files(self) -> int:
        """What save_log writes: 4 documents, n init snapshots, 2 per node
        per round, and the manifest."""
        return 4 + self.n_nodes + 2 * self.rounds * self.n_nodes + 1

    def job_input(self, k: int) -> int:
        return derive(self.name, self.seed, k)

    def run(self, seed: int, workdir: Path):
        log_dir = str(workdir / "log")
        common = ["--config", str(self.config), "--seed", str(seed)]
        codes = {}
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes["simulate"] = cli.main(["simulate", *common, "--out", log_dir])
            if codes["simulate"] == 0:
                for sc in self.scenarios:
                    codes[sc] = cli.main(["attack", "--log", log_dir, "--scenario", str(sc), *common])
        return codes

    def finish(self, codes, workdir: Path) -> JobResult:
        log_dir = workdir / "log"
        out = JobResult(cells=self.cells_per_job, ok=sum(codes.get(sc) == 0 for sc in self.scenarios))
        if codes["simulate"] != 0:
            out.problems.append(f"simulate exited {codes['simulate']}")
            return out
        blobs = []
        for sc in self.scenarios:
            if codes.get(sc) != 0:
                out.problems.append(f"attack sc{sc} exited {codes.get(sc)}")
                continue
            soft_csv = (log_dir / f"attack_sc{sc}.csv").read_bytes()
            doc = (log_dir / f"attack_sc{sc}.result.json").read_bytes()
            soft = np.loadtxt(io.BytesIO(soft_csv), delimiter=",", ndmin=2)
            out.problems += checks.check_soft(soft, f"sc{sc} soft")
            ev = json.loads(doc)
            out.problems += checks.check_eval(ev, f"sc{sc}")
            out.evals.append({name: float(ev[name]) for name in checks.EVAL_FIELDS})
            blobs += [soft_csv, doc]
        gap = checks.closed_form_gap(engine.load_log(log_dir))
        if not gap <= checks.CLOSED_FORM_TOL:
            out.problems.append(f"closed form differs from the loaded log by {gap:.3e}")
        out.fingerprint = _sha(*blobs)
        return out
