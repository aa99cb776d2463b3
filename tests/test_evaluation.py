"""Scoring and sweep harness tests.

The rank-based AUC is checked against a brute-force concordant-pair count,
and F1 against confusion-matrix enumeration, before any pipeline test
relies on them.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoleak import evaluation
from topoleak.attacks import SoftAdjacency, sample_knowledge
from topoleak.errors import DegenerateLabels, InvalidEvalSet
from topoleak.evaluation import (
    ALL_PAIRS,
    CSV_COLUMNS,
    EvalResult,
    ExperimentDefaults,
    SweepCell,
    all_pairs,
    auc_roc,
    density_sweep,
    evaluate_soft,
    f1_score,
    held_out_pairs,
    mitigation_experiment,
    run_cell,
    run_sweep,
    size_sweep,
)
from topoleak.attacks import EdgePreConfig, InferGatConfig
from topoleak.topology import adjacency_matrix, gen_erdos_renyi, gen_ring


# --- oracles ----------------------------------------------------------------

def oracle_auc(scores, labels):
    """Pairwise concordance count: P(s+ > s-) + 0.5 P(tie)."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def oracle_confusion(pred, truth, pairs):
    """F1/precision/recall by explicit confusion-matrix enumeration."""
    tp = sum(1 for i, j in pairs if pred[i, j] > 0 and truth[i, j] > 0)
    fp = sum(1 for i, j in pairs if pred[i, j] > 0 and truth[i, j] == 0)
    fn = sum(1 for i, j in pairs if pred[i, j] == 0 and truth[i, j] > 0)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0
    return f1, precision, recall


def random_instance(rng, n_max=7):
    n = int(rng.integers(3, n_max + 1))
    truth = (rng.random((n, n)) < 0.5).astype(int)
    truth = np.triu(truth, 1)
    truth = truth + truth.T
    pred = (rng.random((n, n)) < 0.5).astype(int)
    pred = np.triu(pred, 1)
    pred = pred + pred.T
    pairs = list(all_pairs(n))
    keep = rng.random(len(pairs)) < 0.8
    pairs = [p for p, k in zip(pairs, keep) if k] or [pairs[0]]
    return truth, pred, pairs


class TestF1:
    def test_perfect_prediction(self):
        truth = adjacency_matrix(gen_ring(5))
        f1, p, r = f1_score(truth, truth, all_pairs(5))
        assert (f1, p, r) == (1.0, 1.0, 1.0)

    def test_all_positive_five_edges_in_ten_pairs(self):
        truth = adjacency_matrix(gen_ring(5))  # 5 edges, 10 pairs
        pred = 1 - np.eye(5, dtype=int)
        f1, p, r = f1_score(pred, truth, all_pairs(5))
        assert p == 0.5
        assert r == 1.0
        assert f1 == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_all_negative_is_zero(self):
        truth = adjacency_matrix(gen_ring(5))
        f1, p, r = f1_score(np.zeros((5, 5), dtype=int), truth, all_pairs(5))
        assert (f1, p, r) == (0.0, 0.0, 0.0)

    def test_empty_pairs_rejected(self):
        truth = adjacency_matrix(gen_ring(5))
        with pytest.raises(InvalidEvalSet):
            f1_score(truth, truth, [])

    def test_diagonal_pair_rejected(self):
        truth = adjacency_matrix(gen_ring(5))
        with pytest.raises(InvalidEvalSet):
            f1_score(truth, truth, [(2, 2)])

    def test_matches_confusion_oracle(self):
        rng = np.random.default_rng(404)
        for _ in range(1000):
            truth, pred, pairs = random_instance(rng)
            got = f1_score(pred, truth, pairs)
            want = oracle_confusion(pred, truth, pairs)
            assert got == want


def oracle_evaluate(values, truth, pairs):
    """evaluate_soft's F1 fields by one confusion enumeration per threshold."""
    f1, precision, recall = oracle_confusion((values > 0.5).astype(int), truth, pairs)
    best_f1, best_tau = 0.0, 0.5
    for tau in sorted({0.0, *(float(values[i, j]) for i, j in pairs)}):
        cand = oracle_confusion((values > tau).astype(int), truth, pairs)[0]
        if cand > best_f1:
            best_f1, best_tau = cand, tau
    return f1, best_f1, best_tau, precision, recall


@st.composite
def scoring_instances(draw):
    """(values, truth, pairs): random, tie-heavy or constant scores; one- or
    two-class truth; every pair or a held-out subset."""
    n = draw(st.integers(3, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "ties", "constant"]))
    if kind == "random":
        values = rng.random((n, n))
    elif kind == "ties":
        values = rng.integers(0, 5, size=(n, n)) / 4.0  # 0, 0.25, ..., 1
    else:
        values = np.full((n, n), draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])))
    truth_kind = draw(st.sampled_from(["mixed", "empty", "complete"]))
    truth = np.triu(rng.random((n, n)) < 0.4, 1).astype(int)
    if truth_kind == "empty":
        truth[:] = 0
    elif truth_kind == "complete":
        truth = np.triu(np.ones((n, n), dtype=int), 1)
    truth = truth + truth.T
    pairs = list(all_pairs(n))
    if draw(st.booleans()):
        known = [p for p in pairs if rng.random() < 0.3]
        pairs = list(held_out_pairs(n, known)) or pairs
    return values, truth, pairs


class TestEvaluateSoftOneSort:
    @settings(max_examples=400, deadline=None)
    @given(scoring_instances())
    def test_f1_fields_equal_per_threshold_oracle(self, inst):
        values, truth, pairs = inst
        res = evaluate_soft(values, truth, pairs)
        got = (res.f1_05, res.best_f1, res.best_tau, res.precision, res.recall)
        assert got == oracle_evaluate(values, truth, pairs)

    def test_negative_zero_score_reports_positive_zero_tau(self):
        truth = adjacency_matrix(gen_ring(4))
        values = np.where(truth > 0, 0.7, -0.0)
        res = evaluate_soft(values, truth, all_pairs(4))
        assert (res.best_f1, res.best_tau) == (1.0, 0.0)
        assert str(res.best_tau) == "0.0"

    def test_one_f1_score_call_per_evaluation(self, monkeypatch):
        calls = []
        inner = evaluation.f1_score
        monkeypatch.setattr(evaluation, "f1_score", lambda *a: calls.append(1) or inner(*a))
        adj = adjacency_matrix(gen_erdos_renyi(12, 0.3, seed=0))
        evaluate_soft(np.random.default_rng(0).random((12, 12)), adj, all_pairs(12))
        assert len(calls) == 1


class TestAuc:
    def test_separated_scores(self):
        assert auc_roc([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0]) == 1.0

    def test_crossed_scores_three_quarters(self):
        # concordant: (.9>.2), (.9>.8), (.3>.2); discordant: (.3<.8)
        assert auc_roc([0.9, 0.3, 0.2, 0.8], [1, 1, 0, 0]) == 0.75

    def test_all_ties_half(self):
        assert auc_roc([0.4, 0.4, 0.4, 0.4], [1, 0, 1, 0]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabels):
            auc_roc([0.1, 0.9], [1, 1])

    def test_non_binary_labels_rejected(self):
        with pytest.raises(InvalidEvalSet):
            auc_roc([0.1, 0.9], [0, 2])

    def test_matches_concordance_oracle(self):
        rng = np.random.default_rng(405)
        checked = 0
        while checked < 1000:
            m = int(rng.integers(2, 21))
            # quantized scores force plenty of ties
            scores = rng.integers(0, 5, size=m) / 4.0
            labels = rng.integers(0, 2, size=m)
            if labels.min() == labels.max():
                continue
            got = auc_roc(scores, labels)
            assert abs(got - oracle_auc(scores, labels)) <= 1e-12
            checked += 1


class TestEvaluateSoft:
    def soft_for(self, adj, hi=0.9, lo=0.1):
        vals = np.where(adj > 0, hi, lo)
        np.fill_diagonal(vals, 0.0)
        return SoftAdjacency(vals)

    def test_separable_scores_all_fields(self):
        adj = adjacency_matrix(gen_ring(6))
        res = evaluate_soft(self.soft_for(adj), adj, all_pairs(6))
        assert res.f1_05 == 1.0
        assert res.best_f1 == 1.0
        assert res.auc == 1.0
        assert res.precision == res.recall == 1.0
        assert res.n_eval_pairs == 15
        assert res.eval_pair_policy == ALL_PAIRS
        assert not res.auc_degenerate

    def test_best_threshold_beats_default(self):
        # all scores above 0.5: the fixed threshold predicts everything,
        # the scanned threshold separates exactly
        adj = adjacency_matrix(gen_ring(6))
        res = evaluate_soft(self.soft_for(adj, hi=0.9, lo=0.6), adj, all_pairs(6))
        assert res.f1_05 < 1.0
        assert res.best_f1 == 1.0
        assert 0.6 <= res.best_tau < 0.9

    def test_degenerate_truth_flags_auc(self):
        adj = np.ones((4, 4), dtype=int) - np.eye(4, dtype=int)  # complete
        res = evaluate_soft(self.soft_for(adj), adj, all_pairs(4))
        assert res.auc == 0.5
        assert res.auc_degenerate

    def test_result_range_enforced(self):
        with pytest.raises(InvalidEvalSet):
            EvalResult(
                f1_05=1.2,
                best_f1=1.0,
                best_tau=0.5,
                auc=1.0,
                precision=1.0,
                recall=1.0,
                n_eval_pairs=3,
                eval_pair_policy=ALL_PAIRS,
            )


class TestPairPolicies:
    def test_all_pairs_count(self):
        assert len(all_pairs(10)) == 45

    def test_held_out_never_contains_known(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(5, 12))
            topo = gen_erdos_renyi(n, 0.5, seed=trial)
            k = sample_knowledge(1, topo, rho=0.3, seed=trial)
            held = held_out_pairs(n, k.known_pairs)
            known = {(i, j) for i, j, _ in k.known_pairs}
            assert not (set(held) & known)
            assert len(held) + len(known) == n * (n - 1) // 2


def tiny_defaults(**kw):
    base = dict(
        k_classes=2,
        n_features=2,
        n_per_class=10,
        spread=1.0,
        learning_rate=0.05,
        batch_size=8,
        local_epochs=1,
        rounds=2,
        hidden_sizes=(4,),
        metric_last_k=1,
        edgepre=EdgePreConfig(hidden_sizes=(8,), epochs=10),
        infergat=InferGatConfig(embed_dim=4, heads=1, epochs=3),
    )
    base.update(kw)
    return ExperimentDefaults(**base)


class TestSweeps:
    def test_density_sweep_bookkeeping(self, tmp_path):
        out = tmp_path / "density.csv"
        res = density_sweep(
            [0.4, 0.7], 6, [4], [0], defaults=tiny_defaults(), out_csv=out
        )
        assert len(res.rows) == 2
        for row in res.rows:
            assert row.status == "ok"
            assert row.cell.topology_kind == "erdos_renyi"
            # density column reflects the generated graph, not the request
            assert row.density == pytest.approx(
                2 * row.n_edges / (6 * 5), abs=1e-12
            )
        text = out.read_text().splitlines()
        assert text[0] == ",".join(CSV_COLUMNS)
        assert len(text) == 3

    def test_unsupported_scenario_becomes_status_row(self, tmp_path):
        out = tmp_path / "fail.csv"
        res = density_sweep([0.5], 6, [5], [0], defaults=tiny_defaults(), out_csv=out)
        assert len(res.rows) == 1
        assert res.rows[0].status == "error:Unsupported"
        assert res.rows[0].result is None
        line = out.read_text().splitlines()[1]
        assert "error:Unsupported" in line

    def test_resume_skips_completed_cells(self, tmp_path):
        out = tmp_path / "resume.csv"
        full = density_sweep([0.4, 0.7], 6, [4], [0], defaults=tiny_defaults(), out_csv=out)
        again = density_sweep(
            [0.4, 0.7], 6, [4], [0], defaults=tiny_defaults(), out_csv=out, resume=True
        )
        assert len(full.rows) == 2
        assert len(again.rows) == 0  # everything already present
        assert len(out.read_text().splitlines()) == 3

    def test_size_sweep_rounds_follow_size(self):
        res = size_sweep([4, 6], 0.6, [4], [0], defaults=tiny_defaults())
        assert [r.cell.rounds for r in res.rows] == [4, 6]
        assert [r.cell.n_nodes for r in res.rows] == [4, 6]
        assert all(r.status == "ok" for r in res.rows)

    def test_mitigation_pairs_share_topology(self):
        res = mitigation_experiment(
            [4], [0, 1], topology_kinds=("erdos_renyi",), n_nodes=6, er_p=0.5,
            defaults=tiny_defaults(n_per_class=40),
        )
        assert all(r.status == "ok" for r in res.rows)
        # 6 variants x 1 kind x 1 scenario x 2 seeds
        assert len(res.rows) == 12
        by_variant = {}
        for row in res.rows:
            variant = row.cell.experiment_id.split("-")[1]
            by_variant.setdefault(variant, []).append(row)
        # paired variants see identical graphs seed by seed
        for a, b in [("epochs3", "epochs10"), ("iid", "dirichlet01"), ("dp_off", "dp_on")]:
            for ra, rb in zip(by_variant[a], by_variant[b]):
                assert ra.cell.seed == rb.cell.seed
                assert ra.n_edges == rb.n_edges
        epochs = {r.cell.local_epochs for r in by_variant["epochs10"]}
        assert epochs == {10}

    def test_sweep_result_select_and_mean(self):
        res = size_sweep([4, 6], 0.6, [4], [0], defaults=tiny_defaults())
        picked = res.select(n_nodes=4)
        assert len(picked) == 1
        m = res.mean("f1_05", n_nodes=4)
        assert 0.0 <= m <= 1.0
        with pytest.raises(InvalidEvalSet):
            res.mean("f1_05", n_nodes=99)


class TestGridCells:
    """The cells each sweep family builds: ids, order and every SweepCell field."""

    @pytest.fixture(autouse=True)
    def cells_only(self, monkeypatch):
        monkeypatch.setattr(evaluation, "run_sweep", lambda cells, *rest: cells)

    def test_density(self):
        cells = density_sweep(
            [0.4, 0.75], 6, [1, 4], [0, 3], defaults=tiny_defaults(local_epochs=2, rounds=5)
        )
        # (index, id, kind, n, er_p, alpha, local_epochs, dp, scenario, seed, rounds)
        assert [dataclasses.astuple(c) for c in cells] == [
            (0, "density-p0.4-sc1-s0", "erdos_renyi", 6, 0.4, None, 2, None, 1, 0, 5),
            (1, "density-p0.4-sc1-s3", "erdos_renyi", 6, 0.4, None, 2, None, 1, 3, 5),
            (2, "density-p0.4-sc4-s0", "erdos_renyi", 6, 0.4, None, 2, None, 4, 0, 5),
            (3, "density-p0.4-sc4-s3", "erdos_renyi", 6, 0.4, None, 2, None, 4, 3, 5),
            (4, "density-p0.75-sc1-s0", "erdos_renyi", 6, 0.75, None, 2, None, 1, 0, 5),
            (5, "density-p0.75-sc1-s3", "erdos_renyi", 6, 0.75, None, 2, None, 1, 3, 5),
            (6, "density-p0.75-sc4-s0", "erdos_renyi", 6, 0.75, None, 2, None, 4, 0, 5),
            (7, "density-p0.75-sc4-s3", "erdos_renyi", 6, 0.75, None, 2, None, 4, 3, 5),
        ]

    def test_size(self):
        cells = size_sweep([4, 7], 0.6, [2], [1, 5], defaults=tiny_defaults(local_epochs=2))
        assert [dataclasses.astuple(c) for c in cells] == [
            (0, "size-n4-sc2-s1", "erdos_renyi", 4, 0.6, None, 2, None, 2, 1, 4),
            (1, "size-n4-sc2-s5", "erdos_renyi", 4, 0.6, None, 2, None, 2, 5, 4),
            (2, "size-n7-sc2-s1", "erdos_renyi", 7, 0.6, None, 2, None, 2, 1, 7),
            (3, "size-n7-sc2-s5", "erdos_renyi", 7, 0.6, None, 2, None, 2, 5, 7),
        ]

    def test_mitigation(self):
        cells = mitigation_experiment(
            [3], [2], topology_kinds=("ring", "erdos_renyi"), n_nodes=5, er_p=0.4,
            defaults=tiny_defaults(local_epochs=2, rounds=4),
        )
        dp = (1.0, 0.5)
        assert [dataclasses.astuple(c) for c in cells] == [
            (0, "mitigation-epochs3-ring-sc3-s2", "ring", 5, None, None, 3, None, 3, 2, 4),
            (1, "mitigation-epochs3-erdos_renyi-sc3-s2", "erdos_renyi", 5, 0.4, None, 3, None, 3, 2, 4),
            (2, "mitigation-epochs10-ring-sc3-s2", "ring", 5, None, None, 10, None, 3, 2, 4),
            (3, "mitigation-epochs10-erdos_renyi-sc3-s2", "erdos_renyi", 5, 0.4, None, 10, None, 3, 2, 4),
            (4, "mitigation-iid-ring-sc3-s2", "ring", 5, None, None, 2, None, 3, 2, 4),
            (5, "mitigation-iid-erdos_renyi-sc3-s2", "erdos_renyi", 5, 0.4, None, 2, None, 3, 2, 4),
            (6, "mitigation-dirichlet01-ring-sc3-s2", "ring", 5, None, 0.1, 2, None, 3, 2, 4),
            (7, "mitigation-dirichlet01-erdos_renyi-sc3-s2", "erdos_renyi", 5, 0.4, 0.1, 2, None, 3, 2, 4),
            (8, "mitigation-dp_off-ring-sc3-s2", "ring", 5, None, None, 2, None, 3, 2, 4),
            (9, "mitigation-dp_off-erdos_renyi-sc3-s2", "erdos_renyi", 5, 0.4, None, 2, None, 3, 2, 4),
            (10, "mitigation-dp_on-ring-sc3-s2", "ring", 5, None, None, 2, dp, 3, 2, 4),
            (11, "mitigation-dp_on-erdos_renyi-sc3-s2", "erdos_renyi", 5, 0.4, None, 2, dp, 3, 2, 4),
        ]


def count_simulations(monkeypatch) -> list:
    calls = []
    real = evaluation.run_simulation

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluation, "run_simulation", counting)
    return calls


def ring_cell(index, alpha=None, scenario=4, seed=0):
    return SweepCell(
        index=index,
        experiment_id=f"ring-a{alpha}-sc{scenario}-s{seed}",
        topology_kind="ring",
        n_nodes=6,
        er_p=None,
        alpha=alpha,
        local_epochs=1,
        dp=None,
        scenario=scenario,
        seed=seed,
        rounds=2,
    )


def without_cell(row):
    return [getattr(row, f.name) for f in dataclasses.fields(row) if f.name != "cell"]


class TestSweepGrouping:
    """Cells that share a simulation key simulate once and attack once per scenario."""

    def mitigation(self):
        return mitigation_experiment(
            [1, 2], [0], topology_kinds=("star", "ring"), n_nodes=6,
            defaults=tiny_defaults(n_per_class=40, local_epochs=3),
        )

    def test_one_simulation_per_key(self, monkeypatch):
        calls = count_simulations(monkeypatch)
        res = self.mitigation()
        # 6 variants x 2 kinds x 2 scenarios; epochs3, iid and dp_off are one
        # configuration, so each kind has 4 distinct simulations
        assert len(res.rows) == 24
        assert all(r.status == "ok" for r in res.rows)
        assert len(calls) == 8

    def test_duplicate_variants_share_rows(self):
        res = self.mitigation()
        by_name = {r.cell.experiment_id: r for r in res.rows}
        for kind in ("star", "ring"):
            for sc in (1, 2):
                same = [by_name[f"mitigation-{v}-{kind}-sc{sc}-s0"] for v in ("epochs3", "iid", "dp_off")]
                assert len({r.cell for r in same}) == 3
                assert without_cell(same[0]) == without_cell(same[1]) == without_cell(same[2])

    def test_rows_in_cell_order_and_equal_to_run_cell(self, tmp_path):
        d = tiny_defaults()
        cells = [ring_cell(0, scenario=2), ring_cell(1, scenario=4, seed=1), ring_cell(2, scenario=4)]
        res = run_sweep(cells, d, out_csv=tmp_path / "g.csv")
        assert [r.cell for r in res.rows] == cells
        assert list(res.rows) == [run_cell(c, d) for c in cells]

    def test_simulate_failure_fills_its_group_only(self, monkeypatch, tmp_path):
        calls = count_simulations(monkeypatch)
        cells = [ring_cell(0, 0.01, 2), ring_cell(1, 0.01, 4), ring_cell(2, None, 2), ring_cell(3, None, 4)]
        res = run_sweep(cells, tiny_defaults(), out_csv=tmp_path / "fail.csv")
        assert [r.status for r in res.rows] == ["error:PartitionFailed"] * 2 + ["ok"] * 2
        assert without_cell(res.rows[0]) == without_cell(res.rows[1])
        assert res.rows[0].n_edges == 0 and res.rows[0].result is None
        assert len(calls) == 1  # the Dirichlet group fails before simulating

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_simulation_becomes_status_rows(self, tmp_path):
        cells = [
            dataclasses.replace(ring_cell(k, scenario=sc), local_epochs=3, rounds=3)
            for k, sc in enumerate((2, 4))
        ]
        d = tiny_defaults(learning_rate=1e4, k_classes=3, n_features=8, n_per_class=40, hidden_sizes=(32, 16))
        res = run_sweep(cells, d, out_csv=tmp_path / "nan.csv")
        assert [r.status for r in res.rows] == ["error:DivergedTraining"] * 2
        assert all(r.result is None for r in res.rows)

    def test_resume_reruns_only_missing_cells_of_a_group(self, monkeypatch, tmp_path):
        cells = [ring_cell(0, scenario=2), ring_cell(1, scenario=4), ring_cell(2, scenario=3)]
        full, part = tmp_path / "full.csv", tmp_path / "part.csv"
        run_sweep(cells, tiny_defaults(), out_csv=full)
        lines = full.read_bytes().splitlines(keepends=True)
        part.write_bytes(b"".join(lines[:2]))  # header and cell 0
        calls = count_simulations(monkeypatch)
        res = run_sweep(cells, tiny_defaults(), out_csv=part, resume=True)
        assert [r.cell.index for r in res.rows] == [1, 2]
        assert len(calls) == 1
        assert part.read_bytes() == full.read_bytes()


class TestResumeAfterCrash:
    def test_half_written_row_is_rerun(self, tmp_path):
        full, cut = tmp_path / "full.csv", tmp_path / "cut.csv"
        density_sweep([0.4, 0.7], 6, [4], [0], defaults=tiny_defaults(), out_csv=full)
        blob = full.read_bytes()
        last = blob.rstrip(b"\r\n").rfind(b"\n") + 1
        cut.write_bytes(blob[: last + 30])  # the last row cut to 30 bytes
        again = density_sweep(
            [0.4, 0.7], 6, [4], [0], defaults=tiny_defaults(), out_csv=cut, resume=True
        )
        assert [r.cell.index for r in again.rows] == [1]
        assert cut.read_bytes() == blob

    def test_row_without_newline_is_rerun(self, tmp_path):
        full, cut = tmp_path / "full.csv", tmp_path / "cut.csv"
        density_sweep([0.4, 0.7], 6, [4], [0], defaults=tiny_defaults(), out_csv=full)
        blob = full.read_bytes()
        cut.write_bytes(blob[:-1])  # every field present, line ending half written
        again = density_sweep(
            [0.4, 0.7], 6, [4], [0], defaults=tiny_defaults(), out_csv=cut, resume=True
        )
        assert [r.cell.index for r in again.rows] == [1]
        assert cut.read_bytes() == blob

    def test_half_written_header_restarts_the_file(self, tmp_path):
        full, cut = tmp_path / "full.csv", tmp_path / "cut.csv"
        density_sweep([0.4], 6, [4], [0], defaults=tiny_defaults(), out_csv=full)
        cut.write_bytes(full.read_bytes()[:20])
        again = density_sweep([0.4], 6, [4], [0], defaults=tiny_defaults(), out_csv=cut, resume=True)
        assert len(again.rows) == 1
        assert cut.read_bytes() == full.read_bytes()
