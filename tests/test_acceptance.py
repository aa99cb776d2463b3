"""Acceptance gate: twelve numbered end-to-end checks over the whole toolkit.

Coverage, in order: exact topology bookkeeping, aggregation-matrix algebra,
the closed-form gossip expansion, gradient correctness, consensus decay,
metric separation, oracle recovery on planted features, desk-scale attack
quality, scenario ordering, defense directions, scoring oracles, and
byte-level determinism of the sweep harness.

Each test prints and registers exactly one line:

    criterion NN: PASS|FAIL - detail

Every threshold is pinned below.  Sub-checks that desk scale cannot honestly
reach are still asserted at their stated values and fail red here; they are
never loosened to force a green suite.
"""

import csv
import time
from itertools import product

import numpy as np
import pytest

from topoleak.attacks import (
    EdgePreConfig,
    InferGatConfig,
    _gat_init,
    _gat_loss_and_grad,
    baseline_kmeans,
    baseline_logistic,
    baseline_threshold,
    binarize,
    edgepre_infer,
    edgepre_train,
    infergat_infer,
    infergat_train_many,
    run_scenario,
    sample_knowledge,
)
from topoleak.data import gen_blobs, partition_iid
from topoleak.engine import (
    FederationConfig,
    closed_form_final,
    consensus_gap,
    run_simulation,
)
from topoleak.evaluation import (
    ExperimentDefaults,
    SweepCell,
    all_pairs,
    auc_roc,
    evaluate_soft,
    f1_score,
    held_out_pairs,
    mitigation_experiment,
    run_sweep,
)
from topoleak.metrics import (
    FeatureMatrix,
    MetricKind,
    feature_from_log,
    metric_from_log,
)
from topoleak.nn import TrainConfig, cross_entropy, init_params, loss_and_grad
from topoleak.nn import MlpArchitecture
from topoleak.seeds import derive_seed
from topoleak.topology import (
    adjacency_matrix,
    aggregation_matrix,
    gen_erdos_renyi,
    gen_ring,
    gen_star,
    load_fixture,
    second_eigenvalue_modulus,
    stats,
)

RESULTS: list[str] = []  # consumed by conftest's terminal-summary hook


def _report(num: int, checks: list[tuple[str, bool]], elapsed: float, detail: str) -> None:
    failed = [name for name, ok in checks if not ok]
    verdict = "PASS" if not failed else "FAIL"
    suffix = "" if not failed else f"; failing: {', '.join(failed)}"
    line = f"criterion {num:2d}: {verdict} - {detail}{suffix} [{elapsed:.1f}s]"
    RESULTS.append(line)
    print(line)
    assert not failed, f"criterion {num} sub-checks failed: {failed}"


# --- shared desk-scale attack grid ------------------------------------------
# Frozen protocol: 10 nodes, {star, ring, ER(0.5)} x 5 seeds, well-separated
# blobs, IID split, 3 local epochs at lr 0.1, 10 gossip rounds, features
# averaged over the last 3 rounds of post-aggregation snapshots.

GRID_N = 10
GRID_KINDS = ("star", "ring", "er")
GRID_SEEDS = tuple(range(5))
GRID_ROUNDS = 10
GRID_LAST_K = 3
GRID_RHO = 0.3
GRID_TRAIN = dict(local_epochs=3, learning_rate=0.1, batch_size=16)
GRID_GAT = dict(epochs=1500, knn_k=5)


def _grid_topology(kind: str, s: int):
    if kind == "star":
        return gen_star(GRID_N)
    if kind == "ring":
        return gen_ring(GRID_N)
    return gen_erdos_renyi(GRID_N, 0.5, seed=derive_seed(s, "topology", "er"))


@pytest.fixture(scope="module")
def grid():
    cells = {}
    for kind, s in product(GRID_KINDS, GRID_SEEDS):
        topo = _grid_topology(kind, s)
        truth = adjacency_matrix(topo)
        data = gen_blobs(3, 8, 40, 5.0, seed=derive_seed(s, "data", kind))
        plan = partition_iid(data, GRID_N, derive_seed(s, "partition", kind))
        cfg = FederationConfig(
            topology=topo, train=TrainConfig(**GRID_TRAIN), rounds=GRID_ROUNDS
        )
        log = run_simulation(cfg, data, plan, seed=derive_seed(s, "simulate", kind))
        cell = {"log": log, "truth": truth}
        for sc in (1, 2, 3, 4):
            k = sample_knowledge(sc, topo, GRID_RHO, seed=derive_seed(s, "knowledge", kind, sc))
            res = run_scenario(
                k,
                log,
                edgepre_cfg=EdgePreConfig(seed=derive_seed(s, "attack", kind, sc)),
                infergat_cfg=InferGatConfig(
                    **GRID_GAT, seed=derive_seed(s, "attack", kind, sc)
                ),
                metric_last_k=GRID_LAST_K,
            )
            if sc in (1, 2):
                pairs, policy = held_out_pairs(GRID_N, k.known_pairs), "held_out"
            else:
                pairs, policy = all_pairs(GRID_N), "all_pairs"
            cell[sc] = evaluate_soft(res.soft, truth, pairs, policy)
            if sc == 1:
                soft = baseline_logistic(res.feature, k.known_pairs)
                cell["logistic"] = evaluate_soft(soft, truth, pairs, policy)
            if sc == 4:
                km = baseline_kmeans(res.feature)
                cell["kmeans"] = evaluate_soft(km.astype(float), truth, pairs, policy)
        cells[(kind, s)] = cell
    return cells


def _grid_mean(cells, key, field="f1_05"):
    return float(np.mean([getattr(c[key], field) for c in cells.values()]))


# --- criteria ---------------------------------------------------------------


def test_criterion_01_topology_stats():
    t0 = time.perf_counter()
    ring, star, star30 = stats(gen_ring(10)), stats(gen_star(10)), stats(gen_star(30))
    abilene, geant = load_fixture("abilene"), load_fixture("geant")
    s_ab, s_ge = stats(abilene), stats(geant)
    checks = [
        ("ring10", (ring.n_edges, round(ring.avg_degree, 2), round(ring.density, 2)) == (10, 2.0, 0.22)),
        ("star10", (star.n_edges, round(star.avg_degree, 2), round(star.density, 2)) == (9, 1.8, 0.2)),
        ("star30", (star30.n_edges, round(star30.avg_degree, 2), round(star30.density, 2)) == (29, 1.93, 0.07)),
        ("abilene size", (abilene.n_nodes, s_ab.n_edges) == (12, 15)),
        ("abilene density", round(s_ab.density, 2) == 0.11),
        ("geant size", (geant.n_nodes, s_ge.n_edges) == (22, 72)),
        ("geant density", round(s_ge.density, 2) == 0.16),
    ]
    elapsed = time.perf_counter() - t0
    checks.append(("runtime<1s", elapsed < 1.0))
    # the loaded graphs report the undirected density 2E/(N(N-1)): abilene
    # 0.23 and geant 0.31, so the 0.11 / 0.16 sub-checks fail red
    _report(
        1,
        checks,
        elapsed,
        f"abilene density={s_ab.density:.2f} (stated 0.11), geant density={s_ge.density:.2f} (stated 0.16)",
    )


def test_criterion_02_aggregation_matrix_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    row_err, support_ok = 0.0, True
    for _ in range(200):
        n = int(rng.integers(2, 51))
        p = float(rng.uniform(0.3, 0.9))
        topo = gen_erdos_renyi(n, p, seed=int(rng.integers(0, 2**31)))
        a = adjacency_matrix(topo)
        agg = aggregation_matrix(a)
        row_err = max(row_err, float(np.abs(agg.sum(axis=1) - 1.0).max()))
        support_ok = support_ok and bool(((agg > 0) == ((a + np.eye(n)) > 0)).all())
    elapsed = time.perf_counter() - t0
    checks = [
        ("row-stochastic", row_err <= 1e-12),
        ("support A+I", support_ok),
        ("runtime<5s", elapsed < 5.0),
    ]
    _report(2, checks, elapsed, f"200 graphs, max row-sum error {row_err:.2e}")


def test_criterion_03_closed_form_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 11))
        rounds = int(rng.integers(1, 11))
        topo = gen_erdos_renyi(n, 0.6, seed=int(rng.integers(0, 2**31)))
        data = gen_blobs(2, 4, 12, 3.0, seed=int(rng.integers(0, 2**31)))
        plan = partition_iid(data, n, int(rng.integers(0, 2**31)))
        cfg = FederationConfig(
            topology=topo,
            train=TrainConfig(local_epochs=1, learning_rate=0.1, batch_size=8),
            rounds=rounds,
            hidden_sizes=(4,),
        )
        log = run_simulation(cfg, data, plan, seed=int(rng.integers(0, 2**31)))
        p = aggregation_matrix(log.adjacency)
        m0, deltas, post = log.params[0], log.deltas, log.params[-1]
        worst = max(worst, float(np.abs(closed_form_final(p, m0, deltas) - post).max()))
    elapsed = time.perf_counter() - t0
    checks = [("max-abs<1e-9", worst < 1e-9), ("runtime<2min", elapsed < 120.0)]
    _report(3, checks, elapsed, f"20 configs, worst deviation {worst:.2e}")


def test_criterion_04_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    step = 1e-5
    worst_mlp = 0.0
    for _ in range(25):
        arch = MlpArchitecture(
            (int(rng.integers(2, 6)), int(rng.integers(3, 8)), int(rng.integers(2, 4)))
        )
        p = init_params(arch, seed=int(rng.integers(0, 2**31)))
        x = rng.normal(size=(int(rng.integers(3, 9)), arch.layer_sizes[0]))
        y = rng.integers(0, arch.layer_sizes[-1], size=x.shape[0])
        _, grad = loss_and_grad(p, x, y)
        coords = rng.choice(p.flat.size, size=min(20, p.flat.size), replace=False)
        fd = np.zeros(len(coords))
        for i, c in enumerate(coords):
            up, down = p.flat.copy(), p.flat.copy()
            up[c] += step
            down[c] -= step
            fd[i] = (
                cross_entropy(p.with_flat(up), x, y) - cross_entropy(p.with_flat(down), x, y)
            ) / (2 * step)
        rel = np.linalg.norm(grad[coords] - fd) / max(np.linalg.norm(fd), 1e-12)
        worst_mlp = max(worst_mlp, float(rel))
    worst_gat = 0.0
    for _ in range(25):
        n = int(rng.integers(4, 8))
        cfg = InferGatConfig(embed_dim=4, heads=1, knn_k=None, seed=int(rng.integers(0, 2**31)))
        vals = rng.random((n, n))
        vals = 0.5 * (vals + vals.T)
        np.fill_diagonal(vals, 1.0)
        flat = _gat_init(n, cfg)
        _, grad = _gat_loss_and_grad(flat, vals, n, cfg)
        coords = rng.choice(flat.size, size=20, replace=False)
        fd = np.zeros(len(coords))
        for i, c in enumerate(coords):
            up, down = flat.copy(), flat.copy()
            up[c] += step
            down[c] -= step
            lu, _ = _gat_loss_and_grad(up, vals, n, cfg)
            ld, _ = _gat_loss_and_grad(down, vals, n, cfg)
            fd[i] = (lu - ld) / (2 * step)
        rel = np.linalg.norm(grad[coords] - fd) / max(np.linalg.norm(fd), 1e-12)
        worst_gat = max(worst_gat, float(rel))
    elapsed = time.perf_counter() - t0
    checks = [
        ("mlp rel<1e-4", worst_mlp < 1e-4),
        ("gat rel<1e-3", worst_gat < 1e-3),
        ("runtime<2min", elapsed < 120.0),
    ]
    _report(4, checks, elapsed, f"worst rel err: mlp {worst_mlp:.2e}, gat {worst_gat:.2e}")


def test_criterion_05_consensus_decay():
    t0 = time.perf_counter()
    data = gen_blobs(2, 4, 20, 3.0, seed=5)
    checks, notes = [], []
    for name, topo in (("ring10", gen_ring(10)), ("star10", gen_star(10))):
        plan = partition_iid(data, 10, derive_seed(5, "partition", name))
        cfg = FederationConfig(
            topology=topo,
            train=TrainConfig(local_epochs=1, learning_rate=0.0, batch_size=16),
            rounds=50,
            hidden_sizes=(8,),
        )
        log = run_simulation(cfg, data, plan, seed=derive_seed(5, "simulate", name))
        lam = second_eigenvalue_modulus(aggregation_matrix(log.adjacency))
        gap0 = consensus_gap(log.params[0])
        gaps = [consensus_gap(post) for post in log.params[1:]]
        frozen = float(np.linalg.norm(log.deltas, axis=2).max())
        monotone = all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        # +1e-12 absolute: once the gap hits the float64 floor (~1e-15) it can
        # sit a fraction of an ulp above the still-halving analytic bound
        rate_ok = all(
            g <= gap0 * (lam + 1e-6) ** t + 1e-12 for t, g in enumerate(gaps, start=1)
        )
        checks += [
            (f"{name} deltas zero", frozen == 0.0),
            (f"{name} monotone", monotone),
            (f"{name} rate bound", rate_ok),
            (f"{name} tail<1e-6*gap0", gaps[-1] < 1e-6 * gap0),
        ]
        notes.append(f"{name}: |lambda2|={lam:.4f}, gap50/gap0={gaps[-1] / gap0:.2e}")
    elapsed = time.perf_counter() - t0
    checks.append(("runtime<10s", elapsed < 10.0))
    # ring10 has |lambda2| ~ 0.8727, so 50 rounds only reach ~1e-3 of the
    # initial gap; its tail sub-check fails red while the rate bound holds
    _report(5, checks, elapsed, "; ".join(notes))


def test_criterion_06_metric_separation(grid):
    t0 = time.perf_counter()
    cos_wins = rel_wins = 0
    off = ~np.eye(GRID_N, dtype=bool)
    for s in GRID_SEEDS:
        cell = grid[("star", s)]
        edge = cell["truth"].astype(bool) & off
        non = ~cell["truth"].astype(bool) & off
        cos = feature_from_log(cell["log"], MetricKind.COSINE_SIMILARITY, last_k=GRID_LAST_K).values
        rel = metric_from_log(cell["log"], MetricKind.RELATIVE_LOSS, last_k=GRID_LAST_K)
        cos_wins += int(cos[edge].mean() > cos[non].mean())
        rel_wins += int(rel[edge].mean() < rel[non].mean())
    elapsed = time.perf_counter() - t0
    checks = [
        ("cosine edge>non 5/5", cos_wins == 5),
        ("rel-loss edge<non 5/5", rel_wins == 5),
        ("runtime<3min", elapsed < 180.0),
    ]
    _report(6, checks, elapsed, f"cosine {cos_wins}/5, relative loss {rel_wins}/5 on star10")


def test_criterion_07_oracle_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    worst = {"threshold": 1.0, "kmeans": 1.0, "edgepre": 1.0, "infergat": 1.0}
    cases = []  # (feature, truth, scored pairs) of each case, for the INFERGAT restarts
    for case in range(20):
        n = int(rng.integers(5, 21))
        topo = gen_erdos_renyi(n, 0.45, seed=int(rng.integers(0, 2**31)))
        adj = adjacency_matrix(topo)
        noise = rng.uniform(-0.02, 0.02, size=(n, n))
        v = np.where(adj > 0, 0.9, 0.1) + 0.5 * (noise + noise.T)
        np.fill_diagonal(v, 1.0)
        x = FeatureMatrix(v)
        pairs = all_pairs(n)
        worst["threshold"] = min(
            worst["threshold"], f1_score(baseline_threshold(x, 0.5), adj, pairs)[0]
        )
        worst["kmeans"] = min(
            worst["kmeans"], f1_score(baseline_kmeans(x), adj, pairs)[0]
        )
        k = sample_knowledge(1, topo, 0.3, seed=1000 + case)
        decoder = edgepre_train(x, k.known_pairs, EdgePreConfig(seed=case))
        worst["edgepre"] = min(
            worst["edgepre"],
            f1_score(binarize(edgepre_infer(decoder, x)), adj, held_out_pairs(n, k.known_pairs))[0],
        )
        cases.append((x, adj, pairs))
    # loss-gated restarts, the final loss being label-free: restart t of every
    # case still running trains in one call (cases of one n share a stack); a
    # case keeps its first restart below 5e-4, else its lowest final loss
    best, running = {}, list(range(len(cases)))
    for t in range(5):
        fits = [
            (cases[c][0], InferGatConfig(epochs=3000, knn_k=5, seed=c + 1000 * t)) for c in running
        ]
        for c, (model, losses) in zip(list(running), infergat_train_many(fits)):
            if c not in best or losses[-1] < best[c][0]:
                best[c] = (losses[-1], infergat_infer(model, cases[c][0]))
            if losses[-1] < 5e-4:
                running.remove(c)
    for c, (_, adj, pairs) in enumerate(cases):
        worst["infergat"] = min(worst["infergat"], f1_score(binarize(best[c][1]), adj, pairs)[0])
    elapsed = time.perf_counter() - t0
    checks = [(f"{name} f1=1.0", f1 == 1.0) for name, f1 in worst.items()]
    checks.append(("runtime<3min", elapsed < 180.0))
    _report(7, checks, elapsed, "worst f1: " + ", ".join(f"{k}={v:.2f}" for k, v in worst.items()))


def test_criterion_08_desk_scale_attack_quality(grid):
    t0 = time.perf_counter()
    sc1_f1 = _grid_mean(grid, 1)
    sc1_auc = _grid_mean(grid, 1, "auc")
    logistic_auc = _grid_mean(grid, "logistic", "auc")
    sc4_f1 = _grid_mean(grid, 4)
    sc4_auc = _grid_mean(grid, 4, "auc")
    kmeans_f1 = _grid_mean(grid, "kmeans")
    elapsed = time.perf_counter() - t0
    checks = [
        ("sc1 f1>=0.80", sc1_f1 >= 0.80),
        ("sc1 auc>=logistic", sc1_auc >= logistic_auc),
        ("sc4 auc>=0.65", sc4_auc >= 0.65),
        ("sc4 f1>kmeans", sc4_f1 > kmeans_f1),
        ("runtime<15min", elapsed < 900.0),
    ]
    # the pair decoder reads each pair's own relative-loss entries, but that
    # one feature, learned from 13 labeled pairs, separates edges too weakly
    # for a held-out f1 of 0.80; and the fixed 0.5 binarization of INFERGAT
    # gives 2-means' exact split a small edge on the random graphs, so those
    # two sub-checks fail red
    _report(
        8,
        checks,
        elapsed,
        f"sc1 f1={sc1_f1:.3f} auc={sc1_auc:.3f} (logistic {logistic_auc:.3f}); "
        f"sc4 f1={sc4_f1:.3f} auc={sc4_auc:.3f} (kmeans {kmeans_f1:.3f})",
    )


SC34_TOLERANCE = 0.05  # unsupervised scenarios may swap places by this much


def test_criterion_09_scenario_ordering(grid):
    t0 = time.perf_counter()
    m = {sc: _grid_mean(grid, sc) for sc in (1, 2, 3, 4)}
    elapsed = time.perf_counter() - t0
    checks = [
        ("sc1>=sc2", m[1] >= m[2]),
        ("sc3>=sc4-tol", m[3] >= m[4] - SC34_TOLERANCE),
        ("sc1>=sc4", m[1] >= m[4]),
    ]
    # both sc1 orderings fail red for the same cause as criterion 8's f1
    # floor: relative loss alone, learned from 13 labeled pairs, separates
    # held-out pairs less well than cosine does in sc2 or INFERGAT in sc4
    _report(
        9,
        checks,
        elapsed,
        "mean f1 " + " ".join(f"sc{sc}={v:.3f}" for sc, v in m.items()),
    )


# Defense suite: the canonical deterministic topologies keep the seed pairing
# exact, and the low learning rate leaves local training room to respond to
# the epoch budget, which is the knob under test.
MITIGATION_KINDS = ("star", "ring")
MITIGATION_LR = 0.025


@pytest.fixture(scope="module")
def mitigation():
    res = mitigation_experiment(
        scenarios=(1, 3, 4),
        seeds=range(5),
        topology_kinds=MITIGATION_KINDS,
        defaults=ExperimentDefaults(learning_rate=MITIGATION_LR),
    )
    table = {}
    for row in res.rows:
        if row.status != "ok":
            continue
        variant = row.cell.experiment_id.split("-")[1]
        table.setdefault((variant, row.cell.scenario), {}).setdefault(
            row.cell.seed, []
        ).append(row.result.f1_05)
    return {
        key: {s: float(np.mean(v)) for s, v in sorted(seeds.items())}
        for key, seeds in table.items()
    }


def test_criterion_10_mitigation_directions(mitigation):
    t0 = time.perf_counter()
    checks, notes = [], []
    for sc in (1, 3, 4):
        e3, e10 = mitigation[("epochs3", sc)], mitigation[("epochs10", sc)]
        wins = sum(e10[s] >= e3[s] for s in e3)
        checks.append((f"epochs sc{sc} >=4/5", wins >= 4))
        notes.append(f"epochs sc{sc} {wins}/5")
    for sc in (3, 4):
        iid = float(np.mean(list(mitigation[("iid", sc)].values())))
        skew = float(np.mean(list(mitigation[("dirichlet01", sc)].values())))
        checks.append((f"dirichlet sc{sc} lower", skew < iid))
        notes.append(f"dir sc{sc} {iid:.3f}->{skew:.3f}")
    dp_off = float(np.mean(list(mitigation[("dp_off", 1)].values())))
    dp_on = float(np.mean(list(mitigation[("dp_on", 1)].values())))
    rel_drop = (dp_off - dp_on) / dp_off if dp_off > 0 else 0.0
    checks.append(("dp sc1 drop>=10%", rel_drop >= 0.10))
    notes.append(f"dp sc1 {dp_off:.3f}->{dp_on:.3f} ({rel_drop:+.0%})")
    elapsed = time.perf_counter() - t0
    checks.append(("runtime<20min", elapsed < 1200.0))
    _report(10, checks, elapsed, "; ".join(notes))


def test_criterion_11_scoring_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_auc, f1_exact = 0.0, True
    for _ in range(1000):
        m = int(rng.integers(3, 31))
        labels = rng.integers(0, 2, size=m)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(m), 1)  # coarse grid forces ties
        pos, neg = scores[labels == 1], scores[labels == 0]
        conc = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        oracle = conc / (len(pos) * len(neg))
        worst_auc = max(worst_auc, abs(auc_roc(scores, labels) - oracle))

        n = int(rng.integers(3, 8))
        pred = rng.integers(0, 2, size=(n, n))
        pred = np.triu(pred, 1) + np.triu(pred, 1).T
        truth = rng.integers(0, 2, size=(n, n))
        truth = np.triu(truth, 1) + np.triu(truth, 1).T
        pairs = all_pairs(n)
        tp = sum(pred[i, j] and truth[i, j] for i, j in pairs)
        fp = sum(pred[i, j] and not truth[i, j] for i, j in pairs)
        fn = sum(not pred[i, j] and truth[i, j] for i, j in pairs)
        expected = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
        f1_exact = f1_exact and f1_score(pred, truth, pairs)[0] == expected
    elapsed = time.perf_counter() - t0
    checks = [
        ("auc within 1e-12", worst_auc <= 1e-12),
        ("f1 exact", f1_exact),
        ("runtime<10s", elapsed < 10.0),
    ]
    _report(11, checks, elapsed, f"1000 instances, worst auc gap {worst_auc:.1e}")


def test_criterion_12_determinism(tmp_path):
    t0 = time.perf_counter()
    kinds = ("star", "ring", "erdos_renyi")
    cells = [
        SweepCell(
            index=i,
            experiment_id=f"grid-{kind}-sc{sc}-s{s}",
            topology_kind=kind,
            n_nodes=GRID_N,
            er_p=0.5 if kind == "erdos_renyi" else None,
            alpha=None,
            local_epochs=3,
            dp=None,
            scenario=sc,
            seed=s,
        )
        for i, (kind, sc, s) in enumerate(product(kinds, (1, 2, 3, 4), GRID_SEEDS))
    ]
    a, b = tmp_path / "fresh.csv", tmp_path / "resumed.csv"
    res_a = run_sweep(cells, ExperimentDefaults(), out_csv=a)
    # run B stops with the ring groups half done and its last row half
    # written, then resumes the whole grid
    run_sweep(cells[: len(cells) // 2], ExperimentDefaults(), out_csv=b)
    blob = b.read_bytes()
    last = blob.rstrip(b"\n").rfind(b"\n") + 1
    b.write_bytes(blob[: last + (len(blob) - last) // 2])
    run_sweep(cells, ExperimentDefaults(), out_csv=b, resume=True)
    ok_a = sum(r.status == "ok" for r in res_a.rows)
    with b.open(newline="") as fh:
        ok_b = sum(r["status"] == "ok" for r in csv.DictReader(fh))
    elapsed = time.perf_counter() - t0
    checks = [
        ("byte-identical csvs", a.read_bytes() == b.read_bytes()),
        ("all cells ok", ok_a == len(cells) and ok_b == len(cells)),
    ]
    _report(12, checks, elapsed, f"{len(cells)} cells, fresh vs resumed, {ok_a}/{ok_b} ok")
