"""Tests of the benchmark itself: span arithmetic, output checks, wrappers,
and a smoke run of each workload at its smallest size.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, outermost_in_layer, self_times  # noqa: E402

from topoleak import evaluation  # noqa: E402


# --- span arithmetic --------------------------------------------------------

def _tree():
    # 0 cli.main [0, 10]
    #   1 engine.run_simulation [1, 4]
    #     2 data.split [1.5, 2]
    #   3 attacks.run_scenario [5, 9]
    #     4 attacks.edgepre_train [5, 7]
    #     5 data.x [6.5, 8]   (overlaps its sibling; counted once)
    #   6 data.outer [9, 9.5]
    #     7 data.inner [9.1, 9.2]
    return [
        Span("cli.main", 0, None, 0.0, 10.0),
        Span("engine.run_simulation", 0, 0, 1.0, 4.0),
        Span("data.split", 0, 1, 1.5, 2.0),
        Span("attacks.run_scenario", 0, 0, 5.0, 9.0),
        Span("attacks.edgepre_train", 0, 3, 5.0, 7.0),
        Span("data.x", 0, 3, 6.5, 8.0),
        Span("data.outer", 0, 0, 9.0, 9.5),
        Span("data.inner", 0, 6, 9.1, 9.2),
    ]


def test_self_time_subtracts_the_union_of_children():
    got = self_times(_tree())
    want = [10 - 3 - 4 - 0.5, 3 - 0.5, 0.5, 4 - 3, 2, 1.5, 0.5 - 0.1, 0.1]
    assert got == pytest.approx(want)


def test_layer_time_counts_nested_spans_of_a_layer_once():
    spans = _tree()
    outer = outermost_in_layer(spans, "data")
    assert [s.name for s in outer] == ["data.split", "data.x", "data.outer"]
    assert sum(s.duration for s in outer) == pytest.approx(0.5 + 1.5 + 0.5)


def test_per_layer_metrics_are_per_job_and_self_times():
    spans = _tree()
    spans[1].attrs = {"digest": "a"}
    spans.append(Span("engine.run_simulation", 1, None, 20.0, 21.0, {"digest": "a"}))
    counts = {(0, "nn.loss_and_grad"): 30, (1, "nn.loss_and_grad"): 10}
    m = layers.per_layer_metrics(spans, counts, n_jobs=2, overhead_frac=0.01)
    assert [name for name, _ in layers.PER_LAYER] == list(m)
    assert m["engine.run_simulation.calls"] == 1.0
    assert m["engine.sim_unique_ratio"] == 0.5
    assert m["nn.loss_and_grad.calls"] == 20.0
    assert m["cli.main.self_s"] == pytest.approx(2.5 / 2)
    assert m["attacks.run_scenario.self_s"] == pytest.approx(1.0 / 2)
    assert m["data.s"] == pytest.approx(2.5 / 2)
    assert m["attacks.infergat_epoch_ms"] == 0.0


def test_benchmark_json_lists_the_metrics_the_run_prints():
    import json

    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == [name for name, _ in layers.PER_LAYER]
    assert [m["unit"] for m in doc["per_layer"]] == [unit for _, unit in layers.PER_LAYER]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


# --- output checks ----------------------------------------------------------

def test_soft_checks_pass_a_valid_matrix():
    a = np.array([[0.0, 0.3, 1.0], [0.3, 0.0, 0.2], [1.0, 0.2, 0.0]])
    assert checks.check_soft(a) == []


def test_soft_checks_fire_on_asymmetry():
    a = np.array([[0.0, 0.3], [0.4, 0.0]])
    assert any("not symmetric" in p for p in checks.check_soft(a))


def test_soft_checks_fire_on_nan():
    a = np.array([[0.0, np.nan], [np.nan, 0.0]])
    assert any("non-finite" in p for p in checks.check_soft(a))


def test_soft_checks_fire_on_range_and_shape():
    assert checks.check_soft(np.array([[0.0, 1.5], [1.5, 0.0]]))
    assert checks.check_soft(np.zeros((2, 3)))


def test_eval_checks_fire_outside_unit_interval():
    ev = dict.fromkeys(checks.EVAL_FIELDS, 0.5)
    assert checks.check_eval(ev) == []
    assert checks.check_eval({**ev, "auc": 1.2})


def test_sweep_csv_check():
    header = ",".join(evaluation.CSV_COLUMNS)
    row = ["c0"] + ["x"] * (len(evaluation.CSV_COLUMNS) - 1)
    row[evaluation.CSV_COLUMNS.index("status")] = "ok"
    good = header + "\n" + ",".join(row) + "\n"
    assert checks.check_sweep_csv(good, evaluation.CSV_COLUMNS, ["c0"]) == []
    assert checks.check_sweep_csv(good, evaluation.CSV_COLUMNS, ["c0", "c1"])
    assert checks.check_sweep_csv("a,b\n", evaluation.CSV_COLUMNS, [])
    row[evaluation.CSV_COLUMNS.index("status")] = "error:PartitionFailed"
    bad = header + "\n" + ",".join(row) + "\n"
    assert checks.check_sweep_csv(bad, evaluation.CSV_COLUMNS, ["c0"])


# --- wrappers ---------------------------------------------------------------

def _fake_modules():
    low = types.ModuleType("fake_low")

    def leaf(x):
        return x + 1

    def step(x):
        return low.leaf(x) * 2

    leaf.__module__ = step.__module__ = "fake_low"
    low.leaf, low.step = leaf, step
    high = types.ModuleType("fake_high")

    def entry(x):
        return high.step(x) + high.step(x)

    entry.__module__ = "fake_high"
    high.entry, high.step = entry, step  # a by-name import of low.step
    return low, high


def test_wrappers_replace_every_binding_and_restore_them():
    low, high = _fake_modules()
    originals = (low.leaf, low.step, high.step, high.entry)
    tracer = Tracer()
    mods = {"low": low, "high": high}
    with tracer.installed(mods, counted={"low.leaf"}, expected=("low.step", "low.gone")):
        assert high.step is low.step is not originals[1]
        assert high.entry(1) == 8  # outside a job: calls pass through, nothing recorded
        assert tracer.spans == []
        with tracer.job_scope(0):
            assert high.entry(1) == 8
    assert (low.leaf, low.step, high.step, high.entry) == originals
    assert tracer.missing == ["low.gone"]
    assert [s.name for s in tracer.spans] == ["high.entry", "low.step", "low.step"]
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert tracer.counts[(0, "low.leaf")] == 2


def test_program_wrappers_cover_every_expected_name():
    tracer = Tracer()
    with layers.install(tracer):
        assert tracer.missing == []
        assert evaluation.f1_score is not evaluation.f1_score.__wrapped__
    assert not hasattr(evaluation.f1_score, "__wrapped__")


# --- workload smoke runs at the smallest sizes ----------------------------------

def _smoke(workload, tmp_path, traced=False):
    tracer = Tracer() if traced else None
    if traced:
        with layers.install(tracer):
            first = run.run_job(workload, 0, tmp_path, tracer)
    else:
        first = run.run_job(workload, 0, tmp_path)
    again = run.run_job(workload, 0, tmp_path)
    assert first.result.problems == []
    assert first.result.failed == 0
    assert len(first.result.evals) == workload.cells_per_job
    assert first.result.fingerprint == again.result.fingerprint
    assert workload.job_input(1) != workload.job_input(0)
    return tracer


def test_smoke_sweep(tmp_path):
    wl = workloads.Sweep10(seed=3, n_nodes=5)
    tracer = _smoke(wl, tmp_path, traced=True)
    m = layers.per_layer_metrics(tracer.spans, tracer.counts, 1, 0.0)
    assert m["evaluation.run_cell.calls"] == wl.cells_per_job
    assert m["engine.sim_unique_ratio"] == pytest.approx(1 / 3)
    assert m["attacks.infergat_train.s"] == 0.0


def test_smoke_gat(tmp_path):
    wl = workloads.Gat30(seed=3, n_nodes=8, rounds=3, gat_epochs=10)
    tracer = _smoke(wl, tmp_path, traced=True)
    m = layers.per_layer_metrics(tracer.spans, tracer.counts, 1, 0.0)
    assert m["attacks.infergat_train.epochs"] == 2 * 10


def test_smoke_cli(tmp_path):
    wl = workloads.Cli50(seed=3, workdir=tmp_path, n_nodes=6, n_per_class=10, rounds=3)
    tracer = _smoke(wl, tmp_path, traced=True)
    m = layers.per_layer_metrics(tracer.spans, tracer.counts, 1, 0.0)
    assert m["engine.save_log.files"] == wl.expected_files()
    assert m["cli.main.calls"] == 3


def test_failed_job_counts_every_cell(tmp_path):
    wl = workloads.Gat30(seed=3, n_nodes=1)  # the program refuses n < 2
    job = run.run_job(wl, 0, tmp_path)
    assert job.result.failed == wl.cells_per_job
    assert "InvalidSize" in job.result.problems[0]


def test_run_refuses_without_program_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit) as exc:
        run.load_program()
    assert "no topoleak sources" in str(exc.value)
