"""Command-line behavior: schema rejection, exit codes, reproducible artifacts."""

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from topoleak import cli, evaluation
from topoleak.attacks import SCENARIOS, EdgePreConfig, InferGatConfig
from topoleak.cli import RunConfig, build_defaults, main, parse_config, resolve_seed
from topoleak.data import dump_csv, gen_blobs
from topoleak.engine import load_log
from topoleak.errors import InvalidConfig
from topoleak.evaluation import (
    ALL_PAIRS, ExperimentDefaults, SweepCell, all_pairs, evaluate_soft, run_cell,
)
from topoleak.metrics import load_matrix_csv
from topoleak.topology import adjacency_matrix, dump_topology, gen_ring, load_topology, stats

BASE_INI = """
[run]
seed = 7
out_dir = {out}

[topology]
kind = ring
n = 6

[data]
k_classes = 2
n_features = 4
n_per_class = 20

[train]
local_epochs = 1
batch_size = 8

[federation]
rounds = 3
hidden_sizes = 8

[edgepre]
epochs = 20
hidden_sizes = 8

[infergat]
epochs = 10
embed_dim = 4
heads = 1
"""


def write_ini(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def base_cfg(tmp_path):
    return write_ini(tmp_path, BASE_INI.format(out=tmp_path / "simlog"))


class TestConfigSchema:
    def test_valid_config_passes(self, base_cfg, capsys):
        assert main(["validate", base_cfg]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "[train]\nbogus = 1\n")
        assert main(["validate", cfg]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_removed_edgepre_key_rejected(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "[edgepre]\nuse_interactions = true\n")
        assert main(["validate", cfg]) == 2
        assert "use_interactions" in capsys.readouterr().err

    def test_removed_workers_key_rejected(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "[sweep]\nworkers = 2\n")
        assert main(["validate", cfg]) == 2
        assert "unknown key 'workers'" in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path):
        cfg = write_ini(tmp_path, "[mystery]\nx = 1\n")
        assert main(["validate", cfg]) == 2

    def test_bad_value_type_rejected(self, tmp_path):
        cfg = write_ini(tmp_path, "[train]\nlocal_epochs = three\n")
        assert main(["validate", cfg]) == 2

    def test_malformed_ini_rejected(self, tmp_path):
        cfg = write_ini(tmp_path, "not an ini file at all\n")
        assert main(["validate", cfg]) == 2

    def test_missing_file_rejected(self, tmp_path):
        assert main(["validate", str(tmp_path / "absent.ini")]) == 2

    def test_parse_config_typed_values(self, base_cfg):
        cfg = parse_config(base_cfg)
        assert cfg.get("run", "seed") == 7
        assert cfg.get("federation", "hidden_sizes") == (8,)
        assert cfg.get("dp", "clip_norm") is None


# every key of a config, a value for it, the ExperimentDefaults field it sets
# ("edgepre.epochs" for a field of an attack config; None for a key that sets
# no field) and what the value parses to
CONFIG_KEYS = [
    ("data", "k_classes", "4", "k_classes", 4),
    ("data", "n_features", "5", "n_features", 5),
    ("data", "n_per_class", "12", "n_per_class", 12),
    ("data", "spread", "2.5", "spread", 2.5),
    ("train", "local_epochs", "2", "local_epochs", 2),
    ("train", "learning_rate", "0.05", "learning_rate", 0.05),
    ("train", "batch_size", "8", "batch_size", 8),
    ("train", "optimizer", "adam", "optimizer", "adam"),
    ("federation", "rounds", "4", "rounds", 4),
    ("federation", "hidden_sizes", "8, 4", "hidden_sizes", (8, 4)),
    ("federation", "activation", "tanh", "activation", "tanh"),
    ("attack", "rho", "0.5", "rho", 0.5),
    ("metric", "phase", "pre", "metric_phase", "pre"),
    ("metric", "last_k", "1", "metric_last_k", 1),
    ("edgepre", "hidden_sizes", "8", "edgepre.hidden_sizes", (8,)),
    ("edgepre", "epochs", "20", "edgepre.epochs", 20),
    ("edgepre", "learning_rate", "0.05", "edgepre.learning_rate", 0.05),
    ("infergat", "embed_dim", "8", "infergat.embed_dim", 8),
    ("infergat", "heads", "4", "infergat.heads", 4),
    ("infergat", "epochs", "10", "infergat.epochs", 10),
    ("infergat", "learning_rate", "0.01", "infergat.learning_rate", 0.01),
    ("infergat", "decoder_hidden", "8, 4", "infergat.decoder_hidden", (8, 4)),
    ("infergat", "knn_k", "3", "infergat.knn_k", 3),
    ("run", "seed", "7", None, 7),
    ("run", "out_dir", "out", None, "out"),
    ("topology", "kind", "er", None, "er"),
    ("topology", "n", "12", None, 12),
    ("topology", "p", "0.25", None, 0.25),
    ("topology", "path", "g.edges", None, "g.edges"),
    ("data", "path", "blobs.csv", None, "blobs.csv"),
    ("partition", "method", "dirichlet", None, "dirichlet"),
    ("partition", "alpha", "0.1", None, 0.1),
    ("dp", "clip_norm", "2", None, 2.0),
    ("dp", "noise_sigma", "0.1", None, 0.1),
    ("sweep", "family", "size", None, "size"),
    ("sweep", "ps", "0.3, 0.6", None, (0.3, 0.6)),
    ("sweep", "ns", "4, 6", None, (4, 6)),
    ("sweep", "n", "7", None, 7),
    ("sweep", "p", "0.6", None, 0.6),
    ("sweep", "scenarios", "1, 3", None, (1, 3)),
    ("sweep", "seeds", "0, 4", None, (0, 4)),
    ("sweep", "out_csv", "grid.csv", None, "grid.csv"),
]
PIPELINE_KEYS = [k for k in CONFIG_KEYS if k[3] is not None]


class TestKeys:
    """Each key is declared once, by the field or sweep argument it sets, and
    parses as it did when SCHEMA listed every key by hand."""

    def test_schema_is_every_key(self):
        want = {(section, key) for section, key, *_ in CONFIG_KEYS}
        assert len(want) == len(CONFIG_KEYS) == 42
        assert {(section, key) for section, keys in cli.SCHEMA.items() for key in keys} == want

    @pytest.mark.parametrize(
        "section, key, raw, value", [(s, k, r, v) for s, k, r, _, v in CONFIG_KEYS],
        ids=[f"{s}.{k}" for s, k, *_ in CONFIG_KEYS],
    )
    def test_each_key_parses_as_before(self, tmp_path, section, key, raw, value):
        got = parse_config(write_ini(tmp_path, f"[{section}]\n{key} = {raw}\n")).get(section, key)
        assert repr(got) == repr(value)
        if isinstance(value, int):  # an int key takes integers only
            with pytest.raises(InvalidConfig, match=f"bad value for \\[{section}\\] {key}"):
                parse_config(write_ini(tmp_path, f"[{section}]\n{key} = 1.5\n"))

    @pytest.mark.parametrize("section, key", [("federation", "rounds"), ("infergat", "knn_k")])
    def test_none_is_not_a_value(self, tmp_path, capsys, section, key):
        # the field takes None in the library; a config sets an integer or leaves the key out
        assert main(["validate", write_ini(tmp_path, f"[{section}]\n{key} = none\n")]) == 2
        assert f"bad value for [{section}] {key}: 'none'" in capsys.readouterr().err

    def test_families_that_disagree_on_a_key_fail_the_import(self, monkeypatch):
        def other(n: float = 0.5, seeds: tuple[int, ...] = ()):
            return evaluation.SweepResult(rows=())

        monkeypatch.setitem(cli.SWEEP_FAMILIES, "other", (other, dict(n="n", seeds="seeds")))
        with pytest.raises(TypeError, match=r"\[sweep\] n is <class 'int'> in one family, <class 'float'>"):
            cli._grid_keys()
        monkeypatch.setitem(cli.SWEEP_FAMILIES, "other", (other, dict(seeds="seeds")))
        assert cli._grid_keys().keys() == cli.SCHEMA["sweep"].keys() - {"family", "out_csv"}

    def test_every_field_is_a_key(self):
        # a field added to ExperimentDefaults or an attack config is a key, or this fails
        attack = {"edgepre": EdgePreConfig, "infergat": InferGatConfig}
        pipeline = [f for s, keys in cli.FIELD_KEYS.items() if s not in attack
                    for f, _ in keys.values()]
        assert sorted(pipeline) == sorted(
            f.name for f in dataclasses.fields(ExperimentDefaults) if f.name not in attack
        )
        for section, cls in attack.items():
            assert [f for f, _ in cli.FIELD_KEYS[section].values()] == [
                f.name for f in dataclasses.fields(cls) if f.name != "seed"
            ]


def with_field(defaults, path, value):
    """``defaults`` with the field at ``path`` ("name" or "config.name") set to ``value``."""
    name, _, sub = path.partition(".")
    if sub:
        value = dataclasses.replace(getattr(defaults, name), **{sub: value})
    return dataclasses.replace(defaults, **{name: value})


class TestDefaults:
    """A config replaces the ExperimentDefaults fields it sets and no others."""

    def test_empty_config_is_the_library_defaults(self, tmp_path):
        assert build_defaults(RunConfig({})) == ExperimentDefaults()
        assert build_defaults(parse_config(write_ini(tmp_path, ""))) == ExperimentDefaults()
        # [data] path names a dataset file, not a setting
        cfg = parse_config(write_ini(tmp_path, "[data]\npath = blobs.csv\n"))
        assert build_defaults(cfg) == ExperimentDefaults()
        # and the pipeline's attack configs are the library's own
        assert ExperimentDefaults().edgepre == EdgePreConfig()
        assert ExperimentDefaults().infergat == InferGatConfig()

    @pytest.mark.parametrize(
        "section, key, raw, path, value", PIPELINE_KEYS,
        ids=[f"{s}.{k}" for s, k, *_ in PIPELINE_KEYS],
    )
    def test_each_key_sets_its_own_field(self, tmp_path, section, key, raw, path, value):
        want = with_field(ExperimentDefaults(), path, value)
        assert want != ExperimentDefaults()
        cfg = parse_config(write_ini(tmp_path, f"[{section}]\n{key} = {raw}\n"))
        assert build_defaults(cfg) == want

    def test_partial_attack_sections_keep_the_library_values(self, tmp_path):
        cfg = parse_config(write_ini(tmp_path, "[infergat]\nepochs = 10\n[edgepre]\nepochs = 20\n"))
        got, lib = build_defaults(cfg), ExperimentDefaults()
        assert got.infergat == dataclasses.replace(lib.infergat, epochs=10)
        assert got.infergat.knn_k == 5
        assert got.edgepre == dataclasses.replace(lib.edgepre, epochs=20)
        assert got == dataclasses.replace(lib, infergat=got.infergat, edgepre=got.edgepre)


class TestNonPipelineDefaults:
    """The [dp] and [topology] n defaults are the library's, not the CLI's."""

    def test_bare_dp_section_is_the_mitigation_dp_on(self, tmp_path):
        dp_on = dict(evaluation.MITIGATION_VARIANTS)["dp_on"]["dp"]
        assert dp_on == evaluation.DP_ON
        assert cli._dp(parse_config(write_ini(tmp_path, "[dp]\n"))) == dp_on
        assert cli._dp(RunConfig({"dp": {"noise_sigma": 0.1}})) == (dp_on[0], 0.1)

    def test_simulate_without_topology_n_passes_none(self, tmp_path, monkeypatch):
        # TestOneSeedPath covers a config that sets n
        calls, real = [], cli.simulate
        monkeypatch.setattr(cli, "simulate", lambda *a, **kw: calls.append(kw) or real(*a, **kw))
        text = "[topology]\nkind = ring\n[federation]\nrounds = 1\n[metric]\nlast_k = 1\n"
        cfg = write_ini(tmp_path, text)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "log")]) == 0
        (kwargs,) = calls
        assert "n_nodes" not in kwargs
        assert load_log(tmp_path / "log").n_nodes == evaluation.N_NODES


class TestSeedPrecedence:
    def test_config_seed_is_fallback(self, base_cfg):
        assert resolve_seed(None, parse_config(base_cfg)) == 7

    def test_env_beats_config(self, base_cfg, monkeypatch):
        monkeypatch.setenv("TOPOLEAK_SEED", "11")
        assert resolve_seed(None, parse_config(base_cfg)) == 11

    def test_flag_beats_env(self, base_cfg, monkeypatch):
        monkeypatch.setenv("TOPOLEAK_SEED", "11")
        assert resolve_seed(13, parse_config(base_cfg)) == 13

    def test_non_integer_env_rejected(self, monkeypatch):
        monkeypatch.setenv("TOPOLEAK_SEED", "lucky")
        with pytest.raises(InvalidConfig):
            resolve_seed(None, None)


class TestGenTopology:
    def test_writes_edges_and_stats(self, tmp_path, capsys):
        out = tmp_path / "ring10.edges"
        assert main(["gen-topology", "--kind", "ring", "--n", "10", "--out", str(out)]) == 0
        assert out.exists()
        doc = json.loads(out.with_suffix(".stats.json").read_text())
        assert doc["n_edges"] == 10
        assert doc["avg_degree"] == pytest.approx(2.0)
        assert "n_edges=10" in capsys.readouterr().out

    def test_lambda2_is_the_stats_modulus(self, tmp_path, capsys):
        out = tmp_path / "er12.edges"
        assert main(["gen-topology", "--kind", "er", "--n", "12", "--p", "0.4",
                     "--seed", "3", "--out", str(out)]) == 0
        st = stats(load_topology(out.read_text()))
        doc = json.loads(out.with_suffix(".stats.json").read_text())
        assert doc["lambda2"] == st.second_eigenvalue_modulus
        assert f"lambda2={st.second_eigenvalue_modulus:.4f}" in capsys.readouterr().out

    def test_er_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        for out in (a, b):
            args = ["gen-topology", "--kind", "er", "--n", "20", "--p", "0.5",
                    "--seed", "7", "--out", str(out)]
            assert main(args) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_equals_seed_flag(self, tmp_path, monkeypatch):
        flag, env = tmp_path / "flag.edges", tmp_path / "env.edges"
        args = ["gen-topology", "--kind", "er", "--n", "8", "--p", "0.4"]
        monkeypatch.delenv("TOPOLEAK_SEED", raising=False)
        assert main(args + ["--seed", "5", "--out", str(flag)]) == 0
        monkeypatch.setenv("TOPOLEAK_SEED", "5")
        assert main(args + ["--out", str(env)]) == 0
        assert env.read_bytes() == flag.read_bytes()

    def test_ring_too_small_is_config_error(self, tmp_path):
        out = tmp_path / "tiny.edges"
        assert main(["gen-topology", "--kind", "ring", "--n", "2", "--out", str(out)]) == 2
        assert not out.exists()

    def test_er_requires_p(self, tmp_path):
        out = tmp_path / "er.edges"
        assert main(["gen-topology", "--kind", "er", "--n", "5", "--out", str(out)]) == 2

    @pytest.mark.parametrize("kind", ["ring", "star"])
    def test_p_is_refused_as_topology_p_is(self, tmp_path, capsys, kind):
        out = tmp_path / "g.edges"
        assert main(["gen-topology", "--kind", kind, "--n", "5", "--p", "0.3", "--out", str(out)]) == 2
        assert not out.exists()
        assert f"[topology] kind={kind} does not read p" in capsys.readouterr().err


class TestSimulate:
    def test_writes_log_and_reruns_identically(self, tmp_path, base_cfg, capsys):
        assert main(["simulate", "--config", base_cfg]) == 0
        log_a = tmp_path / "simlog"
        assert capsys.readouterr().out.endswith(f"-> {log_a}\n")
        assert main(["simulate", "--config", base_cfg, "--out", str(tmp_path / "again")]) == 0
        names = sorted(p.name for p in log_a.iterdir())
        assert names == sorted(p.name for p in (tmp_path / "again").iterdir())
        assert len(names) == 6
        for name in names:
            assert (log_a / name).read_bytes() == (tmp_path / "again" / name).read_bytes()

    def test_seed_changes_artifacts(self, tmp_path, base_cfg):
        assert main(["simulate", "--config", base_cfg]) == 0
        assert main(["simulate", "--config", base_cfg, "--seed", "99",
                     "--out", str(tmp_path / "other")]) == 0
        a = (tmp_path / "simlog" / "dataset.csv").read_bytes()
        b = (tmp_path / "other" / "dataset.csv").read_bytes()
        assert a != b

    def test_missing_dataset_path_is_config_error(self, tmp_path):
        cfg = write_ini(
            tmp_path,
            "[run]\nout_dir = {}\n[topology]\nkind = ring\nn = 4\n"
            "[data]\npath = {}\n".format(tmp_path / "log", tmp_path / "absent.csv"),
        )
        assert main(["simulate", "--config", cfg]) == 2

    def test_non_finite_dataset_field_is_config_error(self, tmp_path, capsys):
        rows = [f"{i % 3}.5,{i},{i % 2}" for i in range(12)]
        rows[4] = "nan,4,0"
        csv = tmp_path / "dataset.csv"
        csv.write_text("\n".join(["f0,f1,label"] + rows) + "\n")
        cfg = write_ini(
            tmp_path,
            "[run]\nout_dir = {}\n[topology]\nkind = ring\nn = 4\n"
            "[data]\npath = {}\n".format(tmp_path / "log", csv),
        )
        assert main(["simulate", "--config", cfg]) == 2
        assert "line 6: non-finite field" in capsys.readouterr().err
        assert not (tmp_path / "log").exists()

    def test_file_topology_and_dataset_path_are_kept(self, tmp_path):
        edges, csv = tmp_path / "er7.edges", tmp_path / "data.csv"
        assert main(["gen-topology", "--kind", "er", "--n", "7", "--p", "0.4", "--seed", "3",
                     "--out", str(edges)]) == 0
        csv.write_text(dump_csv(gen_blobs(2, 3, 21, 1.0, seed=4)))
        cfg = write_ini(
            tmp_path,
            "[topology]\nkind = file\npath = {}\n[data]\npath = {}\n"
            "[federation]\nrounds = 2\nhidden_sizes = 4\n[metric]\nlast_k = 2\n".format(edges, csv),
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "log")]) == 0
        assert (tmp_path / "log" / "topology.edges").read_bytes() == edges.read_bytes()
        assert (tmp_path / "log" / "dataset.csv").read_bytes() == csv.read_bytes()

    def test_out_dir_required(self, tmp_path):
        cfg = write_ini(tmp_path, "[topology]\nkind = ring\nn = 4\n")
        assert main(["simulate", "--config", cfg]) == 2

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("heads = 1", "heads = 0", "heads must be >= 1"),
            ("embed_dim = 4", "embed_dim = 0", "embed_dim must be >= 1, got 0"),
            ("embed_dim = 4", "embed_dim = -2", "embed_dim must be >= 1, got -2"),
            ("heads = 1", "heads = 1\ndecoder_hidden =", "decoder_hidden must be one or more"),
            ("20\nhidden_sizes = 8", "20\nhidden_sizes = 0", "hidden_sizes must be one or more"),
            ("20\nhidden_sizes = 8", "20\nhidden_sizes =", "sizes >= 1, got ()"),
            ("20\nhidden_sizes = 8", "20\nhidden_sizes = -3, 4", "sizes >= 1, got (-3, 4)"),
            ("epochs = 20", "epochs = 0", "epochs must be >= 1, got 0"),
            ("epochs = 10", "epochs = 0", "epochs must be >= 1, got 0"),
        ],
        ids=["heads_0", "embed_0", "embed_neg", "gat_no_hidden", "edgepre_0", "edgepre_none",
             "edgepre_neg", "edgepre_epochs_0", "gat_epochs_0"],
    )
    def test_invalid_attack_section_is_config_error(self, tmp_path, capsys, old, new, message):
        text = BASE_INI.format(out=tmp_path / "simlog")
        assert text.count(old) == 1
        cfg = write_ini(tmp_path, text.replace(old, new))
        assert main(["validate", cfg]) == 2
        assert main(["simulate", "--config", cfg]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "simlog").exists()


SIM_INI = """
[topology]
kind = {kind}
n = 7
{p}

[data]
k_classes = 2
n_features = 4
n_per_class = 14
spread = 5.0

[train]
local_epochs = 2
learning_rate = 0.1
batch_size = 8

[federation]
rounds = 3
hidden_sizes = 8
{extra}"""


def sim_ini(kind, extra=""):
    """SIM_INI for a generated topology of ``kind``; only er reads p."""
    return SIM_INI.format(kind=kind, p="p = 0.5" if kind == "er" else "", extra=extra)


# the simulate-stage knobs SIM_INI spells out; the attack knobs only keep run_cell quick
SIM_DEFAULTS = ExperimentDefaults(
    k_classes=2, n_features=4, n_per_class=14, spread=5.0, learning_rate=0.1, batch_size=8,
    local_epochs=2, rounds=3, hidden_sizes=(8,), edgepre=EdgePreConfig(hidden_sizes=(4,), epochs=5),
)


class TestOneSeedPath:
    """One config and one seed give the sweep's graph, trace and labeled set."""

    @pytest.mark.parametrize(
        "kind, extra, cell_fields",
        [
            ("er", "", dict(topology_kind="erdos_renyi", er_p=0.5, alpha=None, dp=None)),
            ("ring", "", dict(topology_kind="ring", er_p=None, alpha=None, dp=None)),
            ("star", "[partition]\nmethod = dirichlet\nalpha = 1.0\n"
                     "[dp]\nclip_norm = 2.0\nnoise_sigma = 0.1\n",
             dict(topology_kind="star", er_p=None, alpha=1.0, dp=(2.0, 0.1))),
        ],
        ids=["er", "ring", "dirichlet_dp"],
    )
    def test_simulate_writes_the_sweep_cells_trace(self, tmp_path, monkeypatch, kind, extra,
                                                   cell_fields):
        cfg = write_ini(tmp_path, sim_ini(kind, extra))
        assert main(["simulate", "--config", cfg, "--seed", "5", "--out", str(tmp_path / "log")]) == 0

        logs = []
        real = evaluation.run_simulation

        def capture(*args, **kwargs):
            logs.append(real(*args, **kwargs))
            return logs[-1]

        monkeypatch.setattr(evaluation, "run_simulation", capture)
        cell = SweepCell(index=0, experiment_id="cell", n_nodes=7, local_epochs=2, scenario=2,
                         seed=5, rounds=3, **cell_fields)
        assert run_cell(cell, SIM_DEFAULTS).status == "ok"
        (log,) = logs
        for name, arr in (("params", log.params), ("deltas", log.deltas)):
            assert np.load(tmp_path / "log" / f"{name}.npy").tobytes() == arr.tobytes(), name

    def test_gen_topology_draws_the_simulated_graph(self, tmp_path):
        edges = tmp_path / "er7.edges"
        assert main(["gen-topology", "--kind", "er", "--n", "7", "--p", "0.5", "--seed", "5",
                     "--out", str(edges)]) == 0
        cfg = write_ini(tmp_path, sim_ini("er"))
        assert main(["simulate", "--config", cfg, "--seed", "5", "--out", str(tmp_path / "log")]) == 0
        assert (tmp_path / "log" / "topology.edges").read_bytes() == edges.read_bytes()


@pytest.fixture
def sim_log(tmp_path, base_cfg):
    assert main(["simulate", "--config", base_cfg]) == 0
    return str(tmp_path / "simlog")


class TestAttack:
    def test_scenario1_writes_soft_and_result(self, sim_log, base_cfg, capsys):
        assert main(["attack", "--log", sim_log, "--scenario", "1",
                     "--config", base_cfg]) == 0
        doc = json.loads(Path(sim_log, "attack_sc1.result.json").read_text())
        assert doc["scenario"] == 1
        assert doc["eval_pair_policy"] == "held_out"
        # n=6: 15 pairs, floor(0.3 * 15) = 4 labeled, 11 held out
        assert doc["n_eval_pairs"] == 11
        assert Path(sim_log, "attack_sc1.csv").exists()
        assert "scenario=1" in capsys.readouterr().out

    def test_labeled_frac_flag_beats_config(self, sim_log, base_cfg):
        assert main(["attack", "--log", sim_log, "--scenario", "1", "--config", base_cfg,
                     "--labeled-frac", "0.6"]) == 0
        doc = json.loads(Path(sim_log, "attack_sc1.result.json").read_text())
        assert doc["labeled_fraction"] == 0.6
        assert doc["n_eval_pairs"] == 6  # floor(0.6 * 15) = 9 labeled

    @pytest.mark.parametrize("scenario", ["3", "4"])
    def test_labeled_frac_is_refused_where_no_labels_are_held(
        self, sim_log, base_cfg, tmp_path, capsys, scenario
    ):
        # refused before the log is read; an absent log would exit 3
        for log in (str(tmp_path / "absent"), sim_log):
            assert main(["attack", "--log", log, "--scenario", scenario, "--config", base_cfg,
                         "--labeled-frac", "0.5"]) == 2
            assert f"--labeled-frac: SC{scenario} holds no labeled pairs" in capsys.readouterr().err
        assert not list(Path(sim_log).glob("attack_sc*"))
        # one config serves every command, so its [attack] rho is not refused
        cfg = write_ini(tmp_path, Path(base_cfg).read_text() + "[attack]\nrho = 0.5\n", "rho.ini")
        assert main(["attack", "--log", sim_log, "--scenario", scenario, "--config", cfg]) == 0
        doc = json.loads(Path(sim_log, f"attack_sc{scenario}.result.json").read_text())
        assert doc["labeled_fraction"] is None

    def test_scenario4_uses_all_pairs(self, sim_log, base_cfg):
        assert main(["attack", "--log", sim_log, "--scenario", "4",
                     "--config", base_cfg]) == 0
        doc = json.loads(Path(sim_log, "attack_sc4.result.json").read_text())
        assert doc["eval_pair_policy"] == "all_pairs"
        assert doc["n_eval_pairs"] == 15
        assert doc["labeled_fraction"] is None  # SC4 holds no labeled pairs

    def test_scenario5_is_a_usage_error(self, sim_log, base_cfg):
        with pytest.raises(SystemExit) as info:
            main(["attack", "--log", sim_log, "--scenario", "5", "--config", base_cfg])
        assert info.value.code == 2

    def test_missing_log_is_runtime_error(self, tmp_path):
        assert main(["attack", "--log", str(tmp_path / "absent"), "--scenario", "4"]) == 3

    def test_unknown_eval_policy_rejected_before_the_log_is_read(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "[eval]\npolicy = sometimes\n")
        assert main(["attack", "--log", str(tmp_path / "absent"), "--scenario", "4",
                     "--config", cfg]) == 2
        assert "unknown config section [eval]" in capsys.readouterr().err

    @pytest.mark.parametrize("knn_k", ["0", "-1"])
    def test_knn_k_below_one_rejected_before_the_log_is_read(self, tmp_path, capsys, knn_k):
        cfg = write_ini(tmp_path, f"[infergat]\nknn_k = {knn_k}\n")
        assert main(["attack", "--log", str(tmp_path / "absent"), "--scenario", "4",
                     "--config", cfg]) == 2
        assert f"knn_k must be >= 1, got {knn_k}" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["edgepre", "infergat"])
    @pytest.mark.parametrize("rate", ["nan", "inf", "0", "-1"])
    def test_bad_attack_learning_rate_rejected_before_the_log_is_read(
        self, tmp_path, capsys, section, rate
    ):
        cfg = write_ini(tmp_path, f"[{section}]\nlearning_rate = {rate}\n")
        assert main(["attack", "--log", str(tmp_path / "absent"), "--scenario", "4",
                     "--config", cfg]) == 2
        assert "learning_rate must be finite and > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario", ["1", "4"])
    def test_no_config_equals_empty_config(self, sim_log, tmp_path, scenario):
        empty = write_ini(tmp_path, "", name="empty.ini")
        bare, with_empty = tmp_path / "bare", tmp_path / "with_empty"
        assert main(["attack", "--log", sim_log, "--scenario", scenario,
                     "--out", str(bare)]) == 0
        assert main(["attack", "--log", sim_log, "--scenario", scenario,
                     "--config", empty, "--out", str(with_empty)]) == 0
        for name in (f"attack_sc{scenario}.csv", f"attack_sc{scenario}.result.json"):
            assert (bare / name).read_bytes() == (with_empty / name).read_bytes()

    @pytest.mark.parametrize("scenario", [1, 3])
    def test_no_config_is_the_library_pipeline(self, sim_log, tmp_path, scenario):
        out = tmp_path / "bare"
        assert main(["attack", "--log", sim_log, "--scenario", str(scenario), "--seed", "4",
                     "--out", str(out)]) == 0
        res, _ = evaluation.attack_log(scenario, load_log(sim_log), 4, ExperimentDefaults())
        soft = load_matrix_csv((out / f"attack_sc{scenario}.csv").read_text())
        assert soft.tobytes() == res.soft.values.tobytes()

    def test_attack_reads_only_the_rounds_it_scores(self, tmp_path):
        # the metric read is the last 3 post-aggregation rounds of 6: NaN in params rounds
        # 0..3 and in every delta leaves each scenario's CSV and JSON byte for byte
        text = BASE_INI.format(out=tmp_path / "simlog").replace("rounds = 3", "rounds = 6")
        cfg, log = write_ini(tmp_path, text), tmp_path / "simlog"
        assert main(["simulate", "--config", cfg]) == 0

        def outputs(out):
            for sc in SCENARIOS:
                assert main(["attack", "--log", str(log), "--scenario", str(sc), "--config", cfg,
                             "--out", str(out)]) == 0
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        before = outputs(tmp_path / "before")
        for name, rows in (("params.npy", 4), ("deltas.npy", 6)):
            path, arr = log / name, np.load(log / name)
            raw, header = path.read_bytes(), path.stat().st_size - arr.nbytes
            nan = np.full((rows, *arr.shape[1:]), np.nan).tobytes()
            path.write_bytes(raw[:header] + nan + raw[header + len(nan):])
        assert np.isnan(np.load(log / "params.npy")[:4]).all()
        assert np.isnan(np.load(log / "deltas.npy")).all()
        assert len(before) == 8 and outputs(tmp_path / "after") == before

    def test_truncated_snapshot_is_runtime_error(self, sim_log, base_cfg, capsys):
        arr = Path(sim_log, "deltas.npy")
        arr.write_bytes(arr.read_bytes()[:-5])
        assert main(["attack", "--log", sim_log, "--scenario", "4",
                     "--config", base_cfg]) == 3
        assert "deltas.npy is not a complete .npy array" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["shape", "float32", "object"])
    def test_mistyped_array_is_runtime_error(self, sim_log, base_cfg, capsys, kind):
        path = Path(sim_log, "params.npy")
        params = np.load(path)
        if kind == "shape":
            np.save(path, params[:, :-1])  # one node fewer than the topology
        elif kind == "float32":
            np.save(path, params.astype(np.float32))
        else:
            np.save(path, params.astype(object), allow_pickle=True)
        assert main(["attack", "--log", sim_log, "--scenario", "4",
                     "--config", base_cfg]) == 3
        assert "params.npy" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rel, text, named",
        [
            ("params.npy", None, "params.npy"),
            ("config.ini", None, "config.ini"),
            ("topology.edges", dump_topology(gen_ring(5)), "partition.txt has 6 lines"),
            ("topology.edges", dump_topology(gen_ring(7)), "partition.txt has 6 lines"),
        ],
    )
    def test_damaged_log_is_invalid_trace(self, sim_log, base_cfg, capsys, rel, text, named):
        path = Path(sim_log, rel)
        if text is None:
            path.unlink()
        else:
            path.write_text(text)
        assert main(["attack", "--log", sim_log, "--scenario", "4",
                     "--config", base_cfg]) == 3
        assert named in capsys.readouterr().err

    def test_damaged_partition_is_invalid_trace(self, sim_log, base_cfg, capsys, partition_damage):
        message = partition_damage(sim_log)
        assert main(["attack", "--log", sim_log, "--scenario", "1", "--config", base_cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "partition.txt" in err and message in err

    def test_damaged_input_is_invalid_trace(self, sim_log, base_cfg, capsys, input_damage):
        name, message = input_damage(sim_log)
        assert main(["attack", "--log", sim_log, "--scenario", "1", "--config", base_cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert name in err and message in err


class TestEvaluate:
    def test_scores_soft_against_topology(self, sim_log, base_cfg, tmp_path, capsys):
        assert main(["attack", "--log", sim_log, "--scenario", "4",
                     "--config", base_cfg]) == 0
        out = tmp_path / "eval.json"
        assert main(["evaluate", "--soft", str(Path(sim_log, "attack_sc4.csv")),
                     "--topology", str(Path(sim_log, "topology.edges")),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["eval_pair_policy"] == "all_pairs"
        assert 0.0 <= doc["auc"] <= 1.0
        assert "auc=" in capsys.readouterr().out

    @pytest.mark.parametrize("scenario", ["1", "4"])
    def test_out_dir_soft_round_trips_exactly(self, sim_log, base_cfg, tmp_path, scenario):
        # the CSV is written with repr, so the exactly symmetric soft adjacency
        # is read back bit for bit; evaluate scores it on every pair, as the
        # attack scored SC4 (SC1 was scored on the pairs it held no label for)
        atk = tmp_path / "atk"
        assert main(["attack", "--log", sim_log, "--scenario", scenario,
                     "--config", base_cfg, "--out", str(atk)]) == 0
        soft = load_matrix_csv(Path(atk, f"attack_sc{scenario}.csv").read_text())
        assert np.array_equal(soft, soft.T)
        topo = Path(sim_log, "topology.edges")
        out = tmp_path / "eval.json"
        assert main(["evaluate", "--soft", str(Path(atk, f"attack_sc{scenario}.csv")),
                     "--topology", str(topo), "--out", str(out)]) == 0
        scored = json.loads(out.read_text())
        if scenario == "4":
            attacked = json.loads(Path(atk, f"attack_sc{scenario}.result.json").read_text())
            expected = {k: attacked[k] for k in scored}
        else:
            truth = adjacency_matrix(load_topology(topo.read_text()))
            expected = dataclasses.asdict(
                evaluate_soft(soft, truth, all_pairs(len(soft)), ALL_PAIRS))
        assert scored == expected

    def test_missing_soft_file_is_config_error(self, tmp_path):
        topo = tmp_path / "t.edges"
        topo.write_text("0 1\n1 2\n2 0\n")
        assert main(["evaluate", "--soft", str(tmp_path / "absent.csv"),
                     "--topology", str(topo)]) == 2

    @pytest.mark.parametrize(
        "soft, edges, code, message",
        [
            ("0,1,0\n1,0\n0,1,0\n", "3 2\n0 1\n1 2\n", 2, "line 2: expected 3 fields"),
            ("0,1,0\n1,0,x\n0,x,0\n", "3 2\n0 1\n1 2\n", 2, "line 2: non-numeric field"),
            ("0,nan,0\nnan,0,1\n0,1,0\n", "3 2\n0 1\n1 2\n", 2, "line 1: non-finite field"),
            ("0,1\n1,0\n", "3 2\n0 1\n1 2\n", 3, "soft adjacency is 2x2, topology has 3"),
            ("0,1,0\n1,0,1\n0,1,0\n", "3 2\n0 1\n1 3\n", 2, "line 3: node index outside"),
        ],
        ids=["ragged", "non_numeric", "nan", "size_mismatch", "node_out_of_range"],
    )
    def test_bad_input_is_a_typed_error(self, tmp_path, capsys, soft, edges, code, message):
        (tmp_path / "soft.csv").write_text(soft)
        (tmp_path / "t.edges").write_text(edges)
        assert main(["evaluate", "--soft", str(tmp_path / "soft.csv"),
                     "--topology", str(tmp_path / "t.edges")]) == code
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


SWEEP_INI = """
[sweep]
family = density
ps = 0.5
scenarios = 4
seeds = 0, 1
out_csv = {csv}

[data]
k_classes = 2
n_features = 4
n_per_class = 20

[train]
local_epochs = 1
batch_size = 8

[federation]
rounds = 2
hidden_sizes = 8

[metric]
last_k = 1

[edgepre]
epochs = 10
hidden_sizes = 8

[infergat]
epochs = 5
embed_dim = 4
heads = 1
"""


def row_statuses(csv_path):
    with open(csv_path, newline="") as fh:
        return [row["status"] for row in csv.DictReader(fh)]


class TestSweep:
    def test_density_family_writes_rows(self, tmp_path, capsys):
        csv_path = tmp_path / "grid.csv"
        cfg = write_ini(tmp_path, SWEEP_INI.format(csv=csv_path))
        assert main(["sweep", "--config", cfg]) == 0
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 3  # header + 2 cells
        assert "2 rows (2 ok)" in capsys.readouterr().out
        assert row_statuses(csv_path) == ["ok", "ok"]

    def test_resume_skips_done_cells(self, tmp_path):
        csv_path = tmp_path / "grid.csv"
        cfg = write_ini(tmp_path, SWEEP_INI.format(csv=csv_path))
        assert main(["sweep", "--config", cfg]) == 0
        before = csv_path.read_text()
        assert main(["sweep", "--config", cfg, "--resume"]) == 0
        assert csv_path.read_text() == before
        assert row_statuses(csv_path) == ["ok", "ok"]

    def test_resume_refuses_a_csv_with_another_header(self, tmp_path, capsys):
        csv_path = tmp_path / "grid.csv"
        csv_path.write_text("id,value\ndensity-p0.5-sc4-s0,1\n")
        cfg = write_ini(tmp_path, SWEEP_INI.format(csv=csv_path))
        assert main(["sweep", "--config", cfg, "--resume"]) == 2
        assert f"cannot resume {csv_path}" in capsys.readouterr().err
        assert csv_path.read_text() == "id,value\ndensity-p0.5-sc4-s0,1\n"

    def test_out_csv_is_required(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, SWEEP_INI.format(csv="").replace("out_csv = \n", ""))
        assert main(["sweep", "--config", cfg]) == 2
        assert "sweep needs --out or [sweep] out_csv" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [Path(cfg)]

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--config", "x.ini", "--seed", "1"], ["sweep", "--config", "x.ini", "--derive-seeds"],
         ["evaluate", "--soft", "s.csv", "--topology", "t.edges", "--seed", "1"],
         ["evaluate", "--soft", "s.csv", "--topology", "t.edges", "--labeled-frac", "0.5"],
         ["evaluate", "--soft", "s.csv", "--topology", "t.edges", "--policy", "held_out"],
         ["evaluate", "--soft", "s.csv", "--topology", "t.edges", "--policy", "all_pairs"]],
        ids=["sweep_seed", "sweep_derive_seeds", "evaluate_seed", "evaluate_labeled_frac",
             "evaluate_policy_held_out", "evaluate_policy_all_pairs"],
    )
    def test_seed_flags_that_read_nothing_are_gone(self, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2

    def test_workers_flag_removed(self, tmp_path):
        cfg = write_ini(tmp_path, SWEEP_INI.format(csv=tmp_path / "grid.csv"))
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--config", cfg, "--workers", "2"])
        assert info.value.code == 2

    def test_unknown_family_is_config_error(self, tmp_path):
        cfg = write_ini(tmp_path, "[sweep]\nfamily = mystery\nout_csv = x.csv\n")
        assert main(["sweep", "--config", cfg]) == 2

    @pytest.mark.parametrize(
        "family, grid, want",
        [
            ("density", "", {}),
            ("size", "", {}),
            ("mitigation", "", {}),
            ("density", "ps = 0.3, 0.6\nn = 7\n", dict(ps=(0.3, 0.6), n_nodes=7)),
            ("size", "ns = 4, 6\np = 0.6\n", dict(ns=(4, 6), p=0.6)),
            ("mitigation", "n = 7\np = 0.6\n", dict(n_nodes=7, er_p=0.6)),
            ("mitigation", "scenarios = 2\nseeds = 1, 4\n", dict(scenarios=(2,), seeds=(1, 4))),
        ],
        ids=["density", "size", "mitigation", "density_grid", "size_grid", "mitigation_grid",
             "mitigation_scenarios_seeds"],
    )
    def test_family_gets_only_the_grid_keys_set(self, tmp_path, monkeypatch, family, grid, want):
        # a grid key the config leaves out keeps the family's cell builder's default
        calls = []

        def record(*args, **kwargs):
            calls.append((args, kwargs))
            return []

        monkeypatch.setitem(cli.SWEEP_FAMILIES, family, (record, cli.SWEEP_FAMILIES[family][1]))
        cfg = write_ini(tmp_path, f"[sweep]\nfamily = {family}\n{grid}")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "grid.csv")]) == 0
        # built once by the config check, once to run
        assert calls == [((), dict(want, defaults=ExperimentDefaults()))] * 2

    @pytest.mark.parametrize(
        "family, key", [("density", "p"), ("density", "ns"), ("size", "n"), ("size", "ps"),
                        ("mitigation", "ps"), ("mitigation", "ns")],
    )
    def test_a_key_the_family_does_not_read_is_refused(self, tmp_path, capsys, family, key):
        csv_path = tmp_path / "grid.csv"
        value = {"p": "0.6", "n": "7", "ps": "0.3", "ns": "4"}[key]
        cfg = write_ini(tmp_path, f"[sweep]\nfamily = {family}\n{key} = {value}\nout_csv = {csv_path}\n")
        assert main(["validate", cfg]) == 2
        assert main(["sweep", "--config", cfg]) == 2
        assert not csv_path.exists()
        assert capsys.readouterr().err.count(f"[sweep] family={family} does not read {key}\n") == 2

    @pytest.mark.parametrize(
        "edit, named",
        [
            (("", "[partition]\nmethod = dirichlet\nalpha = 0.5\n"
                  "[dp]\nclip_norm = 0.5\nnoise_sigma = 0.1\n"), "[partition], [dp]"),
            (("", "[dp]\n"), "[dp]"),
            (("[data]\n", "[data]\npath = data.csv\n"), "[data] path"),
            (("", "[topology]\nkind = ring\nn = 6\n"), "[topology]"),
            (("", "[run]\nseed = 3\n"), "[run]"),
            # SWEEP_INI sets [federation] rounds = 2, which a size point replaces by its n
            (("family = density\nps = 0.5\n", "family = size\nns = 4, 5\n"), "[federation] rounds"),
        ],
        ids=["partition_dp", "bare_dp", "data_path", "topology", "run_seed", "size_rounds"],
    )
    def test_a_section_the_sweep_does_not_read_is_refused(self, tmp_path, capsys, edit, named):
        # the family sets each cell's graph, partition, DP, data and seed itself, and size its rounds
        csv_path = tmp_path / "grid.csv"
        old, new = edit
        text = SWEEP_INI.format(csv=csv_path)
        text = text.replace(old, new) if old else text + new
        family = "size" if "family = size" in text else "density"
        cfg = write_ini(tmp_path, text)
        assert main(["validate", cfg]) == 2
        assert main(["sweep", "--config", cfg]) == 2
        assert not csv_path.exists()
        assert capsys.readouterr().err.count(f"[sweep] family={family} does not read {named}\n") == 2


class TestConfigOnlyChecks:
    """What a command refuses from the config alone, ``validate`` refuses too,
    and the command refuses it before any work."""

    @pytest.mark.parametrize(
        "extra,message",
        [
            ("[attack]\nrho = 1.5\n", "labeled fraction rho must be in (0, 1), got 1.5"),
            ("[metric]\nphase = mid\n", "metric phase must be pre or post, got 'mid'"),
            ("[metric]\nlast_k = 0\n", "metric last_k must be >= 1, got 0"),
        ],
        ids=["rho", "phase", "last_k"],
    )
    def test_attack_and_metric_values_fail_every_command(self, tmp_path, capsys, extra, message):
        cfg = write_ini(tmp_path, BASE_INI.format(out=tmp_path / "simlog") + extra)
        assert main(["validate", cfg]) == 2
        assert main(["simulate", "--config", cfg]) == 2
        assert not (tmp_path / "simlog").exists()
        # 2, not the 3 of a missing log: the config fails before the log is read
        assert main(["attack", "--log", str(tmp_path / "absent"), "--scenario", "1",
                     "--config", cfg]) == 2
        assert capsys.readouterr().err.count(message) == 3

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("batch_size = 8", "batch_size = 8\noptimizer = bogus",
             "optimizer must be sgd or adam, got 'bogus'"),
            ("batch_size = 8", "batch_size = 8\nlearning_rate = -1",
             "learning_rate must be finite and >= 0, got -1.0"),
            ("hidden_sizes = 8\n\n[edgepre]", "hidden_sizes = 8\nactivation = bogus\n\n[edgepre]",
             "activation must be one of"),
            ("[edgepre]", "[dp]\nclip_norm = -1\n\n[edgepre]",
             "clip_norm must be finite and > 0, got -1.0"),
            ("[edgepre]", "[dp]\nnoise_sigma = -1\n\n[edgepre]",
             "noise_sigma must be finite and >= 0, got -1.0"),
            ("rounds = 3", "rounds = 0", "rounds must be >= 1, got 0"),
            ("n_per_class = 20", "n_per_class = 5", "n_per_class must be >= 10, got 5"),
            ("k_classes = 2", "k_classes = 1", "k_classes must be >= 2, got 1"),
            ("n_per_class = 20", "n_per_class = 20\nspread = 0",
             "spread must be finite and > 0, got 0.0"),
            ("kind = ring\nn = 6", "kind = ring\nn = 2", "ring needs n >= 3, got 2"),
            ("kind = ring\nn = 6", "kind = er\nn = 6\np = 1.5", "p must be in (0, 1], got 1.5"),
            ("[edgepre]", "[partition]\nmethod = dirichlet\nalpha = -1\n\n[edgepre]",
             "alpha must be finite and > 0, got -1.0"),
            ("[edgepre]", "[partition]\nmethod = dirichlet\nalpha = nan\n\n[edgepre]",
             "alpha must be finite and > 0, got nan"),
            ("n_per_class = 20", "n_per_class = 20\nspread = nan",
             "spread must be finite and > 0, got nan"),
            ("[edgepre]", "[dp]\nnoise_sigma = nan\n\n[edgepre]",
             "noise_sigma must be finite and >= 0, got nan"),
            ("[edgepre]", "[dp]\nclip_norm = inf\n\n[edgepre]",
             "clip_norm must be finite and > 0, got inf"),
            ("[edgepre]", "[dp]\nnoise_sigma = inf\n\n[edgepre]",
             "noise_sigma must be finite and >= 0, got inf"),
            ("n_per_class = 20", "n_per_class = 20\nspread = inf",
             "spread must be finite and > 0, got inf"),
            ("[edgepre]", "[partition]\nmethod = dirichlet\nalpha = inf\n\n[edgepre]",
             "alpha must be finite and > 0, got inf"),
            ("ps = 0.5", "ps = 0.5, 1.5", "p must be in (0, 1], got 1.5"),
            ("family = density\nn = 6\nps = 0.5", "family = size\nns = 6, 21",
             "40 samples cannot give 21 nodes >= 2 samples each"),
        ],
        ids=["optimizer", "learning_rate", "activation", "clip_norm", "noise_sigma", "rounds",
             "n_per_class", "k_classes", "spread", "ring_n", "er_p", "alpha", "alpha_nan",
             "spread_nan", "noise_sigma_nan", "clip_norm_inf", "noise_sigma_inf", "spread_inf",
             "alpha_inf", "sweep_ps", "sweep_ns"],
    )
    def test_simulate_stage_values_fail_every_command(self, tmp_path, capsys, old, new, message):
        csv_path = tmp_path / "grid.csv"
        text = BASE_INI.format(out=tmp_path / "simlog") + (
            f"\n[sweep]\nfamily = density\nn = 6\nps = 0.5\nscenarios = 4\nseeds = 0\n"
            f"out_csv = {csv_path}\n"
        )
        assert text.count(old) == 1
        cfg = write_ini(tmp_path, text.replace(old, new))
        assert main(["validate", cfg]) == 2
        assert main(["simulate", "--config", cfg]) == 2
        assert not (tmp_path / "simlog").exists()
        assert main(["attack", "--log", str(tmp_path / "absent"), "--scenario", "1",
                     "--config", cfg]) == 2
        assert main(["sweep", "--config", cfg]) == 2
        assert not csv_path.exists()
        assert capsys.readouterr().err.count(message) == 4

    @pytest.mark.parametrize(
        "command, text, last_k, rounds",
        [
            ("validate", "[topology]\nkind = ring\nn = 5\n[federation]\nrounds = 2\n", 3, 2),
            ("simulate", "[topology]\nkind = ring\nn = 5\n[federation]\nrounds = 2\n", 3, 2),
            ("simulate", "[topology]\nkind = ring\nn = 3\n[metric]\nlast_k = 4\n", 4, 3),
            ("simulate", "[topology]\nkind = file\npath = {edges}\n[federation]\nrounds = 2\n", 3, 2),
            ("simulate", "[topology]\nkind = file\npath = {edges}\n[metric]\nlast_k = 6\n", 6, 5),
            ("sweep", "[sweep]\nfamily = density\nn = 5\nps = 0.5\n[federation]\nrounds = 2\n", 3, 2),
            ("sweep", "[sweep]\nfamily = size\nns = 4, 2\n", 3, 2),
        ],
        ids=["validate", "simulate", "simulate_rounds_per_node", "simulate_file",
             "simulate_file_rounds_per_node", "sweep_density", "sweep_size"],
    )
    def test_last_k_above_the_rounds_fails_before_any_work(
        self, tmp_path, capsys, command, text, last_k, rounds
    ):
        # a config runs [federation] rounds, else one round per node (a file's node count)
        edges, out = tmp_path / "ring5.edges", tmp_path / "out"
        edges.write_text(dump_topology(gen_ring(5)))
        cfg = write_ini(tmp_path, text.format(edges=edges))
        argv = [cfg] if command == "validate" else ["--config", cfg, "--out", str(out)]
        assert main([command, *argv]) == 2
        assert not out.exists()
        assert f"metric last_k={last_k} is above the run's {rounds} rounds" in capsys.readouterr().err

    def test_last_k_above_a_logs_rounds_fails_the_attack(self, tmp_path, capsys):
        # a log simulated with another config is checked once it is read (exit 3)
        text = BASE_INI.format(out=tmp_path / "simlog").replace("rounds = 3", "rounds = 2")
        short = write_ini(tmp_path, text + "[metric]\nlast_k = 2\n")
        assert main(["simulate", "--config", short]) == 0
        assert main(["attack", "--log", str(tmp_path / "simlog"), "--scenario", "3", "--out",
                     str(tmp_path / "out")]) == 3
        assert "metric last_k=3 is above the run's 2 rounds" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_node_count_the_default_data_cannot_split(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, f"[run]\nout_dir = {tmp_path / 'simlog'}\n[topology]\nkind = ring\nn = 50\n")
        assert main(["validate", cfg]) == 2
        assert main(["simulate", "--config", cfg]) == 2
        assert not (tmp_path / "simlog").exists()
        assert capsys.readouterr().err.count("120 samples cannot give 50 nodes >= 3 samples each") == 2

    @pytest.mark.parametrize("frac", ["7", "0", "1", "nan"])
    def test_labeled_frac_is_checked_for_every_scenario(self, tmp_path, capsys, frac):
        assert main(["attack", "--log", str(tmp_path / "absent"), "--scenario", "3",
                     "--labeled-frac", frac]) == 2
        assert "labeled fraction rho must be in (0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("kind = ring", "kind = hex", "[topology] kind must be ring, star, er or file, got 'hex'"),
            ("kind = ring", "kind = file", "[topology] kind=file needs path"),
            ("[train]", "[partition]\nmethod = bogus\n[train]", "unknown partition method 'bogus'"),
            ("[train]", "[partition]\nmethod = dirichlet\n[train]", "method=dirichlet needs alpha"),
            ("[train]", "[partition]\nalpha = 0.1\n[train]", "alpha needs method=dirichlet"),
        ],
        ids=["kind_hex", "file_no_path", "method_bogus", "dirichlet_no_alpha", "alpha_no_dirichlet"],
    )
    def test_simulate_sections_fail_validate(self, tmp_path, capsys, old, new, message):
        text = BASE_INI.format(out=tmp_path / "simlog")
        assert text.count(old) == 1
        cfg = write_ini(tmp_path, text.replace(old, new))
        assert main(["validate", cfg]) == 2
        assert main(["simulate", "--config", cfg]) == 2
        assert not (tmp_path / "simlog").exists()
        assert capsys.readouterr().err.count(message) == 2

    @pytest.mark.parametrize(
        "topology, message",
        [
            ("kind = er\nn = 6", "[topology] kind=er needs p"),
            ("kind = ring\nn = 6\np = 0.5", "[topology] kind=ring does not read p"),
            ("kind = star\np = 0.5", "[topology] kind=star does not read p"),
            ("kind = ring\npath = g.edges", "[topology] kind=ring does not read path"),
            ("kind = er\np = 0.5\npath = g.edges", "[topology] kind=er does not read path"),
            ("kind = file\npath = g.edges\nn = 6", "[topology] kind=file does not read n"),
            ("kind = file\npath = g.edges\np = 0.5", "[topology] kind=file does not read p"),
        ],
        ids=["er_no_p", "ring_p", "star_p", "ring_path", "er_path", "file_n", "file_p"],
    )
    def test_topology_keys_the_kind_does_not_read_fail_every_command(
        self, tmp_path, capsys, topology, message
    ):
        csv_path = tmp_path / "grid.csv"
        text = SWEEP_INI.format(csv=csv_path) + f"\n[run]\nout_dir = {tmp_path / 'simlog'}\n"
        cfg = write_ini(tmp_path, f"{text}\n[topology]\n{topology}\n")
        assert main(["validate", cfg]) == 2
        assert main(["simulate", "--config", cfg]) == 2
        assert not (tmp_path / "simlog").exists()
        assert main(["attack", "--log", str(tmp_path / "absent"), "--scenario", "1",
                     "--config", cfg]) == 2
        assert main(["sweep", "--config", cfg]) == 2
        assert not csv_path.exists()
        assert capsys.readouterr().err.count(message + "\n") == 4

    def test_sweep_family_fails_validate(self, tmp_path, capsys):
        csv_path = tmp_path / "grid.csv"
        cfg = write_ini(tmp_path, SWEEP_INI.format(csv=csv_path).replace("= density", "= grid"))
        assert main(["validate", cfg]) == 2
        assert main(["sweep", "--config", cfg]) == 2
        assert not csv_path.exists()
        assert capsys.readouterr().err.count("family must be density, size or mitigation, got 'grid'") == 2

    def test_validate_checks_only_the_sections_present(self, tmp_path):
        # a sweep config has no [topology], and a dirichlet partition with alpha is whole
        sweep = write_ini(tmp_path, SWEEP_INI.format(csv=tmp_path / "grid.csv"), name="sweep.ini")
        assert main(["validate", sweep]) == 0
        text = BASE_INI.format(out=tmp_path / "simlog")
        dirichlet = write_ini(
            tmp_path, text.replace("[train]", "[partition]\nmethod = dirichlet\nalpha = 0.5\n[train]")
        )
        assert main(["validate", dirichlet]) == 0


class TestUnwritableOut:
    """An ``--out`` the CLI cannot write is a usage error, one ``error:`` line
    and exit 2: a directory where a file goes, a file where a directory goes,
    or a path below a file."""

    @pytest.mark.parametrize("below_a_file", [False, True], ids=["taken", "below_a_file"])
    @pytest.mark.parametrize("command", ["gen-topology", "simulate", "attack", "sweep"])
    def test_unwritable_out_is_a_usage_error(self, request, tmp_path, capsys, command, below_a_file):
        blocker = tmp_path / "blocker"
        if below_a_file or command in ("simulate", "attack"):  # these two write a directory
            blocker.write_text("")
        else:
            blocker.mkdir()
        out = blocker / "out" if below_a_file else blocker
        if command == "gen-topology":
            argv = ["gen-topology", "--kind", "ring", "--n", "5"]
        elif command == "sweep":
            argv = ["sweep", "--config", write_ini(tmp_path, SWEEP_INI.format(csv=tmp_path / "g.csv"))]
        else:
            argv = [command, "--config", request.getfixturevalue("base_cfg")]
            if command == "attack":
                argv += ["--log", request.getfixturevalue("sim_log"), "--scenario", "4"]
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(blocker) in err
