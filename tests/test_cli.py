"""Command-line behavior: schema rejection, exit codes, reproducible artifacts."""

import json
from pathlib import Path

import numpy as np
import pytest

from topoleak.cli import main, parse_config, resolve_seed
from topoleak.errors import InvalidConfig
from topoleak.metrics import dump_matrix_csv

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


class TestSimulate:
    def test_writes_log_and_reruns_identically(self, tmp_path, base_cfg):
        assert main(["simulate", "--config", base_cfg]) == 0
        log_a = tmp_path / "simlog"
        assert (log_a / "manifest.txt").exists()
        assert main(["simulate", "--config", base_cfg, "--out", str(tmp_path / "again")]) == 0
        for name in ("manifest.txt", "dataset.csv", "topology.edges"):
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

    def test_out_dir_required(self, tmp_path):
        cfg = write_ini(tmp_path, "[topology]\nkind = ring\nn = 4\n")
        assert main(["simulate", "--config", cfg]) == 2

    def test_invalid_attack_section_is_config_error(self, tmp_path, capsys):
        text = BASE_INI.format(out=tmp_path / "simlog").replace("heads = 1", "heads = 0")
        assert main(["simulate", "--config", write_ini(tmp_path, text)]) == 2
        assert "heads must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "simlog").exists()


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

    def test_scenario4_uses_all_pairs(self, sim_log, base_cfg):
        assert main(["attack", "--log", sim_log, "--scenario", "4",
                     "--config", base_cfg]) == 0
        doc = json.loads(Path(sim_log, "attack_sc4.result.json").read_text())
        assert doc["eval_pair_policy"] == "all_pairs"
        assert doc["n_eval_pairs"] == 15

    def test_scenario5_is_unsupported(self, sim_log, base_cfg):
        assert main(["attack", "--log", sim_log, "--scenario", "5",
                     "--config", base_cfg]) == 4

    def test_missing_log_is_runtime_error(self, tmp_path):
        assert main(["attack", "--log", str(tmp_path / "absent"), "--scenario", "4"]) == 3

    def test_unknown_eval_policy_rejected_before_the_log_is_read(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "[eval]\npolicy = sometimes\n")
        assert main(["attack", "--log", str(tmp_path / "absent"), "--scenario", "4",
                     "--config", cfg]) == 2
        assert "unknown eval policy 'sometimes'" in capsys.readouterr().err

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
            ("manifest.txt", "nodes 6\nrounds 2\nround 1\nround 2\nround 3\n", "rounds 2"),
            ("manifest.txt", "hello\n", "hello"),
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

    def test_env_seed_equals_seed_flag(self, tmp_path, monkeypatch):
        edges = tmp_path / "er12.edges"
        assert main(["gen-topology", "--kind", "er", "--n", "12", "--p", "0.3", "--seed", "1",
                     "--out", str(edges)]) == 0
        soft = np.random.default_rng(0).random((12, 12))
        (tmp_path / "soft.csv").write_text(dump_matrix_csv((soft + soft.T) / 2))
        args = ["evaluate", "--soft", str(tmp_path / "soft.csv"), "--topology", str(edges),
                "--policy", "held_out"]
        flag, env = tmp_path / "flag.json", tmp_path / "env.json"
        monkeypatch.delenv("TOPOLEAK_SEED", raising=False)
        assert main(args + ["--seed", "5", "--out", str(flag)]) == 0
        monkeypatch.setenv("TOPOLEAK_SEED", "5")
        assert main(args + ["--out", str(env)]) == 0
        assert env.read_bytes() == flag.read_bytes()

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
[run]
seed = 3

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

[edgepre]
epochs = 10
hidden_sizes = 8

[infergat]
epochs = 5
embed_dim = 4
heads = 1
"""


class TestSweep:
    def test_density_family_writes_rows(self, tmp_path, capsys):
        csv_path = tmp_path / "grid.csv"
        cfg = write_ini(tmp_path, SWEEP_INI.format(csv=csv_path))
        assert main(["sweep", "--config", cfg]) == 0
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 3  # header + 2 cells
        assert "2 rows" in capsys.readouterr().out

    def test_resume_skips_done_cells(self, tmp_path):
        csv_path = tmp_path / "grid.csv"
        cfg = write_ini(tmp_path, SWEEP_INI.format(csv=csv_path))
        assert main(["sweep", "--config", cfg]) == 0
        before = csv_path.read_text()
        assert main(["sweep", "--config", cfg, "--resume"]) == 0
        assert csv_path.read_text() == before

    def test_workers_flag_removed(self, tmp_path):
        cfg = write_ini(tmp_path, SWEEP_INI.format(csv=tmp_path / "grid.csv"))
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--config", cfg, "--workers", "2"])
        assert info.value.code == 2

    def test_unknown_family_is_config_error(self, tmp_path):
        cfg = write_ini(tmp_path, "[sweep]\nfamily = mystery\nout_csv = x.csv\n")
        assert main(["sweep", "--config", cfg]) == 2
