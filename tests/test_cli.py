"""Command-line behavior: schema rejection, exit codes, reproducible artifacts."""

import json
from pathlib import Path

import pytest

from topoleak.cli import main, parse_config, resolve_seed
from topoleak.errors import InvalidConfig

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

    def test_out_dir_required(self, tmp_path):
        cfg = write_ini(tmp_path, "[topology]\nkind = ring\nn = 4\n")
        assert main(["simulate", "--config", cfg]) == 2


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

    def test_truncated_snapshot_is_runtime_error(self, sim_log, base_cfg, capsys):
        snap = next(Path(sim_log).rglob("*.bin"))
        snap.write_bytes(snap.read_bytes()[:-5])
        assert main(["attack", "--log", sim_log, "--scenario", "4",
                     "--config", base_cfg]) == 3
        assert "snapshot payload" in capsys.readouterr().err


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

    def test_missing_soft_file_is_config_error(self, tmp_path):
        topo = tmp_path / "t.edges"
        topo.write_text("0 1\n1 2\n2 0\n")
        assert main(["evaluate", "--soft", str(tmp_path / "absent.csv"),
                     "--topology", str(topo)]) == 2


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

    def test_unknown_family_is_config_error(self, tmp_path):
        cfg = write_ini(tmp_path, "[sweep]\nfamily = mystery\nout_csv = x.csv\n")
        assert main(["sweep", "--config", cfg]) == 2
