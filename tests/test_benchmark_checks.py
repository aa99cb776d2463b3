"""The benchmark's output check of a trace still holds on the library's logs.

Each cli50 job loads the log its ``simulate`` wrote and checks it against the
closed form with ``perfbench/checks.py::closed_form_gap``, which reads the
log's ``adjacency``, ``initial_params`` and ``traces``. A log that loses one of
them, or reads back other values, fails every job of that workload at run
time, so this imports the harness file by path, as it is, and runs the check
on a fresh log and on the same log saved and loaded.
"""

import importlib.util
from pathlib import Path

from topoleak.data import gen_blobs, partition_iid
from topoleak.engine import DpConfig, FederationConfig, load_log, run_simulation, save_log
from topoleak.nn import TrainConfig
from topoleak.topology import gen_erdos_renyi

CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


def _harness_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_closed_form_gap_of_a_fresh_and_a_loaded_log(tmp_path):
    checks = _harness_checks()
    topology = gen_erdos_renyi(6, 0.5, seed=1)
    data = gen_blobs(3, 4, 12, spread=2.0, seed=0)
    cfg = FederationConfig(
        topology=topology, train=TrainConfig(1, 0.1, 8), rounds=4, dp=DpConfig(1.0, 0.1, seed=3),
        hidden_sizes=(5,),
    )
    log = run_simulation(cfg, data, partition_iid(data, 6, seed=2), seed=4)
    save_log(log, tmp_path)
    for lg in (log, load_log(tmp_path)):
        assert checks.closed_form_gap(lg) <= checks.CLOSED_FORM_TOL
