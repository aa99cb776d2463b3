"""The README's CLI quickstart runs as written."""

import re
import shlex
from pathlib import Path

from topoleak import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def blocks(lang):
    """The bodies of the README's fenced blocks of one language."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


def test_cli_quickstart_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    (ini,) = blocks("ini")
    Path("run.ini").write_text(ini)
    commands = [shlex.split(line, comments=True)[1:] for body in blocks("sh")
                for line in body.splitlines() if line.startswith("topoleak ")]
    assert [argv[0] for argv in commands] == [
        "validate", "gen-topology", "simulate", "attack", "evaluate", "sweep"
    ]
    for argv in commands:
        if argv[0] == "sweep":  # the README shows no grid.ini, so the line is only parsed
            cli.make_parser().parse_args(argv)
        else:
            assert cli.main(argv) == 0, argv
    # er10.edges is the graph the trace ran on
    assert Path("trace/topology.edges").read_bytes() == Path("er10.edges").read_bytes()
