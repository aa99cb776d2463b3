"""Command-line entry point wiring config files to the pipeline.

Config files are INI-style sectioned key-value documents; every section and
key is schema-checked before any work happens, and a key nothing reads is
rejected rather than ignored. A key is declared once, by the field or sweep
argument it sets, whose type hint gives its parser. A key a config leaves out
keeps the library's value, the one a sweep uses: its ``ExperimentDefaults``
field, else the ``evaluation`` default it feeds (``[sweep]`` grid, ``[topology]
n``, ``DP_ON``). Exit codes: 0 ok, 2 config or usage error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import os
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

from .attacks import SCENARIOS, SoftAdjacency
from .data import check_alpha, gen_blobs, load_csv
from .engine import DpConfig, FederationConfig, field_parser, load_log, save_log
from .errors import (
    InvalidConfig,
    InvalidProbability,
    InvalidSize,
    ParseError,
    ShapeError,
    TopoleakError,
)
from .evaluation import (
    ALL_PAIRS,
    DP_ON,
    N_NODES,
    ExperimentDefaults,
    all_pairs,
    attack_log,
    defaults_taken_by,
    density_cells,
    evaluate_soft,
    generate_topology,
    mitigation_cells,
    run_sweep,
    simulate,
    size_cells,
)
from .metrics import dump_matrix_csv, load_matrix_csv
from .nn import TrainConfig
from .topology import adjacency_matrix, check_generator, dump_topology, load_topology, stats

SEED_ENV = "TOPOLEAK_SEED"

# the config's names for the simulate stage's generated topologies
TOPOLOGY_KINDS = {"ring": "ring", "star": "star", "er": "erdos_renyi"}


# --- config schema ----------------------------------------------------------

def _settable(cls) -> dict:
    """{field: type hint} of every field of a config class but its seed."""
    return {f: hint for f, hint in typing.get_type_hints(cls).items() if f != "seed"}


_HINTS = typing.get_type_hints(ExperimentDefaults)
# the ExperimentDefaults fields each section sets: [data], [train] and [federation] those the data
# generator and configs take, and [edgepre] and [infergat] every field but its attack config's seed
ATTACK_SECTIONS = ("edgepre", "infergat")
SECTION_FIELDS = {
    "data": defaults_taken_by(gen_blobs),
    "train": defaults_taken_by(TrainConfig),
    "federation": defaults_taken_by(FederationConfig),
    "attack": ("rho",),
    "metric": ("metric_phase", "metric_last_k"),
    **{s: tuple(_settable(_HINTS[s])) for s in ATTACK_SECTIONS},
}


def _field_keys(section: str) -> dict:
    """{key: (field, parser)} of a section in SECTION_FIELDS; a key is its
    field's name less the section's as a prefix ([metric] phase: metric_phase)."""
    hints = _settable(_HINTS[section]) if section in ATTACK_SECTIONS else _HINTS
    return {f.removeprefix(f"{section}_"): (f, field_parser(hints[f])) for f in SECTION_FIELDS[section]}


FIELD_KEYS = {section: _field_keys(section) for section in SECTION_FIELDS}

# each [sweep] family's cell builder and the argument each of its grid keys sets
_CELLS = dict(scenarios="scenarios", seeds="seeds")
SWEEP_FAMILIES = {
    "density": (density_cells, dict(ps="ps", n="n_nodes", **_CELLS)),
    "size": (size_cells, dict(ns="ns", p="p", **_CELLS)),
    "mitigation": (mitigation_cells, dict(n="n_nodes", p="er_p", **_CELLS)),
}


def _grid_keys() -> dict:
    """Each [sweep] grid key's parser, from the hint of the argument it sets in every family."""
    hints = {}
    for run, arg_of_key in SWEEP_FAMILIES.values():
        for key, arg in arg_of_key.items():
            hint = typing.get_type_hints(run)[arg]
            if hints.setdefault(key, hint) != hint:
                raise TypeError(f"[sweep] {key} is {hints[key]} in one family, {hint} in another")
    return {key: field_parser(hint) for key, hint in hints.items()}


SCHEMA = {
    "run": {"seed": int, "out_dir": str},
    "topology": {"kind": str, "n": int, "p": float, "path": str},
    **{s: {k: parse for k, (_, parse) in keys.items()} for s, keys in FIELD_KEYS.items()},
    "partition": {"method": str, "alpha": float},
    "dp": {f: field_parser(hint) for f, hint in _settable(DpConfig).items()},
    "sweep": {"family": str, **_grid_keys(), "out_csv": str},
}
SCHEMA["data"]["path"] = str  # a dataset file, not a field


@dataclass(frozen=True)
class RunConfig:
    """Schema-checked view of a config file."""

    sections: dict

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)


def parse_config(path) -> RunConfig:
    """Read and schema-check an INI document; unknown keys are errors."""
    p = Path(path)
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(_read_input(p, "config"), source=str(p))
    except configparser.Error as exc:
        raise InvalidConfig(f"malformed config {p}: {exc}") from exc

    sections: dict = {}
    for sec in cp.sections():
        if sec not in SCHEMA:
            raise InvalidConfig(f"unknown config section [{sec}]")
        sections[sec] = {}
        for key, raw in cp[sec].items():
            if key not in SCHEMA[sec]:
                raise InvalidConfig(f"unknown key {key!r} in section [{sec}]")
            try:
                sections[sec][key] = SCHEMA[sec][key](raw)
            except ValueError as exc:
                raise InvalidConfig(f"bad value for [{sec}] {key}: {raw!r} ({exc})") from exc
    return RunConfig(sections=sections)


def resolve_seed(flag_seed: int | None, cfg: RunConfig | None) -> int:
    """Precedence: command-line flag, then environment, then config file."""
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InvalidConfig(f"{SEED_ENV} must be an integer, got {env!r}") from exc
    return 0 if cfg is None else cfg.get("run", "seed", 0)


# --- config -> pipeline objects --------------------------------------------

def _read_input(path, what: str) -> str:
    f = Path(path)
    if not f.exists():
        raise InvalidConfig(f"{what} file not found: {f}")
    return f.read_text()


def build_defaults(cfg: RunConfig) -> ExperimentDefaults:
    """``ExperimentDefaults()`` with the fields the config sets replaced, the
    ``[edgepre]`` and ``[infergat]`` keys replacing fields of its attack
    configs, once the ``SECTION_CHECKS`` of the sections present pass and each
    graph it hands the simulate stage passes ``check_graph``; every command
    that reads a config calls it before any work."""
    base = ExperimentDefaults()
    fields = {s: {keys[k][0]: v for k, v in cfg.sections.get(s, {}).items() if k in keys}
              for s, keys in FIELD_KEYS.items()}
    defaults = dataclasses.replace(
        base,
        **{f: v for s in SECTION_FIELDS if s not in ATTACK_SECTIONS for f, v in fields[s].items()},
        **{s: dataclasses.replace(getattr(base, s), **fields[s]) for s in ATTACK_SECTIONS},
    )
    for section, check in SECTION_CHECKS.items():
        if section in cfg.sections:
            check(cfg)
    kind = TOPOLOGY_KINDS.get(cfg.get("topology", "kind"))
    if kind is not None and cfg.get("data", "path") is None:  # a file's counts are checked once read
        n, p = cfg.get("topology", "n", N_NODES), cfg.get("topology", "p")
        defaults.check_graph(kind, n, p, defaults.rounds)
    if "sweep" in cfg.sections:
        _sweep_cells(cfg, defaults)  # the builder checks each grid point
    return defaults


def _topology_kind(cfg: RunConfig) -> str:
    """[topology] kind as the simulate stage names it, or "file"; the kind must
    have the key it needs (er: p, file: path), read every key the section sets
    (a file sets its own node count), and pass its generator's n and p checks."""
    kind, keys = cfg.get("topology", "kind"), cfg.sections.get("topology", {})
    if kind != "file" and kind not in TOPOLOGY_KINDS:
        raise InvalidConfig(f"[topology] kind must be ring, star, er or file, got {kind!r}")
    needs = {"er": "p", "file": "path"}.get(kind)
    if needs is not None and needs not in keys:
        raise InvalidConfig(f"[topology] kind={kind} needs {needs}")
    reads = ("kind", "path") if kind == "file" else ("kind", "n", needs)
    unread = [k for k in keys if k not in reads]
    if unread:
        raise InvalidConfig(f"[topology] kind={kind} does not read {', '.join(unread)}")
    if kind != "file":
        check_generator(TOPOLOGY_KINDS[kind], keys.get("n", N_NODES), keys.get("p"))
    return TOPOLOGY_KINDS.get(kind, kind)


def _partition_alpha(cfg: RunConfig) -> float | None:
    """[partition]: the Dirichlet alpha, or None for the IID default."""
    method = cfg.get("partition", "method", "iid")
    alpha = cfg.get("partition", "alpha")
    if method not in ("iid", "dirichlet"):
        raise InvalidConfig(f"unknown partition method {method!r}")
    if method == "dirichlet" and alpha is None:
        raise InvalidConfig("[partition] method=dirichlet needs alpha")
    if method == "iid" and alpha is not None:
        raise InvalidConfig("[partition] alpha needs method=dirichlet")
    if alpha is not None:
        check_alpha(alpha)
    return alpha


def _sweep_cells(cfg: RunConfig, defaults: ExperimentDefaults) -> list:
    """The cells of the [sweep] family and grid; the family's builder must read
    every grid key the section sets, and the config may set nothing the
    family's cells set themselves (graph, partition, DP, seed, data, and a
    size sweep's rounds)."""
    family = cfg.get("sweep", "family")
    if family not in SWEEP_FAMILIES:
        raise InvalidConfig(f"[sweep] family must be density, size or mitigation, got {family!r}")
    cells_of, arg_of_key = SWEEP_FAMILIES[family]
    unread = [k for k in cfg.sections["sweep"] if k not in ("family", "out_csv", *arg_of_key)]
    if unread:
        raise InvalidConfig(f"[sweep] family={family} does not read {', '.join(unread)}")
    cells = cells_of(**{arg_of_key[k]: v for k, v in cfg.sections["sweep"].items() if k in arg_of_key},
                     defaults=defaults)
    unread = [f"[{s}]" for s in ("run", "topology", "partition", "dp") if s in cfg.sections]
    keys = [("data", "path")] + ([("federation", "rounds")] if family == "size" else [])
    unread += [f"[{s}] {k}" for s, k in keys if cfg.get(s, k) is not None]
    if unread:
        raise InvalidConfig(f"[sweep] family={family} does not read {', '.join(unread)}")
    return cells


def _dp(cfg: RunConfig) -> tuple[float, float] | None:
    """[dp] as the (clip_norm, noise_sigma) of its ``DpConfig``, a key it leaves
    out keeping its ``DP_ON`` value, or None without the section."""
    if "dp" not in cfg.sections:
        return None
    clip_norm, noise_sigma = DP_ON
    dp = DpConfig(**{"clip_norm": clip_norm, "noise_sigma": noise_sigma, **cfg.sections["dp"]})
    return dp.clip_norm, dp.noise_sigma


# what each section's values must be from the config alone, checked for the sections present
SECTION_CHECKS = {"topology": _topology_kind, "partition": _partition_alpha, "dp": _dp}


# --- subcommands ------------------------------------------------------------

def cmd_gen_topology(args) -> int:
    flags = {k: v for k, v in vars(args).items() if k in ("kind", "n", "p") and v is not None}
    kind = _topology_kind(RunConfig({"topology": flags}))  # checked as the [topology] they stand for
    seed = resolve_seed(args.seed, None)
    topo = generate_topology(kind, args.n, args.p, seed)
    st = stats(topo)

    out = Path(args.out or f"{args.kind}{args.n}.edges")
    out.write_text(dump_topology(topo))
    doc = {
        "n_nodes": st.n_nodes,
        "n_edges": st.n_edges,
        "avg_degree": st.avg_degree,
        "density": st.density,
        "lambda2": st.second_eigenvalue_modulus,
    }
    out.with_suffix(".stats.json").write_text(json.dumps(doc, indent=2) + "\n")
    print(
        f"{args.kind}-{args.n}: n_edges={st.n_edges} avg_degree={st.avg_degree:.2f} "
        f"density={st.density:.2f} lambda2={st.second_eigenvalue_modulus:.4f} -> {out}"
    )
    return 0


def cmd_simulate(args) -> int:
    cfg = parse_config(args.config)
    seed = resolve_seed(args.seed, cfg)
    out_dir = args.out or cfg.get("run", "out_dir")
    if out_dir is None:
        raise InvalidConfig("simulate needs --out or [run] out_dir")
    defaults = build_defaults(cfg)
    kind, alpha = _topology_kind(cfg), _partition_alpha(cfg)

    # kind = file and [data] path hand the stage a topology or dataset it does not generate
    edges, csv = cfg.get("topology", "path"), cfg.get("data", "path")
    topo = None if edges is None else load_topology(_read_input(edges, "topology"))
    dataset = None if csv is None else load_csv(_read_input(csv, "dataset"))
    # a topology file sets the node count, else [topology] n if the config sets it
    n = topo.n_nodes if topo is not None else cfg.get("topology", "n")
    log = simulate(
        defaults, topology_kind=kind, er_p=cfg.get("topology", "p"), alpha=alpha,
        local_epochs=defaults.local_epochs, dp=_dp(cfg), seed=seed, rounds=defaults.rounds,
        topology=topo, dataset=dataset, **({} if n is None else {"n_nodes": n}),
    )
    save_log(log, out_dir)
    print(f"simulated {log.config.n_rounds} rounds over {log.config.topology.n_nodes} nodes -> {out_dir}")
    return 0


def cmd_attack(args) -> int:
    cfg = parse_config(args.config) if args.config else RunConfig({})
    seed = resolve_seed(args.seed, cfg)
    defaults = build_defaults(cfg)
    if args.labeled_frac is not None:
        defaults = dataclasses.replace(defaults, rho=args.labeled_frac)
        if not SCENARIOS[args.scenario].holds_labels:
            raise InvalidConfig(f"--labeled-frac: SC{args.scenario} holds no labeled pairs")

    log = load_log(args.log)
    res, ev = attack_log(args.scenario, log, seed, defaults)

    out_dir = Path(args.out or args.log)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"attack_sc{args.scenario}.csv").write_text(dump_matrix_csv(res.soft.values))
    doc = {
        "scenario": args.scenario,
        "seed": seed,
        "feature_kind": res.feature_kind.value,
        "labeled_fraction": defaults.rho if SCENARIOS[args.scenario].holds_labels else None,
        **dataclasses.asdict(ev),
    }
    (out_dir / f"attack_sc{args.scenario}.result.json").write_text(
        json.dumps(doc, indent=2) + "\n"
    )
    print(
        f"scenario={args.scenario} feature={res.feature_kind.value} policy={ev.eval_pair_policy} "
        f"n_eval_pairs={ev.n_eval_pairs} f1@0.5={ev.f1_05:.4f} best_f1={ev.best_f1:.4f} "
        f"auc={ev.auc:.4f}"
    )
    return 0


def cmd_evaluate(args) -> int:
    soft_text = _read_input(args.soft, "soft adjacency")
    topo = load_topology(_read_input(args.topology, "topology"))
    soft = SoftAdjacency(load_matrix_csv(soft_text))
    if soft.n_nodes != topo.n_nodes:
        raise ShapeError(
            f"soft adjacency is {soft.n_nodes}x{soft.n_nodes}, topology has {topo.n_nodes} nodes"
        )
    ev = evaluate_soft(soft, adjacency_matrix(topo), all_pairs(topo.n_nodes), ALL_PAIRS)
    print(
        f"policy={ev.eval_pair_policy} n_eval_pairs={ev.n_eval_pairs} "
        f"f1@0.5={ev.f1_05:.4f} best_f1={ev.best_f1:.4f} (tau={ev.best_tau:.3f}) "
        f"auc={ev.auc:.4f} precision={ev.precision:.4f} recall={ev.recall:.4f}"
    )
    if args.out:
        Path(args.out).write_text(json.dumps(dataclasses.asdict(ev), indent=2) + "\n")
    return 0


def cmd_sweep(args) -> int:
    cfg = parse_config(args.config)
    defaults = build_defaults(cfg)
    cells = _sweep_cells(cfg, defaults)
    out_csv = args.out or cfg.get("sweep", "out_csv")
    if out_csv is None:
        raise InvalidConfig("sweep needs --out or [sweep] out_csv")
    res = run_sweep(cells, defaults, out_csv, args.resume)
    n_ok = sum(1 for r in res.rows if r.status == "ok")
    print(f"sweep {cfg.get('sweep', 'family')}: {len(res.rows)} rows ({n_ok} ok) -> {out_csv}")
    return 0


def cmd_validate(args) -> int:
    build_defaults(parse_config(args.config))
    print(f"config ok: {args.config}")
    return 0


# --- parser -----------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topoleak",
        description="Decentralized federated learning simulator and topology inference attacks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-topology", help="generate an overlay topology file")
    g.add_argument("--kind", required=True, choices=("ring", "star", "er"))
    g.add_argument("--n", required=True, type=int)
    g.add_argument("--p", type=float, default=None)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_gen_topology)

    s = sub.add_parser("simulate", help="run a federation and persist the trace")
    s.add_argument("--config", required=True)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_simulate)

    a = sub.add_parser("attack", help="infer the topology from a persisted trace")
    a.add_argument("--log", required=True)
    a.add_argument("--scenario", required=True, type=int, choices=tuple(SCENARIOS))
    a.add_argument("--config", default=None)
    a.add_argument("--labeled-frac", type=float, default=None)
    a.add_argument("--seed", type=int, default=None)
    a.add_argument("--out", default=None)
    a.set_defaults(func=cmd_attack)

    e = sub.add_parser("evaluate", help="score a soft adjacency on all pairs of a topology")
    e.add_argument("--soft", required=True)
    e.add_argument("--topology", required=True)
    e.add_argument("--out", default=None)
    e.set_defaults(func=cmd_evaluate)

    w = sub.add_parser("sweep", help="run an experiment grid to CSV")
    w.add_argument("--config", required=True)
    w.add_argument("--out", default=None)
    w.add_argument("--resume", action="store_true")
    w.set_defaults(func=cmd_sweep)

    v = sub.add_parser("validate", help="schema-check a config file")
    v.add_argument("config")
    v.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidConfig, InvalidSize, InvalidProbability, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TopoleakError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
