"""Command-line entry point wiring config files to the pipeline.

Config files are INI-style sectioned key-value documents; every section and
key is schema-checked before any work happens, and unknown keys are
rejected rather than ignored.  Exit codes: 0 ok, 2 config error, 3 runtime
failure, 4 unsupported scenario.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .attacks import EdgePreConfig, InferGatConfig, SoftAdjacency
from .data import load_csv
from .engine import load_log, save_log
from .errors import (
    InvalidConfig,
    InvalidProbability,
    InvalidSize,
    ParseError,
    ShapeError,
    TopoleakError,
    Unsupported,
)
from .evaluation import (
    ALL_PAIRS,
    HELD_OUT,
    ExperimentDefaults,
    all_pairs,
    attack_log,
    generate_topology,
    density_sweep,
    evaluate_soft,
    knowledge_and_pairs,
    mitigation_experiment,
    simulate,
    size_sweep,
)
from .metrics import dump_matrix_csv, load_matrix_csv
from .topology import (
    adjacency_matrix,
    aggregation_matrix,
    dump_topology,
    load_topology,
    second_eigenvalue_modulus,
    stats,
)

SEED_ENV = "TOPOLEAK_SEED"

# the config's names for the simulate stage's generated topologies
TOPOLOGY_KINDS = {"ring": "ring", "star": "star", "er": "erdos_renyi"}


# --- config schema ----------------------------------------------------------

def _to_int_tuple(s):
    parts = [p.strip() for p in s.split(",") if p.strip()]
    return tuple(int(p) for p in parts)


def _to_float_tuple(s):
    parts = [p.strip() for p in s.split(",") if p.strip()]
    return tuple(float(p) for p in parts)


SCHEMA = {
    "run": {"seed": int, "out_dir": str},
    "topology": {"kind": str, "n": int, "p": float, "path": str},
    "data": {
        "k_classes": int,
        "n_features": int,
        "n_per_class": int,
        "spread": float,
        "path": str,
    },
    "partition": {"method": str, "alpha": float},
    "train": {
        "local_epochs": int,
        "learning_rate": float,
        "batch_size": int,
        "optimizer": str,
    },
    "federation": {"rounds": int, "hidden_sizes": _to_int_tuple, "activation": str},
    "dp": {"clip_norm": float, "noise_sigma": float},
    "metric": {"phase": str, "last_k": int},
    "attack": {"rho": float},
    "edgepre": {
        "hidden_sizes": _to_int_tuple,
        "epochs": int,
        "learning_rate": float,
    },
    "infergat": {
        "embed_dim": int,
        "heads": int,
        "epochs": int,
        "learning_rate": float,
        "decoder_hidden": _to_int_tuple,
        "knn_k": int,
    },
    "eval": {"policy": str},
    "sweep": {
        "family": str,
        "ps": _to_float_tuple,
        "ns": _to_int_tuple,
        "n": int,
        "p": float,
        "scenarios": _to_int_tuple,
        "seeds": _to_int_tuple,
        "out_csv": str,
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Schema-checked view of a config file."""

    sections: dict

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)

    def has_section(self, section: str) -> bool:
        return section in self.sections


def parse_config(path) -> RunConfig:
    """Read and schema-check an INI document; unknown keys are errors."""
    p = Path(path)
    if not p.exists():
        raise InvalidConfig(f"config file not found: {p}")
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with p.open() as fh:
            cp.read_file(fh)
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
    if cfg is not None:
        return cfg.get("run", "seed", 0)
    return 0


# --- config -> pipeline objects --------------------------------------------

def _read_input(path, what: str) -> str:
    f = Path(path)
    if not f.exists():
        raise InvalidConfig(f"{what} file not found: {f}")
    return f.read_text()


def build_defaults(cfg: RunConfig) -> ExperimentDefaults:
    """Every pipeline knob of a config, with the CLI's defaults for absent keys."""
    return ExperimentDefaults(
        k_classes=cfg.get("data", "k_classes", 3),
        n_features=cfg.get("data", "n_features", 8),
        n_per_class=cfg.get("data", "n_per_class", 40),
        spread=cfg.get("data", "spread", 1.0),
        learning_rate=cfg.get("train", "learning_rate", 0.05),
        batch_size=cfg.get("train", "batch_size", 16),
        optimizer=cfg.get("train", "optimizer", "sgd"),
        local_epochs=cfg.get("train", "local_epochs", 3),
        rounds=cfg.get("federation", "rounds"),
        hidden_sizes=cfg.get("federation", "hidden_sizes", (32, 16)),
        activation=cfg.get("federation", "activation", "relu"),
        rho=cfg.get("attack", "rho", 0.3),
        metric_phase=cfg.get("metric", "phase", "post"),
        metric_last_k=cfg.get("metric", "last_k", 1),
        # the schema's attack keys are the configs' field names; absent keys keep their defaults
        edgepre=EdgePreConfig(**cfg.sections.get("edgepre", {})),
        infergat=InferGatConfig(**cfg.sections.get("infergat", {})),
    )


# --- subcommands ------------------------------------------------------------

def cmd_gen_topology(args) -> int:
    seed = resolve_seed(args.seed, None)
    topo = generate_topology(TOPOLOGY_KINDS[args.kind], args.n, args.p, seed)
    st = stats(topo)
    lam = second_eigenvalue_modulus(aggregation_matrix(adjacency_matrix(topo)))

    out = Path(args.out or f"{args.kind}{args.n}.edges")
    out.write_text(dump_topology(topo))
    doc = {
        "n_nodes": st.n_nodes,
        "n_edges": st.n_edges,
        "avg_degree": st.avg_degree,
        "density": st.density,
        "lambda2": lam,
    }
    out.with_suffix(".stats.json").write_text(json.dumps(doc, indent=2) + "\n")
    print(
        f"{args.kind}-{args.n}: n_edges={st.n_edges} avg_degree={st.avg_degree:.2f} "
        f"density={st.density:.2f} lambda2={lam:.4f} -> {out}"
    )
    return 0


def cmd_simulate(args) -> int:
    cfg = parse_config(args.config)
    seed = resolve_seed(args.seed, cfg)
    out_dir = args.out or cfg.get("run", "out_dir")
    if out_dir is None:
        raise InvalidConfig("simulate needs --out or [run] out_dir")
    defaults = build_defaults(cfg)

    # kind = file and [data] path hand the stage a topology or dataset it does not generate
    kind = cfg.get("topology", "kind")
    topo = None
    if kind == "file":
        path = cfg.get("topology", "path")
        if path is None:
            raise InvalidConfig("[topology] kind=file needs path")
        topo = load_topology(_read_input(path, "topology"))
    elif kind not in TOPOLOGY_KINDS:
        raise InvalidConfig(f"[topology] kind must be ring, star, er or file, got {kind!r}")
    path = cfg.get("data", "path")
    dataset = None if path is None else load_csv(_read_input(path, "dataset"))
    method = cfg.get("partition", "method", "iid")
    if method not in ("iid", "dirichlet"):
        raise InvalidConfig(f"unknown partition method {method!r}")
    alpha = cfg.get("partition", "alpha") if method == "dirichlet" else None
    if method == "dirichlet" and alpha is None:
        raise InvalidConfig("[partition] method=dirichlet needs alpha")
    dp = None
    if cfg.has_section("dp"):
        dp = (cfg.get("dp", "clip_norm", 1.0), cfg.get("dp", "noise_sigma", 0.5))
    log = simulate(
        defaults,
        topology_kind=TOPOLOGY_KINDS.get(kind, kind),
        n_nodes=cfg.get("topology", "n", 10) if topo is None else topo.n_nodes,
        er_p=cfg.get("topology", "p"),
        alpha=alpha,
        local_epochs=defaults.local_epochs,
        dp=dp,
        seed=seed,
        rounds=defaults.rounds,
        topology=topo,
        dataset=dataset,
    )
    save_log(log, out_dir)
    print(
        f"simulated {log.config.n_rounds} rounds over {log.config.topology.n_nodes} nodes "
        f"-> {Path(out_dir) / 'manifest.txt'}"
    )
    return 0


def cmd_attack(args) -> int:
    cfg = parse_config(args.config) if args.config else RunConfig({})
    seed = resolve_seed(args.seed, cfg)
    defaults = build_defaults(cfg)
    if args.labeled_frac is not None:
        defaults = dataclasses.replace(defaults, rho=args.labeled_frac)
    policy = cfg.get("eval", "policy")
    if policy not in (None, ALL_PAIRS, HELD_OUT):
        raise InvalidConfig(f"unknown eval policy {policy!r}")

    log = load_log(args.log)
    res, ev = attack_log(args.scenario, log, seed, defaults, policy)

    out_dir = Path(args.out or args.log)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"attack_sc{args.scenario}.csv").write_text(dump_matrix_csv(res.soft.values))
    doc = {
        "scenario": args.scenario,
        "seed": seed,
        "feature_kind": res.feature_kind.value,
        "labeled_fraction": defaults.rho if args.scenario in (1, 2) else None,
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


def _attack_record(soft_path) -> tuple[int, int, float | None]:
    """(scenario, seed, labeled fraction) from the JSON ``attack`` wrote beside a soft CSV."""
    path = Path(soft_path).with_suffix(".result.json")
    try:
        doc = json.loads(_read_input(path, "attack result"))
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"attack result {path} is not JSON: {exc}") from exc
    doc = doc if isinstance(doc, dict) else {}
    types = {"scenario": int, "seed": int, "labeled_fraction": (int, float)}
    needed = ("scenario", "seed") + (("labeled_fraction",) if doc.get("scenario") in (1, 2) else ())
    missing = [k for k in needed if not isinstance(doc.get(k), types[k])]
    if missing:
        raise InvalidConfig(f"attack result {path} lacks a valid {', '.join(missing)}")
    return doc["scenario"], doc["seed"], doc.get("labeled_fraction")


def cmd_evaluate(args) -> int:
    soft_text = _read_input(args.soft, "soft adjacency")
    topo = load_topology(_read_input(args.topology, "topology"))
    soft = SoftAdjacency(load_matrix_csv(soft_text))
    if soft.n_nodes != topo.n_nodes:
        raise ShapeError(
            f"soft adjacency is {soft.n_nodes}x{soft.n_nodes}, topology has {topo.n_nodes} nodes"
        )
    if args.policy == HELD_OUT:
        scenario, seed, rho = _attack_record(args.soft)
        _, pairs, _ = knowledge_and_pairs(scenario, topo, seed, rho, HELD_OUT)
    else:
        pairs = all_pairs(topo.n_nodes)
    ev = evaluate_soft(soft, adjacency_matrix(topo), pairs, args.policy)
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
    family = cfg.get("sweep", "family")
    if family is None:
        raise InvalidConfig("sweep config needs [sweep] family")
    out_csv = args.out or cfg.get("sweep", "out_csv")
    if out_csv is None:
        raise InvalidConfig("sweep needs --out or [sweep] out_csv")
    scenarios = cfg.get("sweep", "scenarios", (1, 2, 3, 4))
    seeds = cfg.get("sweep", "seeds", tuple(range(5)))
    defaults = build_defaults(cfg)

    n, p = cfg.get("sweep", "n", 10), cfg.get("sweep", "p", 0.5)

    if family == "density":
        res = density_sweep(
            cfg.get("sweep", "ps", (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)),
            n,
            scenarios,
            seeds,
            defaults=defaults,
            out_csv=out_csv,
            resume=args.resume,
        )
    elif family == "size":
        res = size_sweep(
            cfg.get("sweep", "ns", (10, 20, 30)),
            p,
            scenarios,
            seeds,
            defaults=defaults,
            out_csv=out_csv,
            resume=args.resume,
        )
    elif family == "mitigation":
        res = mitigation_experiment(
            scenarios,
            seeds,
            n_nodes=n,
            er_p=p,
            defaults=defaults,
            out_csv=out_csv,
            resume=args.resume,
        )
    else:
        raise InvalidConfig(f"unknown sweep family {family!r}")
    n_ok = sum(1 for r in res.rows if r.status == "ok")
    print(f"sweep {family}: {len(res.rows)} rows ({n_ok} ok) -> {out_csv}")
    return 0


def cmd_validate(args) -> int:
    parse_config(args.config)
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
    a.add_argument("--scenario", required=True, type=int, choices=(1, 2, 3, 4, 5))
    a.add_argument("--config", default=None)
    a.add_argument("--labeled-frac", type=float, default=None)
    a.add_argument("--seed", type=int, default=None)
    a.add_argument("--out", default=None)
    a.set_defaults(func=cmd_attack)

    e = sub.add_parser("evaluate", help="score a soft adjacency against a topology")
    e.add_argument("--soft", required=True)
    e.add_argument("--topology", required=True)
    e.add_argument("--policy", choices=(ALL_PAIRS, HELD_OUT), default=ALL_PAIRS)
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
    except Unsupported as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (InvalidConfig, InvalidSize, InvalidProbability, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TopoleakError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
