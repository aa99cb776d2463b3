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

from .attacks import (
    EdgePreConfig,
    InferGatConfig,
    run_scenario,
    sample_knowledge,
)
from .data import Dataset, gen_blobs, load_csv, partition_dirichlet, partition_iid
from .engine import DpConfig, FederationConfig, load_log, run_simulation, save_log
from .errors import (
    InvalidConfig,
    InvalidProbability,
    InvalidSize,
    ParseError,
    TopoleakError,
    Unsupported,
)
from .evaluation import (
    ALL_PAIRS,
    HELD_OUT,
    ExperimentDefaults,
    all_pairs,
    density_sweep,
    evaluate_soft,
    held_out_pairs,
    mitigation_experiment,
    size_sweep,
)
from .metrics import dump_matrix_csv, load_matrix_csv
from .nn import TrainConfig
from .seeds import derive_seed
from .topology import (
    Topology,
    adjacency_matrix,
    aggregation_matrix,
    dump_topology,
    gen_erdos_renyi,
    gen_ring,
    gen_star,
    load_topology,
    second_eigenvalue_modulus,
    stats,
)

SEED_ENV = "TOPOLEAK_SEED"


# --- config schema ----------------------------------------------------------

def _to_int(s):
    return int(s)


def _to_float(s):
    return float(s)


def _to_str(s):
    return s


def _to_int_tuple(s):
    parts = [p.strip() for p in s.split(",") if p.strip()]
    return tuple(int(p) for p in parts)


def _to_float_tuple(s):
    parts = [p.strip() for p in s.split(",") if p.strip()]
    return tuple(float(p) for p in parts)


SCHEMA = {
    "run": {"seed": _to_int, "out_dir": _to_str},
    "topology": {"kind": _to_str, "n": _to_int, "p": _to_float, "path": _to_str},
    "data": {
        "k_classes": _to_int,
        "n_features": _to_int,
        "n_per_class": _to_int,
        "spread": _to_float,
        "path": _to_str,
    },
    "partition": {"method": _to_str, "alpha": _to_float},
    "train": {
        "local_epochs": _to_int,
        "learning_rate": _to_float,
        "batch_size": _to_int,
        "optimizer": _to_str,
    },
    "federation": {"rounds": _to_int, "hidden_sizes": _to_int_tuple, "activation": _to_str},
    "dp": {"clip_norm": _to_float, "noise_sigma": _to_float},
    "metric": {"phase": _to_str, "last_k": _to_int},
    "attack": {"rho": _to_float},
    "edgepre": {
        "hidden_sizes": _to_int_tuple,
        "epochs": _to_int,
        "learning_rate": _to_float,
    },
    "infergat": {
        "embed_dim": _to_int,
        "heads": _to_int,
        "epochs": _to_int,
        "learning_rate": _to_float,
        "decoder_hidden": _to_int_tuple,
        "optimizer": _to_str,
        "knn_k": _to_int,
    },
    "eval": {"policy": _to_str},
    "sweep": {
        "family": _to_str,
        "ps": _to_float_tuple,
        "ns": _to_int_tuple,
        "n": _to_int,
        "p": _to_float,
        "scenarios": _to_int_tuple,
        "seeds": _to_int_tuple,
        "out_csv": _to_str,
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

def build_topology(cfg: RunConfig, seed: int) -> Topology:
    kind = cfg.get("topology", "kind")
    if kind is None:
        raise InvalidConfig("config needs [topology] kind")
    if kind == "ring":
        return gen_ring(cfg.get("topology", "n", 10))
    if kind == "star":
        return gen_star(cfg.get("topology", "n", 10))
    if kind == "er":
        p = cfg.get("topology", "p")
        if p is None:
            raise InvalidConfig("[topology] kind=er needs p")
        return gen_erdos_renyi(cfg.get("topology", "n", 10), p, seed=derive_seed(seed, "topology"))
    if kind == "file":
        path = cfg.get("topology", "path")
        if path is None:
            raise InvalidConfig("[topology] kind=file needs path")
        f = Path(path)
        if not f.exists():
            raise InvalidConfig(f"topology file not found: {f}")
        return load_topology(f.read_text())
    raise InvalidConfig(f"unknown topology kind {kind!r}")


def build_dataset(cfg: RunConfig, seed: int) -> Dataset:
    path = cfg.get("data", "path")
    if path is not None:
        f = Path(path)
        if not f.exists():
            raise InvalidConfig(f"dataset file not found: {f}")
        return load_csv(f.read_text())
    return gen_blobs(
        cfg.get("data", "k_classes", 3),
        cfg.get("data", "n_features", 8),
        cfg.get("data", "n_per_class", 40),
        cfg.get("data", "spread", 1.0),
        seed=derive_seed(seed, "data"),
    )


def build_plan(cfg: RunConfig, dataset: Dataset, n_nodes: int, seed: int):
    method = cfg.get("partition", "method", "iid")
    part_seed = derive_seed(seed, "partition")
    if method == "iid":
        return partition_iid(dataset, n_nodes, part_seed)
    if method == "dirichlet":
        alpha = cfg.get("partition", "alpha")
        if alpha is None:
            raise InvalidConfig("[partition] method=dirichlet needs alpha")
        return partition_dirichlet(dataset, n_nodes, alpha, part_seed)
    raise InvalidConfig(f"unknown partition method {method!r}")


def build_federation(cfg: RunConfig, topology: Topology, seed: int) -> FederationConfig:
    train = TrainConfig(
        local_epochs=cfg.get("train", "local_epochs", 3),
        learning_rate=cfg.get("train", "learning_rate", 0.05),
        batch_size=cfg.get("train", "batch_size", 16),
        optimizer=cfg.get("train", "optimizer", "sgd"),
    )
    dp = None
    if cfg.has_section("dp"):
        dp = DpConfig(
            clip_norm=cfg.get("dp", "clip_norm", 1.0),
            noise_sigma=cfg.get("dp", "noise_sigma", 0.5),
            seed=derive_seed(seed, "dp"),
        )
    return FederationConfig(
        topology=topology,
        train=train,
        rounds=cfg.get("federation", "rounds"),
        dp=dp,
        hidden_sizes=cfg.get("federation", "hidden_sizes", (32, 16)),
        activation=cfg.get("federation", "activation", "relu"),
    )


def build_edgepre(cfg: RunConfig, seed: int) -> EdgePreConfig:
    return EdgePreConfig(
        hidden_sizes=cfg.get("edgepre", "hidden_sizes", (64, 32)),
        epochs=cfg.get("edgepre", "epochs", 300),
        learning_rate=cfg.get("edgepre", "learning_rate", 1e-2),
        seed=seed,
    )


def build_infergat(cfg: RunConfig, seed: int) -> InferGatConfig:
    return InferGatConfig(
        embed_dim=cfg.get("infergat", "embed_dim", 16),
        heads=cfg.get("infergat", "heads", 2),
        epochs=cfg.get("infergat", "epochs", 500),
        learning_rate=cfg.get("infergat", "learning_rate", 5e-3),
        decoder_hidden=cfg.get("infergat", "decoder_hidden", (16,)),
        optimizer=cfg.get("infergat", "optimizer", "adam"),
        knn_k=cfg.get("infergat", "knn_k"),
        seed=seed,
    )


def build_defaults(cfg: RunConfig) -> ExperimentDefaults:
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
        edgepre=build_edgepre(cfg, 0),
        infergat=build_infergat(cfg, 0),
    )


# --- subcommands ------------------------------------------------------------

def cmd_gen_topology(args) -> int:
    if args.kind == "ring":
        topo = gen_ring(args.n)
    elif args.kind == "star":
        topo = gen_star(args.n)
    else:
        if args.p is None:
            raise InvalidConfig("--kind er needs --p")
        topo = gen_erdos_renyi(args.n, args.p, seed=args.seed or 0)
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

    topo = build_topology(cfg, seed)
    dataset = build_dataset(cfg, seed)
    plan = build_plan(cfg, dataset, topo.n_nodes, seed)
    fed = build_federation(cfg, topo, seed)
    log = run_simulation(fed, dataset, plan, seed=derive_seed(seed, "simulate"))
    save_log(log, out_dir)
    print(
        f"simulated {fed.n_rounds} rounds over {topo.n_nodes} nodes "
        f"-> {Path(out_dir) / 'manifest.txt'}"
    )
    return 0


def _eval_policy(cfg: RunConfig | None, scenario: int) -> str:
    configured = cfg.get("eval", "policy") if cfg is not None else None
    if configured is not None:
        if configured not in (ALL_PAIRS, HELD_OUT):
            raise InvalidConfig(f"unknown eval policy {configured!r}")
        return configured
    return HELD_OUT if scenario in (1, 2) else ALL_PAIRS


def cmd_attack(args) -> int:
    cfg = parse_config(args.config) if args.config else None
    seed = resolve_seed(args.seed, cfg)
    log = load_log(args.log)
    topo = log.config.topology

    rho = args.labeled_frac
    if rho is None:
        rho = cfg.get("attack", "rho", 0.3) if cfg else 0.3
    knowledge = sample_knowledge(
        args.scenario, topo, rho=rho, seed=derive_seed(seed, "knowledge", args.scenario)
    )
    attack_seed = derive_seed(seed, "attack", args.scenario)
    edgepre_cfg = build_edgepre(cfg, attack_seed) if cfg else EdgePreConfig(seed=attack_seed)
    infergat_cfg = build_infergat(cfg, attack_seed) if cfg else InferGatConfig(seed=attack_seed)
    metric_phase = cfg.get("metric", "phase", "post") if cfg else "post"
    metric_last_k = cfg.get("metric", "last_k", 1) if cfg else 1

    res = run_scenario(
        knowledge,
        log,
        edgepre_cfg=edgepre_cfg,
        infergat_cfg=infergat_cfg,
        metric_phase=metric_phase,
        metric_last_k=metric_last_k,
    )

    policy = _eval_policy(cfg, args.scenario)
    if policy == HELD_OUT:
        pairs = held_out_pairs(topo.n_nodes, knowledge.known_pairs)
    else:
        pairs = all_pairs(topo.n_nodes)
    ev = evaluate_soft(res.soft, log.adjacency, pairs, policy)

    out_dir = Path(args.out or args.log)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"attack_sc{args.scenario}.csv").write_text(dump_matrix_csv(res.soft.values))
    doc = {
        "scenario": args.scenario,
        "feature_kind": res.feature_kind.value,
        "labeled_fraction": rho if args.scenario in (1, 2) else None,
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
    soft_path = Path(args.soft)
    topo_path = Path(args.topology)
    if not soft_path.exists():
        raise InvalidConfig(f"soft adjacency file not found: {soft_path}")
    if not topo_path.exists():
        raise InvalidConfig(f"topology file not found: {topo_path}")
    values = load_matrix_csv(soft_path.read_text())
    topo = load_topology(topo_path.read_text())
    truth = adjacency_matrix(topo)
    if args.policy == HELD_OUT:
        knowledge = sample_knowledge(
            1, topo, rho=args.labeled_frac, seed=derive_seed(args.seed or 0, "knowledge", 1)
        )
        pairs = held_out_pairs(topo.n_nodes, knowledge.known_pairs)
    else:
        pairs = all_pairs(topo.n_nodes)
    ev = evaluate_soft(values, truth, pairs, args.policy)
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
    seed = resolve_seed(args.seed, cfg)
    family = cfg.get("sweep", "family")
    if family is None:
        raise InvalidConfig("sweep config needs [sweep] family")
    out_csv = args.out or cfg.get("sweep", "out_csv")
    if out_csv is None:
        raise InvalidConfig("sweep needs --out or [sweep] out_csv")
    scenarios = cfg.get("sweep", "scenarios", (1, 2, 3, 4))
    seeds = cfg.get("sweep", "seeds", tuple(range(5)))
    seeds = tuple(derive_seed(seed, "sweep", s) if args.derive_seeds else s for s in seeds)
    defaults = build_defaults(cfg)

    if family == "density":
        res = density_sweep(
            cfg.get("sweep", "ps", (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)),
            cfg.get("sweep", "n", 10),
            scenarios,
            seeds,
            defaults=defaults,
            out_csv=out_csv,
            resume=args.resume,
        )
    elif family == "size":
        res = size_sweep(
            cfg.get("sweep", "ns", (10, 20, 30)),
            cfg.get("sweep", "p", 0.5),
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
            n_nodes=cfg.get("sweep", "n", 10),
            er_p=cfg.get("sweep", "p", 0.5),
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
    e.add_argument("--labeled-frac", type=float, default=0.3)
    e.add_argument("--seed", type=int, default=None)
    e.add_argument("--out", default=None)
    e.set_defaults(func=cmd_evaluate)

    w = sub.add_parser("sweep", help="run an experiment grid to CSV")
    w.add_argument("--config", required=True)
    w.add_argument("--seed", type=int, default=None)
    w.add_argument("--out", default=None)
    w.add_argument("--resume", action="store_true")
    w.add_argument(
        "--derive-seeds",
        action="store_true",
        help="derive per-run seeds from the root seed instead of using [sweep] seeds directly",
    )
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
