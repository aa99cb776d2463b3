"""Which program functions the traced run wraps, and the per-layer metrics
derived from the spans and counts it records.

Every value is per traced job, so runs with different job counts compare.
A function that no longer exists yields zeros and is listed as missing.
"""

from __future__ import annotations

import hashlib
import importlib
import os
from collections import defaultdict
from pathlib import Path

from tracer import Span, Tracer, outermost_in_layer, self_times

LAYERS = ("topology", "data", "nn", "engine", "metrics", "attacks", "evaluation", "cli")

# Called per minibatch step, per pair, per snapshot file or per threshold:
# counted, not spanned, so tracing stays cheap and the span list small.
COUNTED = frozenset(
    {
        "nn.loss_and_grad",
        "nn.forward_cached",
        "nn.backward_from_logits",
        "nn.forward_batch",
        "nn.forward",
        "nn.log_softmax",
        "nn.softmax",
        "nn.unpack",
        "nn.pack",
        "nn.dump_params",
        "nn.load_params",
        "attacks.build_pair_features",
        "evaluation.f1_score",
    }
)

# Functions the per-layer metrics read; absent ones are reported as missing.
EXPECTED = (
    "engine.run_simulation",
    "engine.save_log",
    "engine.load_log",
    "nn.train_local",
    "nn.loss_and_grad",
    "nn.forward_batch",
    "metrics.feature_from_log",
    "attacks.run_scenario",
    "attacks.edgepre_train",
    "attacks.edgepre_infer",
    "attacks.infergat_train",
    "attacks.infergat_infer",
    "evaluation.evaluate_soft",
    "evaluation.f1_score",
    "evaluation.auc_roc",
    "evaluation.run_cell",
    "evaluation.run_sweep",
    "cli.main",
)

# (metric name, unit), in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("engine.run_simulation.calls", "count"),
    ("engine.run_simulation.s", "s"),
    ("engine.sim_unique_ratio", "1"),
    ("nn.train_local.calls", "count"),
    ("nn.train_local.s", "s"),
    ("nn.loss_and_grad.calls", "count"),
    ("nn.step_us", "us"),
    ("engine.save_log.s", "s"),
    ("engine.save_log.files", "count"),
    ("engine.save_log.bytes", "B"),
    ("engine.load_log.s", "s"),
    ("metrics.feature_from_log.s", "s"),
    ("nn.forward_batch.calls", "count"),
    ("attacks.infergat_train.s", "s"),
    ("attacks.infergat_train.epochs", "count"),
    ("attacks.infergat_epoch_ms", "ms"),
    ("attacks.infergat_infer.s", "s"),
    ("attacks.edgepre_train.s", "s"),
    ("attacks.edgepre_infer.s", "s"),
    ("attacks.run_scenario.self_s", "s"),
    ("evaluation.evaluate_soft.calls", "count"),
    ("evaluation.evaluate_soft.s", "s"),
    ("evaluation.f1_score.calls", "count"),
    ("evaluation.auc_roc.s", "s"),
    ("evaluation.run_cell.calls", "count"),
    ("evaluation.run_cell.errors", "count"),
    ("evaluation.run_sweep.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("topology.s", "s"),
    ("data.s", "s"),
    ("trace.overhead_frac", "fraction"),
)


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _simulation_digest(args, kwargs, _result) -> dict:
    """Digest of every argument run_simulation reads, to count repeated work."""
    cfg = _arg(args, kwargs, 0, "cfg")
    dataset = _arg(args, kwargs, 1, "dataset")
    plan = _arg(args, kwargs, 2, "plan")
    seed = _arg(args, kwargs, 3, "seed")
    h = hashlib.sha256(repr((cfg, plan, seed)).encode())
    h.update(dataset.features.tobytes())
    h.update(dataset.labels.tobytes())
    return {"digest": h.hexdigest()}


def _saved_files(args, kwargs, _result) -> dict:
    root = Path(_arg(args, kwargs, 1, "out_dir"))
    files = n_bytes = 0
    for dirpath, _, names in os.walk(root):
        for name in names:
            files += 1
            n_bytes += os.path.getsize(os.path.join(dirpath, name))
    return {"files": files, "bytes": n_bytes}


HOOKS = {
    "engine.run_simulation": _simulation_digest,
    "engine.save_log": _saved_files,
    "attacks.infergat_train": lambda a, k, result: {"epochs": len(result[1])},
    "evaluation.run_cell": lambda a, k, row: {"error": int(row.status != "ok")},
}


def program_modules() -> dict:
    return {layer: importlib.import_module(f"topoleak.{layer}") for layer in LAYERS}


def install(tracer: Tracer):
    """Context manager that wraps the program's layers for ``tracer``."""
    return tracer.installed(program_modules(), COUNTED, HOOKS, EXPECTED)


def per_layer_metrics(
    spans: list[Span], counts: dict, n_jobs: int, overhead_frac: float
) -> dict[str, float]:
    """Per-job averages of span times, calls and attributes."""
    if n_jobs < 1:
        raise ValueError("per-layer metrics need at least one traced job")
    selfs = self_times(spans)
    total = defaultdict(float)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    attrs = defaultdict(float)
    digests = set()
    for s, own in zip(spans, selfs):
        total[s.name] += s.duration
        calls[s.name] += 1
        self_s[s.name] += own
        for key, value in s.attrs.items():
            if key == "digest":
                digests.add(value)
            else:
                attrs[f"{s.name}.{key}"] += value
    for (_job, name), c in counts.items():
        calls[name] += c

    def per_job(x):
        return x / n_jobs

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "engine.run_simulation.calls": per_job(calls["engine.run_simulation"]),
        "engine.run_simulation.s": per_job(total["engine.run_simulation"]),
        "engine.sim_unique_ratio": ratio(len(digests), calls["engine.run_simulation"]),
        "nn.train_local.calls": per_job(calls["nn.train_local"]),
        "nn.train_local.s": per_job(total["nn.train_local"]),
        "nn.loss_and_grad.calls": per_job(calls["nn.loss_and_grad"]),
        "nn.step_us": 1e6 * ratio(total["nn.train_local"], calls["nn.loss_and_grad"]),
        "engine.save_log.s": per_job(total["engine.save_log"]),
        "engine.save_log.files": per_job(attrs["engine.save_log.files"]),
        "engine.save_log.bytes": per_job(attrs["engine.save_log.bytes"]),
        "engine.load_log.s": per_job(total["engine.load_log"]),
        "metrics.feature_from_log.s": per_job(total["metrics.feature_from_log"]),
        "nn.forward_batch.calls": per_job(calls["nn.forward_batch"]),
        "attacks.infergat_train.s": per_job(total["attacks.infergat_train"]),
        "attacks.infergat_train.epochs": per_job(attrs["attacks.infergat_train.epochs"]),
        "attacks.infergat_epoch_ms": 1e3
        * ratio(total["attacks.infergat_train"], attrs["attacks.infergat_train.epochs"]),
        "attacks.infergat_infer.s": per_job(total["attacks.infergat_infer"]),
        "attacks.edgepre_train.s": per_job(total["attacks.edgepre_train"]),
        "attacks.edgepre_infer.s": per_job(total["attacks.edgepre_infer"]),
        "attacks.run_scenario.self_s": per_job(self_s["attacks.run_scenario"]),
        "evaluation.evaluate_soft.calls": per_job(calls["evaluation.evaluate_soft"]),
        "evaluation.evaluate_soft.s": per_job(total["evaluation.evaluate_soft"]),
        "evaluation.f1_score.calls": per_job(calls["evaluation.f1_score"]),
        "evaluation.auc_roc.s": per_job(total["evaluation.auc_roc"]),
        "evaluation.run_cell.calls": per_job(calls["evaluation.run_cell"]),
        "evaluation.run_cell.errors": per_job(attrs["evaluation.run_cell.error"]),
        "evaluation.run_sweep.self_s": per_job(self_s["evaluation.run_sweep"]),
        "cli.main.calls": per_job(calls["cli.main"]),
        "cli.main.self_s": per_job(self_s["cli.main"]),
        "topology.s": per_job(sum(s.duration for s in outermost_in_layer(spans, "topology"))),
        "data.s": per_job(sum(s.duration for s in outermost_in_layer(spans, "data"))),
        "trace.overhead_frac": overhead_frac,
    }
