"""Experiment runner: ``run`` executes a configured scenario and persists the
run directory, ``eval`` recomputes metrics from persisted artifacts, and
``verify`` runs the embedded oracle battery.

Configuration comes from an optional key=value text file (``#`` comments;
an unknown key is an error naming its line) with command-line flags taking
precedence; ``CDD_SEED`` serves as the seed fallback. A ``seeds`` key in
the file expands into one sub-run per seed (written to ``<out>/<seed>/``),
optionally fanned out across ``--jobs`` worker threads. Exit codes: 0
success, 1 runtime failure, 2 invalid usage or validation failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, EngineError, ParseError
from .losses import AGG_RULES
from .metrics import (
    aa,
    af,
    af_last,
    aa_m,
    ap,
    compute_metrics,
    map_score,
    metrics_to_json,
    pr_curve,
    read_accuracy_matrix,
    read_predictions,
    write_accuracy_matrix,
    write_metrics_json,
    write_predictions,
    write_pr_curves,
)
from .model import BC, MT, SYSTEMS, save_checkpoint
from .stream import SCENARIO_KINDS, build_scenario, load_dataset, synth_generate
from .trainer import TrainConfig, resolve_profile, run_scenario_over_sessions
from .verify import format_report, run_battery

_PROFILE_OVERRIDE_KEYS = ("gamma_d", "gamma_m", "T", "tau", "J", "distill_form", "replay_payload")
_CONFIG_KEYS = frozenset((
    "scenario", "data", "profile", "system", "aggregation", "memory", "seed", "seeds",
    "epochs", "lr", "batch_size", "lambda", "label_smooth", "mixup", "warmup", "out", "jobs",
    *_PROFILE_OVERRIDE_KEYS,
))


@dataclass
class ExperimentConfig:
    scenario: str | None = None
    data: list[str] = field(default_factory=list)
    profile: str = ""
    system: str = ""
    aggregation: str | None = None
    memory: int = 1500
    seed: int = 0
    seeds: list[int] | None = None
    epochs: int = 6
    lr: float = 1e-3
    batch_size: int = 32
    lam: float = 0.3
    label_smooth: float = 0.0
    mixup: float = 0.0
    warmup: bool = True
    out: str = ""
    jobs: int = 1
    overrides: dict = field(default_factory=dict)

    def validate(self) -> None:
        if bool(self.scenario) == bool(self.data):
            raise ConfigError("exactly one of a scenario kind or dataset paths is required")
        if self.scenario and self.scenario not in SCENARIO_KINDS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if not self.profile:
            raise ConfigError("a method profile is required")
        if self.system not in SYSTEMS:
            raise ConfigError(f"learning system must be one of {', '.join(SYSTEMS)}")
        if self.aggregation is not None and self.system != MT:
            raise ConfigError("aggregation rules apply to the multi-task system only")
        if self.aggregation is not None and self.aggregation not in AGG_RULES:
            raise ConfigError(f"unknown aggregation rule {self.aggregation!r}")
        if self.memory < 0:
            raise ConfigError("memory budget must be non-negative")
        if not self.out:
            raise ConfigError("an output directory is required")
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")

    def echo(self) -> dict:
        # everything needed to rerun; the output path stays out so reruns
        # into different directories produce byte-identical artifacts
        echo = {
            "scenario": self.scenario,
            "data": list(self.data),
            "profile": self.profile,
            "system": self.system,
            "aggregation": self.aggregation,
            "memory": self.memory,
            "seed": self.seed,
            "epochs": self.epochs,
            "lr": self.lr,
            "batch_size": self.batch_size,
            "lambda": self.lam,
            "label_smooth": self.label_smooth,
            "mixup": self.mixup,
            "warmup": self.warmup,
        }
        echo.update({f"override_{k}": v for k, v in sorted(self.overrides.items())})
        return echo


def _parse_config_file(path: str) -> dict:
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError("expected key = value", line=lineno)
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ParseError(f"unknown config key {key!r}", line=lineno)
            values[key] = value.strip()
    return values


def _config_from_sources(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    raw = _parse_config_file(args.config) if args.config else {}

    def take(key, cast, default):
        return cast(raw[key]) if key in raw else default

    cfg.scenario = take("scenario", str, None)
    cfg.data = raw["data"].split() if "data" in raw else []
    cfg.profile = take("profile", str, "")
    cfg.system = take("system", str, "")
    cfg.aggregation = take("aggregation", str, None)
    cfg.memory = take("memory", int, cfg.memory)
    cfg.epochs = take("epochs", int, cfg.epochs)
    cfg.lr = take("lr", float, cfg.lr)
    cfg.batch_size = take("batch_size", int, cfg.batch_size)
    cfg.lam = take("lambda", float, cfg.lam)
    cfg.label_smooth = take("label_smooth", float, cfg.label_smooth)
    cfg.mixup = take("mixup", float, cfg.mixup)
    cfg.warmup = take("warmup", lambda v: v.lower() not in ("0", "false", "no"), cfg.warmup)
    cfg.out = take("out", str, "")
    cfg.jobs = take("jobs", int, cfg.jobs)
    if "seeds" in raw:
        cfg.seeds = [int(v) for v in raw["seeds"].replace(",", " ").split()]
    for key in _PROFILE_OVERRIDE_KEYS:
        if key in raw:
            cast = str if key in ("distill_form", "replay_payload") else (int if key == "J" else float)
            cfg.overrides[key] = cast(raw[key])

    file_seed = int(raw["seed"]) if "seed" in raw else None
    env_seed = os.environ.get("CDD_SEED")
    if args.seed is not None:
        cfg.seed = args.seed
    elif file_seed is not None:
        cfg.seed = file_seed
    elif env_seed is not None:
        cfg.seed = int(env_seed)

    if args.scenario:
        cfg.scenario = args.scenario
        cfg.data = []
    if args.data:
        cfg.data = args.data
        cfg.scenario = None
    for flag in ("profile", "system", "aggregation", "out"):
        value = getattr(args, flag)
        if value is not None:
            setattr(cfg, flag, value)
    for flag in ("memory", "epochs", "jobs"):
        value = getattr(args, flag)
        if value is not None:
            setattr(cfg, flag, value)
    return cfg


def _execute_run(cfg: ExperimentConfig, out_dir: Path) -> None:
    profile = resolve_profile(
        cfg.profile,
        cfg.system,
        aggregation=cfg.aggregation,
        lam=cfg.lam,
        label_smooth_eps=cfg.label_smooth,
        mixup_alpha=cfg.mixup,
        **cfg.overrides,
    )
    train_cfg = TrainConfig(
        epochs=cfg.epochs, lr=cfg.lr, batch_size=cfg.batch_size, seed=cfg.seed
    )
    if cfg.scenario:
        scenario = build_scenario(cfg.scenario, cfg.seed, with_warmup=cfg.warmup, budget=cfg.memory)
        sessions = [synth_generate(t, scenario.seed) for t in scenario.tasks]
        warmup = synth_generate(scenario.warmup, scenario.seed) if scenario.warmup else None
    else:
        sessions = [load_dataset(p) for p in cfg.data]
        warmup = None

    record = run_scenario_over_sessions(
        sessions, warmup, cfg.memory, profile, train_cfg, cfg.system, config_echo=cfg.echo()
    )
    metrics, curves = compute_metrics(record)

    out_dir.mkdir(parents=True, exist_ok=True)
    write_accuracy_matrix(out_dir / "accuracy_matrix.csv", record.matrix)
    write_metrics_json(out_dir / "metrics.json", metrics)
    write_pr_curves(out_dir / "pr_curves.csv", curves)
    write_predictions(out_dir / "predictions.csv", record)
    memory_payload = record.memory.to_payload() if record.memory is not None else None
    save_checkpoint(out_dir / "checkpoint.json", record.model, memory_payload)
    with open(out_dir / "config.json", "w", encoding="utf-8") as fh:
        json.dump(cfg.echo(), fh, sort_keys=True, indent=2)
        fh.write("\n")


def cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = _config_from_sources(args)
        cfg.validate()
    except (ConfigError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    seeds = cfg.seeds if cfg.seeds else [cfg.seed]
    try:
        if len(seeds) == 1:
            cfg.seed = seeds[0]
            _execute_run(cfg, Path(cfg.out))
        else:
            configs = []
            for seed in seeds:
                sub = ExperimentConfig(**{**cfg.__dict__, "seed": seed, "seeds": None})
                configs.append((sub, Path(cfg.out) / str(seed)))
            with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
                futures = [pool.submit(_execute_run, sub, directory) for sub, directory in configs]
                for future in futures:
                    future.result()
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1
    return 0


def recompute_metrics_json(run_dir: Path) -> str:
    """Rebuild the metrics document from the persisted artifacts alone."""
    matrix = read_accuracy_matrix(run_dir / "accuracy_matrix.csv")
    n = matrix.shape[0]
    logs = read_predictions(run_dir / "predictions.csv")
    with open(run_dir / "config.json", encoding="utf-8") as fh:
        echo = json.load(fh)
    curves = {tid: pr_curve(log.p_fake, log.true_polarity) for tid, log in logs.items()}
    metrics = {
        "aa": aa(matrix),
        "af": af(matrix) if n >= 2 else None,
        "af_last": af_last(matrix) if n >= 2 else None,
        "aa_m": aa_m(logs) if logs else None,
        "per_task_ap": {str(tid): ap(curves[tid]) for tid in sorted(curves)},
        "map": map_score(curves) if curves else None,
        "config": echo,
    }
    return metrics_to_json(metrics)


def _print_metrics_table(metrics: dict) -> None:
    def fmt(v):
        return "NA" if v is None else f"{v:.6f}"

    print(f"{'AA':<8}{fmt(metrics.get('aa'))}")
    print(f"{'AF':<8}{fmt(metrics.get('af'))}")
    print(f"{'AA-M':<8}{fmt(metrics.get('aa_m'))}")
    print(f"{'mAP':<8}{fmt(metrics.get('map'))}")
    for task, value in sorted(metrics.get("per_task_ap", {}).items(), key=lambda kv: int(kv[0])):
        print(f"AP[{task}]  {value:.6f}")


def cmd_eval(args: argparse.Namespace) -> int:
    path = Path(args.path)
    try:
        if path.is_dir():
            document = recompute_metrics_json(path)
            _print_metrics_table(json.loads(document))
        else:
            matrix = read_accuracy_matrix(path)
            print(f"{'AA':<8}{aa(matrix):.6f}")
            if matrix.shape[0] >= 2:
                print(f"{'AF':<8}{af(matrix):.6f}")
    except (ParseError, ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_battery(seed=args.seed if args.seed is not None else 0)
    print(format_report(results))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cddet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="train through a scenario and persist the run")
    run_p.add_argument("--config", help="key=value config file")
    run_p.add_argument("--scenario", choices=SCENARIO_KINDS)
    run_p.add_argument("--data", nargs="+", help="dataset CSV paths, one per task")
    run_p.add_argument("--profile")
    run_p.add_argument("--system", choices=SYSTEMS)
    run_p.add_argument("--aggregation", choices=AGG_RULES)
    run_p.add_argument("--memory", type=int)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--epochs", type=int)
    run_p.add_argument("--out")
    run_p.add_argument("--jobs", type=int)
    run_p.set_defaults(func=cmd_run)

    eval_p = sub.add_parser("eval", help="recompute metrics from a run dir or matrix file")
    eval_p.add_argument("path")
    eval_p.set_defaults(func=cmd_eval)

    verify_p = sub.add_parser("verify", help="run the oracle battery")
    verify_p.add_argument("--seed", type=int)
    verify_p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
