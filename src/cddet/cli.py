"""Experiment runner: ``run`` executes a configured scenario and persists the
run directory, ``eval`` recomputes metrics from persisted artifacts and
checks them against the stored ``metrics.json``, and ``verify`` runs the
embedded oracle battery.

Configuration comes from an optional key=value text file (``#`` comments;
an unknown key or a value that does not parse is an error naming its line)
with command-line flags taking precedence; ``CDD_SEED`` serves as the seed
fallback, and seed 0 as the last. A ``seeds`` key in the file expands into
one sub-run per seed, written to ``<out>/<seed>/``; the seeds run one after
another, each exactly as a single run of that seed. ``run`` checks every
setting (``ExperimentConfig.resolve``) and creates every run directory
before it builds any data.

Exit codes: 0 success; 2 a usage error: a bad setting or combination of
settings, any input file that cannot be read (``errors.read_text`` reads
each, and the message names it), a run directory that cannot be created, a
malformed dataset file, dataset files of different widths or of one task
(checked once loaded, before the model is built), a malformed run-directory
file, or a ``metrics.json`` that differs from its recomputation (the message
names the first field); 1 a runtime failure.

A seeded run reproduces at two levels: on the same numpy build and CPU, all
six artifacts are byte-identical; on any kernels (another CPU, or OpenBLAS's
or numpy's dispatch switched), ``metrics.json`` and ``accuracy_matrix.csv``
are, and the scores and weights may move in their last bits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import ConfigError, EngineError, ParseError, names_its_file, read_text
from .losses import AGG_RULES, LossWeights
from .metrics import (
    aa,
    af,
    compute_metrics,
    metrics_to_json,
    read_accuracy_matrix,
    read_predictions,
    write_accuracy_matrix,
    write_metrics_json,
    write_predictions,
    write_pr_curves,
)
from .model import FAKE, SYSTEMS, save_checkpoint
from .stream import _SCENARIO_SOURCES, SCENARIO_KINDS, build_scenario, load_dataset, synth_generate
from .trainer import MethodProfile, TrainConfig, resolve_profile, run_scenario_over_sessions

_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_bool(value: str) -> bool:
    return _BOOLEANS[value.lower()]


def _parse_ints(value: str) -> list[int]:
    values = [int(v) for v in value.replace(",", " ").split()]
    if not values:
        raise ValueError("no integers")
    return values


# config-file key -> parser; the key names an ExperimentConfig field
# (``lambda`` names ``lam``) or, for the profile overrides, an entry of
# ``ExperimentConfig.overrides``
_FIELDS = {
    "scenario": str, "data": str.split, "profile": str, "system": str, "aggregation": str,
    "memory": int, "epochs": int, "lr": float, "batch_size": int, "lambda": float,
    "label_smooth": float, "mixup": float, "warmup": _parse_bool, "out": str,
    "seed": int, "seeds": _parse_ints,
}
_PROFILE_OVERRIDES = {
    "gamma_d": float, "gamma_m": float, "T": float, "tau": float, "J": int,
    "distill_form": str, "replay_payload": str,
}
_CONFIG_KEYS = frozenset((*_FIELDS, *_PROFILE_OVERRIDES))
_EXPECTED = {
    int: "an integer", float: "a number", _parse_bool: "one of 1/0/true/false/yes/no", _parse_ints: "integers",
}


@dataclass
class ExperimentConfig:
    scenario: str | None = None
    data: list[str] = field(default_factory=list)
    profile: str = ""
    system: str = ""
    aggregation: str | None = None
    memory: int = 1500
    seed: int = TrainConfig.seed
    seeds: list[int] | None = None
    epochs: int = TrainConfig.epochs
    lr: float = TrainConfig.lr
    batch_size: int = TrainConfig.batch_size
    lam: float = LossWeights.lam
    label_smooth: float = MethodProfile.label_smooth_eps
    mixup: float = MethodProfile.mixup_alpha
    warmup: bool = True
    out: str = ""
    overrides: dict = field(default_factory=dict)

    def resolve(self) -> tuple[MethodProfile, TrainConfig]:
        """Check every setting and bind the method profile and the training
        settings; raises ``ConfigError`` before any data is built."""
        if bool(self.scenario) == bool(self.data):
            raise ConfigError("exactly one of a scenario kind or dataset paths is required")
        if self.scenario and self.scenario not in SCENARIO_KINDS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if not self.profile:
            raise ConfigError("a method profile is required")
        if self.memory < 0:
            raise ConfigError("memory budget must be non-negative")
        if not self.out:
            raise ConfigError("an output directory is required")
        for i, seed in enumerate(self.seeds or ()):
            if seed < 0:
                raise ConfigError("seeds must be non-negative")
            if seed in self.seeds[:i]:
                raise ConfigError(f"seeds: seed {seed} is listed twice")
        profile = resolve_profile(
            self.profile, self.system, aggregation=self.aggregation, lam=self.lam,
            label_smooth_eps=self.label_smooth, mixup_alpha=self.mixup, **self.overrides,
        )
        train_cfg = TrainConfig(epochs=self.epochs, lr=self.lr, batch_size=self.batch_size, seed=self.seed)
        return profile, train_cfg

    def echo(self) -> dict:
        # every setting needed to rerun, the overrides flattened; the output
        # path stays out so reruns into different directories produce
        # byte-identical artifacts, and the seed grid too
        skipped = ("seeds", "out", "overrides")
        echo = {"lambda" if k == "lam" else k: v for k, v in vars(self).items() if k not in skipped}
        echo.update({f"override_{k}": v for k, v in sorted(self.overrides.items())})
        return echo


@names_its_file
def _parse_config_file(path: str) -> dict:
    """Each key's parsed value; a later line wins."""
    values: dict = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected key = value", line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ParseError(f"unknown config key {key!r}", line=lineno)
        cast = _FIELDS.get(key) or _PROFILE_OVERRIDES[key]
        try:
            values[key] = cast(value)
        except (ValueError, KeyError):
            raise ParseError(f"{key}: expected {_EXPECTED[cast]}, found {value!r}", line=lineno) from None
    return values


def _config_from_sources(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    raw = _parse_config_file(args.config) if args.config else {}
    for key, value in raw.items():
        if key in _PROFILE_OVERRIDES:
            cfg.overrides[key] = value
        else:
            setattr(cfg, "lam" if key == "lambda" else key, value)

    env_seed = os.environ.get("CDD_SEED")
    if args.seed is not None:
        cfg.seed = args.seed
    elif "seed" not in raw and env_seed is not None:
        try:
            cfg.seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"CDD_SEED: expected an integer, found {env_seed!r}") from None

    if args.scenario:
        cfg.scenario = args.scenario
        cfg.data = []
    if args.data:
        cfg.data = args.data
        cfg.scenario = None
    for flag in ("profile", "system", "aggregation", "out", "memory", "epochs"):
        value = getattr(args, flag)
        if value is not None:
            setattr(cfg, flag, value)
    return cfg


def _execute_run(cfg: ExperimentConfig, profile: MethodProfile, train_cfg: TrainConfig, out_dir: Path) -> None:
    if cfg.scenario:
        scenario = build_scenario(cfg.scenario, cfg.seed, with_warmup=cfg.warmup)
        sessions = [synth_generate(t, scenario.seed) for t in scenario.tasks]
        warmup = synth_generate(scenario.warmup, scenario.seed) if scenario.warmup else None
    else:
        sessions = [load_dataset(p) for p in cfg.data]
        warmup = None
        first_file: dict[int, str] = {}
        for path, session in zip(cfg.data, sessions):
            if session.task_id in first_file:
                raise ParseError(f"task {session.task_id} is also the task of {first_file[session.task_id]}", path=path)
            first_file[session.task_id] = path

    # the task ids are an output, so that ``eval`` can check the predictions' tasks
    echo = cfg.echo() | {"task_ids": [s.task_id for s in sessions]}
    record = run_scenario_over_sessions(sessions, warmup, cfg.memory, profile, train_cfg, cfg.system)
    metrics, curves = compute_metrics(record.matrix, record.logs, echo)

    write_accuracy_matrix(out_dir / "accuracy_matrix.csv", record.matrix)
    write_metrics_json(out_dir / "metrics.json", metrics)
    write_pr_curves(out_dir / "pr_curves.csv", curves)
    write_predictions(out_dir / "predictions.csv", record.logs)
    memory_payload = record.memory.to_payload() if record.memory is not None else None
    save_checkpoint(out_dir / "checkpoint.json", record.model, memory_payload)
    with open(out_dir / "config.json", "w", encoding="utf-8") as fh:
        json.dump(echo, fh, sort_keys=True, indent=2)
        fh.write("\n")


def cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = _config_from_sources(args)
        profile, train_cfg = cfg.resolve()
        seeds = cfg.seeds if cfg.seeds else [cfg.seed]
        runs = [
            (replace(cfg, seed=seed, seeds=None), profile, replace(train_cfg, seed=seed),
             Path(cfg.out) if len(seeds) == 1 else Path(cfg.out) / str(seed))
            for seed in seeds
        ]
        for *_, out_dir in runs:
            out_dir.mkdir(parents=True, exist_ok=True)
    except (ConfigError, ParseError) as exc:
        return _usage_error(exc)
    except OSError as exc:
        print(f"error: cannot create the run directory {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2

    try:
        for run in runs:
            _execute_run(*run)
    except (ConfigError, ParseError) as exc:
        return _usage_error(exc)
    except EngineError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1
    return 0


def _usage_error(exc: Exception) -> int:
    """Print ``exc`` as a usage error, after the file at fault if it names one."""
    path = getattr(exc, "path", None)
    print(f"error: {exc}" if path is None else f"error: {path}: {exc}", file=sys.stderr)
    return 2


def _read_json_object(path: Path) -> dict:
    try:
        document = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc.msg}", line=exc.lineno, path=path) from None
    if not isinstance(document, dict):
        raise ParseError("expected a JSON object", line=1, path=path)
    return document


def recompute_metrics_json(run_dir: Path) -> str:
    """Rebuild the metrics document from the persisted artifacts alone, once
    their tasks agree: one per matrix column, a scenario run's own, the ones
    ``config.json`` records, and the ones each record id names, with no
    record id repeated and both polarities (for the PR curve) in each task."""
    matrix = read_accuracy_matrix(run_dir / "accuracy_matrix.csv")
    predictions = run_dir / "predictions.csv"
    logs = read_predictions(predictions)
    config = run_dir / "config.json"
    echo = _read_json_object(config)
    task_ids = sorted(logs)
    if len(task_ids) != matrix.shape[0]:
        raise ParseError(f"{len(task_ids)} tasks for {matrix.shape[0]} accuracy-matrix columns", path=predictions)
    scenario = echo.get("scenario")
    if scenario is not None and not isinstance(scenario, str):
        raise ParseError(f"scenario: expected a string, found {scenario!r}", path=config)
    run_tasks = echo.get("task_ids")
    if not (isinstance(run_tasks, list) and all(type(t) is int for t in run_tasks)):
        raise ParseError(f"task_ids: expected a list of integers, found {run_tasks!r}", path=config)
    if scenario is not None and task_ids != _SCENARIO_SOURCES.get(scenario):
        raise ParseError(f"tasks {task_ids} are not those of scenario {scenario!r}", path=predictions)
    for task_id in task_ids:  # a run writes each record id once, as "<task_id>-test-<i>"
        ids, prefix = logs[task_id].record_ids, f"{task_id}-"
        # no record id holds a line break, so each that starts with the prefix adds one match
        if ("\n" + "\n".join(ids)).count("\n" + prefix) < len(ids):
            stray = next(rid for rid in ids if not rid.startswith(prefix))
            raise ParseError(f"record {stray!r} is not one of task {task_id}'s", path=predictions)
        if len(set(ids)) < len(ids):
            repeated = next(rid for rid, count in Counter(ids).items() if count > 1)
            raise ParseError(f"record {repeated!r} is repeated in task {task_id}", path=predictions)
        labels = logs[task_id].true_polarity
        if labels.min() == labels.max():
            missing = "real" if labels[0] == FAKE else "fake"
            raise ParseError(f"task {task_id} has no {missing} rows; its PR curve needs both", path=predictions)
    if task_ids != sorted(run_tasks):
        raise ParseError(f"tasks {task_ids} are not the run's tasks {sorted(run_tasks)}", path=predictions)
    metrics, _ = compute_metrics(matrix, logs, echo)
    return metrics_to_json(metrics)


def _check_stored_metrics(path: Path, metrics: dict) -> None:
    """Raise ``ParseError`` naming the first top-level field in which the
    stored metrics document differs from ``metrics``, its recomputation."""
    stored = _read_json_object(path)
    for key in sorted(stored.keys() | metrics.keys()):
        if key not in stored or key not in metrics or stored[key] != metrics[key]:
            raise ParseError(f"field {key!r} differs from its recomputation", path=path)


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
            metrics = json.loads(recompute_metrics_json(path))
            _check_stored_metrics(path / "metrics.json", metrics)
            _print_metrics_table(metrics)
        else:
            matrix = read_accuracy_matrix(path)
            print(f"{'AA':<8}{aa(matrix):.6f}")
            if matrix.shape[0] >= 2:
                print(f"{'AF':<8}{af(matrix):.6f}")
    except (ParseError, ConfigError) as exc:
        return _usage_error(exc)
    except EngineError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        TrainConfig(seed=args.seed)  # the seed check a run makes
    except ConfigError as exc:
        return _usage_error(exc)
    from .verify import format_report, run_battery  # the oracle battery stays out of run and eval
    results = run_battery(seed=args.seed)
    print(format_report(results))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cddet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="train through a scenario and persist the run")
    run_p.add_argument("--config", help="key=value config file")
    source = run_p.add_mutually_exclusive_group()
    source.add_argument("--scenario", choices=SCENARIO_KINDS)
    source.add_argument("--data", nargs="+", help="dataset CSV paths, one per task")
    run_p.add_argument("--profile")
    run_p.add_argument("--system", choices=SYSTEMS)
    run_p.add_argument("--aggregation", choices=AGG_RULES)
    run_p.add_argument("--memory", type=int)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--epochs", type=int)
    run_p.add_argument("--out")
    run_p.set_defaults(func=cmd_run)

    eval_p = sub.add_parser("eval", help="recompute metrics from a run dir or matrix file")
    eval_p.add_argument("path")
    eval_p.set_defaults(func=cmd_eval)

    verify_p = sub.add_parser("verify", help="run the oracle battery")
    verify_p.add_argument("--seed", type=int, default=TrainConfig.seed)
    verify_p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
