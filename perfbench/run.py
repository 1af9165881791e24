"""Benchmark of the ``cddet`` engine: end-to-end ``cddet run`` and
``cddet eval`` on fixed workloads, plus a traced per-layer split.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each measured run is a real ``cddet run`` child process (``child.py``),
followed by ``cddet eval`` on its run directory. Every run's outputs are
checked. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a table with units and sample counts and a JSON report with the raw
samples, the generated inputs and the provenance. ``--trace 0`` reports
the end-to-end metrics, measured with tracing off; ``--trace 1`` reports the
per-layer metrics from one traced run. The metric names, units and
directions are listed in ``BENCHMARK.json`` and ``perfbench/README.md``.

Exit codes: 0 when every run passed its checks, 1 when a run failed them,
2 when the engine's source is missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
CHILD = HERE / "child.py"

CHILD_TIMEOUT_S = 150.0
MIN_REPEATS = 2  # two runs at least, so byte-identity across repeats is checked
# Time for set-up probes and warm evals after each repeat, as shares of its run time.
PROBE_SHARE = 0.1
EVAL_SHARE = 0.15
CSV_TASKS = (1, 2, 3, 4, 5, 6)
CSV_TEST_ROWS = 10_000  # per polarity
TINY_CSV_TEST_ROWS = 200
BLAS_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# Measured processes run single-threaded BLAS. The engine's matrices are at
# most 64 wide, and a BLAS thread pool that spins on a shared host measures
# the neighbours' load more than the engine.
CHILD_ENV = {"PYTHONPATH": str(SRC), **{name: "1" for name in BLAS_ENV}}


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    why: str
    csv: bool = False


# Why these three: each stresses different layers, and each optimisation the
# trace can point at is exercised by one workload and bypassed by another.
# BENCHMARK.json names only the first two: csv-finetune-bc allocates three
# times the memory and its timings spread furthest on a shared host, so it
# is run by hand (see README.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "easy-rebalance-mt",
            ("--scenario", "easy", "--profile", "rebalance", "--system", "mt", "--memory", "1500"),
            "heaviest loss composition (feature KD, margin ranking, MT aggregation): tape, losses and step dominate",
        ),
        Workload(
            "long-replaykd-mc",
            ("--scenario", "long", "--profile", "replay+kd", "--system", "mc", "--memory", "1500"),
            "most sessions: most evaluation, herding and latent capture; logit KD, no margin or MT aggregation",
        ),
        Workload(
            "csv-finetune-bc",
            ("--profile", "finetune", "--system", "bc", "--memory", "0"),
            "CSV parsing, 20k-row evaluation and artifact I/O on the sigmoid head; memory, KD and margin bypassed",
            csv=True,
        ),
    )
}

END_TO_END = {
    # name: (unit, better)
    "run_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "train_rows_per_s": ("rows/s", "higher"),
    "eval_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# Printed in the table and the report, but kept out of the result line,
# whose metrics need a bound on their spread across seeds. AA and mAP are
# fixed by the seed, and across seeds their quartiles lie up to 27% apart
# (aa on long-replaykd-mc), beyond any bound. AF sits near 0 and changes
# sign, AA-M is undefined on BC runs, and failed_share is 0 when all is well.
REPORTED_ONLY = {
    "aa": ("fraction", "higher"),
    "map": ("fraction", "higher"),
    "af": ("fraction", "higher"),
    "aa_m": ("fraction", "higher"),
    "failed_share": ("fraction", "lower"),
}

PER_LAYER = {
    "diffcore.tape_nodes_per_step": "count",
    "diffcore.backward_share": "fraction",
    "diffcore.backward_ms_per_step": "ms",
    "diffcore.self_share": "fraction",
    "diffcore.affine_us": "us",
    "diffcore.softmax_us": "us",
    "diffcore.cosine_matrix_us": "us",
    "losses.total_loss_ms_per_step": "ms",
    "losses.margin_ranking_share": "fraction",
    "losses.mt_class_loss_share": "fraction",
    "losses.kd_kl_share": "fraction",
    "losses.snapshot_forward_share": "fraction",
    "losses.class_ce_share": "fraction",
    "losses.self_share": "fraction",
    "trainer.steps": "count",
    "trainer.step_ms_p50": "ms",
    "trainer.step_ms_p99": "ms",
    "trainer.adam_share": "fraction",
    "trainer.batching_share": "fraction",
    "trainer.evaluate_share": "fraction",
    "trainer.evaluate_rows_per_s": "rows/s",
    "trainer.self_share": "fraction",
    "memory.herd_select_share": "fraction",
    "memory.capture_share": "fraction",
    "memory.exemplars_final": "count",
    "memory.herd_select_300x32_ms": "ms",
    "memory.self_share": "fraction",
    "model.save_checkpoint_ms": "ms",
    "model.load_checkpoint_ms": "ms",
    "model.checkpoint_bytes": "bytes",
    "model.self_share": "fraction",
    "stream.load_dataset_ms": "ms",
    "stream.load_dataset_rows_per_s": "rows/s",
    "stream.synth_generate_ms": "ms",
    "stream.self_share": "fraction",
    "metrics.compute_metrics_ms": "ms",
    "metrics.write_artifacts_ms": "ms",
    "metrics.artifact_bytes": "bytes",
    "metrics.recompute_ms": "ms",
    "metrics.self_share": "fraction",
    "trace.import_share": "fraction",
    "trace.coverage": "fraction",
    "trace.overhead_share": "fraction",
}

ARTIFACTS = ("accuracy_matrix.csv", "metrics.json", "pr_curves.csv", "predictions.csv")


class SourceMissing(Exception):
    pass


def import_engine():
    """Import ``cddet`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "cddet" / "cli.py").is_file():
        raise SourceMissing(f"engine source not found under {SRC.relative_to(ROOT)}/")
    sys.path.insert(0, str(SRC))
    import cddet.cli  # noqa: F401

    return sys.modules["cddet"]


# ---------------------------------------------------------------------------
# inputs


def prepare_inputs(workload: Workload, seed: int, work: Path, tiny: bool) -> tuple[list[str], dict]:
    """The ``cddet run`` arguments for a workload, and a record of the inputs.

    CSV workloads get six task files, drawn from the seed, written once into
    the invocation's work directory; paths are relative to it, so the run's
    ``config.json`` is the same whichever directory the checkout is in.
    """
    args = list(workload.args) + ["--seed", str(seed)]
    if tiny:
        args += ["--epochs", "1"]
    if not workload.csv:
        return args, {}
    from cddet.stream import build_scenario, save_dataset, synth_generate

    test_rows = TINY_CSV_TEST_ROWS if tiny else CSV_TEST_ROWS
    specs = {s.task_id: s for s in build_scenario("long", seed).tasks}
    files = []
    for task_id in CSV_TASKS:
        spec = dataclasses.replace(specs[task_id], n_test=test_rows)
        session = synth_generate(spec, seed)
        name = f"task{task_id}.csv"
        save_dataset(session, work / name)
        files.append({
            "file": name,
            "rows": {split: len(part) for split, part in session.splits().items()},
            "bytes": (work / name).stat().st_size,
        })
    return ["--data"] + [f["file"] for f in files] + args, {"csv_files": files}


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    spawn: float
    report: dict
    stderr: str


def spawn(work: Path, mode: str, argv: list[str], tag: str) -> Child:
    """Run ``child.py`` in ``work`` and wait for it; the parent keeps the
    spawn time and the child's own peak RSS from ``wait4``."""
    report_path = work / f"{tag}.report.json"
    err_path = work / f"{tag}.stderr"
    env = dict(os.environ, **CHILD_ENV)
    with open(err_path, "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(report_path), mode, *argv],
            cwd=work, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            ended = time.monotonic()
        except BaseException:
            proc.kill()  # interrupted or terminated: leave no child behind
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    report = {}
    if report_path.is_file():
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        report_path.unlink()
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    err_path.unlink()
    return Child(proc.returncode, ended - spawned, usage.ru_maxrss / 1024.0, spawned, report, stderr)


def warm_up(work: Path) -> None:
    """One untimed import, so compiled bytecode exists before any timing."""
    env = dict(os.environ, **CHILD_ENV)
    subprocess.run([sys.executable, "-c", "import cddet.cli"], cwd=work, env=env, check=True, timeout=CHILD_TIMEOUT_S)


# ---------------------------------------------------------------------------
# output checks


def check_run(run_dir: Path, budget: int, expected: bytes | None) -> list[str]:
    """Problems with one finished run directory; an empty list means it passed.

    - ``metrics.json`` equals ``cli.recompute_metrics_json`` byte for byte;
    - it equals ``expected`` (the first repeat's bytes), when given;
    - the checkpoint loads and re-saves to the same bytes;
    - the stored exemplars fit the memory budget.
    """
    from cddet.cli import recompute_metrics_json
    from cddet.memory import ExemplarMemory
    from cddet.model import load_checkpoint, save_checkpoint

    problems = []
    try:
        document = (run_dir / "metrics.json").read_bytes()
        if document != recompute_metrics_json(run_dir).encode("utf-8"):
            problems.append("metrics.json differs from its recomputation")
        if expected is not None and document != expected:
            problems.append("metrics.json differs from the first repeat")
        checkpoint = run_dir / "checkpoint.json"
        model, memory_payload = load_checkpoint(checkpoint)
        resaved = run_dir / "checkpoint.resaved.json"
        save_checkpoint(resaved, model, memory_payload)
        if resaved.read_bytes() != checkpoint.read_bytes():
            problems.append("checkpoint does not round-trip")
        resaved.unlink()
        if budget == 0:
            if memory_payload is not None:
                problems.append("memory stored with a zero budget")
        else:
            total = ExemplarMemory.from_payload(memory_payload).total()
            if memory_payload["budget"] != budget or total > budget:
                problems.append(f"memory holds {total} exemplars under budget {budget}")
    except Exception as exc:  # any crash while checking is a failed check, reported by name
        problems.append(f"check raised {type(exc).__name__}: {exc}")
    return problems


def budget_of(argv: list[str]) -> int:
    """Every workload names its memory budget, so the check need not know
    the engine's default."""
    return int(argv[argv.index("--memory") + 1])


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Repeat:
    run: Child
    eval: Child | None
    problems: list[str]
    metrics_doc: dict | None


def run_and_check(work: Path, argv: list[str], tag: str, mode: str, expected: bytes | None,
                  eval_mode: str | None = "plain") -> Repeat:
    """One ``cddet run`` and, unless ``eval_mode`` is None, its ``cddet
    eval`` process, then the output checks; ``expected`` is the
    ``metrics.json`` of the first repeat, if any."""
    run_dir = work / tag
    run = spawn(work, mode, argv + ["--out", tag], tag)
    if run.code != 0 or "train_end" not in run.report:
        return Repeat(run, None, [f"cddet run exited {run.code}: {run.stderr.strip()[-500:]}"], None)
    problems = []
    evaluated = None
    if eval_mode is not None:
        evaluated = spawn(work, eval_mode, ["eval", tag], f"{tag}.eval")
        if evaluated.code != 0:
            problems.append(f"cddet eval exited {evaluated.code}: {evaluated.stderr.strip()[-500:]}")
    problems += check_run(run_dir, budget_of(argv), expected)
    doc = json.loads((run_dir / "metrics.json").read_text(encoding="utf-8")) if not problems else None
    return Repeat(run, evaluated, problems, doc)


def _median(values):
    return statistics.median(values) if values else None


def measure_end_to_end(argv: list[str], work: Path, seconds: float) -> dict:
    """Repeat the workload while the next repeat is expected to end within
    ``seconds``, at least ``MIN_REPEATS`` times. After each good repeat, take
    set-up probes for ``PROBE_SHARE`` of its run time (at least one), then
    run ``cddet eval`` on its run directory again and again in one warm
    process for ``EVAL_SHARE`` of its run time. So the short samples spread
    over the whole window, as the runs do. Every timing is the median of its
    samples, except ``eval_s``, the fastest of its samples."""
    started = time.monotonic()
    repeats: list[Repeat] = []
    setup: list[float] = []
    evals: list[float] = []
    short_problems: list[str] = []
    short_attempted = 0
    expected = None
    while True:
        tag = f"run{len(repeats)}"
        rep = run_and_check(work, argv, tag, "plain", expected, eval_mode=None)
        repeats.append(rep)
        if not rep.problems:
            if expected is None:
                expected = (work / tag / "metrics.json").read_bytes()
            setup.append(rep.run.report["train_start"] - rep.run.spawn)
            short_started = time.monotonic()
            while not short_problems:
                probe = spawn(work, "probe", argv + ["--out", "probe"], "probe")
                short_attempted += 1
                if probe.code != 0 or "train_start" not in probe.report:
                    short_problems.append(f"set-up probe exited {probe.code}: {probe.stderr.strip()[-500:]}")
                else:
                    setup.append(probe.report["train_start"] - probe.spawn)
                if time.monotonic() - short_started > PROBE_SHARE * rep.run.wall_s:
                    break
            if not short_problems:
                evaluated = spawn(work, "evals", [f"{EVAL_SHARE * rep.run.wall_s:.3f}", "eval", tag], "evals")
                short_attempted += 1
                if evaluated.code != 0 or not evaluated.report.get("eval_s"):
                    short_problems.append(f"warm eval exited {evaluated.code}: {evaluated.stderr.strip()[-500:]}")
                else:
                    evals += evaluated.report["eval_s"]
        shutil.rmtree(work / tag, ignore_errors=True)
        elapsed = time.monotonic() - started
        if len(repeats) >= MIN_REPEATS and elapsed + elapsed / len(repeats) > seconds:
            break
    good = [r for r in repeats if not r.problems]
    failed = len(repeats) - len(good) + len(short_problems)
    attempted = len(repeats) + short_attempted

    samples = {
        "run_s": [r.run.wall_s for r in good],
        "setup_s": setup,
        "train_rows_per_s": [
            r.run.report["train_rows"] / (r.run.report["train_end"] - r.run.report["train_start"]) for r in good
        ],
        "eval_s": evals,
        "peak_rss_mb": [r.run.rss_mb for r in good],
    }
    metrics = {name: _median(values) for name, values in samples.items()}
    # The fastest of the window's hundreds of warm evals, as timeit reports:
    # a busy host only ever adds time, and between windows this moved far
    # less than the median did (README "Run-to-run spread").
    metrics["eval_s"] = min(evals) if evals else None
    doc = good[0].metrics_doc if good else {}
    for name in ("aa", "map", "af", "aa_m"):
        metrics[name] = doc.get(name)
    metrics["failed_share"] = failed / attempted
    counts = {name: len(values) for name, values in samples.items()}
    counts.update({name: len(good) for name in ("aa", "map", "af", "aa_m")})
    counts["failed_share"] = attempted
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": [p for r in repeats for p in r.problems] + short_problems,
        "metrics": metrics,
        "counts": counts,
        "samples": samples,
        "train_rows": good[0].run.report["train_rows"] if good else None,
    }


def measure_trace(argv: list[str], work: Path, seconds: float) -> dict:
    """One traced run and traced eval, then untraced repeats for the rest of
    ``seconds`` (at least one), which give the tracing overhead and check
    that tracing leaves the outputs unchanged."""
    from cddet.model import load_checkpoint

    import micro

    started = time.monotonic()
    traced = run_and_check(work, argv, "traced", "trace", None, eval_mode="trace")
    attempted, failed = 1, 0 if not traced.problems else 1
    problems = list(traced.problems)
    if traced.problems:
        return {"attempted": attempted, "failed": failed, "problems": problems, "metrics": {}}
    run_dir = work / "traced"
    expected = (run_dir / "metrics.json").read_bytes()
    checkpoint = run_dir / "checkpoint.json"
    load_ms = []
    for _ in range(5):
        t0 = time.perf_counter()
        load_checkpoint(checkpoint)
        load_ms.append((time.perf_counter() - t0) * 1e3)
    sizes = {
        "checkpoint_bytes": checkpoint.stat().st_size,
        "artifact_bytes": sum((run_dir / name).stat().st_size for name in ARTIFACTS),
    }
    shutil.rmtree(run_dir, ignore_errors=True)

    untraced = []
    while not untraced or time.monotonic() - started + untraced[-1].run.wall_s < seconds:
        rep = run_and_check(work, argv, f"run{len(untraced)}", "plain", expected)
        shutil.rmtree(work / f"run{len(untraced)}", ignore_errors=True)
        untraced.append(rep)
        attempted += 1
        if rep.problems:
            failed += 1
            problems += [f"untraced repeat: {p}" for p in rep.problems]
            break
    plain_run_s = _median([r.run.wall_s for r in untraced if not r.problems])
    metrics = layer_metrics(traced.run.report, traced.eval.report, statistics.median(load_ms), sizes)
    metrics["trace.overhead_share"] = (
        (traced.run.wall_s - plain_run_s) / plain_run_s if plain_run_s else None
    )
    metrics.update(micro.run_all())
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "counts": {"untraced_repeats": len(untraced)},
        "traced_run_s": traced.run.wall_s,
        "untraced_run_s": plain_run_s,
        "phase_split": phase_split(traced.run.report),
    }


def layer_metrics(run_report: dict, eval_report: dict, load_ms: float, sizes: dict) -> dict:
    trace = run_report["trace"]
    spans = trace["spans"]
    wall = run_report["wall_ns"]
    steps = len(trace["step_ns"])
    counts = trace["counts"]

    def incl(*names):
        return sum(spans.get(n, {}).get("inclusive_ns", 0) for n in names)

    def share(*names):
        return incl(*names) / wall

    def ms(*names):
        return incl(*names) / 1e6

    def per_s(rows, *names):
        ns = incl(*names)
        return rows / (ns / 1e9) if ns else 0.0

    def per_step(*names):
        return ms(*names) / steps if steps else 0.0

    step_ms = sorted(ns / 1e6 for ns in trace["step_ns"])
    top = sum(e["ns"] for e in trace["edges"] if e["parent"] == "")
    split = phase_split(run_report)

    out = {
        "diffcore.tape_nodes_per_step": counts["tape_nodes"] / steps if steps else 0.0,
        "diffcore.backward_share": share("diffcore.Tensor.backward"),
        "diffcore.backward_ms_per_step": per_step("diffcore.Tensor.backward"),
        "losses.total_loss_ms_per_step": per_step("losses.total_loss"),
        "losses.margin_ranking_share": share("losses.margin_ranking"),
        "losses.mt_class_loss_share": share("losses.mt_class_loss"),
        "losses.kd_kl_share": share("losses.kd_kl"),
        "losses.snapshot_forward_share": share("losses._np_forward_joint"),
        "losses.class_ce_share": share("losses.multiclass_ce", "losses.binary_ce"),
        "trainer.steps": steps,
        "trainer.step_ms_p50": _percentile(step_ms, 0.50),
        "trainer.step_ms_p99": _percentile(step_ms, 0.99),
        "trainer.adam_share": share("trainer.Adam.step"),
        "trainer.batching_share": share("trainer._assemble_batches"),
        "trainer.evaluate_share": share("trainer._evaluate"),
        "trainer.evaluate_rows_per_s": per_s(counts["evaluate_rows"], "trainer._evaluate"),
        "memory.herd_select_share": share("memory.herd_select"),
        "memory.capture_share": share("memory.capture"),
        "memory.exemplars_final": run_report["exemplars_final"],
        "model.save_checkpoint_ms": ms("model.save_checkpoint"),
        "model.load_checkpoint_ms": load_ms,
        "model.checkpoint_bytes": sizes["checkpoint_bytes"],
        "stream.load_dataset_ms": ms("stream.load_dataset"),
        "stream.load_dataset_rows_per_s": per_s(counts["loaded_rows"], "stream.load_dataset"),
        "stream.synth_generate_ms": ms("stream.synth_generate"),
        "metrics.compute_metrics_ms": ms("metrics.compute_metrics"),
        "metrics.write_artifacts_ms": ms(*(f"metrics.write_{a}" for a in (
            "accuracy_matrix", "metrics_json", "pr_curves", "predictions"))),
        "metrics.artifact_bytes": sizes["artifact_bytes"],
        "metrics.recompute_ms": eval_report["trace"]["spans"]["cli.recompute_metrics_json"]["inclusive_ns"] / 1e6,
        "trace.import_share": share("import"),
        "trace.coverage": top / wall,
    }
    for layer in ("diffcore", "losses", "trainer", "memory", "model", "stream", "metrics"):
        out[f"{layer}.self_share"] = split.get(layer, 0.0)
    return out


def phase_split(run_report: dict) -> dict:
    """Self time per layer as a share of the traced run's wall time."""
    spans = run_report["trace"]["spans"]
    wall = run_report["wall_ns"]
    split: dict[str, float] = {}
    for name, st in spans.items():
        layer = name.split(".", 1)[0]
        split[layer] = split.get(layer, 0.0) + st["self_ns"] / wall
    split["uncovered"] = 1.0 - sum(split.values())
    return dict(sorted(split.items(), key=lambda kv: -kv[1]))


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


# ---------------------------------------------------------------------------
# provenance and output


def provenance(engine) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},  # as given; the children run with CHILD_ENV
        "child_blas_env": {k: CHILD_ENV[k] for k in BLAS_ENV},
        "machine": platform.machine(),
        "src_lines": src_lines,  # informational, not a metric
        "engine_version": getattr(engine, "__version__", None),
    }


def _commit() -> str | None:
    """The checked-out commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def print_table(workload: str, result: dict, trace: bool) -> None:
    print(f"== {workload}: {result['attempted']} runs, {result['failed']} failed")
    for problem in result["problems"]:
        print(f"   FAILED: {problem}")
    metrics, counts = result["metrics"], result.get("counts", {})
    if trace:
        rows = [(name, unit, "", "") for name, unit in PER_LAYER.items()]
    else:
        rows = [(name, unit, better, counts.get(name, "")) for name, (unit, better) in
                {**END_TO_END, **REPORTED_ONLY}.items()]
    for name, unit, better, n in rows:
        value = metrics.get(name)
        shown = "NA" if value is None else f"{value:.6g}"
        print(f"   {name:34s} {shown:>14s} {unit:9s} {better:6s} {'n=' + str(n) if n != '' else ''}")


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        argv, inputs = prepare_inputs(workload, seed, work, tiny)
        warm_up(work)
        measure = measure_trace if trace else measure_end_to_end
        result = measure(["run"] + argv, work, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another invocation still uses it
    result["inputs"] = inputs
    return result


def result_line(results: dict[str, dict], trace: bool) -> dict:
    names = PER_LAYER if trace else {n: u for n, (u, _) in END_TO_END.items()}
    single = len(results) == 1
    metrics = {}
    complete = True
    for workload, result in results.items():
        for name, unit in names.items():
            value = result["metrics"].get(name)
            if value is None:
                complete = False
                continue
            key = name if single else f"{workload}/{name}"
            metrics[key] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    return {"correct": failed == 0 and complete, "attempted": attempted, "failed": failed, "metrics": metrics}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="one epoch and small CSV test splits, for the smoke test")
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated benchmark still stops its child and removes its work directory
    signal.signal(signal.SIGTERM, _terminate)
    try:
        engine = import_engine()
    except (SourceMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), args.tiny)
        print_table(name, results[name], bool(args.trace))
    report = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "provenance": provenance(engine),
        "workloads": {name: {k: v for k, v in r.items()} for name, r in results.items()},
    }
    print("report " + json.dumps(report, sort_keys=True))
    line = result_line(results, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
