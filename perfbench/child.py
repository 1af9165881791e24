"""One measured ``cddet`` process, started by ``run.py``.

Usage: ``python3 perfbench/child.py <report.json> <mode> <cddet argv...>``,
or ``python3 perfbench/child.py <report.json> evals <seconds> eval <run_dir>``.

The process runs ``cddet.cli.main`` on the given argv, exactly as the
``cddet`` console script does, and writes a JSON report when it finishes.
Every mode wraps ``cli.run_scenario_over_sessions`` with one timestamp
wrapper, which separates set-up from training. The modes:

- ``plain``: nothing else is wrapped. End-to-end metrics come from here.
- ``probe``: the run stops where training would start; it measures set-up.
- ``evals``: ``cddet eval`` runs again and again in this one warm process,
  after one untimed call, for the given seconds and ``MIN_EVALS`` timed
  calls at least.
  Each call's wall time is a sample; interpreter start and imports, which
  ``setup_s`` already counts, are left out of them.
- ``trace``: the module-level entry points of the engine's layers, and the
  few methods that carry their hot paths, are wrapped from here. Each layer
  is timed from outside and the engine's source is left unchanged.

Timestamps are ``time.monotonic()``, which on Linux is one system-wide clock,
so the parent can subtract its spawn time from them.
"""

from __future__ import annotations

import time

PROCESS_START = time.monotonic()
PROCESS_START_NS = time.perf_counter_ns()

import contextlib  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

LAYERS = ("diffcore", "losses", "trainer", "memory", "model", "stream", "metrics")

# Private functions and methods that carry a layer's hot path. Every public
# module-level function of a layer is wrapped as well.
EXTRA_TARGETS = {
    "diffcore": ("Tensor.backward", "Tape.trace", "Tape.backward"),
    "losses": ("_forward_joint", "_np_forward_joint"),
    "trainer": ("_assemble_batches", "_evaluate", "_store_exemplars", "Adam.step", "Adam.zero_grad"),
    "memory": (
        "ExemplarMemory.add_class",
        "ExemplarMemory.rebalance",
        "ExemplarMemory.all_exemplars",
        "ExemplarMemory.to_payload",
    ),
    "model": (
        "Model.build",
        "Model.forward",
        "Model.forward_from_latent",
        "Model.snapshot",
        "FeatureExtractor.forward_with_capture",
        "FeatureExtractor.forward_from_latent",
        "ClassifierHead.expand",
        "ClassifierHead.register_task",
        "ClassifierHead.logits",
    ),
    "cli": ("recompute_metrics_json",),
}


MIN_EVALS = 3


class StopAtTraining(Exception):
    """Raised in ``probe`` mode where training would begin."""


class Tracer:
    """Spans aggregated in memory: per name, the calls, inclusive time and
    self time; per (caller, callee) pair, the calls and time.

    Inclusive time counts only the outermost active call of a name, so a
    name that re-enters itself is not counted twice. Self time is a span's
    duration minus the time of the spans it called.
    """

    def __init__(self):
        self.stack: list[list] = []  # [name, child_ns] per open span
        self.stats: dict[str, list[int]] = {}  # name -> [calls, inclusive_ns, self_ns]
        self.edges: dict[tuple[str, str], list[int]] = {}
        self.active: dict[str, int] = {}
        self.hooks: dict[str, object] = {}
        self.counts = {"tape_nodes": 0, "evaluate_rows": 0, "loaded_rows": 0}
        self.step_ns: list[int] = []
        self._batch_start = 0

    def record(self, name: str, start: int, end: int) -> None:
        """Add one finished span that no wrapper saw."""
        self._close(name, self.stack[-1] if self.stack else None, end - start, 0)

    def _close(self, name, parent, dur, child_ns) -> None:
        st = self.stats.setdefault(name, [0, 0, 0])
        st[0] += 1
        if not self.active.get(name):
            st[1] += dur
        st[2] += dur - child_ns
        edge = self.edges.setdefault((parent[0] if parent else "", name), [0, 0])
        edge[0] += 1
        edge[1] += dur
        if parent is not None:
            parent[1] += dur

    def wrap(self, name: str, fn):
        stack, active, clock = self.stack, self.active, time.perf_counter_ns
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                self._close(name, stack[-1] if stack else None, end - start, frame[1])
            if hook is not None:
                hook(args, result, start, end)
            return result

        return traced

    def install_hooks(self) -> None:
        """Counters taken at the same boundaries as the spans."""
        counts = self.counts

        def tape_trace(args, tape, start, end):
            counts["tape_nodes"] += len(tape.nodes)

        def evaluate(args, result, start, end):
            counts["evaluate_rows"] += args[2].x.shape[0]

        def load_dataset(args, session, start, end):
            counts["loaded_rows"] += sum(len(s) for s in session.splits().values())

        def batch(args, result, start, end):
            self._batch_start = start

        def adam_step(args, result, start, end):
            # a step runs from batch assembly to the end of the update
            self.step_ns.append(end - self._batch_start)

        self.hooks.update({
            "diffcore.Tape.trace": tape_trace,
            "trainer._evaluate": evaluate,
            "stream.load_dataset": load_dataset,
            "trainer._assemble_batches": batch,
            "trainer.Adam.step": adam_step,
        })

    def install(self, package: str) -> None:
        """Wrap every target, then rebind each module-level alias of a wrapped
        function, so a name imported into another module is traced too."""
        modules = {m: importlib.import_module(f"{package}.{m}") for m in LAYERS + ("cli",)}
        replaced: dict[int, tuple] = {}
        for layer, module in modules.items():
            public = [
                n for n, obj in vars(module).items()
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not n.startswith("_")
            ] if layer in LAYERS else []
            for qual in public + list(EXTRA_TARGETS.get(layer, ())):
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    self._wrap_method(getattr(module, cls_name), attr, f"{layer}.{qual}")
                else:
                    original = getattr(module, qual)
                    replaced[id(original)] = (original, self.wrap(f"{layer}.{qual}", original))
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                entry = replaced.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])

    def _wrap_method(self, cls, attr: str, name: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(cls, attr, type(raw)(self.wrap(name, raw.__func__)))
        else:
            setattr(cls, attr, self.wrap(name, raw))

    def to_json(self) -> dict:
        return {
            "spans": {n: {"calls": c, "inclusive_ns": i, "self_ns": s} for n, (c, i, s) in self.stats.items()},
            "edges": [
                {"parent": p, "name": n, "calls": c, "ns": ns} for (p, n), (c, ns) in sorted(self.edges.items())
            ],
            "counts": dict(self.counts),
            "step_ns": self.step_ns,
        }


def _session_wrapper(fn, report: dict, probe: bool):
    """Timestamps around ``run_scenario_over_sessions`` plus the rows it trains.

    Training rows are, per session, epochs x (new rows + replayed exemplars);
    a session replays the memory total left by the session before it.
    """

    @functools.wraps(fn)
    def timed(sessions, warmup, budget, profile, config, system, *args, **kwargs):
        report["train_start"] = time.monotonic()
        if probe:
            raise StopAtTraining
        record = fn(sessions, warmup, budget, profile, config, system, *args, **kwargs)
        report["train_end"] = time.monotonic()
        ordered = ([warmup] if warmup is not None else []) + list(sessions)
        replayed = [0] + list(record.memory_totals[:-1])
        report["train_rows"] = config.epochs * sum(
            s.train.x.shape[0] + r for s, r in zip(ordered, replayed)
        )
        report["exemplars_final"] = record.memory.total() if record.memory is not None else 0
        return record

    return timed


def repeat_eval(cli, argv: list[str], seconds: float, report: dict) -> int:
    """Time ``cddet eval`` calls in this process for ``seconds``; their
    output goes to the null device, as the measured runs' does."""
    samples = report["eval_s"] = []
    with open(os.devnull, "w", encoding="utf-8") as null, contextlib.redirect_stdout(null):
        code = cli.main(argv)
        started = time.perf_counter()
        while code == 0 and (len(samples) < MIN_EVALS or time.perf_counter() - started < seconds):
            t0 = time.perf_counter()
            code = cli.main(argv)
            samples.append(time.perf_counter() - t0)
    return code


def main() -> int:
    report_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode not in ("plain", "probe", "trace", "evals"):
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    report: dict = {"process_start": PROCESS_START}
    if mode == "evals":
        from cddet import cli

        code = report["exit_code"] = repeat_eval(cli, argv[1:], float(argv[0]), report)
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        return code
    tracer = Tracer() if mode == "trace" else None

    import_start = time.perf_counter_ns()
    from cddet import cli

    if tracer is not None:
        tracer.record("import", import_start, time.perf_counter_ns())
        tracer.install_hooks()
        tracer.install("cddet")
    cli.run_scenario_over_sessions = _session_wrapper(cli.run_scenario_over_sessions, report, mode == "probe")

    try:
        code = cli.main(argv)
    except StopAtTraining:
        code = 0
    report["wall_ns"] = time.perf_counter_ns() - PROCESS_START_NS
    report["exit_code"] = code
    if tracer is not None:
        report["trace"] = tracer.to_json()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
