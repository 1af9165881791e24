"""Smoke test of the benchmark itself.

Run from the root of a checkout: ``python3 perfbench/smoke.py``. It takes
about a minute on two cores and checks that:

- every workload of ``run.py``, the ones ``BENCHMARK.json`` names and
  ``csv-finetune-bc``, at a tiny size (one epoch, small CSV test splits),
  exits 0 in both modes and prints exactly the metrics ``BENCHMARK.json``
  names;
- the output check rejects a corrupted ``metrics.json`` and one that differs
  from the first repeat, and accepts the untouched run;
- in a directory that holds only ``BENCHMARK.json`` and the benchmark's
  files, the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run as bench


class SmokeFailure(Exception):
    """A check of the smoke test did not hold."""


def expect(condition, message) -> None:
    if not condition:
        raise SmokeFailure(message)


SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def invoke(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def check_metric_names() -> None:
    expect({w["name"] for w in SPEC["workloads"]} <= set(bench.WORKLOADS), "BENCHMARK.json names an unknown workload")
    for workload in bench.WORKLOADS:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            done = invoke(bench.ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                          "--trace", trace, "--tiny")
            expect(done.returncode == 0, f"{workload} trace={trace}: {done.stderr[-2000:]}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys())
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result)
            expected = {m["name"]: m["unit"] for m in SPEC[section]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(printed == expected, f"{workload} trace={trace}: {sorted(set(printed) ^ set(expected))}")
            if trace == "0":
                for name in bench.REPORTED_ONLY:
                    expect(f" {name} " in done.stdout, f"{name} missing from the table")
            print(f"ok  {workload} trace={trace}: {len(printed)} metrics")


def check_output_check() -> None:
    bench.import_engine()
    bench.WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="smoke-", dir=bench.WORK_ROOT))
    try:
        workload = bench.WORKLOADS["easy-rebalance-mt"]
        argv, _ = bench.prepare_inputs(workload, 0, work, tiny=True)
        child = bench.spawn(work, "plain", ["run", *argv, "--out", "r"], "r")
        expect(child.code == 0, child.stderr)
        run_dir = work / "r"
        budget = bench.budget_of(argv)
        expect(bench.check_run(run_dir, budget, None) == [], "an untouched run must pass")
        original = (run_dir / "metrics.json").read_bytes()
        expect(bench.check_run(run_dir, budget, original) == [], "a run equal to its reference must pass")
        expect(bench.check_run(run_dir, budget, original + b" ") != [], "a run unlike its reference must fail")

        document = json.loads(original)
        document["aa"] = document["aa"] / 2
        (run_dir / "metrics.json").write_text(json.dumps(document, sort_keys=True, indent=2) + "\n")
        problems = bench.check_run(run_dir, budget, None)
        expect(any("recomputation" in p for p in problems), problems)
        (run_dir / "metrics.json").write_bytes(original)

        expect(bench.check_run(run_dir, 10, None) != [], "an over-budget memory must fail")
        print("ok  output check rejects corrupted and differing metrics.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_fails_without_source() -> None:
    bench.WORK_ROOT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=bench.WORK_ROOT))
    try:
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(bench.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = invoke(bare, "--workload", SPEC["workloads"][0]["name"], "--seed", "0", "--seconds", "1",
                      "--trace", "0")
        expect(done.returncode != 0, "must fail without the engine's source")
        expect('"correct"' not in done.stdout, done.stdout)
        print(f"ok  without the source: exit {done.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_fails_without_source()
    check_output_check()
    check_metric_names()
    try:
        bench.WORK_ROOT.rmdir()
    except OSError:
        pass
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
