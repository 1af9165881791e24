"""The portable level of reproducibility: on any kernels, a run writes the
same ``metrics.json`` and ``accuracy_matrix.csv``.

The four pinned cells of ``test_pins`` run again in one subprocess whose
numpy and OpenBLAS dispatch to other kernels: OpenBLAS's Haswell kernels
when the CPU has AVX2, and numpy with its AVX-512 groups switched off when
the CPU has them. Those kernels move the last bits of the predictions and
the checkpoint, which ``test_pins`` pins only for the default kernels; the
metrics document and the accuracy matrix must not move. On a CPU or a build
with no other kernels to choose, the subprocess runs the default ones.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from test_pins import DATA_SEED, ESSENTIALS, PINS, RUNS, TASKS

from cddet.cli import main
from cddet.stream import save_dataset, synth_generate

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

SRC = Path(__file__).resolve().parent.parent / "src"
# numpy 2.4's names for its AVX-512 dispatch groups; it ignores names it does not know
AVX512_GROUPS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")

# runs each cell's argv (a JSON object of name -> argv) in the working
# directory, then prints numpy.show_runtime()'s report
CHILD = """
import json, sys
import numpy
from cddet.cli import main
for name, argv in json.loads(sys.argv[1]).items():
    if main(argv) != 0:
        sys.exit(f"cell {name} failed")
numpy.show_runtime()
"""


def _argv(name: str, out: str) -> list[str]:
    """``test_pins``'s command line for cell ``name``, relative to the data directory."""
    return ["run", "--data", "task1.csv", "task2.csv", "task3.csv", *RUNS[name], "--seed", "0", "--out", out]


def _not_found(report: str) -> list[str]:
    """The SIMD groups that a ``numpy.show_runtime()`` report lists as not found."""
    match = re.search(r"'not_found': \[([^\]]*)\]", report)
    assert match, report
    return re.findall(r"'([^']+)'", match.group(1))


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("portable-data")
    for spec in TASKS:
        save_dataset(synth_generate(spec, DATA_SEED), directory / f"task{spec.task_id}.csv")
    (directory / "essentials.cfg").write_text(ESSENTIALS, encoding="utf-8")
    return directory


def test_metrics_and_matrix_hold_on_other_kernels(data_dir, monkeypatch):
    disabled = [group for group in AVX512_GROUPS if __cpu_features__.get(group)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_CORETYPE", None)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if __cpu_features__.get("AVX2"):
        env["OPENBLAS_CORETYPE"] = "Haswell"
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    cells = {name: _argv(name, f"other-{name}") for name in sorted(RUNS)}
    child = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(cells)],
        cwd=data_dir, env=env, capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stderr
    assert set(disabled) <= set(_not_found(child.stdout)), child.stdout

    monkeypatch.chdir(data_dir)
    for name in sorted(RUNS):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(_argv(name, f"default-{name}")) == 0
        other, default = data_dir / f"other-{name}", data_dir / f"default-{name}"
        blob = (other / "metrics.json").read_bytes()
        metrics = json.loads(blob)
        headline = {key: metrics[key] for key in ("aa", "af", "aa_m", "map")}
        headline["sha256"] = hashlib.sha256(blob).hexdigest()
        want = {key: PINS[name][key] for key in headline}
        assert headline == want, name
        matrix = (other / "accuracy_matrix.csv").read_bytes()
        assert matrix == (default / "accuracy_matrix.csv").read_bytes(), name
