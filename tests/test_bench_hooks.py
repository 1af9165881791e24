import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_finds_every_name_it_wraps():
    """The benchmark's tracer wraps engine functions and methods by name; a
    rename or deletion of one of them breaks ``perfbench --trace 1``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    code = 'import child, micro; t = child.Tracer(); t.install_hooks(); t.install("cddet")'
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
