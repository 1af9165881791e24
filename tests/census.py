"""Statement census: which statements of ``src/cddet`` no tier-1 test
executes (statement coverage; Zhu, Hall & May, "Software unit test
coverage and adequacy", ACM Computing Surveys 1997).

The script runs tier-1 in this process under ``sys.settrace`` and
``threading.settrace``, recording every line executed in a ``src/cddet``
module, and then lists each statement none of whose own lines ran (a
compound statement's own lines are its header, not its body), as
``file:line`` and its source, followed by a count per module. Docstrings
and other bare strings, ``def`` and ``class`` lines, imports, ``global``,
``nonlocal`` and ``try`` (its body counts instead) are not statements here.
pytest does not collect this file.

Code that a test runs in a subprocess is not seen: ``tests/test_portable.py``
and the perfbench hook tests (``tests/test_bench_hooks.py``) run the engine
in child processes, so what only they reach is reported as unexecuted.
The property tests draw their examples from a fixed seed
(``--hypothesis-seed=0``), so two runs over the same tree list the same
statements. Tracing roughly doubles tier-1's time.

Run from anywhere, with pytest installed:

    python tests/census.py

It exits with pytest's status when tier-1 fails, and 0 otherwise.
"""

import ast
import sys
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cddet"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal, ast.Try)


def statements(path: Path) -> list[tuple[int, set[int]]]:
    """Each counted statement of the module at ``path``: its first line and
    its own lines, those of no statement or handler nested in it."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue
        own = set(range(node.lineno, node.end_lineno + 1))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, ast.excepthandler)):
                own -= set(range(child.lineno, child.end_lineno + 1))
        found.append((node.lineno, own))
    return sorted(found)


def traced_run() -> tuple[int, dict[str, set[int]]]:
    """Tier-1's pytest status, and the lines it executed in each module of
    the package, by file name."""
    executed: dict[str, set[int]] = {}
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        executed.setdefault(name, set()).add(frame.f_lineno)
        return local

    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(start)
    sys.settrace(start)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), executed


def main() -> int:
    status, executed = traced_run()
    if status != 0:
        print(f"tier-1 failed (pytest exit {status}); no census", file=sys.stderr)
        return status
    per_module: Counter = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        hit = executed.get(str(path), set())
        lines = path.read_text(encoding="utf-8").splitlines()
        for first, own in statements(path):
            if not own & hit:
                per_module[path.name] += 1
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    for name in sorted(per_module):
        print(f"{name}: {per_module[name]}")
    print(f"{sum(per_module.values())} statements no test executes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
