"""Every name a module under ``src/`` or ``tests/`` imports is read somewhere
in that module (``from __future__`` imports aside), every function or
method defined under ``src/`` (dunders aside) is read as code somewhere under
``src/``, ``tests/`` or ``perfbench/``, and every exception class of
``cddet.errors`` is raised under ``src/`` or is the base of one that is.
The training step calls no numpy reduction wrapper, and below the run no
function takes a learning system. ``cddet.cli`` loads the oracle battery
only for ``cddet verify``, and ``cddet.metrics`` loads no trainer."""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cddet import errors

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))
MODULES = SOURCES + sorted((ROOT / "tests").rglob("*.py"))
BENCH = sorted((ROOT / "perfbench").rglob("*.py"))
DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_the_scan_finds_an_unused_import():
    assert unused_imports("from __future__ import annotations\nimport os.path\nfrom a import b as c, d\nd()\n") == [
        "line 2: os", "line 3: c",
    ]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def definitions(source: str) -> list[tuple[str, int]]:
    """Each function and method a module defines, dunders aside, with its line."""
    return sorted(
        (node.name, node.lineno)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )


def names_read(source: str, dotted_strings: bool = False) -> set[str]:
    """The names a module reads as code: ``Name`` loads, attribute names and
    imported names. With ``dotted_strings``, each part of a string that is
    wholly a dotted name counts too, as perfbench names its hook targets."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            read.update(part for alias in node.names for part in alias.name.split("."))
        elif dotted_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED_NAME.fullmatch(node.value):
                read.update(node.value.split("."))
    return read


def test_the_scan_finds_an_unread_definition():
    source = (
        "class C:\n    def __init__(self):\n        pass\n\n    def method(self):\n        pass\n\n"
        "def used():\n    \"\"\"unused\"\"\"\n\n\ndef unused():  # used\n    C().method\n\n\nused()\n"
    )
    assert definitions(source) == [("method", 5), ("unused", 12), ("used", 8)]
    read = names_read(source)
    assert "used" in read and "method" in read and "unused" not in read
    assert names_read('targets = ("C.hook", "a b")\n', dotted_strings=True) >= {"C", "hook"}
    assert not names_read('targets = ("C.hook", "a b")\n') & {"C", "hook", "a", "b"}


def test_every_definition_under_src_is_read():
    read = set().union(
        *(names_read(p.read_text(encoding="utf-8")) for p in MODULES),
        *(names_read(p.read_text(encoding="utf-8"), dotted_strings=True) for p in BENCH),
    )
    found = [(p, d) for p in SOURCES for d in definitions(p.read_text(encoding="utf-8"))]
    assert len(found) > 100  # the scan reaches the engine's modules
    unread = [f"{p.relative_to(ROOT)}:{line}: {name}" for p, (name, line) in found if name not in read]
    assert unread == []


# numpy's Python-level reduction wrappers: each runs the ufunc's reduce behind
# Python frames and keyword building, so the training step calls the ufunc
WRAPPER_METHODS = {"sum", "max", "all", "any"}
WRAPPER_FUNCTIONS = WRAPPER_METHODS | {"mean", "zeros_like"}
STEP_ROOTS = ("loss_and_gradients", "np_activations", "step")


def functions_by_name(sources: list[str]) -> dict[str, list[ast.AST]]:
    """Each function and method the sources define, by its bare name."""
    found: dict[str, list[ast.AST]] = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.setdefault(node.name, []).append(node)
    return found


def reachable(defs: dict[str, list[ast.AST]], roots) -> set[str]:
    """The names of ``roots`` and of every defined function they call,
    directly or through each other, a call matched by the callee's name."""
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in (n for d in defs[name] for n in ast.walk(d) if isinstance(n, ast.Call)):
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            if callee in defs:
                todo.append(callee)
    return seen


def wrapper_uses(defs: dict[str, list[ast.AST]], names: set[str]) -> list[str]:
    """Each use of a reduction wrapper in the functions ``names``: a method
    ``x.sum`` and the like, or a function ``np.mean`` and the like."""
    uses = []
    for name in sorted(names):
        for node in (n for d in defs[name] for n in ast.walk(d) if isinstance(n, ast.Attribute)):
            is_np = isinstance(node.value, ast.Name) and node.value.id == "np"
            if node.attr in WRAPPER_METHODS or (is_np and node.attr in WRAPPER_FUNCTIONS):
                uses.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    return uses


def test_the_scan_finds_a_reduction_wrapper_on_the_path():
    source = (
        "def f(x):\n    return g(x).sum() + x.summary\n\n"
        "def g(x):\n    return np.zeros_like(x) + np.add.reduce(x)\n\n"
        "def h(x):\n    return np.mean(x)\n"
    )
    defs = functions_by_name([source])
    assert reachable(defs, ["f"]) == {"f", "g"}
    assert wrapper_uses(defs, {"f", "g"}) == ["f:2: g(x).sum", "g:5: np.zeros_like"]


def test_the_step_path_calls_no_reduction_wrapper():
    """``loss_and_gradients``, everything it calls, ``np_activations`` and
    ``Adam.step`` reduce through the ufuncs (``np.add.reduce`` and the like)."""
    defs = functions_by_name([p.read_text(encoding="utf-8") for p in SOURCES])
    path = reachable(defs, STEP_ROOTS)
    # the scan reaches the kernels, the layers and the head
    assert {"_np_layers_backward", "_group_score", "_kd_columns", "row_norms", "checked", "logits_and_cosines"} <= path
    assert wrapper_uses(defs, path) == []


# the head and the aggregation rule say the learning system below the run:
# ``resolve_profile`` binds a profile to one, ``run_scenario_over_sessions``
# checks the binding, and ``_evaluate`` keeps the order of the arguments the
# benchmark's trace hook reads
SYSTEM_TAKERS = {"resolve_profile", "run_scenario_over_sessions", "_evaluate"}


def takers_of(source: str, parameter: str) -> set[str]:
    """The functions and methods of a module with a parameter ``parameter``."""
    takers = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            named = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
            if parameter in {a.arg for a in named if a is not None}:
                takers.add(node.name)
    return takers


def test_the_scan_finds_a_parameter():
    source = (
        "def f(a, *, system=None):\n    pass\n\n"
        "class C:\n    def g(self, *system):\n        pass\n\n"
        "def h(b):\n    system = b\n"
    )
    assert takers_of(source, "system") == {"f", "g"}


def test_below_the_run_no_function_takes_a_learning_system():
    sources = [p.read_text(encoding="utf-8") for p in SOURCES]
    assert set().union(*(takers_of(source, "system") for source in sources)) == SYSTEM_TAKERS
    assert set().union(*(takers_of(source, "mt_classes") for source in sources)) == set()


def raised_names(source: str) -> set[str]:
    """The names of the classes a module raises: ``raise X`` and ``raise X(...)``."""
    raised = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                raised.add(exc.id)
    return raised


def test_the_scan_finds_a_raised_class():
    source = "try:\n    raise A('a')\nexcept A as exc:\n    raise B from exc\nraise\nraise c.D()\n"
    assert raised_names(source) == {"A", "B"}


def test_every_error_class_is_raised_under_src():
    raised = set().union(*(raised_names(p.read_text(encoding="utf-8")) for p in SOURCES))
    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass) if c.__module__ == errors.__name__]
    assert len(classes) > 5  # the scan reaches the hierarchy
    used = {c for c in classes if c.__name__ in raised}
    unraised = [c.__name__ for c in classes if not any(issubclass(u, c) for u in used)]
    assert unraised == []


def loaded_by_import(module: str, other: str) -> str:
    """What a fresh interpreter that imports ``module`` prints for whether
    ``other`` is loaded: a line of ``True`` or ``False``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = f"import sys, {module}; print({other!r} in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_the_cli_leaves_the_oracle_battery_unloaded():
    """``cddet run`` and ``cddet eval`` do not import ``cddet.verify``;
    ``cmd_verify`` imports it when it runs."""
    assert loaded_by_import("cddet.cli", "cddet.verify") == "False\n"


def test_the_metrics_leave_the_trainer_unloaded():
    """``cddet.metrics`` reads and writes the run's files, ``PredictionLog``
    among them, without the training engine."""
    assert loaded_by_import("cddet.metrics", "cddet.trainer") == "False\n"
