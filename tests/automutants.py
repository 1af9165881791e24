"""Sampled mutation testing: draw random source mutants of the engine and
report which of them the tier-1 suite kills.

Each mutant is one small edit, found with the stdlib ``ast`` and spliced into
the source text by position, so that comments and layout stay as they are
(``ast.unparse`` drops comments, which breaks the tests that read the source):

- swap ``+``/``-`` or ``*``/``/``, in an expression or an augmented assignment;
- shift a comparison boundary: ``<``/``<=``, ``>``/``>=``, ``==``/``!=``;
- swap ``and``/``or``;
- add 1 to a numeric constant.

Every such edit in the named modules is listed, and ``--count`` of them are
drawn with ``random.Random(--seed)``. For each, the script copies ``src/``,
``tests/``, ``perfbench/`` and ``pyproject.toml`` into a temporary directory
(``tests/test_bench_hooks.py`` needs ``perfbench/``), applies the edit there
and runs tier-1 with ``-x``, but for ``tests/test_mutants.py``, which
checks the recorded mutants' text against the source, not what the engine
does. It prints each mutant with the first test that
failed, or ``SURVIVED``, and then the kill rate per module. pytest does not
collect this file.

    python tests/automutants.py --seed 4 --count 60 trainer memory metrics losses model stream

A killed mutant takes a few seconds, a survivor the whole suite.
"""

import argparse
import ast
import random
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAPS = {"+": "-", "-": "+", "*": "/", "/": "*", "<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
         "and": "or", "or": "and"}
OPERATORS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">",
             ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=", ast.And: "and", ast.Or: "or"}


def _operator_at(source: bytes, start: int, stop: int, token: str) -> int | None:
    """The offset of ``token`` as an operator between two operands, which
    leave only parentheses, blanks, line breaks and comments between them."""
    gap = re.sub(rb"#[^\n]*", lambda m: b" " * len(m.group()), source[start:stop])
    pattern = rb"(?<![\w<>=!*/+-])" + re.escape(token.encode()) + rb"(?![\w<>=*/])"
    found = re.search(pattern, gap)
    return None if found is None else start + found.start()


def mutation_sites(module: str) -> list[tuple[str, int, int, str]]:
    """Every edit in ``src/cddet/<module>.py``: (module, start, end,
    replacement), offsets into its UTF-8 bytes."""
    source = (ROOT / "src" / "cddet" / f"{module}.py").read_bytes()
    starts = [0] + [i + 1 for i, byte in enumerate(source) if byte == ord("\n")]

    def offset(line, col):
        return starts[line - 1] + col

    sites = []

    def operator(left, right, op, suffix=""):
        token = OPERATORS.get(type(op))
        if token is None:
            return
        at = _operator_at(source, offset(left.end_lineno, left.end_col_offset), offset(right.lineno, right.col_offset),
                          token + suffix)
        if at is not None:
            sites.append((module, at, at + len(token), SWAPS[token]))

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp):
            operator(node.left, node.right, node.op)
        elif isinstance(node, ast.AugAssign):
            operator(node.target, node.value, node.op, "=")
        elif isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                operator(left, right, op)
        elif isinstance(node, ast.BoolOp):
            for left, right in zip(node.values, node.values[1:]):
                operator(left, right, node.op)
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            start, end = offset(node.lineno, node.col_offset), offset(node.end_lineno, node.end_col_offset)
            sites.append((module, start, end, repr(node.value + 1)))
    return sorted(sites)


def describe(site) -> str:
    module, start, end, replacement = site
    source = (ROOT / "src" / "cddet" / f"{module}.py").read_bytes()
    line = source.count(b"\n", 0, start) + 1
    return f"{module}.py:{line}: {source[start:end].decode()!r} -> {replacement!r}"


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work")
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest)


def first_failure(tree: Path) -> str:
    """``SURVIVED``, or what killed the mutant: the first failing test."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
    try:
        run = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=900)
    except subprocess.TimeoutExpired:
        return "killed: timeout"
    if run.returncode == 0:
        return "SURVIVED"
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.MULTILINE)
    return f"killed: {failed.group(1) if failed else f'pytest exit {run.returncode}'}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", help="module names under src/cddet")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=60)
    args = parser.parse_args()
    sites = [site for module in args.modules for site in mutation_sites(module)]
    sample = random.Random(args.seed).sample(sites, min(args.count, len(sites)))
    drawn, killed = Counter(), Counter()
    with tempfile.TemporaryDirectory() as tmp:
        for i, site in enumerate(sample):
            module, start, end, replacement = site
            tree = Path(tmp) / f"mutant{i}"
            copy_tree(tree)
            path = tree / "src" / "cddet" / f"{module}.py"
            source = path.read_bytes()
            path.write_bytes(source[:start] + replacement.encode() + source[end:])
            outcome = first_failure(tree)
            shutil.rmtree(tree)
            drawn[module] += 1
            killed[module] += outcome != "SURVIVED"
            print(f"{i:3d} {describe(site)}: {outcome}", flush=True)
    for module in args.modules:
        print(f"{module}: {killed[module]}/{drawn[module]} killed")
    print(f"total: {sum(killed.values())}/{len(sample)} killed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
