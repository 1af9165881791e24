"""The mutant table of ``tests/mutants.py`` stays current: each mutant's text
occurs exactly once in its module, its replacement differs from it and
leaves a module that parses, and each test it names exists. A mutant that
does not parse would count as killed through an import error. The mutation
harness takes minutes; these checks read files only."""

import ast
from pathlib import Path

import pytest
from mutants import MUTANTS, ROOT


def defines(path: Path, names: list[str]) -> bool:
    """Whether the module at ``path`` defines ``names``: a class or a
    function, then a method of that class, and so on."""
    body = ast.parse(path.read_text(encoding="utf-8")).body
    for name in names:
        found = [node for node in body if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name]
        if not found:
            return False
        body = found[0].body
    return True


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant[0] for mutant in MUTANTS])
def test_mutant_applies_once_and_names_existing_tests(mutant):
    _, module, text, replacement, tests = mutant
    source = (ROOT / "src" / "cddet" / module).read_text(encoding="utf-8")
    count = source.count(text)
    assert count == 1, f"its text occurs {count} times in {module}"
    assert replacement != text, "its replacement is its text"
    ast.parse(source.replace(text, replacement), filename=module)
    for test in tests:
        path, *names = test.split("::")
        assert (ROOT / path).is_file() and defines(ROOT / path, names), f"{test} does not exist"
