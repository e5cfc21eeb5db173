"""Every public name in the package is reached from somewhere.

A public top-level function or class, or a public method, of
`src/avqabench` must be named in `src/`, `tests/`, `benchmarks/` or
`pyproject.toml` on some line other than its own `def`/`class` line.
A name that only its definition mentions is dead code.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "avqabench"


def _public_definitions():
    """(qualified name, bare name) of each public def/class in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def _searched_lines():
    paths = [ROOT / "pyproject.toml"]
    for folder in ("src", "tests", "benchmarks"):
        paths += sorted((ROOT / folder).rglob("*.py"))
    return [line for path in paths for line in path.read_text(encoding="utf-8").splitlines()]


def test_every_public_name_is_referenced():
    lines = _searched_lines()
    unreached = []
    for qualified, name in _public_definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^\s*(?:def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not definition.match(line) for line in lines):
            unreached.append(qualified)
    assert unreached == []


def test_toy_imports_no_private_name_from_debias():
    """The toy reaches the debias core only through its public names."""
    tree = ast.parse((PACKAGE / "toy.py").read_text(encoding="utf-8"))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module, node.level) in (("debias", 1), ("avqabench.debias", 0))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
