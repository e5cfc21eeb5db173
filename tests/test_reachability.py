"""Every public name in the package is reached by the program or the benchmark.

A public top-level function or class, or a public method, of
`src/avqabench` must be named in the code of `src/` or `benchmarks/`:
as a name, an attribute or an imported name, found by walking each file's
syntax tree, so a docstring or a comment does not count. A target of
`[project.scripts]` in `pyproject.toml` counts too. Tests do not: a name
that only tests reach belongs in the test module that uses it.
ENTRY_POINTS names the few kept for callers outside the repository.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "avqabench"

# qualified name -> why it stays public though nothing here calls it
ENTRY_POINTS = {"split.load_split": "reads the file write_split writes"}


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


def _names_in(source: str) -> set[str]:
    """Every name, attribute and imported name in one module's code."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def _script_names(project: dict) -> set[str]:
    """Every module and attribute a `[project.scripts]` target names."""
    names = set()
    for target in project.get("scripts", {}).values():
        module, _, attr = target.partition(":")
        names.update(module.split("."))
        names.add(attr)
    return names


def _reached_names() -> set[str]:
    """Every name, attribute and imported name in src/ and benchmarks/,
    and every module and attribute a console script targets."""
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    names = set()
    for folder in ("src", "benchmarks"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            names |= _names_in(path.read_text(encoding="utf-8"))
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    return names | _script_names(project)


def test_every_public_name_is_referenced():
    reached = _reached_names()
    unreached = [
        qualified
        for qualified, name in _public_definitions()
        if name not in reached and qualified not in ENTRY_POINTS
    ]
    assert unreached == []


def test_entry_points_are_defined_and_reached_from_nowhere_else():
    defined = dict(_public_definitions())
    reached = _reached_names()
    stale = [q for q in ENTRY_POINTS if q not in defined or defined[q] in reached]
    assert stale == []


@pytest.mark.parametrize(
    "source",
    [
        "target()",
        "module.target",
        "from module import target",
        "import package.target",
        "from module import target as alias",
    ],
)
def test_a_use_in_code_reaches_the_name(source):
    assert "target" in _names_in(source)


def test_docstrings_comments_and_strings_reach_nothing():
    source = (
        '"""Uses target, and pre-target in prose."""\n'
        "# target() in a comment\n"
        "def other():\n"
        '    """target"""\n'
        '    return "target"\n'
    )
    assert "target" not in _names_in(source)


def test_a_definition_alone_reaches_nothing():
    assert "target" not in _names_in("def target():\n    pass\n\nclass target:\n    pass\n")


def test_a_console_script_target_reaches_its_module_and_function():
    project = {"scripts": {"avqa": "avqabench.cli:main"}}
    assert _script_names(project) == {"avqabench", "cli", "main"}
    assert _script_names({}) == set()


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
