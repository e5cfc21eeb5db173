"""Every public name in the package is reached by the program or the benchmark.

A public top-level function, class or constant, or a public method, of
`src/avqabench` must be used in the code of `src/` or `benchmarks/`: read
as a name or an attribute, or imported, found by walking each file's
syntax tree, so a docstring, a comment or an assignment does not count.
A target of `[project.scripts]` in `pyproject.toml` counts too. Tests do
not: a name that only tests reach belongs in the test module that uses
it. ENTRY_POINTS names the few kept for callers outside the repository.

Every name a module-level import of `src/avqabench` binds is read in the
code of its module, annotations included, so a stale import fails here:
no linter runs on the package.

README's table of modules lists exactly these names: each module's row
names its public defs and classes, and its constants unless the sentence
on constants names them, and a row names nothing else but the fields and
methods of the module's classes.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "avqabench"

# qualified name -> why it stays public though nothing here calls it
ENTRY_POINTS: dict[str, str] = {}


def _module_level_names(node: ast.stmt) -> list[str]:
    """The names a top-level def, class or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _public_definitions():
    """(qualified name, bare name) of each public def, class and constant in
    the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            for name in _module_level_names(node):
                if not name.startswith("_"):
                    yield f"{path.stem}.{name}", name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def _class_members(module: str) -> set[str]:
    """The names each class of a module binds in its body: fields and methods."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return {
        name
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        for name in _module_level_names(item)
    }


def _readme_names() -> tuple[dict[str, set[str]], set[str]]:
    """README's table of modules, as the names backticked in each module's
    row, a call's arguments cut off; and the qualified names in the sentence
    on constants, where a bare name belongs to the module named before it."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = {}
    for module, names in re.findall(r"^\| `(\w+)` \|(.*)\|$", text, re.MULTILINE):
        rows[module] = {re.match(r"\w+", name)[0] for name in re.findall(r"`([^`]+)`", names)}
    sentence = re.search(r"The public constants are (.*?)\.\s", text, re.DOTALL)
    constants, module = set(), None
    for name in re.findall(r"`([\w.]+)`", sentence[1]):
        if "." in name:
            module, name = name.split(".")
        constants.add(f"{module}.{name}")
    return rows, constants


def _names_in(source: str) -> set[str]:
    """Every name and attribute read, and every imported name, in one
    module's code; an assignment's target is not a use."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def _unread_imports(source: str) -> list[str]:
    """The names that one module's top-level imports bind, but that its code
    never reads; a `__future__` import binds nothing."""
    tree = ast.parse(source)
    bound = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read]


def _script_names(project: dict) -> set[str]:
    """Every module and attribute a `[project.scripts]` target names."""
    names = set()
    for target in project.get("scripts", {}).values():
        module, _, attr = target.partition(":")
        names.update(module.split("."))
        names.add(attr)
    return names


def _reached_names() -> set[str]:
    """Every name and attribute read, and every imported name, in src/ and
    benchmarks/, and every module and attribute a console script targets."""
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


def test_every_module_level_import_is_read():
    unread = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _unread_imports(path.read_text(encoding="utf-8"))
    ]
    assert unread == []


@pytest.mark.parametrize(
    "source, unread",
    [
        ("import os", ["os"]),
        ("import os.path\nos.sep", []),
        ("import numpy as np\nx: np.ndarray", []),
        ("from json import dumps, loads\ndumps(1)", ["loads"]),
        ("from .records import Path as P\nP", []),
        ("from __future__ import annotations", []),
        ("import os\nos = 1", ["os"]),
    ],
)
def test_an_import_counts_as_read_only_where_its_name_is_loaded(source, unread):
    assert _unread_imports(source) == unread


def test_entry_points_are_defined_and_reached_from_nowhere_else():
    defined = dict(_public_definitions())
    reached = _reached_names()
    stale = [q for q in ENTRY_POINTS if q not in defined or defined[q] in reached]
    assert stale == []


def test_readme_lists_every_public_name_of_each_module():
    rows, constants = _readme_names()
    unlisted = [
        qualified
        for qualified, name in _public_definitions()
        if qualified.count(".") == 1
        and name not in rows.get(qualified.split(".")[0], ())
        and qualified not in constants
    ]
    assert unlisted == []


def test_readme_lists_no_name_its_module_lacks():
    rows, constants = _readme_names()
    defined = {q for q, _ in _public_definitions() if q.count(".") == 1}
    stale = [
        f"{module}.{name}"
        for module, names in rows.items()
        for name in sorted(names - _class_members(module))
        if f"{module}.{name}" not in defined
    ]
    assert stale + sorted(constants - defined) == []


@pytest.mark.parametrize(
    "source",
    [
        "target()",
        "module.target",
        "from module import target",
        "import package.target",
        "from module import target as alias",
        "print(target)",
        "x = module.target",
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


@pytest.mark.parametrize(
    "source", ["target = 1", "target: int = 1", "module.target = 1", "del target"]
)
def test_an_assignment_alone_reaches_nothing(source):
    assert "target" not in _names_in(source)


def test_public_constants_are_checked():
    source = "TARGET = 1\n_PRIVATE = 2\nannotated: int = 3\nsplit = other = 4\n"
    names = [n for node in ast.parse(source).body for n in _module_level_names(node)]
    assert names == ["TARGET", "_PRIVATE", "annotated", "split", "other"]
    assert "split.BALANCED_ENTROPY" in dict(_public_definitions())


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
