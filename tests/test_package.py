"""The package as a whole: its documented surface and its imports."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import cedsenum

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cedsenum"


def _export_list(readme: str) -> str:
    """The bullet list that follows the ``cedsenum.__all__`` line of the
    README's "Library use" section, up to the first blank line after it."""
    section = readme.split("## Library use", 1)[1]
    after = section.split("(`cedsenum.__all__`)", 1)[1].split("\n", 1)[1]
    return after.lstrip("\n").split("\n\n", 1)[0]


def test_readme_lists_exactly_the_exported_names():
    listed = re.findall(r"`([^`]+)`", _export_list((ROOT / "README.md").read_text()))
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert set(listed) == set(cedsenum.__all__)


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads.  Exempt are ``__future__``
    imports, lines marked ``# noqa: F401``, and in a package ``__init__``
    the ``from . import`` submodules; a name in ``__all__`` counts as read."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if path.name == "__init__.py" and isinstance(node, ast.ImportFrom) and node.module is None:
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert [hit for path in modules for hit in _unused_imports(path)] == []


def test_every_private_helper_has_a_caller_in_the_package():
    """Every module-level ``_``-prefixed function of the package is read on
    some line of ``src/`` other than its own ``def``: in its own module or
    in another one, an import alone not counting.  A helper that only the
    tests or the benchmark tracer keep alive shows up here."""
    defined: dict[str, str] = {}
    read: set[tuple[str, str, int]] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                if not node.name.startswith("__"):
                    defined[node.name] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add((node.id, path.name, node.lineno))
            elif isinstance(node, ast.Attribute):
                read.add((node.attr, path.name, node.lineno))
    assert defined
    unread = [
        f"{where} {name}"
        for name, where in defined.items()
        if not any(n == name and f"{m}:{line}" != where for n, m, line in read)
    ]
    assert unread == []
