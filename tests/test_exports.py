"""Every name the package exports has a caller: a public name that only
its own tests reach is dead API."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "supersympoly"


def _exports() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _references(paths) -> set:
    """Names read in ``paths``: bare names and attribute names."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_is_referenced_outside_init():
    callers = [f for f in PACKAGE.glob("*.py") if f.name != "__init__.py"]
    callers += (ROOT / "perfbench").glob("*.py")
    exports = _exports()
    assert "decompose" in exports and len(callers) > 10
    assert sorted(exports - _references(callers)) == []
