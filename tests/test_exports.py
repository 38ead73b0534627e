"""Every name the package exports has a caller: a public name that only
its own tests reach is dead API.  Only ``poly_core`` knows the
packed-exponent format, and only its ``_Memo`` caches and locks."""

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


def _names(path: Path):
    """(line, name) of every bare name, attribute and imported name, and
    ``<<`` for every left shift."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.alias):
            yield node.lineno, node.name.rpartition(".")[2]
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.LShift):
            yield node.lineno, "<<"


def _is_packed_helper(name: str) -> bool:
    """A ``poly_core`` name that carries the packed layout: a private
    packing helper or the field-width rule."""
    return (name.startswith("_") and "pack" in name) or name in {"_reduce_mod", "_field_width"}


def test_only_poly_core_knows_the_packed_format():
    """Outside ``poly_core`` no module names a packed helper, computes a
    field width (``bit_length``) or builds a packed key or field mask
    (``<<``); callers hand ``poly_core`` a degree bound instead."""
    modules = [f for f in sorted(PACKAGE.glob("*.py")) if f.name != "poly_core.py"]
    # the glob found the package: the modules that call into the packed kernel
    assert {"decompose.py", "generators.py", "genexpr.py", "oracle.py"} <= {f.name for f in modules}
    leaks = [f"{path.name}:{line}: {name}" for path in modules for line, name in _names(path)
             if name in ("bit_length", "<<") or _is_packed_helper(name)]
    assert leaks == []


SHARED_ARITHMETIC = {"__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                     "__rmul__", "__eq__", "__hash__", "is_zero", "__setattr__"}


def _class_body(module: str, name: str) -> dict:
    """{name: AST node} of the definitions and assignments in a class body."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == name)
    body = {}
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body[node.name] = node
        elif isinstance(node, ast.Assign):
            body.update((target.id, node) for target in node.targets if isinstance(target, ast.Name))
    return body


def test_one_arithmetic_for_poly_and_gen_expr():
    """``poly_core._Terms`` states the sums, negation, scalar products,
    equality, zero test and immutability once: GenExpr defines none of
    them, and Poly only binds the ones the benchmark tracer patches in
    its own namespace to ``_Terms``'s functions."""
    shared = _class_body("poly_core.py", "_Terms")
    assert SHARED_ARITHMETIC <= set(shared)
    assert SHARED_ARITHMETIC.isdisjoint(_class_body("genexpr.py", "GenExpr"))
    # one power too: Poly overrides it with its packed Frobenius power
    assert "__pow__" in shared and "__pow__" not in _class_body("genexpr.py", "GenExpr")
    poly = _class_body("poly_core.py", "Poly")
    for name in SHARED_ARITHMETIC & set(poly):
        node = poly[name]
        assert isinstance(node, ast.Assign), name
        assert ast.unparse(node.value).startswith("_Terms."), name


def test_one_cache_rule():
    """Every memo is a ``poly_core._Memo``: no other module creates a
    lock or uses a ``functools`` cache (``decompose``'s thread-local
    trace is not a cache), and the modules that memoize use ``_Memo``."""
    forbidden = {"Lock", "RLock", "lru_cache", "cache", "cached_property"}
    leaks, users = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        names = list(_names(path))
        users.update(path.name for _, name in names if name == "_Memo")
        if path.name != "poly_core.py":
            leaks += [f"{path.name}:{line}: {name}" for line, name in names if name in forbidden]
    assert leaks == []
    assert users == {"decompose.py", "generators.py", "genexpr.py"}


# The validating constructors, and where the package may call them: on
# values that enter from outside.  A ``cls(...)`` call counts as GenExpr's
# inside its classmethods, which stay doors for callers outside the
# package; no module calls them.
DOORS = {
    "Poly": {"poly_core.parse_poly", "poly_core.monomial"},
    "GenExpr": {"genexpr.parse_gen_expr", "decompose.core_to_generators", "selfcheck.random_gen_expr"},
    "cls": {"genexpr.GenExpr.zero", "genexpr.GenExpr.const", "genexpr.GenExpr.symbol"},
    "GenExpr.zero": set(),
    "GenExpr.const": set(),
    "GenExpr.symbol": set(),
}


def _calls(path: Path):
    """(scope, callee text) of every call in ``path``; the scope is the
    module and the names of the enclosing classes and functions."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                found.append((scope, ast.unparse(child.func)))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_validating_constructors_run_only_at_the_doors():
    """Everything the package builds itself goes through the trusted
    ``poly_core._clean``: ``Poly(...)``, ``GenExpr(...)`` and the GenExpr
    classmethods are called only where outside values enter."""
    calls = [call for path in sorted(PACKAGE.glob("*.py")) for call in _calls(path)]
    # the scan sees the doors themselves
    assert ("poly_core.parse_poly", "Poly") in calls
    assert ("decompose.core_to_generators", "GenExpr") in calls
    leaks = [f"{scope}: {callee}(...)" for scope, callee in calls
             if callee in DOORS and scope not in DOORS[callee]]
    assert leaks == []


def test_decompose_builds_its_certificates_trusted():
    """``decompose`` calls no validating certificate constructor but the
    public ``core_to_generators``."""
    doors = {"GenExpr", "GenExpr.zero", "GenExpr.const", "GenExpr.symbol", "parse_gen_expr"}
    calls = [call for call in _calls(PACKAGE / "decompose.py") if call[1] in doors]
    assert calls == [("decompose.core_to_generators", "GenExpr")]
