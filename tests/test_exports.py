"""Every name the package exports has a caller: a public name that only
its own tests reach is dead API.  Only ``poly_core`` knows the
packed-exponent format and its power routine, and only its ``_Memo``
caches and locks."""

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


def _callers() -> list:
    """The package's modules but ``__init__``, and the benchmark's."""
    callers = [f for f in PACKAGE.glob("*.py") if f.name != "__init__.py"]
    return callers + list((ROOT / "perfbench").glob("*.py"))


def test_every_export_is_referenced_outside_init():
    callers = _callers()
    exports = _exports()
    assert "decompose" in exports and len(callers) > 10
    assert sorted(exports - _references(callers)) == []


def test_every_public_method_of_an_export_is_read_outside_init():
    """A public method (or property) of an exported class is read as an
    attribute somewhere in the package or the benchmark, outside
    ``__init__``.  The scan goes by name only, so it cannot tell two
    classes' methods of one name apart: ``perfbench/corpus.py`` reads its
    own ``Expander.symbol``, which would hide a ``GenExpr.symbol`` that
    nothing calls."""
    exports = _exports()
    methods = {f"{cls.name}.{node.name}": node.name
               for path in PACKAGE.glob("*.py")
               for cls in ast.parse(path.read_text(encoding="utf-8")).body
               if isinstance(cls, ast.ClassDef) and cls.name in exports
               for node in cls.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    # the scan finds the exported classes' methods, properties included
    assert {"Ring.nvars", "GenSpan.solve", "GenExpr.weighted_degree"} <= set(methods)
    read = {node.attr for path in _callers()
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)}
    assert sorted(qual for qual, name in methods.items() if name not in read) == []


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


def test_every_packed_power_goes_through_the_power_chains():
    """``_packed_power`` is named only inside ``poly_core._power_chains``,
    so ``Poly.__pow__``, ``expand``, the lift and the spans all take
    their packed powers from the chains."""
    users = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tops = ast.parse(path.read_text(encoding="utf-8")).body
        for line, name in _names(path):
            if name == "_packed_power":
                top = next(top for top in tops if top.lineno <= line <= top.end_lineno)
                users.add(f"{path.name}:{getattr(top, 'name', line)}")
    assert users == {"poly_core.py:_power_chains"}


def test_no_generator_family_takes_a_polynomial_power():
    """``generators.py`` has no ``**``: EX[i] and EY[j] are placed sums,
    and no family needs a polynomial power."""
    tree = ast.parse((PACKAGE / "generators.py").read_text(encoding="utf-8"))
    powers = [node.lineno for node in ast.walk(tree)
              if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow)]
    assert powers == []


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
    trace is not a cache), and the modules that memoize use ``_Memo``:
    ``generators`` for its generator polynomials and ``genexpr`` for its
    level tables, which hold everything keyed by their level.
    ``decompose`` holds no cache."""
    forbidden = {"Lock", "RLock", "lru_cache", "cache", "cached_property"}
    leaks, users = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        names = list(_names(path))
        users.update(path.name for _, name in names if name == "_Memo")
        if path.name != "poly_core.py":
            leaks += [f"{path.name}:{line}: {name}" for line, name in names if name in forbidden]
    assert leaks == []
    assert users == {"generators.py", "genexpr.py"}


# The validating constructors, and where the package may call them: on
# values that enter from outside.
DOORS = {
    "Poly": {"poly_core.parse_poly"},
    "GenExpr": {"genexpr.parse_gen_expr", "selfcheck.random_gen_expr"},
}


def _scoped(path: Path):
    """(scope, node) of every node in ``path`` but the definitions; the
    scope is the module and the names of the enclosing classes and
    functions."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            found.append((scope, child))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def _calls(path: Path):
    """(scope, callee text) of every call in ``path``."""
    return [(scope, ast.unparse(node.func)) for scope, node in _scoped(path) if isinstance(node, ast.Call)]


def test_validating_constructors_run_only_at_the_doors():
    """Everything the package builds itself goes through the trusted
    ``poly_core._clean``: ``Poly(...)`` and ``GenExpr(...)`` are called
    only where outside values enter."""
    calls = [call for path in sorted(PACKAGE.glob("*.py")) for call in _calls(path)]
    # the scan sees the doors themselves
    assert ("poly_core.parse_poly", "Poly") in calls
    assert ("genexpr.parse_gen_expr", "GenExpr") in calls
    leaks = [f"{scope}: {callee}(...)" for scope, callee in calls
             if callee in DOORS and scope not in DOORS[callee]]
    assert leaks == []


def test_decompose_builds_its_certificates_trusted():
    """``decompose`` calls no validating constructor at all: its
    certificates, a peeled core's term included, go through ``_clean``."""
    calls = _calls(PACKAGE / "decompose.py")
    # the scan sees the module's calls: the peel builds its core term
    assert ("decompose._decompose_homogeneous", "_core_term") in calls
    doors = {"Poly", "GenExpr", "parse_poly", "parse_gen_expr"}
    assert [call for call in calls if call[1] in doors] == []


def test_one_int_check():
    """``poly_core._int`` checks every outside int: the package's only
    ``isinstance(..., int)`` tests are ``_Terms``' dispatch on a scalar
    operand, as in ``f * 3``."""
    scopes = {scope for path in sorted(PACKAGE.glob("*.py")) for scope, node in _scoped(path)
              if isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"
              and "int" in {name.id for name in ast.walk(node.args[1]) if isinstance(name, ast.Name)}}
    # the scan sees the scalar dispatch
    assert "poly_core._Terms.__mul__" in scopes
    assert sorted(scope for scope in scopes if not scope.startswith("poly_core._Terms.")) == []
