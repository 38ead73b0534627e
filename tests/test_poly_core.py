import operator
import sys

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from supersympoly import (
    DivisibilityError,
    Poly,
    PolyParseError,
    Ring,
    RingMismatchError,
    c_r,
    d_dT,
    exact_monomial_div,
    homogeneous_components,
    one,
    parse_poly,
    poly_to_str,
    psi,
    set_xm_zero,
    x_var,
    zero,
)
from supersympoly.genexpr import _SYMBOL_PIECES, parse_gen_expr, serialize_gen_expr
from supersympoly.poly_core import FpEchelon, _Memo, _STRAY, _VAR_PIECES, _tokenize
from helpers import (
    ReferenceEchelon,
    reference_exact_monomial_div,
    reference_mul,
    reference_parse_gen_expr,
    reference_parse_poly,
    reference_pow,
    reference_tokenize,
    ring_and_polys,
    wide_operands,
)

R11 = Ring(1, 1, False, 3)
R21 = Ring(2, 1, False, 3)


class TestRing:
    def test_rejects_non_prime_characteristic(self):
        for bad in (2, 4, 9, 1, 0, -3):
            with pytest.raises(ValueError):
                Ring(1, 1, False, bad)

    @pytest.mark.parametrize("p, prime", [
        (11, True), (13, True), (101, True), (25, False), (49, False), (121, False),
    ])
    def test_large_characteristic(self, p, prime):
        # the composites have no factor below 5, so trial division runs
        if prime:
            assert Ring(1, 1, False, p).p == p
        else:
            with pytest.raises(ValueError, match="odd prime"):
                Ring(1, 1, False, p)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            Ring(-1, 0, False, 3)
        # negative exponents are refused too (a packed product would
        # borrow from the neighbouring slot)
        with pytest.raises(ValueError):
            Poly(R11, {(-1, 2): 1})
        with pytest.raises(ValueError):
            Poly(R11, {(0, -1): 1})

    def test_var_names(self):
        assert Ring(2, 1, True, 3).var_names() == ["x1", "x2", "y1", "T"]


class TestAdd:
    def test_additive_inverse(self):
        f = x_var(R11, 1)
        assert (f + (-f)).is_zero

    def test_merges_terms(self):
        f = parse_poly("x1 + y1", R11) + parse_poly("y1", R11)
        assert f == parse_poly("x1 + 2*y1", R11)

    def test_coefficients_wrap_mod_p(self):
        assert (parse_poly("2*x1", R11) + parse_poly("x1", R11)).is_zero

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            x_var(R11, 1) + x_var(R21, 1)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
@pytest.mark.parametrize("other", [1.5, "x1", None, (1, 0)])
def test_foreign_operands_raise_type_error(op, other):
    """Arithmetic with anything but an int or a Poly is unsupported, in
    either order, and Python says so with TypeError."""
    f = parse_poly("x1 + 2*y1", R11)
    with pytest.raises(TypeError):
        op(f, other)
    with pytest.raises(TypeError):
        op(other, f)


def test_int_operands_on_both_sides():
    f = parse_poly("x1 + 2*y1", R11)
    assert 1 + f == f + 1 == parse_poly("x1 + 2*y1 + 1", R11)
    assert 1 - f == -(f - 1) == parse_poly("1 - x1 - 2*y1", R11)
    assert 2 * f == f * 2 == parse_poly("2*x1 + y1", R11)


class TestMul:
    def test_difference_of_squares(self):
        f = parse_poly("x1 - y1", R11) * parse_poly("x1 + y1", R11)
        assert f == parse_poly("x1^2 - y1^2", R11)

    def test_one_is_identity(self):
        f = parse_poly("x1^2 + 2*y1", R11)
        assert f * one(R11) == f

    def test_freshman_dream_cube(self):
        f = parse_poly("x1 + y1", R11)
        cube = f * f * f  # independent of __pow__
        assert cube == parse_poly("x1^3 + y1^3", R11)
        assert f**3 == cube


class TestPow:
    def test_power_one(self):
        f = parse_poly("x1 + x2", R21)
        assert f**1 == f

    def test_power_zero(self):
        assert parse_poly("x1 + y1", R11) ** 0 == one(R11)

    def test_zero_power(self):
        assert zero(R11) ** 5 == zero(R11)


class TestPsi:
    def test_product_becomes_t_squared(self):
        image = psi(parse_poly("x1*y1", R11))
        assert image == parse_poly("T^2", Ring(0, 0, True, 3))

    def test_kills_c2(self):
        assert psi(c_r(2, R11)).is_zero

    def test_level_two_example(self):
        f = parse_poly("-x1*x2*y1 + x1*y1^2 + x2*y1^2", R21)
        assert psi(f) == parse_poly("T^3", Ring(1, 0, True, 3))

    def test_requires_both_blocks(self):
        with pytest.raises(ValueError):
            psi(parse_poly("x1", Ring(1, 0, False, 3)))


class TestDdT:
    def test_cube_in_char_three(self):
        rt = Ring(0, 0, True, 3)
        assert d_dT(parse_poly("T^3", rt)).is_zero

    def test_product_rule_value(self):
        rt = Ring(1, 0, True, 3)
        assert d_dT(parse_poly("T^2*x1", rt)) == parse_poly("2*T*x1", rt)

    def test_constant(self):
        rt = Ring(0, 0, True, 3)
        assert d_dT(parse_poly("2", rt)).is_zero

    def test_needs_t(self):
        with pytest.raises(ValueError):
            d_dT(parse_poly("x1", R11))


class TestSetXmZero:
    def test_drops_terms(self):
        f = parse_poly("x1*x2 + x1*y1", R21)
        assert set_xm_zero(f) == parse_poly("x1*y1", R11)

    def test_top_elementary_dies(self):
        f = parse_poly("x1*x2", Ring(2, 0, False, 3))
        assert set_xm_zero(f).is_zero

    def test_cr_restriction_identity(self):
        # restriction drops the last x variable of the alternating sum
        for p in (3, 5):
            for m in (1, 2, 3):
                for n in (1, 2):
                    big = Ring(m, n, False, p)
                    small = Ring(m - 1, n, False, p)
                    for r in range(0, 5):
                        assert set_xm_zero(c_r(r, big)) == c_r(r, small)


class TestExactMonomialDiv:
    def test_simple(self):
        f = parse_poly("x1^2*y1", R11)
        assert exact_monomial_div(f, (1, 1)) == parse_poly("x1", R11)

    def test_empty_divisor(self):
        f = parse_poly("x1 + y1", R11)
        assert exact_monomial_div(f, (0, 0)) == f

    def test_not_divisible(self):
        with pytest.raises(DivisibilityError):
            exact_monomial_div(parse_poly("x1 + y1", R11), (1, 0))

    def test_negative_divisor_refused(self):
        # dividing by x1^-1 would multiply by x1
        with pytest.raises(ValueError, match="divisor exponent must be nonnegative"):
            exact_monomial_div(parse_poly("x1", R11), (-1, 0))
        with pytest.raises(ValueError, match="divisor exponent must be nonnegative"):
            exact_monomial_div(zero(R11), (0, -2))


class TestHomogeneousComponents:
    def test_splits(self):
        f = parse_poly("x1 + x1^2", R11)
        comps = homogeneous_components(f)
        assert [d for d, _ in comps] == [1, 2]
        assert comps[0][1] == parse_poly("x1", R11)
        assert comps[1][1] == parse_poly("x1^2", R11)

    def test_zero(self):
        assert homogeneous_components(zero(R11)) == []

    def test_homogeneous_input(self):
        f = parse_poly("x1*y1 + y1^2", R11)
        assert homogeneous_components(f) == [(2, f)]

    def test_degree_of_zero_is_none(self):
        assert zero(R11).degree() is None


class TestTextForm:
    CORPUS = [
        "0",
        "2",
        "x1",
        "2*x1*y1 + y1^2",
        "x1^2 + 2*x1*y1 + y1^2",
        "x1^3 + x1*y1^2",
    ]

    def test_round_trip_corpus(self):
        for text in self.CORPUS:
            f = parse_poly(text, R11)
            assert poly_to_str(f) == text
            assert parse_poly(poly_to_str(f), R11) == f

    def test_normalizes_signs_and_order(self):
        for text, canonical in [
            ("y1^2 - x1*y1", "2*x1*y1 + y1^2"),
            ("x1 ^ 2", "x1^2"),
            ("x01", "x1"),
            ("-x1", "2*x1"),
        ]:
            assert poly_to_str(parse_poly(text, R11)) == canonical

    def test_parse_errors(self):
        for bad in [
            "x1 +", "", "x1 ^", "z1", "x", "2x1", "x1 * * y1", "x0",
            "x 1", "T1", "x1^2^3", "--x1", "x1+-y1", "2*3", "x1 y1", "x1^-1",
            # digits are ASCII only; int() refusals are parse errors too
            "x\u0661 - y\u0661", "x1^\u00b2", "\u0661*x1", "1" * 5000, "x" + "1" * 5000,
        ]:
            for ring in (R11, Ring(1, 1, True, 3)):
                with pytest.raises(PolyParseError):
                    parse_poly(bad, ring)

    def test_t_rejected_without_t(self):
        with pytest.raises(PolyParseError):
            parse_poly("T", R11)


@settings(max_examples=50, deadline=None)
@given(ring_and_polys(count=3))
def test_commutative_associative_distributive(data):
    ring, f, g, h = data
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=200, deadline=None)
@given(wide_operands())
def test_mul_matches_reference(data):
    ring, f, g = data
    assert f * g == reference_mul(f, g)
    assert g * f == reference_mul(g, f)


@settings(max_examples=60, deadline=None)
@given(wide_operands(max_terms=2), st.data())
def test_pow_matches_reference(data, draw):
    ring, f, _ = data
    p = ring.p
    e = draw.draw(st.one_of(st.integers(0, 3 * p), st.integers(p * p, p * p + 2 * p)))
    assert f**e == reference_pow(f, e)


@pytest.mark.parametrize("m,n,has_t", [(0, 0, False), (0, 0, True), (1, 1, True), (2, 0, True)])
@pytest.mark.parametrize("p", [3, 5])
def test_pow_edge_rings(m, n, has_t, p):
    # rings with T or with no variables, exponents on both sides of p^2
    ring = Ring(m, n, has_t, p)
    nvars = ring.nvars
    f = Poly(ring, {(0,) * nvars: 2, (1,) * nvars: 1, tuple(range(nvars)): p - 1})
    for e in (0, 1, p - 1, p, p + 1, 2 * p, p * p - 1, p * p, p * p + 1, p * p + p + 1):
        assert f**e == reference_pow(f, e)


@settings(max_examples=40, deadline=None)
@given(ring_and_polys(count=1, min_m=1, min_n=1))
def test_freshman_dream_general(data):
    ring, f = data
    p = ring.p
    naive = one(ring)
    for _ in range(p):
        naive = naive * f
    scaled = Poly(ring, {tuple(a * p for a in e): c for e, c in f.terms.items()})
    assert f**p == naive
    assert naive == scaled


@settings(max_examples=40, deadline=None)
@given(ring_and_polys(count=2, has_t=True))
def test_leibniz_rule(data):
    ring, g, h = data
    assert d_dT(g * h) == d_dT(g) * h + g * d_dT(h)


@settings(max_examples=40, deadline=None)
@given(ring_and_polys(count=1, min_m=1, min_n=1), st.integers(0, 3), st.integers(0, 3))
def test_div_undoes_mul(data, a, b):
    ring, f = data
    exps = [a] * ring.m + [b] * ring.n
    d = tuple(exps)
    assert exact_monomial_div(f * Poly(ring, {d: 1}), d) == f


@settings(max_examples=40, deadline=None)
@given(ring_and_polys(count=2, min_m=1, min_n=1))
def test_psi_and_restriction_are_morphisms(data):
    ring, f, g = data
    assert psi(f + g) == psi(f) + psi(g)
    assert psi(f * g) == psi(f) * psi(g)
    assert set_xm_zero(f + g) == set_xm_zero(f) + set_xm_zero(g)
    assert set_xm_zero(f * g) == set_xm_zero(f) * set_xm_zero(g)


@settings(max_examples=60, deadline=None)
@given(ring_and_polys(count=1))
def test_text_round_trip(data):
    ring, f = data
    text = poly_to_str(f)
    again = parse_poly(text, ring)
    assert again == f
    assert poly_to_str(again) == text


@st.composite
def sparse_systems(draw):
    """A prime and a list of sparse vectors with int keys of at least 0
    and residues in [1, p); a vector may repeat an earlier one."""
    p = draw(st.sampled_from((3, 5, 7)))
    vec = st.dictionaries(st.integers(0, 15), st.integers(1, p - 1), max_size=6)
    vecs = draw(st.lists(vec, max_size=14))
    if vecs and draw(st.booleans()):
        vecs.append(dict(draw(st.sampled_from(vecs))))
    return p, vecs


def _terms(row):
    """A row without its label keys, which sort below 0."""
    return {k: c for k, c in row.items() if k >= 0}


@settings(max_examples=200, deadline=None)
@given(sparse_systems())
def test_echelon_matches_reference(system):
    p, vecs = system
    copies = [dict(vec) for vec in vecs]
    ech, ref = FpEchelon(p, len(vecs), vecs.__getitem__), ReferenceEchelon(p)
    for vec in vecs:
        ref.add(vec)
    assert ech.rank == ref.rank
    assert vecs == copies  # the echelon reads its vectors and never writes them
    assert [(piv, _terms(row)) for piv, row in ech.rows.items()] == list(ref.rows.items())
    for piv, row in ech.rows.items():
        assert piv >= 0 and row[piv] == 1
    for vec in vecs:
        combo = ech.combination(vec)
        assert all(0 <= i < len(vecs) and 0 < c < p for i, c in combo.items())
        total = {}
        for i, c in combo.items():
            for k, v in vecs[i].items():
                total[k] = (total.get(k, 0) + c * v) % p
        assert {k: v for k, v in total.items() if v} == vec


@settings(max_examples=100, deadline=None)
@given(sparse_systems(), st.data())
def test_echelon_draws_only_what_a_combination_needs(system, data):
    p, vecs = system
    drawn = []
    ech = FpEchelon(p, len(vecs), lambda i: drawn.append(i) or vecs[i])
    vec = data.draw(st.dictionaries(st.integers(0, 15), st.integers(1, p - 1), max_size=6))
    combo = ech.combination(vec)
    assert drawn == list(range(len(drawn)))  # in order, each once
    full = FpEchelon(p, len(vecs), vecs.__getitem__)
    full.rank  # draws every vector
    assert (combo is None) == (full.combination(vec) is None)
    if combo is not None:
        # the rows drawn so far are a prefix of the full echelon's rows
        assert list(ech.rows.items()) == list(full.rows.items())[:len(ech.rows)]
        if drawn:  # and the last draw was needed
            assert FpEchelon(p, len(drawn) - 1, vecs.__getitem__).combination(vec) is None


def test_echelon_of_no_vectors_has_rank_0():
    ech = FpEchelon(5, 0, None)
    assert {name for name in dir(ech) if not name.startswith("_")} == {"added", "combination", "rank", "rows"}
    assert ech.rank == 0
    assert ech.combination({}) == {}
    assert ech.combination({0: 1}) is None


def test_echelon_retries_a_draw_that_raised():
    p, vecs = 5, [{3: 1, 1: 2}, {3: 2, 1: 4}, {2: 1}, {3: 1, 2: 3, 0: 1}, {1: 1}]
    calls, failed = [], []

    def vector(i):
        calls.append(i)
        if i == 2 and not failed:
            failed.append(i)
            raise RuntimeError("a build that fails once")
        return vecs[i]

    ech = FpEchelon(p, len(vecs), vector)
    with pytest.raises(RuntimeError):
        ech.rank
    assert calls == [0, 1, 2]
    ref = ReferenceEchelon(p)
    for vec in vecs:
        ref.add(vec)
    assert ech.rank == ref.rank == 4
    assert calls == [0, 1, 2, 2, 3, 4]
    assert [(piv, _terms(row)) for piv, row in ech.rows.items()] == list(ref.rows.items())


@st.composite
def divisions(draw):
    """A polynomial and a divisor that divides it (f is a product by the
    divisor's monomial) or may not (f is drawn freely)."""
    ring, f = draw(ring_and_polys(count=1, has_t=draw(st.booleans())))
    d = draw(st.tuples(*([st.integers(0, 4)] * ring.nvars)))
    if draw(st.booleans()):
        f = f * Poly(ring, {d: 1})
    return f, d


def _outcome(fn, *args):
    """(result, None) or (None, (error type, message))."""
    try:
        return fn(*args), None
    except (DivisibilityError, PolyParseError) as exc:
        return None, (type(exc), str(exc))


@settings(max_examples=200, deadline=None)
@given(divisions())
def test_exact_monomial_div_matches_reference(data):
    f, d = data
    assert _outcome(exact_monomial_div, f, d) == _outcome(reference_exact_monomial_div, f, d)


_TEXT_PIECES = st.one_of(
    st.text(
        st.sampled_from(
            "abxyCTUE0123456789+-*^[] \t\n"  # the grammar's alphabet
            "\u00a0\u2003"  # Unicode spaces
            "\u0661\u00b2\u00e9"  # a non-ASCII digit, a superscript, a letter
        ),
        max_size=12,
    ),
    st.text(st.sampled_from("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789")),
    st.integers(4301, 4400).map(lambda k: "7" * k),  # int() refuses these
)


def _small_tokens(text, pieces):
    """``_tokenize``'s outcome with each piece read as
    ``reference_tokenize``'s tokens: the reference's outcome exactly when
    the errors agree and every piece is whole reference tokens."""
    tokens, error = _outcome(_tokenize, text, pieces)
    if error:
        return None, error
    return [token for piece in tokens for token in reference_tokenize(piece)[:-1]], None


def _assert_tokens_match(text):
    expected = _outcome(reference_tokenize, text)
    if expected[0] is not None:
        expected = expected[0][:-1], None
    for pieces in (_VAR_PIECES, _SYMBOL_PIECES):
        assert _small_tokens(text, pieces) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(_TEXT_PIECES, max_size=8).map("".join))
def test_tokenize_matches_reference(text):
    _assert_tokens_match(text)


class TestTokenize:
    def test_pinned_cases(self):
        long_text = " + ".join(f"{i % 2 + 1}*x1^{i}*y1" for i in range(1000))
        for text in (
            "x 1",
            "x\u0661",
            "C [ 1 ]",
            "x1^2*y1^3 + C[1]^2*EX[2] - T*x12^7",
            long_text + " + x1 @ y1 @",  # the first stray character is reported
            long_text + " - " + "9" * 4301 + " ! x1",  # the earlier error wins
            "x1 ! " + "9" * 4301,
        ):
            _assert_tokens_match(text)
        _, (_, message) = _outcome(_tokenize, long_text + " + x1 @ y1 @", _VAR_PIECES)
        assert message == f"unexpected character '@' at position {len(long_text) + 6}"

    def test_whitespace_is_str_isspace(self):
        # the regexes split on \s and the reference skips str.isspace:
        # the pieces of every code point, joined, drop exactly the spaces
        chars = "".join(map(chr, range(sys.maxunicode + 1)))
        for pieces in (_VAR_PIECES, _SYMBOL_PIECES):
            assert "".join(pieces.findall(chars)) == "".join(c for c in chars if not c.isspace())
        assert not any(c.isspace() for c in _STRAY.findall(chars))
        spaces = "".join(c for c in chars if c.isspace())
        _assert_tokens_match("x1" + spaces + "y2" + spaces + "3")
        _assert_tokens_match("C" + spaces + "[" + spaces + "1" + spaces + "]")


# each parser, its reference, its printer and the level arguments the
# differential tests read text at
_PARSERS = [
    (parse_poly, reference_parse_poly, poly_to_str, (ring,))
    for ring in (R11, Ring(2, 1, True, 5))
] + [
    (parse_gen_expr, reference_parse_gen_expr, serialize_gen_expr, level)
    for level in ((1, 1, 3), (2, 1, 5))
]


def _parsed(parse, show, text, level):
    """((value, canonical text), None) or (None, (error type, message))."""
    try:
        value = parse(text, *level)
    except PolyParseError as exc:
        return None, (type(exc), str(exc))
    return (value, show(value)), None


def _assert_parse_matches_reference(text):
    for parse, reference, show, level in _PARSERS:
        assert _parsed(parse, show, text, level) == _parsed(reference, show, text, level)


# mostly small numbers; now and then one with a leading zero or one too
# long for int()
_NUMBERS = st.integers(0, 40).map(lambda k: {39: "007", 40: "7" * 4301}.get(k, str(k % 13)))
_INDICES = st.integers(0, 40).map(lambda k: {39: "01", 40: "7" * 4301}.get(k, str(k % 4)))
_SPACE = st.sampled_from(["", "", "", " ", "  ", "\t", "\u2003"])
_MISSPELT = ["x", "z1", "Tx", "T1", "x1[2]", "C1[2]", "C[1 2]", "C[", "CX[1]"]


@st.composite
def _bases(draw, kinds):
    kind = draw(st.sampled_from(kinds))
    if kind in ("x", "y"):
        return kind + draw(_INDICES)
    if kind == "T":
        return kind
    if kind == "misspelt":
        return draw(st.sampled_from(_MISSPELT))
    space = draw(_SPACE)
    return f"{kind}{space}[{space}{draw(_INDICES)}{space}]"


@st.composite
def term_texts(draw):
    """Text in the term grammar of one of the two parsers, or near it:
    signed terms, each an optional coefficient and '*'-joined factors
    (x<i>, y<j> and T, or KIND[index]; now and then a misspelt base or
    one of the other grammar), each with an optional power; whitespace
    drawn around every '*', '^' and sign and inside brackets; numbers
    of up to 4301 digits; and then up to two insertions of a stray or
    misplaced piece."""
    kinds = draw(st.sampled_from([["x", "y", "T"], ["C", "EX", "EY", "U"]]))
    kinds = kinds * 6 + ["misspelt", "C", "x"]
    space = draw(_SPACE)
    terms = []
    for i in range(draw(st.integers(1, 4))):
        factors = []
        for _ in range(draw(st.integers(0, 3))):
            factor = draw(_bases(kinds))
            if draw(st.booleans()):
                factor += f"{draw(_SPACE)}^{draw(_SPACE)}{draw(_NUMBERS)}"
            factors.append(factor)
        coeff = [draw(_NUMBERS)] if not factors or draw(st.booleans()) else []
        sign = draw(st.sampled_from(["+", "-"] + ([""] if i == 0 else [])))
        terms.append(sign + space + f"{draw(_SPACE)}*{draw(_SPACE)}".join(coeff + factors))
    text = space.join(terms)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(text)))
        bad = draw(st.sampled_from(["@", "\u00e9", "\u0661", "*", "^", "+", "[", "]", " x", "7" * 4301]))
        text = text[:at] + bad + text[at:]
    return text


@settings(max_examples=300, deadline=None)
@given(st.lists(_TEXT_PIECES, max_size=8).map("".join))
def test_parse_matches_reference_on_any_text(text):
    _assert_parse_matches_reference(text)


@settings(max_examples=400, deadline=None)
@given(term_texts())
def test_parse_matches_reference_on_term_text(text):
    _assert_parse_matches_reference(text)


@pytest.mark.parametrize("text", [
    "x1^2*y1^3 + 2*x2*T - y1", "x1 ^ 2 * y1", "x1*y1 ^2", "x1^2 ^3", "x1^2^3", "x1*^2",
    "x1[2]", "C1[2]", "C [ 1 ] ^ 2 * EX[1]", "2*C[1]^2*U[1] - EY[1]", "C[1]^x", "C[1] C[2]",
    "x" + "7" * 4301, "x1^" + "7" * 4301, "7" * 4301 + "*x1", "C[" + "7" * 4301 + "]",
    "x1^2*y1 @ " + "7" * 4301, "x1 @ y1 \u00e9", "x5^2*y1", "T^2*x1 + x1^x", "x01^02",
])
def test_parse_matches_reference_pinned(text):
    _assert_parse_matches_reference(text)


class TestMemo:
    def test_a_failed_build_is_retried_on_the_next_call(self):
        calls = []

        def build(x):
            calls.append(x)
            if len(calls) == 1:
                raise RuntimeError("transient")
            return 2 * x

        memo = _Memo(build, maxsize=4)
        with pytest.raises(RuntimeError):
            memo(3)
        assert memo.values == {} and memo.locks == {}
        assert memo(3) == 6 and memo(3) == 6
        assert calls == [3, 3]

    def test_a_falsy_value_is_a_hit(self):
        calls = []
        memo = _Memo(lambda *key: calls.append(key) or 0, maxsize=4)
        assert [memo(1, 2), memo(1, 2)] == [0, 0]
        assert calls == [(1, 2)]

    def test_a_key_part_that_is_not_an_int_str_or_ring_is_refused(self):
        """2.0 == 2 and True == 1 hash alike, so a warm memo would return
        the value stored for the int; the memo refuses them first."""
        ring = Ring(1, 1, False, 3)
        memo = _Memo(lambda *key: key, maxsize=8)
        assert memo(2, "C", ring) == (2, "C", ring)
        assert memo(1) == (1,) and memo(2) == (2,)
        for key in ((2.0,), (True,), (2.0, "C", ring), (1, None)):
            with pytest.raises(ValueError, match="has a part that is not an int, str or Ring"):
                memo(*key)
        assert list(memo.values) == [(2, "C", ring), (1,), (2,)]
        assert memo.locks == {}
