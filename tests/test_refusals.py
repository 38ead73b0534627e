"""Input refusals at the points where input enters: each call raises
ValueError with its own message, before any work runs."""

import re

import pytest

from supersympoly import (
    Block,
    GenExpr,
    GenSpan,
    Poly,
    Ring,
    as_dimension,
    bracket_brace,
    bracket_round,
    bracket_square,
    c_r,
    brace_identity_check,
    complete,
    cr_generating_check,
    decompose,
    elementary,
    enumerate_deltas,
    enumerate_gen_monomials,
    exact_monomial_div,
    generated_dimension,
    is_p_balanced,
    is_supersymmetric,
    is_symmetric,
    kseq,
    parse_poly,
    placed_sym,
    psi,
    round_identity_check,
    set_xm_zero,
    sigma_x_p,
    sigma_y_p,
    u_k,
    vk_gen_expr,
    x_var,
    zero,
)
from supersympoly.generators import generator_poly
from supersympoly.genexpr import gen_span, symbol_weight

R11 = Ring(1, 1, False, 3)
R11T = Ring(1, 1, True, 3)

NOT_AN_INT = {
    "ring characteristic": ("characteristic", lambda: Ring(1, 1, False, 3.0)),
    "ring size": ("variable count", lambda: Ring(1.0, 1, False, 3)),
    "poly coefficient": ("coefficient", lambda: Poly(R11, {(1, 0): 1.5})),
    "poly exponent": ("exponent", lambda: Poly(R11, {(2.0, 0): 1})),
    "poly coefficient that is 0 mod p": ("coefficient", lambda: Poly(R11, {(1, 0): 3.0})),
    "decompose input": ("coefficient", lambda: decompose(Poly(R11, {(3, 0): 1.0}))),
    "gen expr exponent": ("symbol exponent", lambda: GenExpr(1, 1, 3, {((("C", 1), 1.5),): 1})),
    "gen expr index": ("symbol index", lambda: GenExpr(1, 1, 3, {((("C", 1.0), 1),): 1})),
    "gen expr coefficient": ("coefficient", lambda: GenExpr(1, 1, 3, {((("C", 1), 1),): 1.0})),
    "divisor exponent": ("divisor exponent", lambda: exact_monomial_div(parse_poly("x1*y1", R11), (1.0, 0))),
    "slot value": ("slot value", lambda: placed_sym([(1.5, 1)], [], R11)),
    "slot count": ("slot count", lambda: placed_sym([(1, 1.5)], [], Ring(2, 1, False, 3))),
    "brace l": ("l", lambda: bracket_brace((), 0.5, 0, kseq(3, 1), Ring(2, 1, False, 3))),
    "brace l, bool": ("l", lambda: bracket_brace((), True, 0, kseq(3, 1), Ring(2, 1, False, 3))),
    "brace j": ("j", lambda: bracket_brace((), 1, 0.0, kseq(3, 1), Ring(2, 1, False, 3))),
    "round j": ("j", lambda: bracket_round((), 1.0, kseq(7, 5), Ring(3, 2, False, 7))),
    # True == 1: the bool would be the bracket at j = 1
    "round j, bool": ("j", lambda: bracket_round((), True, kseq(7, 5), Ring(3, 2, False, 7))),
    "square j, bool": ("j", lambda: bracket_square((), True, kseq(7, 5), Ring(3, 2, False, 7))),
    "round identity j, bool": ("j", lambda: round_identity_check((), True, 3, 2, kseq(7, 5))),
    "brace identity j": ("j", lambda: brace_identity_check((), 1, 1.0, 3, 2, kseq(7, 5))),
    "brace identity l, bool": ("l", lambda: brace_identity_check((), True, 1, 3, 2, kseq(7, 5))),
    "symbol weight index": ("symbol index", lambda: symbol_weight("C", 1.0, R11)),
    "u_k index": ("k", lambda: u_k(1.5, R11)),
    "span degree": ("degree", lambda: GenSpan(1, 1, 3, 2.0)),
    # 2.0 == 2 and hashes alike, so the memo would return the span of degree 2
    "gen_span degree, memo warm": ("memo key", lambda: (gen_span(1, 1, 3, 2), gen_span(1, 1, 3, 2.0))),
    "gen_span level, memo warm": ("memo key", lambda: (gen_span(1, 1, 3, 2), gen_span(1.0, 1, 3, 2))),
    "vk_gen_expr k, memo warm": ("memo key", lambda: (vk_gen_expr(1, 1, 3, 1), vk_gen_expr(1, 1, 3, 1.0))),
    "vk_gen_expr level, memo warm": ("memo key", lambda: (vk_gen_expr(1, 1, 3, 1), vk_gen_expr(1.0, 1, 3, 1))),
    "generator_poly index, memo warm": ("memo key", lambda: (generator_poly("C", 2, R11),
                                                             generator_poly("C", 2.0, R11))),
    "as_dimension degree": ("degree", lambda: as_dimension(1, 1, 3, 2.0)),
    "generated_dimension degree": ("degree", lambda: generated_dimension(1, 1, 3, 2.0)),
    "kseq k": ("k", lambda: kseq(3, 1.0)),
    "kseq p": ("p", lambda: kseq(3.0, 1)),
    "enumerate_deltas s": ("s", lambda: enumerate_deltas(2.0)),
    "elementary index": ("index", lambda: elementary(1.0, Block.X, R11)),
    "complete index": ("index", lambda: complete(1.0, Block.Y, R11)),
    "c_r index": ("index", lambda: c_r(1.0, R11)),
    "sigma_x_p index": ("index", lambda: sigma_x_p(1.0, R11)),
    "sigma_y_p index": ("index", lambda: sigma_y_p(1.0, R11)),
    "x_var index": ("variable index", lambda: x_var(R11, 1.0)),
    "enumerate_gen_monomials degree": ("degree", lambda: enumerate_gen_monomials(1, 1, 3, 2.0)),
    "cr_generating_check truncation order": ("truncation order", lambda: cr_generating_check(1, 1, 3, 4.0)),
    # True == 1 and hashes alike: a bool is not an int either
    "ring size, bool": ("variable count", lambda: Ring(True, 1, False, 3)),
    "as_dimension level, bool": ("variable count", lambda: as_dimension(True, 1, 3, 2)),
    "generated_dimension level, bool": ("variable count", lambda: generated_dimension(True, 1, 3, 2)),
    "gen_span level, bool, memo warm": ("memo key", lambda: (gen_span(1, 1, 3, 2), gen_span(True, 1, 3, 2))),
    "elementary index, bool": ("index", lambda: elementary(True, Block.X, R11)),
    "kseq k, bool": ("k", lambda: kseq(3, True)),
    "poly exponent, bool": ("exponent", lambda: Poly(R11, {(True, 2): 1})),
    "poly coefficient, bool": ("coefficient", lambda: Poly(R11, {(1, 0): True})),
    "slot value, bool": ("slot value", lambda: placed_sym([(True, 1)], [], Ring(2, 1, False, 3))),
    "divisor exponent, bool": ("divisor exponent", lambda: exact_monomial_div(parse_poly("x1*y1", R11), (True, 0))),
    "round delta entry": ("delta entry", lambda: bracket_round((1.0,), 0, kseq(7, 5), Ring(3, 2, False, 7))),
    "round delta entry, bool": ("delta entry", lambda: bracket_round((True,), 0, kseq(7, 5), Ring(3, 2, False, 7))),
    "brace identity delta entry": ("delta entry", lambda: brace_identity_check((1.0,), 1, 1, 3, 2, kseq(7, 5))),
    "gen expr index, bool": ("symbol index", lambda: GenExpr(1, 1, 3, {((("C", True), 1),): 1})),
    "gen expr exponent, bool": ("symbol exponent", lambda: GenExpr(1, 1, 3, {((("C", 1), True),): 1})),
}


def _names_the_value(name: str) -> str:
    """The message of a refusal that names ``name``: ``_int``'s
    "<name> <value> is not an int" or ``_Memo``'s "memo key <key> has a
    part that is not an int, str or Ring"."""
    return rf"^{re.escape(name)} .* is not an int"


@pytest.mark.parametrize("name, call", NOT_AN_INT.values(), ids=NOT_AN_INT)
def test_a_value_that_is_not_an_int_is_refused(name, call):
    with pytest.raises(ValueError, match=_names_the_value(name)):
        call()


def test_a_refusal_that_names_another_value_does_not_match():
    """A row checks the door it names: the float j of ``bracket_round``
    refused as a slot count, the value the bracket would build from j,
    would not pass its row."""
    name, _ = NOT_AN_INT["round j"]
    assert re.search(_names_the_value(name), "j 1.0 is not an int")
    assert not re.search(_names_the_value(name), "slot count 0.0 is not an int")
    assert not re.search(_names_the_value("index"), "symbol index 1.0 is not an int")
    assert re.search(_names_the_value("memo key"), "memo key (1, 1, 3, 2.0) has a part that is not an int, str or Ring")


# (m, n, p, d) cells that both dimension functions refuse: a bad level
# first, then a bad degree
BAD_CELLS = [
    (1, 1, 4, -1), (1.0, 1, 3, -1), (-1, 1, 3, 2), (0, 1, 3, -1), (2, 0, 3, 2.0),
    (0, 0, 9, 1), (True, 1, 3, 2), (1, 1, 3.0, -1), (1, 1, 3, True),
]


@pytest.mark.parametrize("cell", BAD_CELLS, ids=str)
def test_both_dimensions_refuse_a_bad_cell_with_one_message(cell):
    messages = []
    for dimension in (as_dimension, generated_dimension):
        with pytest.raises(ValueError) as refusal:
            dimension(*cell)
        messages.append(str(refusal.value))
    assert messages[0] == messages[1]


REFUSALS = {
    "decompose with T": (lambda: decompose(zero(R11T)), "decompose applies to polynomials without T"),
    "enumerate_deltas(0)": (lambda: enumerate_deltas(0), "s must be at least 1"),
    "negative slot value": (lambda: placed_sym([(-1, 1)], [], R11), "slot value must be nonnegative"),
    "negative slot count": (lambda: placed_sym([(1, -1)], [], R11), "slot count must be nonnegative"),
    "elementary(-1)": (lambda: elementary(-1, Block.X, R11), "index must be nonnegative"),
    "c_r(-1)": (lambda: c_r(-1, R11), "index must be nonnegative"),
    "sigma_y_p out of range": (lambda: sigma_y_p(2, R11), r"index 2 out of range for n=1"),
    "brace with l < 0": (lambda: bracket_brace((), -1, 0, kseq(3, 1), R11), "l must be nonnegative"),
    # the left bracket is out of range, so it is zero before it reads delta
    "brace identity delta beyond s - 1": (lambda: brace_identity_check((1,), 0, 0, 1, 1, kseq(3, 1)),
                                          r"delta \(1,\) has entries outside \[1, s-1\] for s=1"),
    "round identity delta beyond s - 1": (lambda: round_identity_check((1,), 0, 1, 1, kseq(3, 1)),
                                          r"delta \(1,\) has entries outside \[1, s-1\] for s=1"),
    "unknown generator kind": (lambda: generator_poly("Z", 1, R11), "unknown generator kind 'Z'"),
    "negative symbol exponent": (lambda: GenExpr(1, 1, 3, {((("C", 1), -1),): 1}),
                                 "symbol exponent must be nonnegative"),
    "exponent tuple length": (lambda: Poly(R11, {(1, 0, 0): 1}), "does not fit ring with 2 variables"),
    "exponent tuple length, coefficient 0 mod p": (lambda: Poly(R11, {(1, 0, 0): 3}),
                                                   "does not fit ring with 2 variables"),
    "negative exponent, coefficient 0 mod p": (lambda: Poly(R11, {(-1, 0): 3}), "exponent must be nonnegative"),
    "has_t that is an int": (lambda: Ring(1, 1, 2, 3), "has_t 2 is not a bool"),
    "has_t that is None": (lambda: Ring(1, 1, None, 3), "has_t None is not a bool"),
    "x_var out of range": (lambda: x_var(R11, 2), "x2 is not a variable of"),
    "psi with T": (lambda: psi(zero(R11T)), "psi expects a polynomial without T"),
    "set_xm_zero at m = 0": (lambda: set_xm_zero(zero(Ring(0, 1, False, 3))), r"set_xm_zero needs m >= 1"),
    "divisor length": (lambda: exact_monomial_div(zero(R11), (1,)),
                       "divisor exponent tuple has the wrong length"),
    "membership with T": (lambda: is_supersymmetric(zero(R11T)), "membership applies to polynomials without T"),
    "balance with T": (lambda: is_p_balanced(zero(R11T)), "balance applies to polynomials without T"),
    "is_symmetric of a block name": (lambda: is_symmetric(parse_poly("x1 + 2*x2", Ring(2, 1, False, 3)), "x"),
                                     "block must be Block.X or Block.Y, got 'x'"),
    "elementary of a block name": (lambda: elementary(1, "x", Ring(2, 1, False, 3)),
                                   "block must be Block.X or Block.Y, got 'x'"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS)
def test_refusal(call, message):
    with pytest.raises(ValueError, match=message):
        call()
