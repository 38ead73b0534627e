"""Input refusals at the points where input enters: each call raises
ValueError with its own message, before any work runs."""

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
    "ring characteristic": lambda: Ring(1, 1, False, 3.0),
    "ring size": lambda: Ring(1.0, 1, False, 3),
    "poly coefficient": lambda: Poly(R11, {(1, 0): 1.5}),
    "poly exponent": lambda: Poly(R11, {(2.0, 0): 1}),
    "poly coefficient that is 0 mod p": lambda: Poly(R11, {(1, 0): 3.0}),
    "decompose input": lambda: decompose(Poly(R11, {(3, 0): 1.0})),
    "gen expr exponent": lambda: GenExpr(1, 1, 3, {((("C", 1), 1.5),): 1}),
    "gen expr index": lambda: GenExpr(1, 1, 3, {((("C", 1.0), 1),): 1}),
    "gen expr coefficient": lambda: GenExpr(1, 1, 3, {((("C", 1), 1),): 1.0}),
    "divisor exponent": lambda: exact_monomial_div(parse_poly("x1*y1", R11), (1.0, 0)),
    "slot value": lambda: placed_sym([(1.5, 1)], [], R11),
    "slot count": lambda: placed_sym([(1, 1.5)], [], Ring(2, 1, False, 3)),
    "brace slot value l(p-k)": lambda: bracket_brace((), 0.5, 0, kseq(3, 1), Ring(2, 1, False, 3)),
    "symbol weight index": lambda: symbol_weight("C", 1.0, R11),
    "u_k index": lambda: u_k(1.5, R11),
    "span degree": lambda: GenSpan(1, 1, 3, 2.0),
    # 2.0 == 2 and hashes alike, so the memo would return the span of degree 2
    "gen_span degree, memo warm": lambda: (gen_span(1, 1, 3, 2), gen_span(1, 1, 3, 2.0)),
    "gen_span level, memo warm": lambda: (gen_span(1, 1, 3, 2), gen_span(1.0, 1, 3, 2)),
    "vk_gen_expr k, memo warm": lambda: (vk_gen_expr(1, 1, 3, 1), vk_gen_expr(1, 1, 3, 1.0)),
    "vk_gen_expr level, memo warm": lambda: (vk_gen_expr(1, 1, 3, 1), vk_gen_expr(1.0, 1, 3, 1)),
    "generator_poly index, memo warm": lambda: (generator_poly("C", 2, R11), generator_poly("C", 2.0, R11)),
    "as_dimension degree": lambda: as_dimension(1, 1, 3, 2.0),
    "generated_dimension degree": lambda: generated_dimension(1, 1, 3, 2.0),
    "kseq k": lambda: kseq(3, 1.0),
    "kseq p": lambda: kseq(3.0, 1),
    "enumerate_deltas s": lambda: enumerate_deltas(2.0),
    "elementary index": lambda: elementary(1.0, Block.X, R11),
    "complete index": lambda: complete(1.0, Block.Y, R11),
    "c_r index": lambda: c_r(1.0, R11),
    "sigma_x_p index": lambda: sigma_x_p(1.0, R11),
    "sigma_y_p index": lambda: sigma_y_p(1.0, R11),
    "x_var index": lambda: x_var(R11, 1.0),
    "enumerate_gen_monomials degree": lambda: enumerate_gen_monomials(1, 1, 3, 2.0),
    "cr_generating_check truncation order": lambda: cr_generating_check(1, 1, 3, 4.0),
    # True == 1 and hashes alike: a bool is not an int either
    "ring size, bool": lambda: Ring(True, 1, False, 3),
    "as_dimension level, bool": lambda: as_dimension(True, 1, 3, 2),
    "generated_dimension level, bool": lambda: generated_dimension(True, 1, 3, 2),
    "gen_span level, bool, memo warm": lambda: (gen_span(1, 1, 3, 2), gen_span(True, 1, 3, 2)),
    "elementary index, bool": lambda: elementary(True, Block.X, R11),
    "kseq k, bool": lambda: kseq(3, True),
    "poly exponent, bool": lambda: Poly(R11, {(True, 2): 1}),
    "poly coefficient, bool": lambda: Poly(R11, {(1, 0): True}),
    "slot value, bool": lambda: placed_sym([(True, 1)], [], Ring(2, 1, False, 3)),
    "divisor exponent, bool": lambda: exact_monomial_div(parse_poly("x1*y1", R11), (True, 0)),
    "round delta entry": lambda: bracket_round((1.0,), 0, kseq(7, 5), Ring(3, 2, False, 7)),
    "round delta entry, bool": lambda: bracket_round((True,), 0, kseq(7, 5), Ring(3, 2, False, 7)),
    "brace identity delta entry": lambda: brace_identity_check((1.0,), 1, 1, 3, 2, kseq(7, 5)),
    "gen expr index, bool": lambda: GenExpr(1, 1, 3, {((("C", True), 1),): 1}),
    "gen expr exponent, bool": lambda: GenExpr(1, 1, 3, {((("C", 1), True),): 1}),
}


@pytest.mark.parametrize("call", NOT_AN_INT.values(), ids=NOT_AN_INT)
def test_a_value_that_is_not_an_int_is_refused(call):
    with pytest.raises(ValueError, match="not an int"):
        call()


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
