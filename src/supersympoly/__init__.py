"""Exact computer algebra for supersymmetric polynomials over F_p."""

from .errors import (
    DivisibilityError,
    InternalInvariantViolation,
    NotSupersymmetricError,
    PolyParseError,
    RingMismatchError,
    SuperPolyError,
)
from .poly_core import (
    Block,
    Poly,
    Ring,
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
from .supersym import (
    is_p_balanced,
    is_strictly_supersymmetric,
    is_supersymmetric,
    is_symmetric,
)
from .generators import (
    KSeq,
    bracket_brace,
    bracket_round,
    bracket_square,
    c_r,
    complete,
    elementary,
    enumerate_deltas,
    kseq,
    make_v,
    placed_sym,
    sigma_x_p,
    sigma_y_p,
    u_k,
    v_k,
    w_poly,
)
from .genexpr import (
    GenExpr,
    GenSpan,
    enumerate_gen_monomials,
    expand,
    parse_gen_expr,
    serialize_gen_expr,
)
from .decompose import (
    decompose,
    trace_decomposition,
    verify_decomposition,
    vk_gen_expr,
)
from .oracle import (
    as_dimension,
    brace_identity_check,
    cr_generating_check,
    generated_dimension,
    psi_w_check,
    round_identity_check,
)

__version__ = "0.1.0"
