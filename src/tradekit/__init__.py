"""Exact-arithmetic toolkit for subset incidence matrices, product-form trades,
and two-row tabloid straightening, with a verification harness that checks
every rank and decomposition claim by independent row reduction."""

from .boolean_algebra import (
    BooleanElement,
    MatrixSpec,
    build_matrix,
    element_to_vector,
    deletion_sum,
    j_set,
    lambda_coeff,
    permute_element,
    predicted_rank,
    render_element,
    subset_sum,
)
from .combinatorics import (
    Permutation,
    Subset,
    binomial,
    colex_rank,
    colex_unrank,
    subsets_iter,
)
from .linalg import (
    IntegerEchelon,
    RationalMatrix,
    Vector,
    in_span,
    rank_of_columns,
    render_dense,
    render_sparse,
)
from .specht import (
    TabloidExpr,
    Tableau,
    Tabloid,
    TwoRowShape,
    canonicalize,
    garnir,
    trade_map,
    trade_map_expr,
    is_standard,
    specht_dim,
    standard_tableaux,
    straighten,
    young_rule,
)
from .trades import (
    TradeSpec,
    all_total_trades,
    is_t_trade,
    minimal_trade,
    permute_spec,
    total_trade,
    total_trade_basis,
    total_trade_specs,
    trade_strength,
)
from .verify import (
    Report,
    VerificationError,
    check_trade_basis,
    check_combination_rank,
    check_graver_jurkat,
    check_inclusion_rank,
    check_intersection_rank,
    check_kernel_decomposition,
    check_lambda_closed_form,
    check_orbit_witness,
    check_total_trade_dim,
    orbit_decomposition,
    orbit_span,
    run_suite,
)

__all__ = [name for name in dir() if not name.startswith("_")]
