import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linalg_reference import transpose
from tradekit import boolean_algebra
from tradekit.boolean_algebra import (
    BooleanElement,
    MatrixSpec,
    build_matrix,
    element_to_vector,
    j_set,
    lambda_coeff,
    permute_element,
    predicted_rank,
    deletion_sum,
    render_element,
    subset_sum,
)
from tradekit.combinatorics import Permutation, Subset, binomial, subsets_iter
from tradekit.trades import TradeSpec, minimal_trade, total_trade


def elem(n, *terms):
    return BooleanElement(n, [(s, c) for s, c in terms])


def random_element(rng, n, k, nterms=4):
    terms = []
    for _ in range(nterms):
        s = tuple(sorted(rng.sample(range(1, n + 1), k)))
        terms.append((s, Fraction(rng.randint(-4, 4), rng.randint(1, 3))))
    return BooleanElement(n, terms)


def test_product_examples():
    one = BooleanElement.one(3)
    x = elem(3, ((1,), 1))
    y = elem(3, ((2,), 1))
    assert x * y == elem(3, ((1, 2), 1))
    assert one * x == x
    # {1}-{2} times {1}: the union {1}u{1}={1} collides with nothing
    assert (x - y) * x == elem(3, ((1,), 1), ((1, 2), -1))


def test_scalar_one_keeps_the_element():
    # Elements are never mutated, so the int 1 returns the element itself;
    # Fraction(1) still copies, and the coefficients become Fractions.
    e = elem(4, ((1, 2), 3), ((3,), -1))
    assert e * 1 is e and 1 * e is e
    for scaled in (e * Fraction(1), Fraction(1) * e):
        assert scaled is not e and scaled == e
        assert all(type(c) is Fraction for c in scaled._terms.values())
    assert e * 2 == elem(4, ((1, 2), 6), ((3,), -2))


def test_product_accumulates_union_collisions():
    # ({1}+{1,2})*({2}) = {1,2} + {1,2} = 2*{1,2}
    a = elem(3, ((1,), 1), ((1, 2), 1))
    b = elem(3, ((2,), 1))
    assert a * b == elem(3, ((1, 2), 2))


@st.composite
def _element_triples(draw):
    """Three elements over one ground set n <= 6: few small subsets, so
    unions collide, and coefficients that may be 0, so elements may be zero."""
    n = draw(st.integers(0, 6))
    subset = st.sets(st.integers(1, n), max_size=3).map(sorted) if n else st.just([])
    coeff = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3))
    element = st.lists(st.tuples(subset, coeff), max_size=4)
    return n, draw(element), draw(element), draw(element)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(_element_triples())
@example((3, [], [((1,), 1)], [((2,), 1)]))  # a zero factor
@example((3, [((1,), 1), ((1, 2), 1)], [((2,), 1)], [((1,), -1), ((2,), 1)]))  # collisions
def test_product_associative_with_identity(case):
    n, *terms = case
    a, b, c = (BooleanElement(n, t) for t in terms)
    one = BooleanElement.one(n)
    assert (a * b) * c == a * (b * c)
    assert one * a == a * one == a


def test_product_mismatched_n():
    with pytest.raises(ValueError):
        BooleanElement.one(3) * BooleanElement.one(4)


def test_sigma_examples():
    s = subset_sum(Subset(3, (1, 2, 3)), 2)
    assert s == elem(3, ((1, 2), 1), ((1, 3), 1), ((2, 3), 1))
    assert subset_sum(Subset(5, (2, 4)), 0) == BooleanElement.one(5)
    assert subset_sum(Subset(4, (1, 2)), 3).is_zero


def test_psi_examples():
    assert deletion_sum(elem(4, ((1, 2), 1)), 1) == elem(4, ((1,), 1), ((2,), 1))
    # deletion sum of the minimal trade {1,3}-{2,3}
    assert deletion_sum(elem(4, ((1, 3), 1), ((2, 3), -1)), 1) == elem(4, ((1,), 1), ((2,), -1))
    assert deletion_sum(elem(3, ((1, 2, 3), 1)), 3) == BooleanElement.one(3)
    with pytest.raises(ValueError):
        deletion_sum(elem(3, ((1,), 1), ((1, 2), 1)), 1)
    with pytest.raises(ValueError):
        deletion_sum(elem(3, ((1, 2), 1)), 3)


def test_psi_composition_scalar():
    # iterating deletions overcounts by the multinomial factor C(a+b, a)
    for n in range(1, 8):
        for k in range(min(5, n) + 1):
            e = BooleanElement(n, [(s.elements, 1) for s in subsets_iter(k, n)])
            if e.is_zero:
                continue
            for a in range(k + 1):
                for b in range(k - a + 1):
                    lhs = deletion_sum(deletion_sum(e, a), b)
                    rhs = binomial(a + b, a) * deletion_sum(e, a + b)
                    assert lhs == rhs


def test_psi_equivariance_seeded():
    rng = random.Random(101)
    for _ in range(100):
        n = rng.randint(2, 7)
        k = rng.randint(1, n)
        steps = rng.randint(0, k)
        e = random_element(rng, n, k)
        s = Permutation(n, tuple(rng.sample(range(1, n + 1), n)))
        assert deletion_sum(permute_element(s, e), steps) == permute_element(s, deletion_sum(e, steps))


def test_subset_sum_peel_one_element():
    # peeling one element w off the ground set splits the subset sum in two
    rng = random.Random(55)
    for _ in range(200):
        n = rng.randint(2, 10)
        bsize = rng.randint(0, n - 1)
        b = set(rng.sample(range(1, n + 1), bsize))
        w = rng.choice([x for x in range(1, n + 1) if x not in b])
        rest = tuple(x for x in range(1, n + 1) if x not in b)
        rest_minus_w = tuple(x for x in rest if x != w)
        m = rng.randint(1, n)
        lhs = subset_sum(Subset(n, rest), m)
        wterm = BooleanElement.term(n, (w,))
        rhs = subset_sum(Subset(n, rest_minus_w), m) + wterm * subset_sum(Subset(n, rest_minus_w), m - 1)
        assert lhs == rhs


def test_three_point_exchange_identity():
    # (x-y)S_xy - (z-y)S_zy - (x-z)S_xz = 0 where S_uv sums over the ground
    # set minus A, u, v
    rng = random.Random(77)
    for _ in range(100):
        n = rng.randint(3, 9)
        x, y, z = rng.sample(range(1, n + 1), 3)
        rest = [e for e in range(1, n + 1) if e not in (x, y, z)]
        a = set(rng.sample(rest, rng.randint(0, len(rest))))
        for m in range(n + 1):

            def pair_sum(u, v):
                left = tuple(e for e in range(1, n + 1) if e not in a and e not in (u, v))
                diff = BooleanElement(n, [((u,), 1), ((v,), -1)])
                return diff * subset_sum(Subset(n, left), m)

            total = pair_sum(x, y) - pair_sum(z, y) - pair_sum(x, z)
            assert total.is_zero


def test_permute_element_examples():
    e = elem(2, ((1,), 1), ((2,), -1))
    assert permute_element(Permutation.identity(2), e) == e
    assert permute_element(Permutation(2, (2, 1)), e) == elem(2, ((2,), 1), ((1,), -1))
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 8)
        s = Permutation(n, tuple(rng.sample(range(1, n + 1), n)))
        a = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
        m = rng.randint(0, len(a))
        image = tuple(sorted(s(x) for x in a))
        assert permute_element(s, subset_sum(Subset(n, a), m)) == subset_sum(Subset(n, image), m)


def test_build_matrix_examples():
    m = build_matrix(MatrixSpec.inclusion(2, 0, 1))
    assert m.shape == (1, 2)
    assert list(m.rows()) == [(1, 1)]

    m = build_matrix(MatrixSpec.intersection(3, 1, 1, 0))
    assert m.shape == (3, 3)
    for i in range(3):
        for j in range(3):
            assert m.entry(i, j) == (0 if i == j else 1)

    m = build_matrix(MatrixSpec.inclusion(4, 1, 2))
    # row {1} has ones exactly at columns {1,2}, {1,3}, {1,4}
    cols = [s.elements for s in subsets_iter(2, 4)]
    row = m.row(0)
    for j, c in enumerate(cols):
        assert row[j] == (1 if 1 in c else 0)

    # integer incidence matrices carry plain ints, not integral Fractions
    for spec in (MatrixSpec.inclusion(6, 1, 3), MatrixSpec.intersection(6, 2, 3, 1)):
        assert all(type(x) is int for row in build_matrix(spec).rows() for x in row)


def test_intersection_at_l_equals_t_is_inclusion():
    for n in range(2, 9):
        for k in range(1, n // 2 + 1):
            for t in range(k):
                a = build_matrix(MatrixSpec.intersection(n, t, k, t))
                b = build_matrix(MatrixSpec.inclusion(n, t, k))
                assert a == b


def test_intersection_row_and_column_sums_constant():
    for n in range(2, 8):
        for k in range(1, n // 2 + 1):
            for t in range(k):
                for l in range(t + 1):
                    m = build_matrix(MatrixSpec.intersection(n, t, k, l))
                    row_sums = {sum(row) for row in m.rows()}
                    assert row_sums == {binomial(t, l) * binomial(n - t, k - l)}
                    # the j=0 coefficient is the constant column sum
                    col_sums = {sum(row) for row in transpose(m).rows()}
                    assert col_sums == {lambda_coeff(t, k, n, l, 0)}


def test_build_matrix_cell_limit(monkeypatch):
    # more than 2^24 cells raises before colex_index is read
    monkeypatch.setattr(boolean_algebra, "colex_index", None)
    for n, k, ncols in ((27, 13, 20058300), (40, 20, 137846528820)):
        with pytest.raises(ValueError, match=f"1x{ncols} matrix exceeds the limit of 16777216"):
            build_matrix(MatrixSpec.inclusion(n, 0, k))


def test_matrix_spec_validation():
    with pytest.raises(ValueError):
        MatrixSpec.inclusion(3, 2, 1)
    with pytest.raises(ValueError):
        MatrixSpec.intersection(6, 1, 2, 2)
    with pytest.raises(ValueError):
        MatrixSpec.combination(6, 1, 2, (1,))
    with pytest.raises(ValueError, match=r"needs exactly t\+1=2 coefficients"):
        MatrixSpec(4, 1, 2, (1, 0, 0))


def test_inclusion_is_the_unit_vector_at_t():
    for n in range(7):
        for k in range(n + 1):
            for t in range(k + 1):
                unit = tuple(int(j == t) for j in range(t + 1))
                specs = {
                    MatrixSpec.inclusion(n, t, k),
                    MatrixSpec.intersection(n, t, k, t),
                    MatrixSpec.combination(n, t, k, unit),
                }
                assert len(specs) == 1
                (spec,) = specs
                assert spec == MatrixSpec(n, t, k, unit) and spec.coeffs == unit


def test_build_matrix_combination():
    coeffs = (Fraction(1, 2), Fraction(-2))
    m = build_matrix(MatrixSpec.combination(5, 1, 2, coeffs))
    u0 = build_matrix(MatrixSpec.intersection(5, 1, 2, 0))
    u1 = build_matrix(MatrixSpec.intersection(5, 1, 2, 1))
    for i in range(m.nrows):
        for j in range(m.ncols):
            assert m.entry(i, j) == coeffs[0] * u0.entry(i, j) + coeffs[1] * u1.entry(i, j)


def test_lambda_closed_forms():
    # only the s = 0 term survives at j = 0
    for (t, k, n) in [(1, 2, 6), (2, 3, 8), (3, 5, 11)]:
        for l in range(t + 1):
            assert lambda_coeff(t, k, n, l, 0) == binomial(k, l) * binomial(n - k, t - l)
    # at l = t the alternating sum collapses to one binomial
    for n in range(13):
        for k in range(n + 1):
            for t in range(k + 1):
                for j in range(t + 1):
                    assert lambda_coeff(t, k, n, t, j) == binomial(k - j, t - j)


def test_lambda_pinned_value():
    # two-term sum evaluated by hand: s=0 gives -C(1,0)C(3,0)C(4,0) = -1,
    # s=1 vanishes on C(2,-1)
    assert lambda_coeff(1, 3, 8, 0, 1) == -1


def test_lambda_validation():
    with pytest.raises(ValueError):
        lambda_coeff(1, 2, 5, 2, 0)
    with pytest.raises(ValueError):
        lambda_coeff(1, 2, 5, 0, 2)


def test_j_set_examples():
    # the inclusion matrix keeps every block
    assert j_set(2, 3, 8, (0, 0, 1)) == {0, 1, 2}
    assert j_set(1, 2, 6, (0, 0)) == set()
    assert j_set(1, 2, 6, (1, 0)) == {0, 1}
    with pytest.raises(ValueError):
        j_set(1, 2, 3, (1, 0))


def test_j_set_cancellation_regression():
    # disjointness + containment sum to the all-ones matrix: rank 1, so the
    # j=1 block must cancel even though both coefficients are nonzero
    assert j_set(1, 2, 5, (1, 1)) == {0}
    assert predicted_rank(1, 2, 5, (1, 1)) == 1
    assert build_matrix(MatrixSpec.combination(5, 1, 2, (1, 1))).rank() == 1


def test_predicted_rank_examples():
    for (t, k, n) in [(1, 2, 6), (2, 3, 8), (1, 3, 10)]:
        unit = tuple(1 if l == t else 0 for l in range(t + 1))
        assert predicted_rank(t, k, n, unit) == binomial(n, t)
    assert predicted_rank(1, 2, 6, (0, 0)) == 0
    # dual-path check at (1,2,6) with the disjointness matrix
    assert predicted_rank(1, 2, 6, (1, 0)) == 6
    assert build_matrix(MatrixSpec.intersection(6, 1, 2, 0)).rank() == 6


def test_element_to_vector():
    e = elem(4, ((1, 3), 1), ((2, 3), -2))
    v = element_to_vector(e, 2)
    assert len(v) == 6
    assert v[1] == 1 and v[2] == -2
    assert sum(1 for x in v if x) == 2
    with pytest.raises(ValueError):
        element_to_vector(e, 3)
    # trades have integer coefficients and keep them as ints
    total = total_trade(TradeSpec(7, 1, 3, (1, 2), (3, 4)))
    assert all(type(x) is int for x in element_to_vector(total, 3))
    minimal = minimal_trade(TradeSpec(7, 1, 3, (1, 2), (3, 4), (5,)))
    assert all(type(c) is int for _, c in minimal.terms())
    assert all(type(c) is int for _, c in subset_sum(Subset(5, (1, 2, 4)), 2).terms())
    assert type(BooleanElement.one(3).coefficient(())) is int


def test_rational_inputs_become_exact_fractions():
    half = Fraction(1, 2)
    for raw in (0.5, "1/2"):
        c = BooleanElement(3, [((1,), raw)]).coefficient((1,))
        assert c == half and type(c) is Fraction
        c = (BooleanElement.term(3, (1,)) * raw).coefficient((1,))
        assert c == half and type(c) is Fraction
        spec = MatrixSpec.combination(5, 1, 2, (raw, -2))
        assert spec.coeffs == (half, -2) and type(spec.coeffs[0]) is Fraction
        assert not any(isinstance(x, float) for row in build_matrix(spec).rows() for x in row)


def test_render_element():
    assert render_element(BooleanElement.zero(3)) == "0"
    assert render_element(BooleanElement.one(3)) == "{}"
    e = elem(4, ((2, 4), Fraction(3, 2)), ((1, 3), -1), ((1,), 2))
    assert render_element(e) == "2*{1} - {1,3} + 3/2*{2,4}"
    assert render_element(elem(3, ((1,), -1))) == "-{1}"


def test_deletion_sum_matches_inclusion_matrix():
    # two independent routes: termwise deletion vs applying the built matrix
    rng = random.Random(61)
    for _ in range(30):
        n = rng.randint(2, 7)
        k = rng.randint(1, n)
        steps = rng.randint(0, k)
        e = random_element(rng, n, k)
        t = k - steps
        w = build_matrix(MatrixSpec.inclusion(n, t, k))
        lhs = element_to_vector(deletion_sum(e, steps), t)
        assert lhs == w.matvec(element_to_vector(e, k))


def test_invalid_arguments_rejected():
    with pytest.raises(ValueError, match="bad subset"):
        BooleanElement(3, [((2, 1), 1)])
    with pytest.raises(ValueError, match="subset size must be nonnegative"):
        subset_sum(Subset(4, (1, 2)), -1)
    with pytest.raises(ValueError, match="mismatched ground sets: 3 != 4"):
        permute_element(Permutation.identity(3), BooleanElement.zero(4))
    for make, n in ((BooleanElement, -2), (BooleanElement.zero, -1), (BooleanElement.one, -1)):
        with pytest.raises(ValueError, match=f"ground-set size must be nonnegative, got {n}$"):
            make(n)
    with pytest.raises(ValueError, match=r"need exactly t\+1=2 coefficients, got 1"):
        j_set(1, 2, 5, (1,))
