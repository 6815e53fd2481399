import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradekit.boolean_algebra import BooleanElement
from tradekit.combinatorics import binomial
from tradekit.linalg import rank_of_columns
from tradekit.boolean_algebra import element_to_vector
from tradekit.specht import (
    TabloidExpr,
    Tableau,
    Tabloid,
    TwoRowShape,
    canonicalize,
    garnir,
    trade_map,
    trade_map_expr,
    is_standard,
    render_expr,
    render_tableau,
    specht_dim,
    standard_tableaux,
    straighten,
    young_rule,
)
from tradekit import specht
from tradekit.specht import _canonical, _canonical_count, _children
from tradekit.trades import TradeSpec, _matchings, total_trade

import specht_reference
from specht_reference import straighten as reference_straighten


def all_tableaux(shape):
    for perm in permutations(range(1, shape.n + 1)):
        yield Tableau(shape, perm[: shape.lambda1], perm[shape.lambda1 :])


def random_tabloid(rng, shape):
    perm = rng.sample(range(1, shape.n + 1), shape.n)
    return canonicalize(
        Tableau(shape, tuple(perm[: shape.lambda1]), tuple(perm[shape.lambda1 :]))
    )


def two_row_shapes(n):
    return [TwoRowShape(n - j, j) for j in range(1, n // 2 + 1)]


def test_shape_and_tableau_validation():
    TwoRowShape(3, 0)
    with pytest.raises(ValueError):
        TwoRowShape(1, 2)
    with pytest.raises(ValueError):
        TwoRowShape(3, -1)
    with pytest.raises(ValueError):
        Tableau(TwoRowShape(2, 1), (1, 2, 3), ())
    with pytest.raises(ValueError):
        Tableau(TwoRowShape(2, 1), (1, 2), (2,))


def test_canonicalize():
    shape = TwoRowShape(2, 2)
    q = canonicalize(Tableau(shape, (1, 2), (3, 4)))
    assert q.sign == 1 and q.tableau.row1 == (1, 2)

    q = canonicalize(Tableau(shape, (3, 2), (1, 4)))
    assert q.sign == -1 and q.tableau.row1 == (1, 2) and q.tableau.row2 == (3, 4)

    q = canonicalize(Tableau(shape, (3, 4), (1, 2)))
    assert q.sign == 1 and q.tableau.row1 == (1, 2)

    # canonicalizing a canonical tableau is the identity
    again = canonicalize(q.tableau)
    assert again.sign == 1 and again.tableau == q.tableau


def test_tabloid_expr_folds_signs():
    shape = TwoRowShape(2, 1)
    flipped = Tableau(shape, (3, 2), (1,))
    e = TabloidExpr([(flipped, 1)])
    canonical = Tableau(shape, (1, 2), (3,))
    assert e.coefficient(canonical) == -1
    assert e.coefficient(flipped) == 1
    # opposite signs cancel
    assert (e + TabloidExpr([(canonical, 1)])).is_zero


def test_garnir_validation_and_two_term_case():
    shape = TwoRowShape(3, 1)
    u = Tableau(shape, (1, 3, 2), (4,))
    with pytest.raises(ValueError):
        garnir(u, 0)
    with pytest.raises(ValueError):
        garnir(u, 3)
    g = garnir(u, 2)  # both columns have height one: plain swap
    swapped = Tableau(shape, (1, 2, 3), (4,))
    assert g.coefficient(u) == 1
    assert g.coefficient(swapped) == -1
    assert len(g.terms()) == 2


def test_garnir_displayed_example():
    # shape (5,2), rows (2,7,1,4,6)/(3,5), relation at the first column pair:
    # the top of column 2 trades places with 2 and then with 3
    u = Tableau(TwoRowShape(5, 2), (2, 7, 1, 4, 6), (3, 5))
    g = garnir(u, 1)
    u1 = Tableau(TwoRowShape(5, 2), (7, 2, 1, 4, 6), (3, 5))
    u2 = Tableau(TwoRowShape(5, 2), (2, 3, 1, 4, 6), (7, 5))
    assert g.coefficient(u) == 1
    assert g.coefficient(u1) == -1
    assert g.coefficient(u2) == -1


def test_garnir_three_term_small_shape():
    # canonicalizing [2,3 / 1] flips the first column before the exchanges
    u = Tableau(TwoRowShape(2, 1), (2, 3), (1,))
    g = garnir(u, 1)
    assert len(g.terms()) == 3
    assert g.coefficient(u) == 1
    assert trade_map_expr(g, 1).is_zero


def test_garnir_maps_to_zero_smoke():
    shape = TwoRowShape(2, 2)
    for u in all_tableaux(shape):
        for c in (1,):
            for k in (2, 3)[:1]:
                g = garnir(u, c)
                if not g.is_zero:
                    assert trade_map_expr(g, 2).is_zero


def test_standard_tableaux_examples():
    shape = TwoRowShape(2, 1)
    tabs = standard_tableaux(shape)
    assert [(t.row1, t.row2) for t in tabs] == [((1, 2), (3,)), ((1, 3), (2,))]
    assert len(standard_tableaux(TwoRowShape(4, 0))) == 1
    assert len(standard_tableaux(TwoRowShape(3, 2))) == binomial(5, 2) - binomial(5, 1) == 5


def test_standard_tableaux_count_matches_dimension():
    for n in range(1, 13):
        for lam2 in range(n // 2 + 1):
            shape = TwoRowShape(n - lam2, lam2)
            assert len(standard_tableaux(shape)) == specht_dim(shape)


def test_specht_dim():
    assert specht_dim(TwoRowShape(4, 0)) == 1
    assert specht_dim(TwoRowShape(2, 1)) == 2
    assert specht_dim(TwoRowShape(3, 2)) == 5


def test_young_rule():
    assert [(s.lambda1, s.lambda2) for s in young_rule(1, 3)] == [(3, 0), (2, 1)]
    assert [(s.lambda1, s.lambda2) for s in young_rule(0, 5)] == [(5, 0)]
    for n in range(1, 11):
        for k in range(n + 1):
            shapes = young_rule(k, n)
            assert sum(specht_dim(s) for s in shapes) == binomial(n, k)
    with pytest.raises(ValueError):
        young_rule(5, 4)


def test_straighten_fixes_standard_input():
    shape = TwoRowShape(3, 2)
    for tab in standard_tableaux(shape):
        e = TabloidExpr([(tab, Fraction(3, 2))])
        assert straighten(e) == e


def test_straighten_single_row_swap():
    shape = TwoRowShape(3, 1)
    u = Tableau(shape, (1, 4, 3), (2,))
    out = straighten(TabloidExpr([(u, 5)]))
    assert out.coefficient(Tableau(shape, (1, 3, 4), (2,))) == 5
    assert len(out.terms()) == 1


def test_straighten_derived_shape_2_1():
    # [2,1 / 3] = [1,2 / 3] - [1,3 / 2]; cross-checked through the trade map
    shape = TwoRowShape(2, 1)
    q = canonicalize(Tableau(shape, (2, 1), (3,)))
    out = straighten(TabloidExpr([(q, 1)]))
    assert out.coefficient(Tableau(shape, (1, 2), (3,))) == 1
    assert out.coefficient(Tableau(shape, (1, 3), (2,))) == -1
    assert len(out.terms()) == 2
    assert trade_map(q, 1) == trade_map_expr(out, 1)


def test_straighten_is_projection():
    rng = random.Random(19)
    for n in range(3, 8):
        for shape in two_row_shapes(n):
            for _ in range(10):
                e = TabloidExpr(
                    [(random_tabloid(rng, shape), rng.randint(-3, 3)) for _ in range(3)]
                )
                once = straighten(e)
                assert straighten(once) == once
                assert all(is_standard(t) for t in once.tableaux())


def test_straighten_integrality():
    rng = random.Random(23)
    for n in range(2, 8):
        for shape in two_row_shapes(n):
            for _ in range(20):
                q = random_tabloid(rng, shape)
                out = straighten(TabloidExpr([(q, 1)]))
                assert all(c.denominator == 1 for _, c in out.terms())
                # integer inputs stay plain ints, not integral Fractions
                assert all(type(c) is int for _, c in out.terms())
                if shape.lambda1 > 1:
                    g = garnir(q.tableau, 1)
                    assert all(type(c) is int for _, c in g.terms())
                    mixed = straighten(g + TabloidExpr([(q, 2)]))
                    assert mixed == 2 * out
                    assert all(type(c) is int for _, c in mixed.terms())


def test_straighten_consistent_with_trade_map_exhaustive():
    # the trade map factors through the straightening relations; at k = lambda2
    # the standard images are independent, which pins the expansion exactly
    for n in range(2, 7):
        for shape in two_row_shapes(n):
            k = shape.lambda2
            for u in all_tableaux(shape):
                q = canonicalize(u)
                out = straighten(TabloidExpr([(q, 1)]))
                lhs = trade_map(q, k)
                rhs = (
                    BooleanElement.zero(n) if out.is_zero else trade_map_expr(out, k)
                )
                assert lhs == rhs


def test_straighten_consistent_with_trade_map_sampled():
    rng = random.Random(29)
    for n in (7, 8):
        for shape in two_row_shapes(n):
            k = shape.lambda2
            for _ in range(50):
                q = random_tabloid(rng, shape)
                out = straighten(TabloidExpr([(q, 1)]))
                rhs = BooleanElement.zero(n) if out.is_zero else trade_map_expr(out, k)
                assert trade_map(q, k) == rhs


@st.composite
def _filling_and_column(draw):
    # A two-row filling with 2 <= n <= 9, a Garnir column when it has one, and
    # the same filling with its height-2 columns and its tail entries permuted.
    n = draw(st.integers(2, 9))
    lambda2 = draw(st.integers(1, n // 2))
    perm = draw(st.permutations(range(1, n + 1)))
    shape = TwoRowShape(n - lambda2, lambda2)
    u = Tableau(shape, tuple(perm[: shape.lambda1]), tuple(perm[shape.lambda1 :]))
    c = draw(st.integers(1, shape.lambda1 - 1)) if shape.lambda1 > 1 else None
    cols = draw(st.permutations(range(lambda2)))
    tail = draw(st.permutations(range(lambda2, shape.lambda1)))
    v = Tableau(
        shape,
        tuple(u.row1[i] for i in list(cols) + list(tail)),
        tuple(u.row2[i] for i in cols),
    )
    return u, c, v


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(_filling_and_column())
def test_straighten_kills_garnir_and_keeps_trade_map(case):
    u, c, v = case
    n, k = u.shape.n, u.shape.lambda2
    if c is not None:
        assert straighten(garnir(u, c)).is_zero
    out = straighten(TabloidExpr([(u, 1)]))
    rhs = BooleanElement.zero(n) if out.is_zero else trade_map_expr(out, k)
    assert trade_map(canonicalize(u), k) == rhs
    # moving whole columns of equal height is a relation with coefficient one
    assert straighten(TabloidExpr([(v, 1)])) == out


def _key(rows):
    # Row 2 as a bitmask, the tops as a bitmask, then row 2 lexicographically.
    r1, r2 = rows
    return sum(1 << y for y in r2), sum(1 << x for x in r1[: len(r2)]), r2


def _masks(rows):
    # The key bitmasks that straighten carries: the column tops, then row 2.
    r1, r2 = rows
    return sum(1 << x for x in r1[: len(r2)]), sum(1 << y for y in r2)


def test_straighten_rewrites_lower_the_key():
    # The termination argument of straighten: the children of every canonical
    # non-standard filling are canonical fillings of lower key.
    rewrites = 0
    for n in range(2, 8):
        for shape in two_row_shapes(n):
            canonical = {_canonical((u.row1, u.row2))[0] for u in all_tableaux(shape)}
            # straighten's rewrite bound counts exactly these fillings
            assert len(canonical) == _canonical_count(shape)
            for rows in canonical:
                children = _children(rows, *_masks(rows))
                assert (children is None) == is_standard(Tableau(shape, *rows))
                for child, _, _, _ in children or ():
                    assert child in canonical
                    assert _key(child) < _key(rows)
                    rewrites += 1
    assert rewrites > 0


def _canonical_tabloids(m, n):
    # Every canonical filling of shape (n - m, m): 2m column entries paired
    # into columns ordered by top, each sorted, and the rest as a sorted tail.
    for chosen in combinations(range(1, n + 1), 2 * m):
        tail = tuple(x for x in range(1, n + 1) if x not in chosen)
        for pairs in _matchings(chosen):
            yield tuple(x for x, _ in pairs) + tail, tuple(y for _, y in pairs)


def test_children_are_the_canonical_exchanges_exhaustive():
    # Every canonical filling with n <= 8: the incremental children equal the
    # exchange children canonicalised from scratch, in order, sign included,
    # and carry the bitmasks of their own rows.
    counts = {}
    for n in range(1, 9):
        for m in range(n // 2 + 1):
            shape = TwoRowShape(n - m, m)
            tabloids = list(_canonical_tabloids(m, n))
            assert len(tabloids) == _canonical_count(shape)
            for rows in tabloids:
                children = _children(rows, *_masks(rows))
                site = specht_reference.exchange_site(rows)
                if site is None:
                    assert children is None
                    assert is_standard(Tableau(shape, *rows))
                    continue
                raw = specht_reference.exchanges(rows, *site)
                assert len(children) == len(raw) == 2
                for (child, sign, bits1, bits2), filling in zip(children, raw):
                    assert (child, sign) == _canonical(filling)
                    assert (bits1, bits2) == _masks(child)
                    assert type(child[0]) is tuple and type(child[1]) is tuple
                    counts[sign] = counts.get(sign, 0) + 1
    # both signs occur, so a dropped sign cannot pass unseen
    assert counts[1] > 0 and counts[-1] > 0


def _typed_terms(e):
    # The terms in the order straighten emitted them, with each coefficient's type.
    return [(t, c, type(c)) for t, c in e._terms.items()]


def _assert_matches_reference(e):
    assert _typed_terms(straighten(e)) == _typed_terms(reference_straighten(e))


def test_straighten_matches_reference_on_every_small_filling():
    # Every filling with n <= 7, including the one-row shapes.  The reference
    # straightens each canonical filling once; a filling's expected result is
    # that one times the filling's canonicalisation sign.
    for n in range(1, 8):
        for m in range(n // 2 + 1):
            shape = TwoRowShape(n - m, m)
            expected = {}
            for u in all_tableaux(shape):
                rows, sign = specht_reference.canonical((u.row1, u.row2))
                if rows not in expected:
                    e = TabloidExpr([(Tableau(shape, *rows), 1)])
                    expected[rows] = reference_straighten(e)
                want = expected[rows] if sign == 1 else -expected[rows]
                assert _typed_terms(straighten(TabloidExpr([(u, 1)]))) == _typed_terms(want)


def test_straighten_matches_reference_on_seeded_fillings_and_relations():
    rng = random.Random(41)
    for n in range(8, 13):
        for shape in two_row_shapes(n):
            for _ in range(4):
                q = random_tabloid(rng, shape)
                _assert_matches_reference(TabloidExpr([(q, rng.randint(-3, 3) or 1)]))
                _assert_matches_reference(garnir(q.tableau, rng.randint(1, shape.lambda1 - 1)))


def test_straighten_matches_reference_on_long_near_hooks():
    rng = random.Random(43)
    for m in (1, 2):
        for n in range(40, 65, 8):
            xs = tuple(range(n, 0, -1))
            _assert_matches_reference(
                TabloidExpr([(Tableau(TwoRowShape(n - m, m), xs[: n - m], xs[n - m :]), 1)])
            )
            _assert_matches_reference(TabloidExpr([(random_tabloid(rng, TwoRowShape(n - m, m)), 1)]))


def test_straighten_matches_reference_on_rational_and_cancelling_inputs():
    rng = random.Random(47)
    for n in range(4, 10):
        for shape in two_row_shapes(n):
            qs = [random_tabloid(rng, shape) for _ in range(3)]
            rational = TabloidExpr(
                [(q, Fraction(rng.randint(-5, 5), rng.randint(1, 4))) for q in qs]
            )
            _assert_matches_reference(rational)
            # integral Fractions stay Fractions
            _assert_matches_reference(TabloidExpr([(qs[0], Fraction(2)), (qs[1], 1)]))
            # a Garnir relation plus a multiple of its own leading term: the
            # relation's terms cancel in the sum and in its straightening
            g = garnir(qs[0].tableau, 1)
            _assert_matches_reference(g + TabloidExpr([(qs[0], Fraction(1, 2))]))
            _assert_matches_reference(g)
    # terms that differ only by the order of their columns and the sign:
    # they cancel inside straighten, not in the expression
    shape = TwoRowShape(3, 2)
    u = Tableau(shape, (4, 1, 5), (2, 3))
    v = Tableau(shape, (1, 2, 5), (3, 4))
    e = TabloidExpr([(u, 1), (v, 1)])
    assert not e.is_zero and straighten(e).is_zero
    _assert_matches_reference(e)
    _assert_matches_reference(TabloidExpr([(u, 1), (Tableau(shape, (2, 4, 5), (1, 3)), 1)]))


def _sorted_columns(rows):
    # Every height-2 column sorted top-to-bottom, and the sign of the swaps.
    r1, r2 = rows
    top, bottom, sign = list(r1), list(r2), 1
    for c in range(len(r2)):
        if top[c] > bottom[c]:
            top[c], bottom[c] = bottom[c], top[c]
            sign = -sign
    return (tuple(top), tuple(bottom)), sign


def _two_step_canonical(rows):
    # The canonical form in two steps: sort each column with its sign, then
    # order the columns by top entry and sort the tail.
    (top, bottom), sign = _sorted_columns(rows)
    columns = sorted(zip(top, bottom))
    tops = tuple(x for x, _ in columns) + tuple(sorted(top[len(bottom) :]))
    return (tops, tuple(y for _, y in columns)), sign


def test_canonical_matches_two_step_reference():
    # straighten and canonicalize sort the columns and count the sign in one
    # pass; both must agree with the two-step reference on every filling
    # with n <= 7 and on random fillings up to n = 64.
    fillings = [
        (u.row1, u.row2)
        for n in range(1, 8)
        for lambda2 in range(n // 2 + 1)
        for u in all_tableaux(TwoRowShape(n - lambda2, lambda2))
    ]
    rng = random.Random(31)
    for _ in range(500):
        n = rng.randint(8, 64)
        lambda2 = rng.randint(0, n // 2)
        perm = tuple(rng.sample(range(1, n + 1), n))
        fillings.append((perm[: n - lambda2], perm[n - lambda2 :]))
    for rows in fillings:
        assert _canonical(rows) == _two_step_canonical(rows)
        shape = TwoRowShape(len(rows[0]), len(rows[1]))
        (top, bottom), sign = _sorted_columns(rows)
        assert canonicalize(Tableau(shape, *rows)) == Tabloid(Tableau(shape, top, bottom), sign)


def test_straightened_tableaux_equal_validated_ones():
    # straighten and canonicalize build their tableaux without re-validating
    # them; each must equal, and hash like, the validated construction.
    rng = random.Random(37)
    emitted = 0
    for n in range(2, 11):
        for shape in two_row_shapes(n):
            for _ in range(5):
                q = random_tabloid(rng, shape)
                out = straighten(TabloidExpr([(q, 1)]))
                for t in [q.tableau, *out.tableaux()]:
                    built = Tableau(shape, t.row1, t.row2)
                    assert t == built and hash(t) == hash(built)
                    assert type(t.row1) is tuple and type(t.row2) is tuple
                    emitted += 1
                for t, c in out.terms():
                    assert out.coefficient(Tableau(shape, t.row1, t.row2)) == c
    assert emitted > 500


def test_trade_map_expr_sums_one_trade_map_per_term(monkeypatch):
    # trade_map_expr adds the images into one sum, but it must still reach
    # each term's trade through exactly one trade_map call: the traced
    # straighten run of perfbench fails its coverage guard unless
    # trades.total_trade and BooleanElement.__mul__ are called, and there
    # only trade_map calls them.
    image = specht.trade_map
    calls = []

    def counted(q, k):
        calls.append(q)
        return image(q, k)

    monkeypatch.setattr(specht, "trade_map", counted)
    shape = TwoRowShape(4, 2)
    u = Tableau(shape, (2, 6, 1, 4), (3, 5))
    rational = TabloidExpr(
        [
            (u, Fraction(1, 3)),
            (Tableau(shape, (1, 2, 3, 4), (5, 6)), Fraction(-5, 2)),
            (Tableau(shape, (1, 3, 5, 6), (2, 4)), 2),
        ]
    )
    cases = [(rational, k) for k in (2, 3, 4)]
    cases += [(garnir(u, c), k) for c in (1, 2, 3) for k in (2, 3, 4)]
    for e, k in cases:
        calls.clear()
        expected = BooleanElement.zero(shape.n)
        for tab, coeff in e.terms():
            expected = expected + coeff * image(Tabloid(tab, 1), k)
        assert trade_map_expr(e, k) == expected
        assert len(calls) == len(e.terms())
    # every Garnir relation cancels to zero under the trade map
    assert all(trade_map_expr(e, k).is_zero for e, k in cases[3:])
    assert not trade_map_expr(rational, 3).is_zero
    assert any(type(c) is Fraction for _, c in trade_map_expr(rational, 3).terms())


@pytest.mark.parametrize("lambda2", [1, 2, 3])
def test_straighten_long_reversed_filling(lambda2):
    # Runs at the default recursion limit; do not raise it here.
    n = 200
    xs = tuple(range(n, 0, -1))
    u = Tableau(TwoRowShape(n - lambda2, lambda2), xs[: n - lambda2], xs[n - lambda2 :])
    e = TabloidExpr([(u, 1)])
    out = straighten(e)
    assert all(is_standard(t) for t in out.tableaux())
    assert all(type(c) is int for _, c in out.terms())
    rhs = BooleanElement.zero(n) if out.is_zero else trade_map_expr(out, lambda2)
    assert trade_map_expr(e, lambda2) == rhs


def test_standard_images_independent():
    for n in range(2, 9):
        for shape in two_row_shapes(n):
            k = shape.lambda2
            vectors = [
                element_to_vector(trade_map(Tabloid(t, 1), k), k)
                for t in standard_tableaux(shape)
            ]
            assert rank_of_columns(vectors) == specht_dim(shape)


def test_trade_map_examples():
    shape = TwoRowShape(2, 1)
    q = Tabloid(Tableau(shape, (1, 3), (2,)), 1)
    assert trade_map(q, 1) == BooleanElement(3, [((1,), 1), ((2,), -1)])


def test_trade_map_respects_column_sign():
    shape = TwoRowShape(2, 1)
    plain = Tabloid(Tableau(shape, (1, 3), (2,)), 1)
    q = canonicalize(Tableau(shape, (2, 3), (1,)))  # same tableau, sign -1
    assert q.tableau == plain.tableau and q.sign == -1
    assert trade_map(q, 1) == -1 * trade_map(plain, 1)
    # the signed image equals the trade read off the unsorted columns directly
    assert trade_map(q, 1) == total_trade(TradeSpec(3, 0, 1, (2,), (1,)))


def test_trade_map_errors():
    with pytest.raises(ValueError):
        trade_map(Tabloid(Tableau(TwoRowShape(3, 0), (1, 2, 3), ()), 1), 1)
    q = Tabloid(Tableau(TwoRowShape(2, 1), (1, 3), (2,)), 1)
    with pytest.raises(ValueError):
        trade_map(q, 0)  # k must exceed lambda2 - 1
    # TradeSpec rejects t + k > n, with the same message through trade_map
    with pytest.raises(ValueError, match=r"^need t \+ k <= n, got t=0 k=4 n=3$"):
        trade_map(q, 4)


def test_render_forms():
    t = Tableau(TwoRowShape(2, 1), (1, 3), (2,))
    assert render_tableau(t) == "[1 3 / 2]"
    assert render_tableau(Tableau(TwoRowShape(2, 0), (2, 1), ())) == "[2 1 /]"
    e = TabloidExpr([(t, 2), (Tableau(TwoRowShape(2, 1), (1, 2), (3,)), -1)])
    assert render_expr(e) == "-[1 2 / 3] + 2*[1 3 / 2]"
    assert render_expr(TabloidExpr()) == "0"


def test_mixed_shapes_rejected():
    a = Tableau(TwoRowShape(2, 1), (1, 2), (3,))
    b = Tableau(TwoRowShape(3, 0), (1, 2, 3), ())
    with pytest.raises(ValueError):
        TabloidExpr([(a, 1), (b, 1)])
    c = Tableau(TwoRowShape(3, 1), (1, 2, 3), (4,))
    for other in (b, c):
        ea, eo = TabloidExpr([(a, 1)]), TabloidExpr([(other, 1)])
        with pytest.raises(ValueError, match="mixed shapes"):
            ea + eo
        with pytest.raises(ValueError, match="mixed shapes"):
            ea - eo
    # the zero expression has no shape and adds to anything
    assert TabloidExpr([(a, 1)]) + TabloidExpr() == TabloidExpr([(a, 1)])
    assert TabloidExpr() - TabloidExpr([(c, 1)]) == TabloidExpr([(c, -1)])


def test_straighten_stops_when_a_rewrite_makes_no_progress(monkeypatch):
    # A broken rewrite that gives back its own input never lowers the key;
    # the bound of C(n, 2m)(2m - 1)!! rewrites must end the pass.
    calls = []

    def stuck(rows, bits1, bits2):
        calls.append(rows)
        return [(rows, 1, bits1, bits2)]

    monkeypatch.setattr(specht, "_children", stuck)
    shape = TwoRowShape(2, 2)
    non_standard = TabloidExpr([(Tableau(shape, (3, 1), (4, 2)), 1)])
    with pytest.raises(RuntimeError, match="straightening fuel exhausted"):
        straighten(non_standard)
    assert len(calls) == binomial(4, 4) * 3 + 1


def test_invalid_arguments_rejected():
    shape = TwoRowShape(2, 2)
    with pytest.raises(ValueError, match="sign must be"):
        Tabloid(Tableau(shape, (1, 2), (3, 4)), 2)
    with pytest.raises(ValueError, match="cannot infer the ground set"):
        trade_map_expr(TabloidExpr(), 2)
