import random

import pytest

from tradekit.boolean_algebra import (
    BooleanElement,
    MatrixSpec,
    build_matrix,
    element_to_vector,
    permute_element,
    subset_sum,
)
from tradekit.combinatorics import Permutation, Subset, binomial
from tradekit.linalg import IntegerEchelon, rank_of_columns
from tradekit.trades import (
    TradeSpec,
    all_total_trades,
    is_t_trade,
    minimal_trade,
    permute_spec,
    render_spec,
    total_trade,
    total_trade_basis,
    total_trade_specs,
    trade_strength,
)


def elem(n, *terms):
    return BooleanElement(n, list(terms))


def test_spec_validation():
    TradeSpec(4, 1, 2, (1, 3), (2, 4))
    with pytest.raises(ValueError):
        TradeSpec(4, 2, 2, (1, 2, 3), (4, 5, 6))  # t = k
    with pytest.raises(ValueError):
        TradeSpec(4, 1, 4, (1, 3), (2, 4))  # t + k > n
    with pytest.raises(ValueError):
        TradeSpec(4, 1, 2, (1, 3), (2, 3))  # repeated element
    with pytest.raises(ValueError):
        TradeSpec(4, 1, 2, (1,), (2, 4))  # wrong xs length
    with pytest.raises(ValueError):
        TradeSpec(6, 1, 3, (1, 3), (2, 4), (9,))  # tail element out of range
    with pytest.raises(ValueError):
        TradeSpec(6, 1, 3, (1, 3), (2, 4), (5, 6))  # wrong tail length


def test_spec_fast_path_equals_validated_spec():
    # trade_map builds its spec without re-validation; it must equal, and
    # hash like, the validated construction.
    for t, k, n in [(0, 1, 2), (1, 2, 5), (2, 4, 9)]:
        for spec in total_trade_specs(t, k, n):
            fast = TradeSpec._make(n, t, k, spec.xs, spec.ys)
            assert fast == spec and hash(fast) == hash(spec) and fast.tail is None
            assert total_trade(fast) == total_trade(spec)


def test_minimal_trade_examples():
    assert minimal_trade(TradeSpec(2, 0, 1, (1,), (2,), ())) == elem(
        2, ((1,), 1), ((2,), -1)
    )
    assert minimal_trade(TradeSpec(4, 0, 2, (1,), (2,), (3,))) == elem(
        4, ((1, 3), 1), ((2, 3), -1)
    )
    # hand expansion of (1-2)(3-4)
    assert minimal_trade(TradeSpec(4, 1, 2, (1, 3), (2, 4), ())) == elem(
        4, ((1, 3), 1), ((1, 4), -1), ((2, 3), -1), ((2, 4), 1)
    )
    with pytest.raises(ValueError):
        minimal_trade(TradeSpec(4, 0, 2, (1,), (2,)))


def test_minimal_trade_term_count():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(3, 9)
        t = rng.randint(0, 2)
        k = rng.randint(t + 1, max(t + 1, n - t - 1))
        if t + k + 1 > n or t + k > n:
            continue
        chosen = rng.sample(range(1, n + 1), t + k + 1)
        spec = TradeSpec(
            n, t, k,
            tuple(chosen[: t + 1]),
            tuple(chosen[t + 1 : 2 * t + 2]),
            tuple(chosen[2 * t + 2 :]),
        )
        e = minimal_trade(spec)
        terms = e.terms()
        assert len(terms) == 2 ** (t + 1)
        assert all(abs(c) == 1 for _, c in terms)
        assert e.homogeneous_grade() == k


def test_total_trade_examples():
    assert total_trade(TradeSpec(4, 0, 2, (1,), (2,))) == elem(
        4, ((1, 3), 1), ((1, 4), 1), ((2, 3), -1), ((2, 4), -1)
    )
    assert total_trade(TradeSpec(3, 0, 1, (1,), (2,))) == elem(3, ((1,), 1), ((2,), -1))
    with pytest.raises(ValueError):
        total_trade(TradeSpec(4, 0, 2, (1,), (2,), (3,)))


def _product_form_total_trade(spec):
    # (x_1 - y_1)...(x_{t+1} - y_{t+1}) times the sum of all tails, built
    # from union products in the subset algebra.
    n = spec.n
    out = BooleanElement.one(n)
    for x, y in zip(spec.xs, spec.ys):
        out = out * BooleanElement(n, [((x,), 1), ((y,), -1)])
    used = set(spec.xs) | set(spec.ys)
    rest = Subset(n, tuple(e for e in range(1, n + 1) if e not in used))
    return out * subset_sum(rest, spec.k - spec.t - 1)


def test_total_trade_equals_product_form():
    boundary = 0
    for n in range(2, 9):
        for k in range(1, n + 1):
            for t in range(min(k, n - k + 1)):
                for spec in total_trade_specs(t, k, n):
                    e = total_trade(spec)
                    assert e == _product_form_total_trade(spec)
                    assert all(type(c) is int for _, c in e.terms())
                    if t + k == n and k >= t + 2:
                        assert e.is_zero
                        boundary += 1
                    else:
                        assert not e.is_zero and e.homogeneous_grade() == k
    assert boundary > 0


def _pick_loop_total_trade(spec):
    # The term-by-term expansion with an explicit pick list: each pair doubles
    # the picks, the y side with the opposite sign, and every pick joins each
    # tail of unused elements.
    from itertools import combinations

    picks = [((), 1)]
    for x, y in zip(spec.xs, spec.ys):
        picks = [(p + (x,), sign) for p, sign in picks] + [(p + (y,), -sign) for p, sign in picks]
    size = spec.k - spec.t - 1
    if size:
        used = set(spec.xs) | set(spec.ys)
        rest = [x for x in range(1, spec.n + 1) if x not in used]
        tails = list(combinations(rest, size))
        picks = [(p + tail, sign) for p, sign in picks for tail in tails]
    return {tuple(sorted(p)): sign for p, sign in picks}


def test_total_trade_matches_the_pick_loop():
    # Every pair-normalised spec with n <= 7 at every admissible k, tails and
    # t + k = n zero trades included: the same terms in the same order, with
    # int coefficients.
    zero = with_tail = 0
    for n in range(2, 8):
        for k in range(1, n + 1):
            for t in range(min(k, n - k + 1)):
                for spec in total_trade_specs(t, k, n):
                    terms = total_trade(spec)._terms
                    want = _pick_loop_total_trade(spec)
                    assert list(terms.items()) == list(want.items())
                    assert all(type(c) is int for c in terms.values())
                    zero += not terms
                    with_tail += bool(terms) and k > t + 1
    assert zero > 0 and with_tail > 0


def test_total_trade_sums_minimal_trades():
    from itertools import combinations

    spec = TradeSpec(6, 1, 3, (1, 4), (2, 5))
    rest = (3, 6)
    total = BooleanElement.zero(6)
    for tail in combinations(rest, 1):
        total = total + minimal_trade(TradeSpec(6, 1, 3, (1, 4), (2, 5), tail))
    assert total == total_trade(spec)


def test_is_t_trade():
    e = total_trade(TradeSpec(4, 0, 2, (1,), (2,)))
    assert is_t_trade(e, 0)
    assert not is_t_trade(elem(4, ((1, 2), 1)), 0)
    assert is_t_trade(BooleanElement.zero(4), 0)
    with pytest.raises(ValueError):
        is_t_trade(e, 5)


def test_is_t_trade_matches_matrix_kernel():
    # independent path: a t-trade is exactly a null vector of the inclusion matrix
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(4, 7)
        k = rng.randint(2, n // 2)
        t = rng.randint(0, k - 1)
        w = build_matrix(MatrixSpec.inclusion(n, t, k))
        spec = next(total_trade_specs(t, k, n))
        e = total_trade(spec)
        assert is_t_trade(e, t)
        assert all(x == 0 for x in w.matvec(element_to_vector(e, k)))


def test_trade_strength():
    assert trade_strength(total_trade(TradeSpec(5, 1, 2, (1, 3), (2, 4)))) == 1
    assert trade_strength(elem(5, ((1, 2), 1))) is None
    assert trade_strength(total_trade(TradeSpec(5, 0, 2, (1,), (2,)))) == 0
    with pytest.raises(ValueError):
        trade_strength(BooleanElement.zero(5))


def test_all_total_trades_counts():
    assert [e for e in all_total_trades(0, 1, 2)] == [elem(2, ((1,), 1), ((2,), -1))]
    trades = list(all_total_trades(0, 1, 3))
    assert trades == [
        elem(3, ((1,), 1), ((2,), -1)),
        elem(3, ((1,), 1), ((3,), -1)),
        elem(3, ((2,), 1), ((3,), -1)),
    ]
    # frozen by exhaustive enumeration: one 4-set, three normalized pairings
    assert sum(1 for _ in all_total_trades(1, 2, 4)) == 3
    # C(n, 2t+2) times the double factorial (2t+1)!!
    assert sum(1 for _ in total_trade_specs(1, 2, 6)) == binomial(6, 4) * 3
    assert sum(1 for _ in total_trade_specs(2, 3, 7)) == binomial(7, 6) * 15


def test_all_total_trades_are_trades_exhaustive():
    for n in range(2, 9):
        for k in range(1, n + 1):
            for t in range(min(k, n - k + 1)):
                for e in all_total_trades(t, k, n):
                    assert is_t_trade(e, t)


def test_skew_symmetry():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(4, 8)
        t = rng.randint(0, 1)
        k = rng.randint(t + 1, n - t)
        if 2 * (t + 1) > n:
            continue
        chosen = rng.sample(range(1, n + 1), 2 * (t + 1))
        xs, ys = list(chosen[: t + 1]), list(chosen[t + 1 :])
        spec = TradeSpec(n, t, k, tuple(xs), tuple(ys))
        i = rng.randrange(t + 1)
        xs[i], ys[i] = ys[i], xs[i]
        flipped = TradeSpec(n, t, k, tuple(xs), tuple(ys))
        assert total_trade(flipped) == -1 * total_trade(spec)


def test_normalized():
    # (5, 3), (2, 4) normalizes to (2, 4), (3, 5): one pair swap, sign -1
    spec = TradeSpec(6, 1, 2, (5, 2), (3, 4))
    assert total_trade(TradeSpec(6, 1, 2, (2, 3), (4, 5))) == -1 * total_trade(spec)
    # reordering the pairs keeps the trade
    assert total_trade(TradeSpec(6, 1, 2, (2, 5), (4, 3))) == total_trade(spec)
    # swapping a pair is the transposition (x y) acting, and it negates
    swapped = permute_element(Permutation.transposition(6, 3, 5), total_trade(spec))
    assert swapped == total_trade(TradeSpec(6, 1, 2, (3, 2), (5, 4))) == -1 * total_trade(spec)
    # enumerated specs are normalized: x < y in each pair, pairs sorted by x
    for s in total_trade_specs(2, 3, 7):
        assert all(x < y for x, y in zip(s.xs, s.ys)) and list(s.xs) == sorted(s.xs)


def test_permuted_spec_matches_permuted_element():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(4, 7)
        k = rng.randint(1, n - 1)
        t = rng.randint(0, min(k - 1, n - k, n // 2 - 1))
        if 2 * (t + 1) > n or t + k > n:
            continue
        chosen = rng.sample(range(1, n + 1), 2 * (t + 1))
        spec = TradeSpec(n, t, k, tuple(chosen[: t + 1]), tuple(chosen[t + 1 :]))
        s = Permutation(n, tuple(rng.sample(range(1, n + 1), n)))
        assert total_trade(permute_spec(s, spec)) == permute_element(s, total_trade(spec))


def test_span_is_permutation_invariant():
    # the span of all total trades does not grow under 50 seeded permutations
    rng = random.Random(97)
    for n in range(2, 8):
        for k in range(1, n + 1):
            for t in range(min(k, n - k + 1)):
                vectors = [element_to_vector(e, k) for e in all_total_trades(t, k, n)]
                ech = IntegerEchelon(binomial(n, k))
                basis = []
                for v in vectors:
                    if ech.add(v):
                        basis.append(v)
                for _ in range(50):
                    s = Permutation(n, tuple(rng.sample(range(1, n + 1), n)))
                    mapping = [0] * binomial(n, k)
                    from tradekit.combinatorics import colex_rank, colex_tuples

                    for i, sub in enumerate(colex_tuples(k, n)):
                        mapping[colex_rank(tuple(sorted(s(x) for x in sub)))] = i
                    for v in basis:
                        image = [v[mapping[i]] for i in range(len(v))]
                        assert ech.contains(image)


def test_total_trade_dim_on_nondegenerate_domain():
    for n in range(2, 8):
        for k in range(1, n):
            for t in range(k):
                if t + k + 1 > n:
                    continue
                vectors = [element_to_vector(e, k) for e in all_total_trades(t, k, n)]
                assert rank_of_columns(vectors) == binomial(n, t + 1) - binomial(n, t)


def test_total_trade_degenerates_at_boundary():
    # at t + k = n with k >= t + 2 the leftover ground set is one element
    # short of a tail, so every total trade is the zero element
    for (t, k, n) in [(0, 2, 2), (0, 3, 3), (1, 3, 4), (2, 4, 6)]:
        trades = list(all_total_trades(t, k, n))
        assert trades and all(e.is_zero for e in trades)
        assert rank_of_columns(element_to_vector(e, k) for e in trades) == 0
        # while the binomial difference is positive: the dimension formula
        # genuinely needs t + k < n
        assert binomial(n, t + 1) - binomial(n, t) > 0


def test_total_trade_basis_examples():
    basis = total_trade_basis(0, 1, 3)
    assert len(basis) == 2
    elems = {tuple(e.terms()) for _, e in basis}
    assert elems == {
        tuple(elem(3, ((1,), 1), ((2,), -1)).terms()),
        tuple(elem(3, ((1,), 1), ((3,), -1)).terms()),
    }

    assert len(total_trade_basis(1, 2, 5)) == binomial(5, 2) - binomial(5, 1) == 5

    basis = total_trade_basis(0, 2, 4)
    assert len(basis) == 3
    vectors = [element_to_vector(e, 2) for _, e in basis]
    assert rank_of_columns(vectors) == 3


def test_total_trade_basis_spans_and_is_independent():
    for n in range(2, 9):
        for k in range(1, n):
            for t in range(k):
                if t + k + 1 > n or n - t - 1 < t + 1:
                    continue
                basis = total_trade_basis(t, k, n)
                dim = binomial(n, t + 1) - binomial(n, t)
                assert len(basis) == dim
                vectors = [element_to_vector(e, k) for _, e in basis]
                assert rank_of_columns(vectors) == dim
                all_rank = rank_of_columns(
                    element_to_vector(e, k) for e in all_total_trades(t, k, n)
                )
                assert all_rank == dim


def test_total_trade_basis_shape_errors():
    with pytest.raises(ValueError, match=r"need t \+ k <= n"):
        total_trade_basis(2, 3, 4)
    with pytest.raises(ValueError):
        total_trade_basis(1, 1, 5)  # t = k


def test_total_trade_basis_specs_are_validated_specs():
    # Standard fillings need no validation: each spec equals the one the
    # validating constructor builds.
    for t, k, n in [(0, 1, 3), (1, 3, 7), (2, 3, 8), (1, 4, 5)]:
        for spec, _ in total_trade_basis(t, k, n):
            assert spec == TradeSpec(n, t, k, spec.xs, spec.ys)


def test_total_trade_basis_size_limit(monkeypatch):
    # 2^20 terms per trade times S^(20,20)'s dimension: ValueError before
    # any standard tableau is listed.  (3, 6, 12), the basis with the most
    # terms of any verify domain at n <= 12 (26400), stays under the limit.
    from tradekit import specht

    def unlisted(shape):
        raise AssertionError("tableaux listed")

    monkeypatch.setattr(specht, "standard_tableaux", unlisted)
    with pytest.raises(ValueError, match="over the limit of 16777216"):
        total_trade_basis(19, 20, 40)
    monkeypatch.undo()
    assert len(total_trade_basis(3, 6, 12)) == binomial(12, 4) - binomial(12, 3)


def test_total_trade_size_limit(monkeypatch):
    # 2^(t+1) * C(n - 2t - 2, k - t - 1) terms, checked before any is
    # listed: C(58, 29) tails at (0, 30, 60) raise at once, and a trade of
    # exactly the limit is built.
    def unlisted(*args):
        raise AssertionError("tails listed")

    monkeypatch.setattr("tradekit.trades.combinations", unlisted)
    with pytest.raises(ValueError, match="over the limit of 16777216"):
        total_trade(TradeSpec(60, 0, 30, (1,), (2,)))
    monkeypatch.undo()
    spec = TradeSpec(7, 1, 3, (1, 2), (3, 4))
    monkeypatch.setattr("tradekit.trades._MAX_CELLS", 12)
    assert len(total_trade(spec).terms()) == 12
    monkeypatch.setattr("tradekit.trades._MAX_CELLS", 11)
    with pytest.raises(ValueError, match="the trade would have 12 terms, over the limit of 11"):
        total_trade(spec)


def test_total_trade_basis_empty_at_n_2t_plus_1():
    # (t, t+1, 2t+1): t+1 disjoint pairs need 2t+2 elements, so there is no
    # spec, and the dimension C(n, t+1) - C(n, t) is 0
    for t in range(4):
        assert total_trade_basis(t, t + 1, 2 * t + 1) == []
        assert binomial(2 * t + 1, t + 1) - binomial(2 * t + 1, t) == 0


def test_render_spec():
    assert render_spec(TradeSpec(6, 1, 3, (1, 3), (2, 4), (5,))) == "xs=[1,3] ys=[2,4] tail=[5]"
    assert render_spec(TradeSpec(6, 1, 2, (1, 3), (2, 4))) == "xs=[1,3] ys=[2,4]"


def test_strength_is_downward_closed():
    e = total_trade(TradeSpec(7, 2, 3, (1, 3, 5), (2, 4, 6)))
    s = trade_strength(e)
    assert s == 2
    for lower in range(s + 1):
        assert is_t_trade(e, lower)


def test_invalid_arguments_rejected():
    with pytest.raises(ValueError, match="mismatched ground sets: 5 != 6"):
        permute_spec(Permutation.identity(5), TradeSpec(6, 0, 1, (1,), (2,)))
    with pytest.raises(ValueError, match=r"need t \+ k <= n, got t=1 k=3 n=3"):
        total_trade_basis(1, 3, 3)
