import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradekit.boolean_algebra import BooleanElement, permute_element
from tradekit.combinatorics import (
    Permutation,
    Subset,
    binomial,
    colex_index,
    colex_rank,
    colex_tuples,
    colex_unrank,
    subsets_iter,
)


def test_binomial_values():
    assert binomial(5, 2) == 10
    assert binomial(3, -1) == 0
    assert binomial(2, 5) == 0
    assert binomial(0, 0) == 1
    assert binomial(-1, 0) == 0


def test_binomial_pascal_recurrence():
    # a = b = 0 is excluded: the vanishing convention gives C(-1,-1) = 0
    for a in range(1, 41):
        for b in range(a + 1):
            assert binomial(a, b) == binomial(a - 1, b - 1) + binomial(a - 1, b)


def test_subset_validation():
    Subset(4, (1, 3))
    Subset(3, ())
    with pytest.raises(ValueError):
        Subset(4, (3, 1))
    with pytest.raises(ValueError):
        Subset(4, (1, 1))
    with pytest.raises(ValueError):
        Subset(4, (0, 2))
    with pytest.raises(ValueError):
        Subset(4, (2, 5))


def test_colex_rank_examples():
    assert colex_rank(Subset(4, (1, 2))) == 0
    assert colex_rank(Subset(4, (1, 3))) == 1
    assert colex_rank(Subset(4, (2, 3))) == 2
    # rank does not depend on n
    assert colex_rank(Subset(9, (2, 3))) == 2
    assert colex_rank((2, 3)) == 2
    assert colex_rank([1, 3]) == 1
    # a raw sequence that is not a subset has no rank
    for bad in [(3, 2), (0,), (2, 2), (-1, 3), (1, 0)]:
        with pytest.raises(ValueError):
            colex_rank(bad)


def test_colex_unrank_examples():
    assert colex_unrank(0, 2, 4).elements == (1, 2)
    assert colex_unrank(2, 2, 4).elements == (2, 3)
    assert colex_unrank(5, 2, 4).elements == (3, 4)
    with pytest.raises(ValueError):
        colex_unrank(6, 2, 4)
    with pytest.raises(ValueError):
        colex_unrank(-1, 2, 4)


def test_colex_roundtrip_exhaustive():
    for n in range(13):
        for k in range(n + 1):
            for r, s in enumerate(subsets_iter(k, n)):
                assert colex_rank(s) == r
                assert colex_unrank(r, k, n) == s


def test_subsets_iter_examples():
    assert [s.elements for s in subsets_iter(1, 3)] == [(1,), (2,), (3,)]
    assert [s.elements for s in subsets_iter(0, 3)] == [()]
    two_of_four = list(subsets_iter(2, 4))
    assert len(two_of_four) == 6
    assert two_of_four[-1].elements == (3, 4)


def test_subsets_iter_counts():
    for n in range(9):
        for k in range(n + 1):
            subsets = list(subsets_iter(k, n))
            assert len(subsets) == binomial(n, k)
            assert len(set(s.elements for s in subsets)) == len(subsets)


def test_colex_tuples_matches_subsets_iter():
    assert list(colex_tuples(2, 5)) == [s.elements for s in subsets_iter(2, 5)]


def test_colex_tuples_long_subsets_without_recursion():
    assert list(colex_tuples(1200, 1200)) == [tuple(range(1, 1201))]
    tuples = list(colex_tuples(1199, 1200))
    assert len(tuples) == 1200
    assert tuples[0] == tuple(range(1, 1200)) and tuples[-1] == tuple(range(2, 1201))
    assert [colex_rank(s) for s in tuples[:3]] == [0, 1, 2]


def test_negative_subset_size_rejected():
    with pytest.raises(ValueError):
        list(colex_tuples(-1, 3))
    with pytest.raises(ValueError):
        list(subsets_iter(-1, 4))
    with pytest.raises(ValueError):
        colex_index(-1, 3)


def test_colex_index_table():
    colex_index.cache_clear()
    pairs = [(k, n) for n in range(12) for k in range(n + 1)]
    assert len(pairs) == 78
    for k, n in pairs:
        table = colex_index(k, n)
        assert list(table) == list(colex_tuples(k, n))
        assert list(table.values()) == list(range(binomial(n, k)))
    assert colex_index(3, 2) == {}
    # a second sweep over every n <= 11 pair is served from the cache
    misses = colex_index.cache_info().misses
    for k, n in pairs:
        colex_index(k, n)
    assert colex_index.cache_info().misses == misses


@st.composite
def _rank_k_n(draw):
    n = draw(st.integers(0, 12))
    k = draw(st.integers(0, n))
    return draw(st.integers(0, binomial(n, k) - 1)), k, n


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(_rank_k_n())
def test_colex_unrank_rank_table_roundtrip(case):
    r, k, n = case
    s = colex_unrank(r, k, n)
    assert colex_rank(s) == r
    assert colex_index(k, n)[s.elements] == r


def test_permutation_validation():
    Permutation(3, (2, 1, 3))
    with pytest.raises(ValueError):
        Permutation(3, (1, 1, 3))
    with pytest.raises(ValueError):
        Permutation(3, (1, 2))
    sigma = Permutation(3, (2, 3, 1))
    assert [sigma(x) for x in (1, 2, 3)] == [2, 3, 1]
    for outside in (0, -1, 4):
        with pytest.raises(ValueError):
            sigma(outside)


def _image(sigma, elements):
    # The action on subsets, read off single terms of permute_element.
    (term,) = permute_element(sigma, BooleanElement.term(sigma.n, elements)).terms()
    return term


def test_apply_permutation_examples():
    assert _image(Permutation(3, (2, 1, 3)), (1, 3)) == ((2, 3), 1)
    assert _image(Permutation.identity(2), (1, 2)) == ((1, 2), 1)
    assert _image(Permutation(3, (3, 1, 2)), (1, 2)) == ((1, 3), 1)
    with pytest.raises(ValueError):
        permute_element(Permutation.identity(3), BooleanElement.term(4, (1,)))


def test_permutation_group_action():
    # compose(sigma, tau) applies tau first: (1 2) after (2 3) sends 1 to 2
    sigma, tau = Permutation(3, (2, 1, 3)), Permutation(3, (1, 3, 2))
    assert _image(sigma.compose(tau), (1,)) == ((2,), 1)
    assert _image(tau.compose(sigma), (1,)) == ((3,), 1)
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 9)
        sigma = Permutation(n, tuple(rng.sample(range(1, n + 1), n)))
        tau = Permutation(n, tuple(rng.sample(range(1, n + 1), n)))
        k = rng.randint(0, n)
        e = BooleanElement(
            n,
            [
                (sorted(rng.sample(range(1, n + 1), k)), rng.randint(-3, 3))
                for _ in range(rng.randint(1, 4))
            ],
        )
        lhs = permute_element(sigma.compose(tau), e)
        rhs = permute_element(sigma, permute_element(tau, e))
        assert lhs == rhs


def test_permutation_inverse_and_transpositions():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 8)
        sigma = Permutation(n, tuple(rng.sample(range(1, n + 1), n)))
        assert sigma.compose(sigma.inverse()) == Permutation.identity(n)


def test_invalid_arguments_rejected():
    with pytest.raises(ValueError, match="ground-set size must be nonnegative"):
        Subset(-1, ())
    with pytest.raises(ValueError, match="ground-set size must be nonnegative, got -1"):
        Permutation(-1, ())
    with pytest.raises(ValueError, match="ground-set size must be nonnegative, got -3"):
        Permutation.identity(-3)
    assert Permutation.identity(0).images == ()
    with pytest.raises(ValueError, match=r"bad transposition \(1 1\) on 1..3"):
        Permutation.transposition(3, 1, 1)
    with pytest.raises(ValueError, match="mismatched ground sets: 3 != 4"):
        Permutation.identity(3).compose(Permutation.identity(4))
