import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from linalg_reference import identity, kernel_basis, transpose, zeros
from tradekit.boolean_algebra import MatrixSpec, build_matrix
from tradekit.linalg import (
    IntegerEchelon,
    RationalMatrix,
    _reduced_mod_p,
    in_span,
    rank_of_columns,
    render_dense,
    render_sparse,
)


def _random_matrix(rng, nrows, ncols):
    return RationalMatrix(
        [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
    )


def test_rank_examples():
    assert identity(3).rank() == 3
    assert RationalMatrix([[1, 2], [2, 4]]).rank() == 1
    assert RationalMatrix([[1, 1]]).rank() == 1
    assert zeros(2, 3).rank() == 0


def test_kernel_examples():
    (v,) = kernel_basis(RationalMatrix([[1, 1]]))
    assert v[0] == -v[1] != 0
    assert kernel_basis(identity(2)) == []
    assert len(kernel_basis(zeros(2, 3))) == 3


def test_kernel_is_exactly_null():
    rng = random.Random(3)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 8))
        basis = kernel_basis(m)
        assert m.rank() + len(basis) == m.ncols
        for v in basis:
            assert not any(isinstance(x, float) for x in v)
            assert all(x == 0 for x in m.matvec(v))
        assert rank_of_columns(basis) == len(basis)


def test_rank_invariances_seeded():
    rng = random.Random(17)
    for _ in range(50):
        m = _random_matrix(rng, 6, 8)
        r = m.rank()
        assert transpose(m).rank() == r
        rows = [list(row) for row in m.rows()]
        i, j = rng.sample(range(6), 2)
        rows[i], rows[j] = rows[j], rows[i]
        scale = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        rows[i] = [scale * x for x in rows[i]]
        assert RationalMatrix(rows).rank() == r


def test_rank_of_columns(add_calls):
    assert rank_of_columns([(1, 0), (0, 1), (1, 1)]) == 2
    assert rank_of_columns([]) == 0
    assert rank_of_columns([(1, -1), (2, -2)]) == 1
    assert rank_of_columns([(), ()]) == 0
    # a ragged vector raises wherever it comes: while certifying, past the
    # dimension, or after the certificate has handed over
    for ragged in (
        [(1, 0, 0), (0, 1)],
        [(1, 0), (1, 0, 0)],
        [(1, 0), (0, 1), (1,)],
        [(1, 0), (2, 0), (1,)],
    ):
        with pytest.raises(ValueError, match="dimension mismatch"):
            rank_of_columns(ragged)
    # Fraction entries take the exact path, from the first vector on
    add_calls.clear()
    assert rank_of_columns([(Fraction(1, 2), 0), (0, Fraction(1, 3))]) == 2
    assert rank_of_columns([(1, 2), (Fraction(1, 2), 1)]) == 1
    assert len(add_calls) == 4


def test_rank_of_columns_consumes_a_generator_once():
    pulled = []

    def vectors(rows):
        for row in rows:
            pulled.append(row)
            yield row

    # certified, and handed over after a vector that is zero mod p
    for rows, rank in (
        ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3),
        ([(1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 65521), (1, 1, 1)], 3),
    ):
        pulled.clear()
        assert rank_of_columns(vectors(rows)) == rank
        assert pulled == rows


def test_full_rank_certificate_answers_alone(add_calls):
    m = build_matrix(MatrixSpec.combination(8, 3, 4, (1, -2, 1, 2)))
    assert m.rank() == m.nrows == 56
    assert add_calls == []
    # rows that are dependent mod 65521 go to the exact elimination
    assert rank_of_columns([(65521, 1), (0, 65521)]) == 2
    assert len(add_calls) == 2


def test_certificate_type_check_is_folded_into_packing(add_calls):
    # The first vector with a Fraction or float cell ends the certificate,
    # integral ones included, and every vector goes to the exact elimination;
    # negative ints and ints of 2^64 and more are certified as their
    # residues mod p.
    for bad in (Fraction(1, 2), Fraction(4), 0.5, 2.0):
        vectors = [(1, 0, 0), (0, bad, 1), (0, 0, 1)]
        for ceiling in (None, 3):
            add_calls.clear()
            assert rank_of_columns(vectors, ceiling=ceiling) == 3
            assert add_calls == vectors
    add_calls.clear()
    big = 2**64 + 3
    for vectors in (
        [(-1, 0, 2), (0, -7, 1), (3, 1, -65522)],
        [(big, 1, 0), (0, big, 1), (2**70, 0, -(2**65))],
    ):
        assert rank_of_columns(vectors) == 3
        assert rank_of_columns(vectors, ceiling=3) == 3
    assert add_calls == []
    # the exact elimination gives the same ranks as the reference
    for vectors in (
        [(-1, 2), (2, -4)],
        [(big, -1), (-big, 1)],
        [(65521 * 2**64, 0), (0, -1)],
        [(1, 0), (Fraction(1, 2), 1), (-(2**80), 3)],
        [(0.5, 1), (1, 2.0)],
    ):
        reference = 2 - len(kernel_basis(RationalMatrix(vectors)))
        assert rank_of_columns(vectors) == reference
        assert rank_of_columns(vectors, ceiling=2) == reference


def _rref_mod(rows, p):
    # Plain Gauss-Jordan reduction mod p: the nonzero rows of the reduced
    # row echelon form, which is unique, in pivot order.
    rows = [[x % p for x in r] for r in rows]
    out = []
    for col in range(len(rows[0]) if rows else 0):
        at = next((i for i, r in enumerate(rows) if r[col]), None)
        if at is None:
            continue
        r = rows.pop(at)
        inv = pow(r[col], -1, p)
        r = [x * inv % p for x in r]
        rows = [[(x - q[col] * y) % p for x, y in zip(q, r)] for q in rows]
        out = [[(x - q[col] * y) % p for x, y in zip(q, r)] for q in out] + [r]
    return out


def _echelon_rows(vectors, dim):
    # The exact echelon rows of the vectors' span, dense, in pivot order.
    ech = IntegerEchelon(dim)
    for v in vectors:
        ech.add(v)
    return [[row.get(c, 0) for c in range(dim)] for row in ech._rows]


def test_reduced_rows_are_the_reduced_echelon_form_mod_p():
    # Back substitution of exact echelon rows gives each row 1 at its pivot
    # and 0 at every other pivot, in the given order: the RREF mod p.
    rng = random.Random(11)
    p = 65521
    for nrows, ncols in [(1, 1), (3, 5), (6, 6), (9, 7), (12, 20)]:
        rows = [[rng.choice((0, 0, 1, -1, 2, 65520)) for _ in range(ncols)] for _ in range(nrows)]
        echelon = _echelon_rows(rows, ncols)
        reduced = _reduced_mod_p(echelon, ncols)
        assert len(reduced) == len(echelon)
        pivots = [q for q, _ in reduced]
        assert pivots == sorted(set(pivots))
        for q, row in reduced:
            assert row[q] == 1 and all(row[o] == 0 for o in pivots if o != q)
            assert next(j for j, x in enumerate(row) if x) == q
        assert [list(r) for _, r in reduced] == _rref_mod(echelon, p)
    assert _reduced_mod_p([], 3) == []


def test_reduced_rows_refuse_rows_out_of_echelon_form():
    # Pivots that repeat or decrease, a zero row, or a pivot entry divisible
    # by p: the rows need not be independent mod p, so nothing is reduced.
    for rows in (
        [(1, 0, 0), (1, 1, 0)],
        [(0, 1, 0), (1, 0, 0)],
        [(1, 0, 0), (0, 0, 0)],
        [(1, 2, 3), (0, 65521, 1)],
        [(-2 * 65521, 1, 0)],
    ):
        assert _reduced_mod_p(rows, 3) is None
    # a multiple of p after the pivot is fine
    assert [list(r) for _, r in _reduced_mod_p([(2, 65521, 0), (0, 0, -1)], 3)] == [
        [1, 0, 0],
        [0, 0, 1],
    ]


def test_ceiling_reached_answers_alone(add_calls):
    # the third vector is dependent; the ceiling is reached at the fourth,
    # and the vectors after it are never pulled
    pulled = []

    def vectors():
        for v in [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 2, 3), (4, 5, 6)]:
            pulled.append(v)
            yield v

    assert rank_of_columns(vectors(), ceiling=3) == 3
    assert len(pulled) == 4
    assert add_calls == []


def test_ceiling_not_reached_falls_back_to_exact(add_calls):
    # (0, 65521) is zero mod p but not over Q: the certificate skips it,
    # stops one short of the ceiling, and the exact elimination finds 2
    assert rank_of_columns([(1, 0), (0, 65521)], ceiling=2) == 2
    assert len(add_calls) == 2


def test_ceiling_above_the_rank_gives_the_exact_rank():
    rng = random.Random(7)
    for rank in range(5):
        basis = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(rank)]
        vectors = []
        for _ in range(7):
            cs = [rng.randint(-2, 2) for _ in basis]
            vectors.append(tuple(sum(c * b[j] for c, b in zip(cs, basis)) for j in range(6)))
        exact_rank = 6 - len(kernel_basis(RationalMatrix(vectors)))
        assert exact_rank <= rank
        for ceiling in range(exact_rank, 8):
            assert rank_of_columns(vectors, ceiling=ceiling) == exact_rank
    # independent vectors below the ceiling: settled by the certificate
    assert rank_of_columns([(1, 0, 0), (0, 1, 0)], ceiling=3) == 2
    assert rank_of_columns([], ceiling=2) == 0
    assert rank_of_columns([(Fraction(1, 2), 0), (0, 1)], ceiling=5) == 2


def test_ceiling_zero_answers_zero_at_once():
    def never():
        raise AssertionError("pulled a vector")
        yield

    assert rank_of_columns(never(), ceiling=0) == 0
    with pytest.raises(ValueError, match="ceiling must be nonnegative"):
        rank_of_columns([(1,)], ceiling=-1)


def test_matrix_rank_passes_the_ceiling_on():
    m = build_matrix(MatrixSpec.combination(6, 1, 3, (1, 1)))  # all ones: rank 1
    assert m.rank(ceiling=1) == m.rank() == 1
    assert m.rank(ceiling=0) == 0
    with pytest.raises(ValueError, match="ceiling must be nonnegative, got -1"):
        m.rank(ceiling=-1)
    with pytest.raises(TypeError):
        m.rank(1)


def test_rank_of_columns_permutation_invariant():
    rng = random.Random(5)
    vectors = [tuple(rng.randint(-4, 4) for _ in range(6)) for _ in range(8)]
    r = rank_of_columns(vectors)
    for _ in range(10):
        shuffled = vectors[:]
        rng.shuffle(shuffled)
        assert rank_of_columns(shuffled) == r


def test_in_span():
    assert in_span((1, 1), [(1, 0), (0, 1)])
    assert in_span((0, 0), [])
    assert not in_span((1, 0), [(0, 1)])
    assert in_span((Fraction(1, 2), Fraction(1, 3)), [(3, 2)])
    with pytest.raises(ValueError):
        in_span((1, 0, 0), [(1, 0)])


def test_matvec():
    v = (Fraction(2), Fraction(-3))
    assert identity(2).matvec(v) == v
    assert zeros(2, 2).matvec(v) == (0, 0)
    assert RationalMatrix([[1, 1]]).matvec((1, -1)) == (0,)
    # Exact values, ints staying ints, for int and Fraction rows alike.
    m = RationalMatrix([[1, Fraction(1, 2), -3], [2, 0, 5]])
    assert m.matvec((Fraction(1, 3), 4, 1)) == (Fraction(-2, 3), Fraction(17, 3))
    assert [type(x) for x in RationalMatrix([[1, -3], [0, 5]]).matvec((2, 7))] == [int, int]
    with pytest.raises(ValueError):
        RationalMatrix([[1, 1]]).matvec((1, 2, 3))


def test_matvec_matches_the_dense_products():
    # Only the vector's nonzero entries are read; the values are those of
    # the dense row-by-row sums, for int and Fraction rows, sparse vectors
    # and the zero vector.
    rng = random.Random(35)

    def cell():
        return rng.choice([0, rng.randint(-4, 4), Fraction(rng.randint(-4, 4), 3)])

    for _ in range(200):
        nrows, ncols = rng.randint(0, 5), rng.randint(1, 6)
        rows = [[cell() for _ in range(ncols)] for _ in range(nrows)]
        v = [rng.choice([0, cell()]) for _ in range(ncols)]
        for vec in (v, [0] * ncols, [Fraction(0)] * ncols):
            dense = tuple(sum(Fraction(a) * Fraction(x) for a, x in zip(row, vec)) for row in rows)
            assert RationalMatrix(rows, ncols).matvec(vec) == dense


def test_integer_echelon_incremental():
    ech = IntegerEchelon(3)
    assert ech.add((1, 2, 3))
    assert not ech.add((2, 4, 6))
    assert ech.add((0, 1, 1))
    assert ech.rank == 2
    assert ech.contains((1, 3, 4))
    assert not ech.contains((0, 0, 1))


_ENTRIES = st.one_of(
    st.integers(-6, 6), st.fractions(-3, 3, max_denominator=4)
)


@st.composite
def _rows_and_probes(draw):
    """Small rational matrices with zero rows and rescaled duplicate rows,
    plus probe vectors: random ones and one combination of the rows."""
    ncols = draw(st.integers(1, 6))
    vector = st.lists(_ENTRIES, min_size=ncols, max_size=ncols)
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(("fresh", "zero", "duplicate")))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "duplicate" and rows:
            scale = draw(st.sampled_from((1, -1, 3, Fraction(-2, 3))))
            rows.append([scale * x for x in draw(st.sampled_from(rows))])
        else:
            rows.append(draw(vector))
    coeffs = draw(st.lists(_ENTRIES, min_size=len(rows), max_size=len(rows)))
    combination = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)]
    return ncols, rows, draw(st.lists(vector, max_size=3)) + [combination]


def _reference_rank(rows, ncols):
    return ncols - len(kernel_basis(RationalMatrix(rows, ncols)))


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(_rows_and_probes())
# negative leading entries, non-unit pivots, a zero row and duplicates
@example((3, [[-2, 1, 0], [0, 0, 0], [0, 3, 1], [4, -2, 0], [-2, 4, 1]], [[1, 0, 0], [0, 0, 1]]))
@example((2, [[Fraction(-3, 2), Fraction(1, 4)], [3, Fraction(-1, 2)]], [[6, -1], [0, 1]]))
# full rank over Q but not modulo 65521, so the exact fallback answers
@example((2, [[65521, 1], [0, 65521]], [[1, 0]]))
@example((2, [[1, 2], [3, 6 + 65521]], [[0, 1]]))
def test_echelon_matches_kernel_reference(case):
    ncols, rows, probes = case
    ech = IntegerEchelon(ncols)
    before = 0
    for i, row in enumerate(rows):
        after = _reference_rank(rows[: i + 1], ncols)
        assert ech.add(row) == (after > before)
        assert ech.rank == after
        before = after
    assert rank_of_columns(rows) == before
    if rows:
        assert RationalMatrix(rows).rank() == before
    for v in probes:
        inside = _reference_rank(rows + [v], ncols) == before
        assert ech.contains(v) == in_span(v, rows) == inside


_CELLS = st.one_of(st.integers(-2, 2), st.sampled_from((65521, -65521, 2 * 65521, 65522)))


@st.composite
def _certificate_cases(draw):
    """Small integer vectors, often dependent over Q or only modulo 65521,
    with one cell turned into a `Fraction` in some of them."""
    dim = draw(st.integers(1, 4))
    vectors = draw(st.lists(st.lists(_CELLS, min_size=dim, max_size=dim), max_size=6))
    if vectors and draw(st.booleans()):
        i = draw(st.integers(0, len(vectors) - 1))
        j = draw(st.integers(0, dim - 1))
        vectors[i][j] = Fraction(vectors[i][j], draw(st.sampled_from((1, 2, 3))))
    return [tuple(v) for v in vectors]


def _certificate_settles(vectors, ceiling):
    # The one rule, read off plain reductions mod p of the integer prefixes:
    # some prefix reaches the ceiling, or all the vectors are integer
    # vectors independent mod p.
    if ceiling == 0:
        return True
    for m, v in enumerate(vectors, 1):
        if any(type(x) is not int for x in v):
            return False
        if len(_rref_mod(vectors[:m], 65521)) == ceiling:
            return True
    return len(_rref_mod(vectors, 65521)) == len(vectors)


@settings(
    derandomize=True,
    deadline=None,
    max_examples=150,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(vectors=_certificate_cases())
@example(vectors=[(65521, 1), (0, 65521)])
@example(vectors=[(1, 0), (2, 0), (0, 1)])
@example(vectors=[(1, 0), (Fraction(2), 1), (0, 65521)])
def test_one_certificate_rule(add_calls, vectors):
    # Every ceiling at or above the rank gives the rank, and the exact
    # elimination runs exactly when the certificate leaves the rank open.
    rank = _reference_rank(vectors, len(vectors[0]) if vectors else 1)
    for ceiling in (None, *range(rank, len(vectors) + 2)):
        add_calls.clear()
        assert rank_of_columns(vectors, ceiling=ceiling) == rank
        assert (add_calls == []) == _certificate_settles(vectors, ceiling), ceiling


def test_matrix_validation():
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        RationalMatrix([])


def test_render_dense_format():
    m = RationalMatrix([[1, Fraction(-3, 2)], [0, 7]])
    assert render_dense(m) == "2 2\n1 -3/2\n0 7\n"


def test_render_sparse_format():
    m = RationalMatrix([[0, Fraction(1, 3)], [2, 0]])
    assert render_sparse(m) == "2 2 2\n1 2 1/3\n2 1 2\n"


def test_negative_dimensions_rejected():
    with pytest.raises(ValueError, match="ncols must be nonnegative, got -2"):
        RationalMatrix([], -2)
