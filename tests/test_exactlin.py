from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semihomology.chainkit import homology, make_complex
from semihomology.exactlin import (
    RatMatrix,
    _integer_row,
    _zeros,
    block_diag,
    hstack,
    image_basis,
    inverse,
    is_invertible,
    kernel_basis,
    quotient_with_section,
    rank,
    rational_from_str,
    rref,
    solve,
)
from semihomology.oracle import CorpusSpec, generate_corpus
from semihomology.simplexcat import LinComb, apply_functor, delta, identity_inj, omega_d
from semihomology.transport import detecting_complex, resolution_complex


def M(rows):
    return RatMatrix.from_rows(rows)


def from_flat(r, c, entries):
    """The r x c matrix with these entries, read row by row."""
    return RatMatrix.from_rows([entries[i * c:(i + 1) * c] for i in range(r)], c)


big_ints = st.integers(min_value=-(2**256), max_value=2**256)
rationals = st.builds(Fraction, big_ints, st.integers(min_value=1, max_value=2**64))


@st.composite
def small_matrices(draw, max_dim=4):
    r = draw(st.integers(min_value=0, max_value=max_dim))
    c = draw(st.integers(min_value=0, max_value=max_dim))
    entries = draw(st.lists(st.integers(min_value=-5, max_value=5), min_size=r * c, max_size=r * c))
    return from_flat(r, c, entries)


# Scalars of every shape a caller may hand in: small ints (non-unit pivots),
# integral Fractions (which must come back as ints), small and large proper
# fractions.
scalars = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.builds(Fraction, st.integers(min_value=-5, max_value=5)),
    st.builds(Fraction, st.integers(min_value=-5, max_value=5), st.integers(min_value=1, max_value=4)),
    rationals,
)


@st.composite
def mixed_matrices(draw, max_dim=4):
    r = draw(st.integers(min_value=0, max_value=max_dim))
    c = draw(st.integers(min_value=0, max_value=max_dim))
    return from_flat(r, c, draw(st.lists(scalars, min_size=r * c, max_size=r * c)))


def is_canonical(x) -> bool:
    """An int, or a Fraction that is not integral; never a float."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def assert_canonical(m: RatMatrix) -> None:
    bad = [e for i in range(m.rows) for e in m.row(i) if not is_canonical(e)]
    assert not bad, f"non-canonical entries {bad!r}"


def reference_rref(m: RatMatrix) -> list[list[Fraction]]:
    """Textbook Gauss-Jordan elimination on Fractions only."""
    a = [[Fraction(e) for e in m.row(i)] for i in range(m.rows)]
    r = 0
    for c in range(m.cols):
        p = next((i for i in range(r, m.rows) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        lead = a[r][c]
        a[r] = [v / lead for v in a[r]]
        for i in range(m.rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return a


class TestCanonicalScalars:
    @given(mixed_matrices(), scalars)
    @settings(max_examples=150, deadline=None)
    def test_every_result_entry_is_canonical(self, m, c):
        results = [
            m, m.transpose(), m @ m.transpose(), m.transpose() @ m, m + m, m - m, -m,
            m.scale(c), m.scale(Fraction(1, 2)), rref(m)[0], kernel_basis(m),
            image_basis(m), solve(m, m), quotient_with_section(m.rows, m)[0],
        ]
        if is_invertible(m):
            results.append(inverse(m))
        for r in results:
            assert_canonical(r)

    @given(mixed_matrices())
    @settings(max_examples=150, deadline=None)
    def test_rref_matches_fraction_reference(self, m):
        r, _, _ = rref(m)
        assert [list(r.row(i)) for i in range(r.rows)] == reference_rref(m)

    def test_non_unit_pivots_leave_ints_where_integral(self):
        r, pivots, _ = rref(M([[2, 4, 3], [0, 3, 6]]))
        assert pivots == [0, 1]
        assert list(r.row(0)) == [1, 0, Fraction(-5, 2)]
        assert [type(e) for e in r.row(1)] == [int, int, int]
        assert_canonical(r)

    def test_integral_fraction_entry_equals_int_entry(self):
        a = M([[Fraction(2)]])
        b = M([[2]])
        assert a == b
        assert hash(a) == hash(b)
        assert type(a[0, 0]) is int

    def test_parsed_entries_are_canonical(self):
        assert type(rational_from_str("4/2")) is int
        assert rational_from_str("-3/4") == Fraction(-3, 4)

    @pytest.mark.parametrize("entry, value", [
        ("0", 0), ("-7", -7), ("+7", 7), (" 12 ", 12), ("007", 7), ("-0", 0),
        ("6/4", Fraction(3, 2)), ("+1/3", Fraction(1, 3)), ("\t-10/5\n", -2),
    ])
    def test_entry_grammar_accepts_signed_integers_over_naturals(self, entry, value):
        got = rational_from_str(entry)
        assert got == value and is_canonical(got)

    @pytest.mark.parametrize("entry", [
        1.5, 3, None, "1/0", "one", "1//2",
        # decimals, exponents, underscores, non-ASCII digits and signed or
        # missing parts that Fraction would take or that the grammar omits
        "2.5", "1e3", "1E3", "3_000", "\u0663", "\u0661/\u0662", "1e2000000",
        "1/-2", "1/+2", "/2", "1/", "", " ", "+", "--1", "1 / 2", "0x10", "inf", "nan",
    ])
    def test_bad_string_entries_are_value_errors(self, entry):
        with pytest.raises(ValueError, match="entry"):
            rational_from_str(entry)

    @given(scalars, scalars)
    @settings(max_examples=100, deadline=None)
    def test_lincomb_coefficients_are_canonical(self, a, b):
        f, g = delta(0, 1), delta(1, 1)
        x = LinComb(0, 1, {f: a, g: b})
        combos = [
            x, LinComb(0, 1, {g: b * Fraction(1, 3)}), LinComb(0, 1, {f: a}),
            apply_functor("u_delta", omega_d(2)).compose(x),
            x.compose(LinComb(0, 0, {identity_inj(0): b})),
        ]
        for lc in combos:
            assert all(is_canonical(c) for c in lc.terms.values()), lc
        assert all(type(c) is int for c in apply_functor("v", delta(0, 2)).terms.values())

    @pytest.mark.parametrize("build", [
        lambda: M([[0.1]]),
        lambda: M([[1, 2.0]]),
        lambda: M([[1, 2]]).scale(0.5),
        lambda: RatMatrix.from_columns(2, [{0: 1}, {1: 0.5}]),
        lambda: LinComb(0, 1, {delta(0, 1): 0.25}),
    ], ids=["matrix", "mixed-matrix", "matrix-scale", "from-columns", "lincomb"])
    def test_floats_are_rejected(self, build):
        with pytest.raises(TypeError, match="float"):
            build()


class TestRref:
    def test_identity_is_fixed(self):
        ident = RatMatrix.identity(2)
        r, pivots, rk = rref(ident)
        assert r == ident
        assert pivots == [0, 1]
        assert rk == 2

    def test_dependent_rows(self):
        r, pivots, rk = rref(M([[1, 2], [2, 4]]))
        assert r == M([[1, 2], [0, 0]])
        assert pivots == [0]
        assert rk == 1

    def test_swap(self):
        # hand elimination: swap the two rows, already reduced
        r, pivots, rk = rref(M([[0, 1], [1, 0]]))
        assert r == RatMatrix.identity(2)
        assert pivots == [0, 1]
        assert rk == 2

    def test_zero_row_matrix(self):
        r, pivots, rk = rref(RatMatrix.zeros(0, 3))
        assert (r.rows, r.cols, rk) == (0, 3, 0)

    @given(small_matrices())
    @settings(max_examples=150, deadline=None)
    def test_idempotent(self, m):
        r1, _, _ = rref(m)
        r2, _, _ = rref(r1)
        assert r1 == r2

    @given(small_matrices())
    @settings(max_examples=150, deadline=None)
    def test_rank_of_transpose(self, m):
        assert rank(m) == rank(m.transpose())


class TestKernel:
    def test_zero_map(self):
        k = kernel_basis(RatMatrix.zeros(1, 3))
        assert (k.rows, k.cols) == (3, 3)
        assert k == RatMatrix.identity(3)

    def test_line(self):
        k = kernel_basis(M([[1, 1]]))
        assert (k.rows, k.cols) == (2, 1)
        x, y = k.column(0)
        assert x == -y and x != 0

    def test_injective(self):
        k = kernel_basis(RatMatrix.identity(2))
        assert (k.rows, k.cols) == (2, 0)

    @given(small_matrices())
    @settings(max_examples=150, deadline=None)
    def test_rank_nullity_and_membership(self, m):
        k = kernel_basis(m)
        assert k.cols == m.cols - rank(m)
        assert (m @ k).is_zero()
        assert rank(k) == k.cols


class TestImage:
    def test_identity(self):
        assert image_basis(RatMatrix.identity(3)) == RatMatrix.identity(3)

    def test_rank_one_column(self):
        b = image_basis(M([[1], [2]]))
        assert (b.rows, b.cols) == (2, 1)
        x, y = b.column(0)
        assert y == 2 * x and x != 0

    def test_dependent_columns(self):
        b = image_basis(M([[1, 2], [2, 4]]))
        assert b.cols == 1

    @given(small_matrices())
    @settings(max_examples=100, deadline=None)
    def test_spans_columns(self, m):
        b = image_basis(m)
        assert b.cols == rank(m)
        assert solve(b, m) is not None


class TestQuotient:
    def test_zero_subspace(self):
        assert quotient_with_section(2, RatMatrix.zeros(2, 0))[0] == RatMatrix.identity(2)

    def test_diagonal_line(self):
        q = quotient_with_section(2, M([[1], [1]]))[0]
        assert (q.rows, q.cols) == (1, 2)
        assert (q @ M([[1], [1]])).is_zero()

    def test_full_subspace(self):
        q = quotient_with_section(1, M([[1]]))[0]
        assert (q.rows, q.cols) == (0, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            quotient_with_section(3, M([[1], [1]]))

    @given(small_matrices())
    @settings(max_examples=100, deadline=None)
    def test_rank_split_and_section(self, sub):
        n = sub.rows
        q, kept = quotient_with_section(n, sub)
        assert (q @ sub).is_zero()
        assert q.rows == n - rank(sub)
        assert rank(q) + rank(sub) == n
        selected = q.column_select(kept)
        assert selected == RatMatrix.identity(q.rows)


class TestSolve:
    def test_identity(self):
        b = M([[3], [5]])
        assert solve(RatMatrix.identity(2), b) == b

    def test_underdetermined(self):
        a = M([[1, 1]])
        b = M([[2]])
        x = solve(a, b)
        assert x is not None
        assert a @ x == b

    def test_inconsistent(self):
        assert solve(M([[0]]), M([[1]])) is None

    @given(small_matrices(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_consistent_systems_solved(self, a, data):
        w = data.draw(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=a.cols, max_size=a.cols)
        )
        b = a @ RatMatrix.from_rows([[e] for e in w], 1)
        x = solve(a, b)
        assert x is not None
        assert a @ x == b


class TestRowOrder:
    """The reduced row echelon form is unique, so no elimination result
    depends on the order the rows enter in, on zero rows or on repeats."""

    @given(mixed_matrices(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_permuted_padded_and_repeated_rows_eliminate_alike(self, m, data):
        repeats = data.draw(st.lists(st.integers(0, m.rows - 1), max_size=3)) if m.rows else []
        rows = [m.row(i) for i in [*range(m.rows), *repeats]]
        rows += [(0,) * m.cols] * data.draw(st.integers(0, 2))
        other = RatMatrix.from_rows(data.draw(st.permutations(rows)), m.cols)
        assert rank(other) == rank(m)  # the forward pass alone, on a fresh matrix
        reduced, pivots, r = rref(m)
        other_reduced, other_pivots, other_r = rref(other)
        assert (other_pivots, other_r) == (pivots, r)
        assert other_reduced.row_select(range(r)) == reduced.row_select(range(r))
        assert other_reduced.row_select(range(r, other.rows)).is_zero()
        assert kernel_basis(other) == kernel_basis(m)

    @given(mixed_matrices(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_the_quotient_ignores_the_order_of_the_spanning_columns(self, sub, data):
        n = sub.rows
        q, kept = quotient_with_section(n, sub)
        permuted = sub.column_select(data.draw(st.permutations(range(sub.cols))))
        assert quotient_with_section(n, permuted) == (q, kept)
        assert q == kernel_basis(sub.transpose()).transpose()
        pivots = set(rref(sub.transpose())[1])
        assert kept == [c for c in range(n) if c not in pivots]


class TestArithmetic:
    @given(rationals, rationals)
    @settings(max_examples=200, deadline=None)
    def test_exact_add_sub(self, a, b):
        assert (a + b) - b == a

    def test_matmul_shapes(self):
        with pytest.raises(ValueError):
            M([[1, 2]]) @ M([[1, 2]])

    def test_zero_dims_compose(self):
        a = RatMatrix.zeros(0, 2)
        b = RatMatrix.zeros(2, 0)
        assert (a @ b).rows == 0
        assert (b @ a) == RatMatrix.zeros(2, 2)

    def test_inverse(self):
        m = M([[1, 2], [3, 5]])
        assert is_invertible(m)
        assert m @ inverse(m) == RatMatrix.identity(2)

    def test_serialization_round_trip(self):
        for s in ["-3/4", "5", "0", "22/7"]:
            assert str(rational_from_str(s)) == s

    def test_hstack(self):
        assert hstack(M([[1], [2]]), M([[3], [4]])) == M([[1, 3], [2, 4]])


class TestSparseScale:
    def test_relation_shaped_elimination_is_fast_and_exact(self):
        # coend relation matrices are hundreds of columns with ~3 entries
        # each, clustered near the diagonal; elimination must stay cheap there
        import random
        import time

        rng = random.Random(0)
        rows, cols = 200, 400
        entries = [[Fraction(0)] * cols for _ in range(rows)]
        for j in range(cols):
            base = (j * rows) // cols
            picks = {base, min(rows - 1, base + rng.randint(1, 4))}
            if j % 7 == 0:
                picks.add(rng.randrange(rows))
            for i in picks:
                entries[i][j] = Fraction(rng.choice((-2, -1, 1, 2)))
        m = RatMatrix.from_rows(entries, cols)
        started = time.perf_counter()
        k = kernel_basis(m)
        elapsed = time.perf_counter() - started
        assert (m @ k).is_zero()
        assert k.cols == m.cols - rank(m)
        assert elapsed < 10.0

    def test_a_matrix_without_entries_is_eliminated_in_linear_time(self):
        # a memo-free 10,000 x 10,000 zero matrix: scanning every (row,
        # column) pair for a pivot takes seconds
        import time

        n = 10_000
        m = RatMatrix._trusted(n, [{} for _ in range(n)])
        started = time.perf_counter()
        assert rank(m) == 0
        assert rref(m) == (RatMatrix.zeros(n, n), [], 0)
        assert time.perf_counter() - started < 1.0

    def test_homology_of_a_large_complex_without_differentials_is_linear(self):
        # H_0 of two degrees of dimension 10,000 and d = 0: the cycles are an
        # identity, whose elimination used to scan every (row, column) pair
        import time

        n = 10_000
        started = time.perf_counter()
        assert homology(make_complex(0, 1, {0: n, 1: n}, {})).dims == {0: n}
        assert time.perf_counter() - started < 1.0

    def test_a_large_permutation_matrix_is_eliminated_in_linear_time(self):
        import time

        n = 10_000
        m = RatMatrix.from_columns(n, [{(7 * j + 3) % n: 1} for j in range(n)])
        started = time.perf_counter()
        assert rank(m) == n
        assert kernel_basis(m) == RatMatrix.zeros(n, 0)
        assert time.perf_counter() - started < 1.0

    def test_resolution_differentials_are_eliminated_without_fill_in(self):
        # the stored rows lead by nondecreasing column; entered in stored
        # order, reduced rows fill the later pivot columns and this took 2 s
        import time

        cx = resolution_complex("scube", 9, 10)
        started = time.perf_counter()
        ranks = [rank(cx.diff[p]) for p in range(11)]
        assert time.perf_counter() - started < 1.0
        assert ranks == [1, 511, 1793, 2815, 2561, 1471, 545, 127, 17, 1, 0]


# -- sparse storage against a dense reference ---------------------------------
#
# The reference below works on lists of lists of Fractions and knows nothing
# of how RatMatrix stores its entries.  Shapes run from 0 to 4, so 0 x n and
# n x 0 matrices are drawn often, and entries are mostly 0 and +-1, like the
# face and coend matrices.

sparse_scalars = st.one_of(st.just(0), st.just(0), st.sampled_from([1, -1]), scalars)


def dense_draw(draw, r, c):
    return [[Fraction(draw(sparse_scalars)) for _ in range(c)] for _ in range(r)]


def build(rows, cols):
    return RatMatrix.from_rows(rows, cols)


def dense(m):
    """Shape and rows of m, read through its public dense accessors, after
    checking that its entries are canonical, that m equals and hashes like
    its rebuild from those rows, that each row's leading column is the
    first nonzero index of the row, and that a matrix without entries is
    the shared one of its shape."""
    assert_canonical(m)
    if m.is_zero():
        assert m is RatMatrix.zeros(m.rows, m.cols)
    rows = [list(m.row(i)) for i in range(m.rows)]
    rebuilt = RatMatrix.from_rows(rows, m.cols)
    assert m == rebuilt and hash(m) == hash(rebuilt)
    for i, row in enumerate(rows):
        assert m.leading_column(i) == next((j for j, x in enumerate(row) if x), None)
    return (m.rows, m.cols, rows)


def ref_matmul(a, b, cols):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(cols)]
            for i in range(len(a))]


def ref_transpose(a, cols):
    return [[a[i][j] for i in range(len(a))] for j in range(cols)]


def ref_pivots(reduced):
    return [next(j for j, v in enumerate(row) if v) for row in reduced if any(row)]


def ref_kernel(a, cols):
    """Columns e_f - sum_i R[i][f] e_{p_i}, one per free column f."""
    reduced = reference_rref(build(a, cols))
    pivots = ref_pivots(reduced)
    columns = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        columns.append(v)
    return ref_transpose(columns, cols) if columns else [[] for _ in range(cols)]


def ref_solve(a, b, a_cols, b_cols):
    joined = [ra + rb for ra, rb in zip(a, b)]
    reduced = reference_rref(build(joined, a_cols + b_cols))
    pivots = ref_pivots(reduced)
    if any(p >= a_cols for p in pivots):
        return None
    x = [[Fraction(0)] * b_cols for _ in range(a_cols)]
    for i, p in enumerate(pivots):
        x[p] = reduced[i][a_cols:]
    return x


def ref_quotient(sub, n, sub_cols):
    reduced = reference_rref(build(ref_transpose(sub, sub_cols), n))
    pivots = ref_pivots(reduced)
    kept = [c for c in range(n) if c not in pivots]
    q = []
    for f in kept:
        row = [Fraction(0)] * n
        row[f] = Fraction(1)
        for i, p in enumerate(pivots):
            row[p] = -reduced[i][f]
        q.append(row)
    return q, kept


@st.composite
def dense_triples(draw):
    """Dense A (r x k), B (k x c) and C (r x k) with their shapes."""
    r, k, c = (draw(st.integers(min_value=0, max_value=4)) for _ in range(3))
    return (r, k, c), dense_draw(draw, r, k), dense_draw(draw, k, c), dense_draw(draw, r, k)


def assert_every_operation_matches_the_dense_reference(triple, s, picks):
    """Every public operation on A, B and C of `dense_triples` against the
    dense reference; picks are the columns of A that column_select takes."""
    (r, k, c), a, b, cc = triple
    ma, mb, mc = build(a, k), build(b, c), build(cc, k)
    assert dense(ma) == (r, k, a)
    for i in range(r):
        for j in range(k):
            assert ma[i, j] == a[i][j]
    for j in range(k):
        assert list(ma.column(j)) == [a[i][j] for i in range(r)]
    assert dense(ma @ mb) == (r, c, ref_matmul(a, b, c))
    assert dense(ma + mc) == (r, k, [[x + y for x, y in zip(p, q)] for p, q in zip(a, cc)])
    assert dense(ma - mc) == (r, k, [[x - y for x, y in zip(p, q)] for p, q in zip(a, cc)])
    assert dense(-ma) == (r, k, [[-x for x in p] for p in a])
    assert dense(ma.scale(s)) == (r, k, [[s * x for x in p] for p in a])
    assert dense(ma.transpose()) == (k, r, ref_transpose(a, k))
    assert dense(hstack(ma, mc)) == (r, 2 * k, [p + q for p, q in zip(a, cc)])
    assert dense(hstack(RatMatrix.zeros(r, 0), ma, mc)) == (r, 2 * k, [p + q for p, q in zip(a, cc)])
    assert dense(block_diag(ma, mb)) == (
        r + k, k + c, [p + [Fraction(0)] * c for p in a] + [[Fraction(0)] * k + q for q in b]
    )
    assert dense(ma.column_select(picks)) == (r, len(picks), [[p[j] for j in picks] for p in a])
    assert dense(ma.transpose().row_select(picks)) == (len(picks), r, [[p[j] for p in a] for j in picks])
    assert dense(RatMatrix.from_columns(r, [ma.sparse_column(j) for j in range(k)])) == (r, k, a)

    reduced, pivots, rk = rref(ma)
    assert dense(reduced) == (r, k, reference_rref(ma))
    assert pivots == ref_pivots(reference_rref(ma)) and rk == len(pivots)
    assert dense(kernel_basis(ma)) == (k, k - rk, ref_kernel(a, k))
    assert dense(image_basis(ma)) == (r, rk, [[p[j] for j in pivots] for p in a])
    want = ref_solve(a, cc, k, k)
    got = solve(ma, mc)
    assert (got is None) == (want is None)
    if got is not None:
        assert dense(got) == (k, k, want)
    q, kept = quotient_with_section(r, ma)
    want_q, want_kept = ref_quotient(a, r, k)
    assert kept == want_kept
    assert dense(q) == (len(kept), r, want_q)


class TestSparseAgainstDense:
    @given(dense_triples(), scalars, st.data())
    @settings(max_examples=200, deadline=None)
    def test_every_operation_matches_the_dense_reference(self, triple, s, data):
        k = triple[0][1]
        picks = data.draw(st.lists(st.integers(min_value=0, max_value=k - 1), max_size=5)) if k else []
        assert_every_operation_matches_the_dense_reference(triple, s, picks)

    @pytest.mark.parametrize("r, k, c", list(product(range(4), repeat=3)))
    def test_every_operation_matches_the_dense_reference_on_zero_matrices(self, r, k, c):
        """Every shape up to 3 x 3, the 0 x n, n x 0 and 0 x 0 ones included,
        with no entries: each result without entries is the shared matrix of
        its shape (checked by `dense`)."""
        def zero(p, q):
            return [[Fraction(0)] * q for _ in range(p)]
        triple = ((r, k, c), zero(r, k), zero(k, c), zero(r, k))
        for s, picks in ((0, []), (1, [0, k - 1, 0] if k else []), (Fraction(-2, 3), list(range(k)))):
            assert_every_operation_matches_the_dense_reference(triple, s, picks)

    @given(mixed_matrices(), mixed_matrices())
    @settings(max_examples=150, deadline=None)
    def test_equal_matrices_from_different_routes_are_equal_and_hash_equal(self, m, other):
        rows = [list(m.row(i)) for i in range(m.rows)]
        columns = [list(m.column(j)) for j in range(m.cols)]
        routes = [
            RatMatrix.from_rows(rows, cols=m.cols),
            RatMatrix.from_columns(m.rows, [dict(enumerate(c)) for c in columns]),
            RatMatrix.from_columns(m.rows, [m.sparse_column(j) for j in range(m.cols)]),
            m.transpose().transpose(),
            -(-m),
            m.scale(2).scale(Fraction(1, 2)),
            m @ RatMatrix.identity(m.cols),
            RatMatrix.identity(m.rows) @ m,
            hstack(m, RatMatrix.zeros(m.rows, 0)),
            block_diag(m, RatMatrix.zeros(0, 0)),
            m.column_select(range(m.cols)),
        ]
        if (other.rows, other.cols) == (m.rows, m.cols):
            routes += [(m + other) - other, (m - other) + other]
        for x in routes:
            assert x == m
            assert hash(x) == hash(m)

    @given(mixed_matrices(), mixed_matrices(), scalars)
    @settings(max_examples=100, deadline=None)
    def test_no_operation_changes_its_operands(self, m, other, s):
        def snapshot(x):
            return dense(x), hash(x)

        square = m @ m.transpose()
        made = [m, other, square, m.transpose(), rref(m)[0], kernel_basis(m), image_basis(m),
                m.scale(s), -m, m + m, hstack(m, m), block_diag(m, other), m.column_select([])]
        before = [snapshot(x) for x in made]
        for x in made:
            # results may share rows with their operands; run every
            # eliminating and combining operation on each of them
            rref(x)
            kernel_basis(x)
            image_basis(x)
            rank(x)
            quotient_with_section(x.rows, x)
            solve(x, x)
            if is_invertible(x):
                inverse(x)
            x @ x.transpose()
            x + x
            x - x
            x.scale(s)
        assert [snapshot(x) for x in made] == before


class TestSparseBuilder:
    """`from_columns`, the one sparse constructor other modules call, and
    its readers `sparse_column` and `row_select`."""

    @given(mixed_matrices(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_from_columns_equals_the_dense_construction(self, m, data):
        # every entry as a Fraction, zeros included, each column's rows in a drawn order
        columns = [
            dict(data.draw(st.permutations([(i, Fraction(e)) for i, e in enumerate(m.column(j))])))
            for j in range(m.cols)
        ]
        built = RatMatrix.from_columns(m.rows, iter(columns))
        assert dense(built) == dense(m)
        assert built == m and hash(built) == hash(m)

    def test_integral_fractions_become_ints_and_zeros_drop(self):
        m = RatMatrix.from_columns(2, [{1: 0, 0: Fraction(4, 2)}, {1: Fraction(0)}, {}])
        assert (m.rows, m.cols) == (2, 3)
        assert type(m[0, 0]) is int and m[0, 0] == 2
        assert [dict(m.sparse_column(j)) for j in range(3)] == [{0: 2}, {}, {}]
        assert RatMatrix.from_columns(4, []) == RatMatrix.zeros(4, 0)

    @pytest.mark.parametrize("row", [-1, 3])
    @pytest.mark.parametrize("value", [1, 0])
    def test_a_row_outside_the_matrix_is_an_index_error(self, row, value):
        with pytest.raises(IndexError, match=f"row {row} outside"):
            RatMatrix.from_columns(3, [{0: 1}, {row: value}])

    # reader: (the axis its index runs along, the read)
    INDEX_READERS = {
        "getitem-row": ("row", lambda m, i: m[i, 0]),
        "row": ("row", lambda m, i: m.row(i)),
        "leading_column": ("row", lambda m, i: m.leading_column(i)),
        "row_select": ("row", lambda m, i: m.row_select([0, i])),
        "getitem-column": ("column", lambda m, j: m[0, j]),
        "column": ("column", lambda m, j: m.column(j)),
        "sparse_column": ("column", lambda m, j: m.sparse_column(j)),
        "column_select": ("column", lambda m, j: m.column_select([0, j])),
    }

    @pytest.mark.parametrize("past_the_end", [False, True])
    @pytest.mark.parametrize("read", list(INDEX_READERS))
    def test_an_index_outside_the_matrix_is_an_index_error(self, read, past_the_end):
        m = M([[1, 2, 0], [0, 3, 4]])
        axis, reader = self.INDEX_READERS[read]
        index = (m.rows if axis == "row" else m.cols) if past_the_end else -1
        with pytest.raises(IndexError, match=f"^{axis} {index} outside a 2x3 matrix$"):
            reader(m, index)

    @given(mixed_matrices(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_sparse_column_and_row_select_read_the_matrix(self, m, data):
        for j in range(m.cols):
            column = m.sparse_column(j)
            assert dict(column) == {i: e for i, e in enumerate(m.column(j)) if e}
            assert list(column) == sorted(column)
            with pytest.raises(TypeError):
                column[0] = 1
        picks = data.draw(st.lists(st.integers(0, m.rows - 1), max_size=6)) if m.rows else []
        assert dense(m.row_select(picks)) == (len(picks), m.cols, [list(m.row(i)) for i in picks])
        assert m.row_select(range(m.rows)) == m


class TestDimensions:
    """The public builders refuse negative dimensions."""

    @pytest.mark.parametrize("build", [
        lambda: RatMatrix.zeros(2, -1),
        lambda: RatMatrix.zeros(-1, 2),
        lambda: RatMatrix.identity(-2),
        lambda: RatMatrix.from_rows([], cols=-3),
        lambda: RatMatrix.from_rows([[]], cols=-1),
        lambda: RatMatrix.from_columns(-1, []),
    ], ids=["zeros-cols", "zeros-rows", "identity", "from-rows", "from-rows-with-a-row", "from-columns"])
    def test_negative_dimensions_are_refused(self, build):
        with pytest.raises(ValueError, match="negative matrix dimensions"):
            build()

    def test_from_rows_is_the_one_dense_builder(self):
        assert "__init__" not in vars(RatMatrix)  # no flat (rows, cols, entries) constructor
        with pytest.raises(ValueError, match="ragged rows"):
            RatMatrix.from_rows([[1, 2], [3]])


# -- integer elimination --------------------------------------------------------
#
# Elimination runs on integer multiples of the rows.  Shapes up to 7 x 7, with
# integer entries that are never +-1 (so leads other than 1 are the rule) or
# with denominators up to 10^6, must give exactly what the Fraction reference
# gives.

non_unit_ints = st.sampled_from([0, 0, 0, 2, -2, 3, -3, 4, -4, 6, -6, 9, 10, -15])
wide_rationals = st.builds(
    Fraction, st.integers(min_value=-(10**6), max_value=10**6), st.integers(min_value=1, max_value=10**6)
)
elimination_scalars = st.one_of(st.just(0), st.sampled_from([1, -1]), non_unit_ints, wide_rationals)


@st.composite
def elimination_systems(draw):
    """Dense A (r x k) and B (r x c), with r, k <= 7: either every entry a
    non-unit integer or zero, or a mix with denominators up to 10^6."""
    r, k = (draw(st.integers(min_value=0, max_value=7)) for _ in range(2))
    c = draw(st.integers(min_value=0, max_value=3))
    entries = draw(st.sampled_from([non_unit_ints, elimination_scalars]))
    a = [[Fraction(draw(entries)) for _ in range(k)] for _ in range(r)]
    b = [[Fraction(draw(entries)) for _ in range(c)] for _ in range(r)]
    return (r, k, c), a, b


def assert_eliminations_match_the_reference(a, b, r, k, c):
    ma, mb = build(a, k), build(b, c)
    reduced, pivots, rk = rref(ma)
    want = reference_rref(ma)
    assert dense(reduced) == (r, k, want)
    assert pivots == ref_pivots(want) and rk == len(pivots) == rank(ma)
    assert dense(kernel_basis(ma)) == (k, k - rk, ref_kernel(a, k))
    assert dense(image_basis(ma)) == (r, rk, [[p[j] for j in pivots] for p in a])
    want_x = ref_solve(a, b, k, c)
    got = solve(ma, mb)
    assert (got is None) == (want_x is None)
    if got is not None:
        assert dense(got) == (k, c, want_x)
    q, kept = quotient_with_section(r, ma)
    want_q, want_kept = ref_quotient(a, r, k)
    assert kept == want_kept
    assert dense(q) == (len(kept), r, want_q)


class TestIntegerElimination:
    @given(elimination_systems(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_every_elimination_matches_the_reference(self, system, data):
        (r, k, c), a, b = system
        assert_eliminations_match_the_reference(a, b, r, k, c)
        # a consistent system too: b = a @ w
        w = [[Fraction(data.draw(non_unit_ints)) for _ in range(c)] for _ in range(k)]
        assert_eliminations_match_the_reference(a, ref_matmul(a, w, c), r, k, c)

    def test_negative_non_unit_lead(self):
        # lead -2: the pivot row is negated, then its lead 2 clears the row
        # below by 2 * [1, 3, 0] - 1 * [2, -4, -1]
        r, pivots, rk = rref(M([[-2, 4, 1], [1, 3, 0]]))
        assert pivots == [0, 1] and rk == 2
        assert r == M([[1, 0, Fraction(-3, 10)], [0, 1, Fraction(1, 10)]])
        assert_canonical(r)
        assert kernel_basis(M([[-2, 4, 1], [1, 3, 0]])) == M([[Fraction(3, 10)], [Fraction(-1, 10)], [1]])

    def test_content_is_divided_out(self):
        assert _integer_row({0: 4, 1: 6}) == {0: 2, 1: 3}
        assert _integer_row({0: Fraction(1, 2), 2: Fraction(-1, 3)}) == {0: 3, 2: -2}
        assert _integer_row({1: Fraction(2, 3), 2: Fraction(4, 3)}) == {1: 1, 2: 2}
        # [4, 6] is taken as [2, 3]; the pivot 2 clears [3, 5] to 2 * [3, 5] -
        # 3 * [2, 3] = [0, 1]
        r, pivots, rk = rref(M([[4, 6], [3, 5]]))
        assert (pivots, rk) == ([0, 1], 2)
        assert r == RatMatrix.identity(2)
        r, pivots, rk = rref(M([[4, 6], [6, 9]]))
        assert (pivots, rk) == ([0], 1)
        assert r == M([[1, Fraction(3, 2)], [0, 0]])
        assert_canonical(r)


def corpus_differentials() -> list[RatMatrix]:
    """Every differential of the seed-0 truncation-5 corpus: the modules'
    own for the chain kinds, their detecting restriction's otherwise."""
    out = []
    for _, x in generate_corpus(CorpusSpec(seed=0, truncation=5)).modules:
        out.extend(detecting_complex(x).diff.values())
    return out


def memo_free(m: RatMatrix) -> RatMatrix:
    """The same entries in a new matrix whose memo is empty."""
    return RatMatrix._trusted(m.cols, m._sparse)


def eliminations(m: RatMatrix) -> dict:
    """Every elimination-backed result on m, plus its transpose."""
    return {
        "rref": rref(m),
        "rank": rank(m),
        "kernel_basis": kernel_basis(m),
        "image_basis": image_basis(m),
        "solve": solve(m, m),
        "solve_identity": solve(m, RatMatrix.identity(m.rows)),
        "quotient_with_section": quotient_with_section(m.rows, m),
        "transpose": m.transpose(),
    }


class TestMemo:
    """A matrix memoizes its elimination, transpose, kernel and image; every
    result read through the memo equals the same call on a memo-free copy."""

    @pytest.fixture(scope="class")
    def differentials(self):
        found = corpus_differentials()
        assert len(found) > 100 and any(not m.is_zero() for m in found)
        return found

    def test_memoized_results_equal_a_memo_free_copy(self, differentials):
        for m in differentials:
            first = eliminations(m)
            second = eliminations(m)  # read from the memo
            assert first == second == eliminations(memo_free(m))

    def test_second_call_reuses_the_memo(self, differentials):
        for m in differentials:
            m = memo_free(m)
            assert m.transpose() is m.transpose()
            kernel_basis(m)
            memo = m._elim
            assert memo is not None
            for call in (rref, rank, kernel_basis, image_basis):
                call(m)
                assert m._elim is memo, call.__name__
            assert kernel_basis(m) is kernel_basis(m)
            assert image_basis(m) is image_basis(m)
            t = m.transpose()
            quotient_with_section(m.rows, m)
            transposed_memo = t._elim
            quotient_with_section(m.rows, m)
            assert m.transpose() is t and t._elim is transposed_memo

    def test_rank_reads_the_memo_and_the_forward_pass_alike(self, differentials):
        for m in differentials:
            fresh = memo_free(m)
            assert rank(fresh) == rank(m) == len(rref(fresh)[1])
            assert fresh._elim is not None and rank(fresh) == len(fresh._elim[0])

    def test_equality_and_hash_do_not_see_the_memo(self, differentials):
        for m in differentials:
            warm, cold = memo_free(m), memo_free(m)
            eliminations(warm)
            assert None not in (warm._elim, warm._transposed, warm._kernel, warm._image)
            assert (cold._elim, cold._transposed, cold._kernel, cold._image) == (None,) * 4
            assert warm == cold and hash(warm) == hash(cold)
            assert warm.transpose() == cold.transpose()

    def test_the_transpose_keeps_no_reference_back(self):
        m = M([[1, 2, 0], [0, 0, 3]])
        t = m.transpose()
        assert t._transposed is None
        assert t.transpose() == m and t.transpose() is not m


class TestSharedEmpties:
    """One matrix per empty shape, shared by every caller, memo included."""

    def test_zeros_is_one_instance_per_shape(self):
        assert RatMatrix.zeros(2, 3) is RatMatrix.zeros(2, 3) is M([[0, 0, 0], [0, 0, 0]])
        assert RatMatrix.zeros(0, 0) is RatMatrix.identity(0)
        assert RatMatrix.zeros(2, 0).transpose().transpose() is RatMatrix.zeros(2, 0)
        assert RatMatrix.zeros(2, 3) is not RatMatrix.zeros(3, 2)
        assert RatMatrix.zeros(2, 3).transpose() is RatMatrix.zeros(3, 2)
        assert _zeros.cache_info().maxsize is not None  # bounded

    @pytest.mark.parametrize("r, c", list(product(range(4), repeat=2)))
    def test_answers_do_not_depend_on_the_order_callers_reach_it(self, r, c):
        zero = RatMatrix.zeros
        want = {
            "rank": 0,
            "kernel_basis": RatMatrix.identity(c),
            "image_basis": zero(r, 0),
            "rref": (zero(r, c), [], 0),
            "solve": zero(c, 1),
            "quotient_with_section": (RatMatrix.identity(r), list(range(r))),
        }
        calls = {
            "rank": rank,
            "kernel_basis": kernel_basis,
            "image_basis": image_basis,
            "rref": rref,
            "solve": lambda m: solve(m, zero(m.rows, 1)),
            "quotient_with_section": lambda m: quotient_with_section(m.rows, m),
        }
        for order in permutations(calls):
            _zeros.cache_clear()  # a fresh shared matrix, with an empty memo
            for name in order:
                shared = zero(r, c)
                assert calls[name](shared) == want[name], (order, name)
                assert zero(r, c) is shared
