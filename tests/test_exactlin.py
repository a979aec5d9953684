from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semihomology.exactlin import (
    RatMatrix,
    hstack,
    image_basis,
    inverse,
    is_invertible,
    kernel_basis,
    quotient_map,
    quotient_with_section,
    rank,
    rational_from_str,
    rational_to_str,
    rref,
    solve,
)
from semihomology.chainkit import euler_characteristic
from semihomology.simplexcat import LinComb, apply_functor, delta, identity_inj, omega_d


def M(rows):
    return RatMatrix.from_rows(rows)


big_ints = st.integers(min_value=-(2**256), max_value=2**256)
rationals = st.builds(Fraction, big_ints, st.integers(min_value=1, max_value=2**64))


@st.composite
def small_matrices(draw, max_dim=4):
    r = draw(st.integers(min_value=0, max_value=max_dim))
    c = draw(st.integers(min_value=0, max_value=max_dim))
    entries = draw(st.lists(st.integers(min_value=-5, max_value=5), min_size=r * c, max_size=r * c))
    return RatMatrix(r, c, entries)


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
    return RatMatrix(r, c, draw(st.lists(scalars, min_size=r * c, max_size=r * c)))


def is_canonical(x) -> bool:
    """An int, or a Fraction that is not integral; never a float."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def assert_canonical(m: RatMatrix) -> None:
    bad = [e for e in m.row_major() if not is_canonical(e)]
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
        a = RatMatrix(1, 1, [Fraction(2)])
        b = RatMatrix(1, 1, [2])
        assert a == b
        assert hash(a) == hash(b)
        assert type(a[0, 0]) is int

    def test_parsed_entries_are_canonical(self):
        assert type(rational_from_str("4/2")) is int
        assert rational_from_str("-3/4") == Fraction(-3, 4)

    @pytest.mark.parametrize("entry", [1.5, 3, None, "1/0", "one", "1//2"])
    def test_bad_string_entries_are_value_errors(self, entry):
        with pytest.raises(ValueError, match="entry"):
            rational_from_str(entry)

    @given(scalars, scalars)
    @settings(max_examples=100, deadline=None)
    def test_lincomb_coefficients_are_canonical(self, a, b):
        f, g = delta(0, 1), delta(1, 1)
        x = LinComb(0, 1, {f: a, g: b})
        y = LinComb.of(g, b).scale(Fraction(1, 3))
        combos = [
            x, y, x + y, x - y, x.scale(a), LinComb.of(f, a),
            apply_functor("u_delta", omega_d(2)).compose(x),
            x.compose(LinComb.of(identity_inj(0), b)),
        ]
        for lc in combos:
            assert all(is_canonical(c) for c in lc.terms.values()), lc
        assert all(type(c) is int for c in apply_functor("v", delta(0, 2)).terms.values())

    @pytest.mark.parametrize("dims, chi", [({0: 1, 1: 2}, -1), ({-1: 1, 0: 3}, 2), ({}, 0)])
    def test_euler_characteristic_is_an_int(self, dims, chi):
        got = euler_characteristic(dims)
        assert got == chi and type(got) is int

    @pytest.mark.parametrize("build", [
        lambda: RatMatrix(1, 1, [0.1]),
        lambda: RatMatrix(1, 2, [1, 2.0]),
        lambda: M([[1, 2]]).scale(0.5),
        lambda: LinComb(0, 1, {delta(0, 1): 0.25}),
        lambda: LinComb.of(delta(0, 1), 1.0),
        lambda: LinComb.of(delta(0, 1)).scale(0.5),
    ], ids=["matrix", "mixed-matrix", "matrix-scale", "lincomb", "lincomb-of", "lincomb-scale"])
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
        assert quotient_map(2, RatMatrix.zeros(2, 0)) == RatMatrix.identity(2)

    def test_diagonal_line(self):
        q = quotient_map(2, M([[1], [1]]))
        assert (q.rows, q.cols) == (1, 2)
        assert (q @ M([[1], [1]])).is_zero()

    def test_full_subspace(self):
        q = quotient_map(1, M([[1]]))
        assert (q.rows, q.cols) == (0, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            quotient_map(3, M([[1], [1]]))

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
        b = a @ RatMatrix(a.cols, 1, w)
        x = solve(a, b)
        assert x is not None
        assert a @ x == b


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
            assert rational_to_str(rational_from_str(s)) == s

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
        entries = [Fraction(0)] * (rows * cols)
        for j in range(cols):
            base = (j * rows) // cols
            picks = {base, min(rows - 1, base + rng.randint(1, 4))}
            if j % 7 == 0:
                picks.add(rng.randrange(rows))
            for i in picks:
                entries[i * cols + j] = Fraction(rng.choice((-2, -1, 1, 2)))
        m = RatMatrix(rows, cols, entries)
        started = time.perf_counter()
        k = kernel_basis(m)
        elapsed = time.perf_counter() - started
        assert (m @ k).is_zero()
        assert k.cols == m.cols - rank(m)
        assert elapsed < 10.0
