import copy
import hashlib
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semihomology.diagmod import generators_for, token
from semihomology.simplexcat import (
    FUNCTORS,
    KIND_LOWER,
    CubeMap,
    DWord,
    Differential,
    InjMap,
    LinComb,
    X,
    apply_functor,
    coface_factorization,
    compose,
    compose_cube,
    compose_inj,
    cube_coface_factorization,
    cube_delta,
    d_lower,
    delta,
    hom_basis,
    identity_cube,
    identity_inj,
    omega_d,
    strictly_decreasing_basis,
    _trusted,
)

N_MAX = 5


class TestCompose:
    def test_simplicial_relation_everywhere(self):
        # delta^j o delta^i == delta^i o delta^{j-1} for i < j
        for n in range(1, N_MAX + 1):
            for j in range(n + 1):
                for i in range(j):
                    lhs = compose_inj(delta(j, n), delta(i, n - 1))
                    rhs = compose_inj(delta(i, n), delta(j - 1, n - 1))
                    assert lhs == rhs

    def test_cubical_relation_everywhere(self):
        for n in range(2, N_MAX + 1):
            for j in range(1, n + 1):
                for i in range(1, j):
                    for eps, eta in product((0, 1), repeat=2):
                        lhs = compose_cube(cube_delta(j, eta, n), cube_delta(i, eps, n - 1))
                        rhs = compose_cube(cube_delta(i, eps, n), cube_delta(j - 1, eta, n - 1))
                        assert lhs == rhs

    def test_pointwise_example(self):
        lhs = compose_inj(delta(1, 2), delta(0, 1))
        rhs = compose_inj(delta(0, 2), delta(0, 1))
        assert lhs == rhs == InjMap(0, 2, (2,))

    def test_identity_neutral(self):
        f = InjMap(1, 3, (0, 2))
        assert compose_inj(identity_inj(3), f) == f
        assert compose_inj(f, identity_inj(1)) == f

    def test_initial_object(self):
        empty = identity_inj(-1)
        assert compose_inj(delta(0, 0), empty) == delta(0, 0)

    def test_cube_example(self):
        lhs = compose_cube(cube_delta(2, 1, 2), cube_delta(1, 0, 1))
        rhs = compose_cube(cube_delta(1, 0, 2), cube_delta(1, 1, 1))
        assert lhs == rhs == CubeMap(0, 2, (0, 1))

    def test_injectivity_preserved(self):
        f = compose_cube(cube_delta(3, 0, 3), cube_delta(1, 1, 2))
        assert f.source <= f.target

    def test_boundary_mismatch(self):
        with pytest.raises(ValueError):
            compose_inj(delta(0, 1), delta(0, 1))


class TestComposeMemo:
    """`compose` is memoized in a bounded cache; every answer it gives equals
    the unmemoized composition, however often the pair is asked for."""

    @pytest.mark.parametrize("kind", ["ssimp", "aug_ssimp", "scube"])
    def test_memoized_compose_equals_the_direct_one(self, kind):
        direct = compose_cube if kind == "scube" else compose_inj
        degrees = range(KIND_LOWER[kind], 5)
        pairs = 0
        for m, n, p in product(degrees, repeat=3):
            if not m <= n <= p:
                continue
            for g, f in product(hom_basis(kind, n, p), hom_basis(kind, m, n)):
                want = direct(g, f)
                assert compose(g, f) == want
                assert compose(g, f) == want  # the second answer may come from the cache
                pairs += 1
        assert pairs > 100

    def test_repeated_pair_is_a_cache_hit(self):
        compose.cache_clear()
        g, f = delta(0, 2), delta(1, 1)
        first = compose(g, f)
        assert compose(g, f) is first
        assert compose.cache_info().hits == 1
        assert compose.cache_info().maxsize is not None  # bounded

    @pytest.mark.parametrize("g, f, error", [
        (delta(0, 1), delta(0, 1), ValueError),
        (cube_delta(1, 0, 2), cube_delta(1, 1, 3), ValueError),
        (delta(0, 1), cube_delta(1, 0, 1), TypeError),
    ], ids=["inj-boundary", "cube-boundary", "mixed-categories"])
    def test_a_failed_composition_raises_on_every_call(self, g, f, error):
        for _ in range(3):
            with pytest.raises(error):
                compose(g, f)


class TestHomBasis:
    def test_counts_against_formula(self):
        for n in range(0, 7):
            for m in range(0, n + 1):
                assert len(hom_basis("ssimp", m, n)) == comb(n + 1, m + 1)
                assert len(hom_basis("scube", m, n)) == comb(n, m) * 2 ** (n - m)
        for n in range(-1, 7):
            for m in range(-1, n + 1):
                assert len(hom_basis("aug_ssimp", m, n)) == comb(n + 1, m + 1)

    def test_counts_against_brute_force(self):
        # independent route: filter all functions / all token vectors
        for m in range(0, 5):
            for n in range(m, 6):
                monotone = [
                    v
                    for v in product(range(n + 1), repeat=m + 1)
                    if all(a < b for a, b in zip(v, v[1:]))
                ]
                assert len(hom_basis("ssimp", m, n)) == len(monotone)
        tokens = lambda m: ["0", "1"] + [f"x{i}" for i in range(1, m + 1)]
        for m in range(0, 4):
            for n in range(m, 5):
                legal = 0
                for v in product(tokens(m), repeat=n):
                    coords = [t for t in v if t not in ("0", "1")]
                    if coords == [f"x{i}" for i in range(1, m + 1)]:
                        legal += 1
                assert len(hom_basis("scube", m, n)) == legal

    def test_examples(self):
        assert len(hom_basis("ssimp", 0, 1)) == 2
        assert hom_basis("scube", 0, 1) == (cube_delta(1, 0, 1), cube_delta(1, 1, 1))
        assert hom_basis("scube", 3, 3) == (identity_cube(3),)
        assert hom_basis("aug_ssimp", -1, -1) == (identity_inj(-1),)

    def test_duplicate_free(self):
        for m in range(0, 4):
            for n in range(m, 5):
                basis = hom_basis("scube", m, n)
                assert len(set(basis)) == len(basis)

    def test_cube_basis_follows_the_token_order(self):
        # reference: the order of the token spelling "cube m->n [1,x1,0]",
        # constants before coordinates, "0" before "1", coordinates by index
        def token_key(text: str):
            tokens = [t for t in text[text.index("[") + 1:-1].split(",") if t]
            return [(0, int(t)) if t in ("0", "1") else (1, int(t[1:])) for t in tokens]

        for n in range(0, 7):
            for m in range(0, n + 1):
                texts = [f.text() for f in hom_basis("scube", m, n)]
                assert texts == sorted(set(texts), key=token_key)
                assert len(texts) == comb(n, m) * 2 ** (n - m)


class TestCubePatterns:
    @pytest.mark.parametrize("source, target, pattern", [
        (1, 2, (X, X)),
        (1, 2, (0, 1)),
        (2, 2, (X,)),
        (1, 2, (X, 3)),
        (1, 2, (-1, X)),
        (0, 1, ("0",)),
        (1, 1, ("x1",)),
    ])
    def test_rejects_bad_patterns(self, source, target, pattern):
        with pytest.raises(ValueError):
            CubeMap(source, target, pattern)

    def test_compose_substitutes_in_order(self):
        g = CubeMap(2, 4, (X, 1, 0, X))
        f = CubeMap(1, 2, (0, X))
        assert compose_cube(g, f) == CubeMap(1, 4, (0, 1, 0, X))
        assert compose_cube(g, f).text() == "cube 1->4 [0,1,0,x1]"


class TestFactorizations:
    def test_identity_factors_empty(self):
        assert coface_factorization(identity_inj(3)) == []

    def test_single_generator(self):
        assert coface_factorization(delta(0, 0)) == [delta(0, 0)]

    def test_point_into_plane(self):
        word = coface_factorization(InjMap(0, 2, (2,)))
        assert word == [delta(1, 2), delta(0, 1)]

    def test_round_trip_all_injections(self):
        for kind, m0 in (("ssimp", 0), ("aug_ssimp", -1)):
            for m in range(m0, 6):
                for n in range(m, 7):
                    for f in hom_basis(kind, m, n):
                        word = coface_factorization(f)
                        assert all(a.complement() > b.complement() for a, b in zip(word, word[1:]))
                        acc = identity_inj(m)
                        for g in reversed(word):
                            acc = compose_inj(g, acc)
                        assert acc == f

    def test_cube_round_trip(self):
        for m in range(0, 6):
            for n in range(m, 7):
                for f in hom_basis("scube", m, n):
                    acc = identity_cube(m)
                    for g in reversed(cube_coface_factorization(f)):
                        acc = compose_cube(g, acc)
                    assert acc == f


class TestFunctors:
    def test_v_on_bottom_coface(self):
        got = apply_functor("v", delta(0, 0))
        want = LinComb(0, 1, {cube_delta(1, 1, 1): 1, cube_delta(1, 0, 1): -1})
        assert got == want

    def test_u_delta_d1(self):
        got = apply_functor("u_delta", omega_d(1))
        want = LinComb(0, 1, {delta(0, 1): 1, delta(1, 1): -1})
        assert got == want

    def test_images_land_between_shifted_endpoints(self):
        shifts = {"u_delta": 0, "u_a": 0, "u_square": 0, "v": 1, "j0": 1, "j1": 1}
        assert set(FUNCTORS) == set(shifts)
        for which, shift in shifts.items():
            assert FUNCTORS[which][2] == shift
            for n in (1, 2, 3):  # d(n) and delta(0, n) both go n - 1 -> n
                g = omega_d(n) if FUNCTORS[which][0] in ("chain0", "chain_neg1") else delta(0, n)
                got = apply_functor(which, g)
                assert (got.source, got.target) == (n - 1 + shift, n + shift)

    def test_d0_not_in_nonaugmented_source(self):
        with pytest.raises(ValueError):
            apply_functor("u_delta", omega_d(0))
        with pytest.raises(ValueError):
            apply_functor("u_square", omega_d(0))
        assert apply_functor("u_a", omega_d(0)) == LinComb.of(delta(0, 0))

    def test_differential_squares_to_zero(self):
        for which in ("u_delta", "u_a", "u_square"):
            lo = 0 if which == "u_a" else 1
            for n in range(lo, N_MAX):
                outer = apply_functor(which, omega_d(n + 1))
                inner = apply_functor(which, omega_d(n))
                assert not outer.compose(inner).terms

    def test_embeddings_multiplicative(self):
        for m in range(-1, 3):
            for q in range(m, 4):
                for n in range(q, 4):
                    for f in hom_basis("aug_ssimp", m, q):
                        for g in hom_basis("aug_ssimp", q, n):
                            gf = compose_inj(g, f)
                            for which in ("j0", "j1", "v"):
                                lhs = apply_functor(which, gf)
                                rhs = apply_functor(which, g).compose(apply_functor(which, f))
                                assert lhs == rhs

    def test_v_after_u_a_is_cubical_differential_shifted(self):
        # v sends [n] to the (n+1)-cube, so the composite lands one degree up
        for n in range(0, N_MAX + 1):
            lhs = _apply_termwise("v", apply_functor("u_a", omega_d(n)))
            # the cube differential: sum over i of (-1)^(i-1) (delta^1_i - delta^0_i)
            cube_sum = LinComb(n, n + 1, {
                cube_delta(i, color, n + 1): (-1) ** (i - 1) * (1 if color else -1)
                for i in range(1, n + 2) for color in (0, 1)
            })
            assert lhs == cube_sum == apply_functor("u_square", omega_d(n + 1))


def _apply_termwise(which: str, comb: LinComb) -> LinComb:
    """The functor extended linearly to a combination, one term at a time."""
    terms: dict = {}
    for f, c in comb.terms.items():
        for h, ch in apply_functor(which, f).terms.items():
            terms[h] = terms.get(h, 0) + c * ch
    shift = FUNCTORS[which][2]
    return LinComb(comb.source + shift, comb.target + shift, terms)


class TestDLower:
    def test_bottom_tail_is_differential(self):
        for n in range(1, N_MAX + 1):
            assert d_lower(0, n) == apply_functor("u_delta", omega_d(n))

    def test_top_tail_single_term(self):
        for n in range(1, N_MAX + 1):
            assert d_lower(n, n) == LinComb(n - 1, n, {delta(n, n): Fraction(-1) ** n})

    def test_key_identity(self):
        assert not d_lower(1, 2).compose(d_lower(1, 1)).terms
        for n in range(1, N_MAX):
            for i in range(n + 1):
                assert not d_lower(i, n + 1).compose(d_lower(i, n)).terms

    def test_augmented_range(self):
        assert d_lower(0, 0, "aug_ssimp") == LinComb.of(delta(0, 0))
        with pytest.raises(ValueError):
            d_lower(0, 0, "ssimp")
        with pytest.raises(ValueError):
            d_lower(3, 2)


class TestDecreasingBasis:
    def test_identity_only_on_diagonal(self):
        words = strictly_decreasing_basis("ssimp", 2, 2)
        assert len(words) == 1 and words[0].indices == ()
        assert words[0].expand() == LinComb.of(identity_inj(2))

    def test_two_tails_example(self):
        words = strictly_decreasing_basis("ssimp", 0, 1)
        assert [w.indices for w in words] == [(0,), (1,)]

    def test_augmentation_generator(self):
        words = strictly_decreasing_basis("aug_ssimp", -1, 0)
        assert len(words) == 1
        assert words[0].expand() == apply_functor("u_a", omega_d(0))

    def test_counts_match_hom_dimension(self):
        for kind, m0 in (("ssimp", 0), ("aug_ssimp", -1)):
            for m in range(m0, N_MAX + 1):
                for n in range(m, N_MAX + 1):
                    words = strictly_decreasing_basis(kind, m, n)
                    assert len(words) == comb(n + 1, m + 1)

    def test_matches_brute_force_enumeration(self):
        # index i_k of stage k ranges over 0..k; keep the strictly decreasing
        # words, which product already yields in sorted order
        for kind, m0 in (("ssimp", 0), ("aug_ssimp", -1)):
            for n in range(m0, 8):
                for m in range(m0, n + 1):
                    stages = [range(k + 1) for k in range(n, m, -1)]
                    want = [w for w in product(*stages)
                            if all(a > b for a, b in zip(w, w[1:]))]
                    words = strictly_decreasing_basis(kind, m, n)
                    assert [w.indices for w in words] == want, (kind, m, n)
                    assert {(w.kind, w.source, w.target) for w in words} == {(kind, m, n)}


@st.composite
def composable_injections(draw):
    m = draw(st.integers(min_value=-1, max_value=3))
    q = draw(st.integers(min_value=m, max_value=4))
    n = draw(st.integers(min_value=q, max_value=5))
    f = draw(st.sampled_from(hom_basis("aug_ssimp", m, q)))
    g = draw(st.sampled_from(hom_basis("aug_ssimp", q, n)))
    return g, f


class TestLinComb:
    @given(composable_injections())
    @settings(max_examples=100, deadline=None)
    def test_composition_matches_pointwise(self, pair):
        g, f = pair
        assert LinComb.of(g).compose(LinComb.of(f)) == LinComb.of(compose(g, f))

    def test_zero_absorbs(self):
        d = apply_functor("u_delta", omega_d(1))
        assert d.compose(LinComb(-1, 0)) == LinComb(-1, 1)
        assert LinComb(1, 2).compose(d) == LinComb(0, 2)
        assert LinComb(0, 1, {delta(0, 1): 0}) == LinComb(0, 1)

    def test_text_forms(self):
        assert InjMap(1, 3, (0, 2)).text() == "inj 1->3 {0,2}"
        assert CubeMap(1, 2, (0, X)).text() == "cube 1->2 [0,x1]"


def rebuilt(f):
    """f through the public, validating constructor."""
    if isinstance(f, InjMap):
        return InjMap(f.source, f.target, f.image)
    return CubeMap(f.source, f.target, f.pattern)


def rebuilt_comb(c: LinComb) -> LinComb:
    return LinComb(c.source, c.target, {rebuilt(f): v for f, v in c.terms.items()})


class TestTrustedConstruction:
    """Composites, hom bases and functor images are built without
    re-validation; the public constructors accept every one of them."""

    N = 4

    def test_every_composite_up_to_four_passes_the_public_constructor(self):
        checked = 0
        for kind in ("ssimp", "aug_ssimp", "scube"):
            low = -1 if kind == "aug_ssimp" else 0
            for m in range(low, self.N + 1):
                for q in range(m, self.N + 1):
                    for n in range(q, self.N + 1):
                        for f in hom_basis(kind, m, q):
                            rebuilt(f)
                            for g in hom_basis(kind, q, n):
                                h = compose(g, f)
                                assert type(h) is type(f)
                                assert rebuilt(h) == h and hash(rebuilt(h)) == hash(h)
                                lin = LinComb.of(g).compose(LinComb.of(f))
                                assert rebuilt_comb(lin) == lin == LinComb.of(h)
                                checked += 1
        assert checked == 1446

    def test_functor_images_pass_the_public_constructors(self):
        for m in range(-1, self.N + 1):
            for n in range(m, self.N + 1):
                for f in hom_basis("aug_ssimp", m, n):
                    for which in ("v", "j0", "j1"):
                        image = apply_functor(which, f)
                        assert rebuilt_comb(image) == image
                        assert apply_functor(which, f) is image  # cached

    def test_public_constructors_still_check(self):
        with pytest.raises(ValueError):
            InjMap(1, 2, (1, 0))
        with pytest.raises(ValueError):
            CubeMap(1, 2, (X, X))
        with pytest.raises(ValueError):
            LinComb(0, 1, {delta(0, 2): 1})

    def test_composite_coefficients_stay_canonical(self):
        half = LinComb(0, 1, {delta(0, 1): Fraction(1, 2)})
        two = LinComb(0, 0, {identity_inj(0): 2})
        ((_, c),) = half.compose(two).terms.items()
        assert c == 1 and type(c) is int


def every_hom_set(top: int = 5):
    """Every hom basis m -> n <= top of the three index kinds."""
    for kind in ("ssimp", "aug_ssimp", "scube"):
        for m in range(KIND_LOWER[kind], top + 1):
            for n in range(m, top + 1):
                yield hom_basis(kind, m, n)


def every_generator(top: int = 5):
    for kind in KIND_LOWER:
        yield from generators_for(kind, top)


def unchecked(value):
    """value rebuilt by tuple.__new__ alone, through _trusted."""
    return _trusted(type(value), *value[1:])


class TestTaggedTuples:
    """Normal forms and the chain generators d(n) are tuples: a normal form
    is (class name, source, target, image | pattern), d(n) ("Differential",
    n - 1, n), so hashing, equality and ordering run in tuple's own code."""

    def values(self):
        for basis in every_hom_set():
            yield from basis
        yield from every_generator()

    def test_public_and_unchecked_constructions_agree(self):
        checked = 0
        for v in self.values():
            public = Differential(v.target) if isinstance(v, Differential) else rebuilt(v)
            for w in (public, unchecked(v)):
                assert type(w) is type(v) and w == v and hash(w) == hash(v)
            checked += 1
        assert checked == 693

    def test_hom_basis_comes_in_value_order_and_generators_in_token_order(self):
        for basis in every_hom_set():
            assert list(basis) == sorted(basis)
        for kind in KIND_LOWER:
            gens = generators_for(kind, 5)
            # by degree, then by the index and color the token names
            assert list(gens) == sorted(gens, key=lambda g: (g.target, *map(int, token(g).split()[1:-1])))

    def test_values_of_different_types_never_compare_equal(self):
        seen = set()
        for v in self.values():
            # the same fields under another tag, or under none
            for other in {InjMap, CubeMap, Differential, DWord} - {type(v)}:
                assert _trusted(other, *v[1:]) != v
            assert v != v[1:]
            assert v not in ("valid", "check_map", ("restrict", "v"))  # memo keys
            seen.add(v)
        # 364 cube maps, 127 injections, 6 differentials: the cofaces are
        # hom-basis elements, the simplicial kinds share their injections and
        # the chain kinds their d(n)
        assert len(seen) == 497
        assert InjMap(0, 1, (0,)) != CubeMap(0, 1, (0,))

    def test_fields_cannot_be_assigned(self):
        for v in self.values():
            for name in v._fields:
                with pytest.raises(AttributeError):
                    setattr(v, name, 0)
        with pytest.raises(AttributeError):
            delta(0, 1).extra = 0

    def test_repr_text(self):
        assert repr(delta(0, 1)) == "InjMap(source=0, target=1, image=(1,))"
        assert repr(identity_inj(-1)) == "InjMap(source=-1, target=-1, image=())"
        assert repr(cube_delta(1, 0, 2)) == "CubeMap(source=1, target=2, pattern=(0, 2))"
        assert repr(omega_d(2)) == "Differential(source=1, target=2)"
        assert repr(strictly_decreasing_basis("ssimp", 0, 2)[0]) == (
            "DWord(kind='ssimp', source=0, target=2, indices=(1, 0))")
        for v in self.values():
            fields = ", ".join(f"{name}={getattr(v, name)!r}" for name in v._fields)
            assert repr(v) == f"{type(v).__name__}({fields})"

    def test_copy_and_pickle_give_an_equal_value_of_the_same_type(self):
        words = [w for n in range(4) for m in range(-1, n + 1)
                 for w in strictly_decreasing_basis("aug_ssimp", m, n)]
        checked = 0
        for v in [*self.values(), *words]:
            for w in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
                assert type(w) is type(v) and w == v and hash(w) == hash(v)
            checked += 1
        assert checked == 693 + 30
        assert copy.copy(DWord("ssimp", 0, 1, (1,))) == DWord("ssimp", 0, 1, (1,))

    @pytest.mark.parametrize("cls", [InjMap, CubeMap, Differential, DWord])
    def test_hashing_equality_and_order_are_tuples_own(self, cls):
        assert cls.__hash__ is tuple.__hash__
        assert cls.__eq__ is tuple.__eq__
        assert cls.__lt__ is tuple.__lt__

    def test_report_bytes_do_not_depend_on_the_hash_seed(self):
        """The tags are strings, whose hashes depend on PYTHONHASHSEED; no
        output may depend on them."""
        src = Path(__file__).resolve().parent.parent / "src"
        digests = set()
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}
            env.pop("SEMIHOMOLOGY_MAX_TRUNC", None)
            done = subprocess.run(
                [sys.executable, "-m", "semihomology", "battery", "--seed", "0", "--trunc", "5",
                 "--format", "json"],
                env=env, capture_output=True, timeout=300,
            )
            assert done.returncode == 1, done.stderr  # the documented u_delta failures
            digests.add(hashlib.sha256(done.stdout).hexdigest())
        assert len(digests) == 1
