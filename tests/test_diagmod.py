import dataclasses
import json
import random
import re
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semihomology.diagmod import (
    CHAIN_KINDS,
    KIND_LOWER,
    MODULE_FORMAT,
    DiagramModule,
    ModuleMap,
    _relations,
    act,
    check_map,
    compose_maps,
    direct_sum,
    generator_tokens,
    generators_for,
    identity_map,
    kind_lower,
    make_module,
    map_from_obj,
    map_to_json,
    map_to_obj,
    module_from_json,
    module_from_obj,
    module_to_json,
    module_to_obj,
    representable,
    sum_inclusion,
    sum_projection,
    token,
    truncate_module,
    validate,
    yoneda_map,
    zero_module,
)
from semihomology.exactlin import RatMatrix
from semihomology.simplexcat import (
    LinComb,
    apply_functor,
    CubeMap,
    InjMap,
    OMIT,
    X,
    coface_factorization,
    compose,
    cube_delta,
    delta,
    hom_basis,
    identity_inj,
    omega_d,
)
from semihomology.chainkit import make_complex
from semihomology.transport import restrict, restrict_map

N = 4


class TestValidate:
    def test_representables_validate(self):
        # every object within truncation 6, all kinds
        for kind, objs in (
            ("ssimp", range(0, 7)),
            ("aug_ssimp", range(-1, 7)),
            ("scube", range(0, 7)),
        ):
            for c in objs:
                assert validate(representable(kind, c, 6)), (kind, c)

    def test_zero_module_ok(self):
        assert validate(zero_module("scube", N))

    def test_deliberate_violation_located(self):
        # dims all 1; delta(0, n) acts by 1, delta(1, n) by 2 -- breaks the relation
        dims = {0: 1, 1: 1, 2: 1}
        actions = {}
        for g in generators_for("ssimp", 2):
            val = 1 if g == delta(0, g.target) else 2
            actions[g] = RatMatrix.from_rows([[val]])
        x = make_module("ssimp", 2, dims, actions)
        report = validate(x)
        assert not report
        assert "degree 2" in report.witness["message"]

    def test_chain_square_zero(self):
        good = make_module(
            "chain0", 2, {0: 1, 1: 1, 2: 1},
            {omega_d(1): RatMatrix.from_rows([[1]]), omega_d(2): RatMatrix.from_rows([[0]])},
        )
        assert validate(good)
        bad = make_module(
            "chain0", 2, {0: 1, 1: 1, 2: 1},
            {omega_d(1): RatMatrix.from_rows([[1]]), omega_d(2): RatMatrix.from_rows([[1]])},
        )
        assert not validate(bad)


class TestGenerators:
    """A generator is its coface normal form, or d(n) for a chain kind, and
    the token table names each one."""

    @pytest.mark.parametrize("kind", KIND_LOWER)
    def test_token_table_cofaces_and_words(self, kind):
        for t in range(kind_lower(kind), 7):
            gens = generators_for(kind, t)
            table = generator_tokens(kind, t)
            # a bijection between the tokens and generators_for, in its order
            assert tuple(table.values()) == gens and len(set(gens)) == len(gens)
            assert [token(g) for g in gens] == list(table)
            if kind in CHAIN_KINDS:
                assert gens == tuple(omega_d(n) for n in range(kind_lower(kind) + 1, t + 1))
                continue
            for g in gens:
                n = g.target
                assert g in hom_basis(kind, n - 1, n)
            for m in range(kind_lower(kind), t + 1):
                for n in range(m, t + 1):
                    for f in hom_basis(kind, m, n):
                        assert set(coface_factorization(f)) <= set(generators_for(kind, f.target))


class TestMakeModuleWindow:
    def test_out_of_window_dims_key_is_named(self):
        with pytest.raises(ValueError, match=r"dims key '5' is outside the truncation window \[0, 2\]"):
            make_complex(0, 2, {0: 1, 1: 1, 5: 3}, {3: RatMatrix.from_rows([[1]])})

    def test_out_of_window_differential_is_named(self):
        with pytest.raises(ValueError, match=r"action 'd 3' is not a generator of kind chain0"):
            make_complex(0, 2, {0: 1, 1: 1}, {3: RatMatrix.from_rows([[1]])})

    def test_foreign_generator_is_named(self):
        with pytest.raises(ValueError, match=r"action 'd 1' is not a generator of kind ssimp"):
            make_module("ssimp", 1, {0: 1}, {omega_d(1): RatMatrix.zeros(1, 0)})

    @pytest.mark.parametrize("token", [
        "", "d 01", "d +1", "d 1_0", "d \u0663", " d 1", "d 1 ", "d  1", "delta 0 1",
    ])
    def test_non_canonical_action_key_is_named(self, token):
        # the canonical "d 1" comes first, so an alias of it would overwrite it
        obj = {"format": MODULE_FORMAT, "kind": "chain0", "truncation": 3, "dims": {"0": 1, "1": 1},
               "actions": {"d 1": [["1"]], token: [["0"]]}}
        says = f"action '{token}' is not a generator of kind chain0 inside the truncation window [0, 3]"
        with pytest.raises(ValueError, match=re.escape(says)):
            module_from_obj(obj)

    @pytest.mark.parametrize("dims, key", [
        ({0: 1.7, 1: True}, 0),
        ({0: 1, 1: True}, 1),
        ({0: "2"}, 0),
        ({0: 1, 1: 2.0}, 1),
        ({0: Fraction(1)}, 0),
    ])
    def test_non_int_dimension_is_named(self, dims, key):
        with pytest.raises(ValueError, match=rf"dims '{key}' must be an int"):
            make_module("ssimp", 1, dims, {})


def _fresh(x):
    """An equal module (or map) with an empty memo."""
    if isinstance(x, ModuleMap):
        return ModuleMap(_fresh(x.source), _fresh(x.target), x.components)
    return DiagramModule(x.kind, x.truncation, x.dims, x.actions)


class TestImmutable:
    def test_fields_cannot_be_assigned(self):
        x = representable("ssimp", 1, N)
        f = identity_map(x)
        with pytest.raises(dataclasses.FrozenInstanceError):
            x.truncation = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            x.dims = {}
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.source = x

    def test_mappings_cannot_be_written(self):
        x = representable("ssimp", 1, N)
        g = delta(0, 1)
        f = identity_map(x)
        with pytest.raises(TypeError):
            x.dims[0] = 5
        with pytest.raises(TypeError):
            x.actions[g] = RatMatrix.zeros(2, 1)
        with pytest.raises(TypeError):
            f.components[0] = RatMatrix.zeros(2, 2)
        lc = apply_functor("v", g)
        with pytest.raises(TypeError):
            lc.terms[next(iter(lc.terms))] = 2

    def test_construction_copies_the_mappings(self):
        dims = {0: 1}
        x = DiagramModule("ssimp", 0, dims, {})
        dims[0] = 2
        assert x.dim(0) == 1


class TestMemo:
    def test_restrict_is_shared_and_equals_a_fresh_restriction(self):
        for which, x in (
            ("u_delta", representable("ssimp", 2, N)),
            ("u_a", representable("aug_ssimp", 1, N)),
            ("u_square", representable("scube", 2, N)),
            ("v", representable("scube", 2, N)),
        ):
            assert restrict(which, x) is restrict(which, x)
            assert restrict(which, x) == restrict(which, _fresh(x))

    def test_restrict_map_is_shared_and_equals_a_fresh_restriction(self):
        for which, f in (
            ("u_delta", yoneda_map("ssimp", delta(0, 2), N)),
            ("u_a", yoneda_map("aug_ssimp", delta(0, 0), N)),
            ("u_square", yoneda_map("scube", cube_delta(1, 0, 2), N)),
            ("v", yoneda_map("scube", cube_delta(2, 1, 2), N)),
        ):
            assert restrict_map(which, f) is restrict_map(which, f)
            assert restrict_map(which, f) == restrict_map(which, _fresh(f))
            assert restrict_map(which, f).source is restrict(which, f.source)

    def test_act_is_shared_and_equals_a_fresh_action(self):
        x = representable("scube", 2, N)
        for f in hom_basis("scube", 1, 3):
            assert act(x, f) is act(x, f)
            assert act(x, f) == act(_fresh(x), f)

    def test_check_map_verdict_is_shared(self):
        good = identity_map(representable("ssimp", 1, N))
        bad = ModuleMap(good.source, good.target, {**good.components, 0: RatMatrix.from_rows([[1, 1], [0, 1]])})
        for f in (good, bad):
            assert check_map(f) is check_map(f)
            assert check_map(f) == check_map(_fresh(f))
        assert check_map(good) and not check_map(bad)

    def test_functor_images_are_shared_and_equal_fresh_ones(self):
        for which, g in (
            ("v", delta(1, 2)),
            ("j0", delta(0, 1)),
            ("u_delta", omega_d(3)),
            ("u_square", omega_d(2)),
        ):
            assert apply_functor(which, g) is apply_functor(which, g)
            if isinstance(g, InjMap):  # an equal value built afresh shares the image
                assert apply_functor(which, g) is apply_functor(which, InjMap(g.source, g.target, g.pattern))
        assert apply_functor("u_a", omega_d(2)) == LinComb(1, 2, {delta(i, 2): (-1) ** i for i in range(3)})
        assert delta(1, 3) is delta(1, 3)
        assert delta(1, 3) == InjMap(2, 3, (X, OMIT, X, X))
        assert cube_delta(2, 1, 2) == CubeMap(1, 2, (X, 1))


class TestRepresentable:
    def test_cube_interval_dims(self):
        x = representable("scube", 1, N)
        assert [x.dim(n) for n in range(N + 1)] == [2, 1, 0, 0, 0]

    def test_augmented_point_dims_and_bottom_action(self):
        x = representable("aug_ssimp", 0, N)
        assert x.dim(-1) == 1 and x.dim(0) == 1
        assert all(x.dim(n) == 0 for n in range(1, N + 1))
        assert x.actions[delta(0, 0)] == RatMatrix.identity(1)

    def test_dims_are_hom_counts(self):
        for c in range(0, N + 1):
            x = representable("ssimp", c, N)
            for n in range(0, N + 1):
                assert x.dim(n) == (comb(c + 1, n + 1) if n <= c else 0)


class TestAct:
    def test_identity_acts_as_identity(self):
        x = representable("ssimp", 2, N)
        assert act(x, LinComb.of(identity_inj(1))) == RatMatrix.identity(x.dim(1))

    def test_alternating_sum(self):
        x = representable("ssimp", 2, N)
        for n in range(1, N + 1):
            expected = RatMatrix.zeros(x.dim(n - 1), x.dim(n))
            for i in range(n + 1):
                expected = expected + x.actions[delta(i, n)].scale(Fraction(-1) ** i)
            assert act(x, apply_functor("u_delta", omega_d(n))) == expected

    def test_sign_embedding_action(self):
        x = representable("scube", 1, N)
        got = act(x, apply_functor("v", delta(0, 0)))
        want = x.actions[cube_delta(1, 1, 1)] - x.actions[cube_delta(1, 0, 1)]
        assert got == want

    def test_multiplicative_on_hom_pairs(self):
        # contravariant contract: act(g o f) = act(f) @ act(g), all pairs n <= 5
        for x in (representable("ssimp", 3, 5), representable("scube", 2, 5)):
            hk = "ssimp" if x.kind == "ssimp" else "scube"
            for m in range(0, 6):
                for q in range(m, 6):
                    for n in range(q, 6):
                        for f in hom_basis(hk, m, q):
                            for g in hom_basis(hk, q, n):
                                lhs = act(x, LinComb.of(compose(g, f)))
                                rhs = act(x, LinComb.of(f)) @ act(x, LinComb.of(g))
                                assert lhs == rhs

    def test_unvalidated_module_refused(self):
        x = make_module(
            "chain0", 1, {0: 1, 1: 1}, {omega_d(1): RatMatrix.from_rows([[1]])}
        )
        y = DiagramModule(x.kind, x.truncation, {**x.dims, 1: 2}, x.actions)  # misshaped d 1
        with pytest.raises(ValueError):
            act(y, omega_d(1))


class TestMaps:
    def test_identity_checks(self):
        x = representable("scube", 1, N)
        assert check_map(identity_map(x))

    def test_yoneda_map_checks_and_example(self):
        f = yoneda_map("scube", cube_delta(1, 0, 1), N)
        assert check_map(f)
        # degree 0: id of the point goes to the inserted-0 coface
        basis = hom_basis("scube", 0, 1)
        col = f.components[0].column(0)
        assert [c for c in col] == [1 if b == cube_delta(1, 0, 1) else 0 for b in basis]

    def test_yoneda_respects_composition(self):
        h = delta(0, 1)   # [0] -> [1]
        g = delta(2, 2)   # [1] -> [2]
        lhs = yoneda_map("ssimp", compose(g, h), N)
        rhs = compose_maps(yoneda_map("ssimp", g, N), yoneda_map("ssimp", h, N))
        assert lhs.components == rhs.components

    def test_perturbed_map_fails(self):
        x = representable("ssimp", 1, N)
        f = identity_map(x)
        f = ModuleMap(f.source, f.target, {**f.components, 0: RatMatrix.from_rows([[1, 1], [0, 1]])})
        assert not check_map(f)


class TestSums:
    def test_dims_add(self):
        x = representable("ssimp", 1, N)
        y = representable("ssimp", 2, N)
        s = direct_sum(x, y)
        for n in s.degrees():
            assert s.dim(n) == x.dim(n) + y.dim(n)
        assert validate(s)

    def test_sum_with_zero(self):
        x = representable("scube", 1, N)
        s = direct_sum(x, zero_module("scube", N))
        assert {n: s.dim(n) for n in s.degrees()} == {n: x.dim(n) for n in x.degrees()}

    def test_inclusion_projection_identity(self):
        x = representable("ssimp", 1, N)
        y = representable("ssimp", 0, N)
        inc = sum_inclusion(x, y, 0)
        proj = sum_projection(x, y, 0)
        assert check_map(inc) and check_map(proj)
        round_trip = compose_maps(proj, inc)
        for n in x.degrees():
            assert round_trip.components[n] == RatMatrix.identity(x.dim(n))


class TestSerialization:
    def test_module_round_trip_bit_exact(self):
        x = representable("scube", 2, 3)
        text = module_to_json(x)
        y = module_from_json(text)
        assert module_to_json(y) == text
        assert validate(y)
        assert y.dims == x.dims and y.actions == x.actions

    def test_map_round_trip(self):
        f = yoneda_map("aug_ssimp", delta(0, 1), 3)
        text = map_to_json(f)
        g = map_from_obj(json.loads(text))
        assert map_to_json(g) == text
        assert check_map(g)

    def test_documents_omit_the_zero_matrices(self):
        # the loaders read a missing action or component as zero, so a
        # written document holds only the matrices with a nonzero entry
        x = representable("scube", 1, 3)
        f = yoneda_map("aug_ssimp", delta(0, 1), 3)
        written = [(module_to_obj(x), x)] + [(module_to_obj(m), m) for m in (f.source, f.target)]
        for obj, m in written:
            tokens = generator_tokens(m.kind, m.truncation)
            assert set(obj["actions"]) == {t for t, g in tokens.items() if not m.actions[g].is_zero()}
            assert obj["actions"] and len(obj["actions"]) < len(tokens)
            assert module_from_obj(obj) == m
        components = map_to_obj(f)["components"]
        assert set(components) == {str(n) for n in f.source.degrees() if not f.components[n].is_zero()}
        assert components and map_from_obj(map_to_obj(f)) == f

    def test_truncate(self):
        x = representable("ssimp", 3, N)
        t = truncate_module(x, 2)
        assert t.truncation == 2
        assert t.dims == {n: x.dim(n) for n in range(0, 3)}

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            module_from_json('{"format": "something-else"}\n')

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_chain_modules_round_trip(self, seed):
        import random

        from semihomology.chainkit import disk_sphere_complex
        from semihomology.exactlin import RatMatrix as RM

        rng = random.Random(seed)
        pieces = [("sphere", rng.randint(0, 3)) for _ in range(rng.randint(1, 2))]
        pieces += [("disk", rng.randint(1, 4)) for _ in range(rng.randint(1, 2))]
        plain = disk_sphere_complex(pieces, 4)
        twists = {}
        for n in plain.degrees():
            d = plain.dim(n)
            lo = [[1 if i == j else (rng.randint(-2, 2) if i > j else 0) for j in range(d)] for i in range(d)]
            up = [[1 if i == j else (rng.randint(-2, 2) if i < j else 0) for j in range(d)] for i in range(d)]
            twists[n] = RM.from_rows(lo, cols=d) @ RM.from_rows(up, cols=d)
        x = disk_sphere_complex(pieces, 4, twists=twists)
        assert validate(x)
        text = module_to_json(x)
        assert module_to_json(module_from_json(text)) == text


def _reference_checks(x):
    """Every defining relation of x, as nested loops without a table:
    (holds, message) in the order validate checks them."""
    a = x.actions
    if x.kind in ("ssimp", "aug_ssimp"):
        for n in range(x.lower + 2, x.truncation + 1):
            for j in range(n + 1):
                for i in range(j):
                    lhs = a[delta(i, n - 1)] @ a[delta(j, n)]
                    rhs = a[delta(j - 1, n - 1)] @ a[delta(i, n)]
                    yield lhs == rhs, f"coface relation fails at degree {n} for (i, j) = ({i}, {j})"
    elif x.kind == "scube":
        for n in range(2, x.truncation + 1):
            for j in range(1, n + 1):
                for i in range(1, j):
                    for eps in (0, 1):
                        for eta in (0, 1):
                            lhs = a[cube_delta(i, eps, n - 1)] @ a[cube_delta(j, eta, n)]
                            rhs = a[cube_delta(j - 1, eta, n - 1)] @ a[cube_delta(i, eps, n)]
                            yield lhs == rhs, f"cube relation fails at degree {n} for (i, j, eps, eta) = ({i}, {j}, {eps}, {eta})"
    else:
        for n in range(x.lower + 2, x.truncation + 1):
            yield (a[omega_d(n - 1)] @ a[omega_d(n)]).is_zero(), f"d o d != 0 at degree {n}"


def _reference_validate(x) -> str | None:
    """The message of x's first failing relation, or None."""
    return next((message for holds, message in _reference_checks(x) if not holds), None)


def _modules_of_every_kind(t: int):
    """The representables at truncation t, and their restricted complexes
    for the chain kinds."""
    for kind in ("ssimp", "aug_ssimp", "scube"):
        for c in range(kind_lower(kind), t + 1):
            yield representable(kind, c, t)
    for c in range(0, t + 1):
        yield restrict("u_delta", representable("ssimp", c, t))
    for c in range(-1, t + 1):
        yield restrict("u_a", representable("aug_ssimp", c, t))


class TestRelationTable:
    @pytest.mark.parametrize("kind", KIND_LOWER)
    def test_relations_per_degree(self, kind):
        per_degree = {
            "ssimp": lambda n: n * (n + 1) // 2,
            "aug_ssimp": lambda n: n * (n + 1) // 2,
            "scube": lambda n: 2 * n * (n - 1),
        }.get(kind, lambda n: 1)
        table = _relations(kind, 6)
        assert all(len(rel) == (3 if kind in CHAIN_KINDS else 5) for rel in table)
        counts = Counter(rel[1].target for rel in table)
        assert counts == {n: per_degree(n) for n in range(kind_lower(kind) + 2, 7)}
        # the same relations in the same order as the nested loops
        assert [rel[-1] for rel in table] == [m for _, m in _reference_checks(zero_module(kind, 6))]

    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_perturbed_actions_fail_like_the_reference(self, t):
        """Perturb one entry of each action in turn, then of each action
        and one other (so that the order of the checks shows): validate
        gives the reference's first failure."""
        rng = random.Random(t)
        failed = Counter()
        for x in _modules_of_every_kind(t):
            live = [g for g, m in x.actions.items() if m.rows and m.cols]
            for g in live:
                for hit in ((g,), (g, rng.choice(live))):
                    actions = {**x.actions, **{h: _perturbed(x.actions[h], rng) for h in hit}}
                    bad = DiagramModule(x.kind, x.truncation, x.dims, actions)
                    expected = _reference_validate(_fresh(bad))
                    report = validate(_fresh(bad))
                    assert (report.ok, report.witness.get("message", "")) == (expected is None, expected or ""), (x.kind, hit)
                    failed[x.kind] += not report.ok
        # every kind has perturbations that some relation catches
        assert set(failed) == set(KIND_LOWER) and all(failed.values()), failed


# -- empty degrees ----------------------------------------------------------------
#
# validate, check_map and act do no products where a degree is empty.  The
# modules below are valid modules with some degrees emptied: hand-built, so
# their dims omit those keys.  Their answers, valid or perturbed, must be
# those of loops that multiply everything.


def _emptied(x, empty):
    """x with the degrees in empty made zero: every relation that keeps its
    three degrees is one of x's, and every other one compares zero matrices,
    so the result is valid when x is."""
    dims = {n: d for n, d in x.dims.items() if n not in empty}

    def dim(n):
        return dims.get(n, 0)

    actions = {
        g: m if dim(g.source) and dim(g.target) else RatMatrix.zeros(dim(g.source), dim(g.target))
        for g, m in x.actions.items()
    }
    return DiagramModule(x.kind, x.truncation, dims, actions)


def _emptied_modules(t: int):
    """The modules of every kind at truncation t with one degree emptied, and
    with every other degree emptied."""
    for x in _modules_of_every_kind(t):
        for n in x.degrees():
            yield _emptied(x, {n})
        yield _emptied(x, set(x.degrees()[::2]))


def _perturbed(m, rng):
    """m with one entry, drawn at random, moved by 1, -1 or 1/2."""
    rows = [list(m.row(i)) for i in range(m.rows)]
    k = rng.randrange(m.rows * m.cols)
    rows[k // m.cols][k % m.cols] += rng.choice((1, -1, Fraction(1, 2)))
    return RatMatrix.from_rows(rows, m.cols)


def _reference_check_map(f) -> str | None:
    """The message of f's first generator that does not commute, multiplying
    every generator, or None."""
    x, y = f.source, f.target
    for t, g in generator_tokens(x.kind, x.truncation).items():
        if f.components[g.source] @ x.actions[g] != y.actions[g] @ f.components[g.target]:
            return f"component does not commute with {t}"
    return None


def _restricted_map(f, source, target):
    """f's components between emptied copies of its source and target: the
    same matrix where both sides keep their degree, zero otherwise."""
    comps = {
        n: m if source.dim(n) and target.dim(n) else RatMatrix.zeros(target.dim(n), source.dim(n))
        for n, m in f.components.items()
    }
    return ModuleMap(source, target, comps)


class TestEmptyDegrees:
    def test_empty_middle_degree(self):
        # dims {0: 2, 1: 0, 2: 3, 3: 2, 4: 1}, degree 1 omitted: the relations
        # at degrees 2 and 3 factor through it, so only degree 4 can fail
        dims = {0: 2, 2: 3, 3: 2, 4: 1}
        rng = random.Random(0)
        for _ in range(20):
            actions = {}
            for g in generators_for("ssimp", 4):
                rows, cols = dims.get(g.source, 0), dims.get(g.target, 0)
                actions[g] = RatMatrix.from_rows(
                    [[rng.choice((0, 0, 1, -1)) for _ in range(cols)] for _ in range(rows)], cols
                )
            x = DiagramModule("ssimp", 4, dims, actions)
            report = validate(x)
            expected = _reference_validate(x)
            assert (report.ok, report.witness.get("message", "")) == (expected is None, expected or "")
            assert report.ok or "degree 4" in report.witness["message"]

    @pytest.mark.parametrize("t", [3, 4])
    def test_perturbed_actions_fail_like_the_reference(self, t):
        """One perturbed entry in each nonempty action, at every degree, then
        in it and one other: validate gives the reference's first failure."""
        rng = random.Random(t)
        failed = Counter()
        for x in _emptied_modules(t):
            assert validate(x) and _reference_validate(x) is None
            live = [g for g, m in x.actions.items() if m.rows and m.cols]
            for g in live:
                for hit in ((g,), (g, rng.choice(live))):
                    actions = {**x.actions, **{h: _perturbed(x.actions[h], rng) for h in hit}}
                    bad = DiagramModule(x.kind, x.truncation, x.dims, actions)
                    expected = _reference_validate(bad)
                    report = validate(bad)
                    assert (report.ok, report.witness.get("message", "")) == (expected is None, expected or ""), (x.dims, hit)
                    failed[x.kind] += not report.ok
        assert set(failed) == set(KIND_LOWER) and all(failed.values()), failed

    def test_check_map_verdicts_equal_the_reference(self):
        """Identity and Yoneda maps between emptied modules, as they are and
        with one component perturbed at each degree."""
        rng = random.Random(1)
        maps = []
        for x in _modules_of_every_kind(3):
            for n in x.degrees():
                for source, target in ((_emptied(x, {n}), x), (x, _emptied(x, {n})),
                                       (_emptied(x, {n}), _emptied(x, {n}))):
                    maps.append(_restricted_map(identity_map(x), source, target))
        for g in (delta(0, 1), delta(1, 2), cube_delta(1, 1, 2)):
            f = yoneda_map("scube" if isinstance(g, CubeMap) else "ssimp", g, 3)
            for n in f.source.degrees():
                maps.append(_restricted_map(f, _emptied(f.source, {n}), _emptied(f.target, {n})))
        verdicts = Counter()
        for f in maps:
            variants = [f] + [
                ModuleMap(f.source, f.target, {**f.components, n: _perturbed(m, rng)})
                for n, m in f.components.items() if m.rows and m.cols
            ]
            for h in variants:
                expected = _reference_check_map(h)
                report = check_map(h)
                assert (report.ok, report.witness.get("message", "")) == (expected is None, expected or "")
                verdicts[report.ok] += 1
        assert verdicts[True] and verdicts[False], verdicts

    def test_act_with_an_empty_side_is_a_shared_zero(self):
        checked = 0
        for kind in ("ssimp", "aug_ssimp", "scube"):
            for c in range(kind_lower(kind), N + 1):
                x = representable(kind, c, N)
                for empty in x.degrees():
                    z = _emptied(x, {empty})
                    for a in z.degrees():
                        for b in range(a, N + 1):
                            rows, cols = z.dim(a), z.dim(b)
                            basis = hom_basis(kind, a, b)
                            if (rows and cols) or not basis:
                                continue
                            zero = RatMatrix.zeros(rows, cols)
                            for f in basis:
                                assert act(z, f) is act(z, f)
                                assert act(z, f) == zero
                                checked += 1
                            lc = LinComb(a, b, {basis[0]: 2, basis[-1]: Fraction(-1, 3)})
                            assert act(z, lc) == zero
                            assert act(z, LinComb(a, b)) == zero
        assert checked
