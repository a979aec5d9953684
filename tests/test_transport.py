
import dataclasses

import pytest

from semihomology.chainkit import (
    bottom_cokernel,
    bottom_cokernel_map,
    brutal_truncation_map,
    disk_sphere_complex,
    good_truncation,
    good_truncation_map,
    homology,
    homology_map,
    is_quasi_iso,
    make_complex,
    reindex_shift,
)
from semihomology.diagmod import (
    check_map,
    direct_sum,
    identity_map,
    representable,
    sum_projection,
    validate,
    zero_module,
)
from semihomology.exactlin import RatMatrix, rank
from semihomology.oracle import CorpusSpec, generate_corpus
from semihomology.simplexcat import (
    FUNCTORS,
    KIND_LOWER,
    LinComb,
    apply_functor,
    cube_delta,
    hom_basis,
    hom_index,
    omega_d,
)
from semihomology.transport import (
    DETECTING_FUNCTOR,
    WindowError,
    counit_map,
    detecting_complex,
    detecting_map,
    induce,
    k_bullet_complex,
    k_point_to_bullet,
    low_degree_sequence,
    resolution_complex,
    restrict,
    restrict_map,
    tensor_resolution_complex,
    tensor_with_representable,
    tor,
    tor_map,
    unit_map,
)

N = 4


def assert_chain_map(f):
    """A valid map between valid chain complexes."""
    assert f.source.kind in ("chain0", "chain_neg1")
    assert validate(f.source) and validate(f.target)
    assert check_map(f)


class TestRestrict:
    def test_interval_representable(self):
        x = representable("ssimp", 1, N)
        c = restrict("u_delta", x)
        assert [c.dim(n) for n in range(N + 1)] == [2, 1, 0, 0, 0]
        h = homology(c)
        assert h.dims_list() == [1, 0, 0, 0]

    def test_cube_interval(self):
        x = representable("scube", 1, N)
        c = restrict("u_square", x)
        d1 = x.actions[cube_delta(1, 1, 1)] - x.actions[cube_delta(1, 0, 1)]
        assert c.diff[1] == d1
        h = homology(c)
        assert h.dim(0) == 1 and h.dim(1) == 0

    def test_zero_module(self):
        c = restrict("u_delta", zero_module("ssimp", N))
        assert all(c.dim(n) == 0 for n in c.degrees())

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            restrict("u_delta", representable("scube", 1, N))

    @pytest.mark.parametrize("call, which, kind, message", [
        (restrict, "j0", "scube", "unknown restriction 'j0'"),
        (restrict, "q", "aug_ssimp", "unknown restriction 'q'"),
        (induce, "u_square", "chain0", "unknown induction 'u_square'"),
    ])
    def test_only_comparison_functors(self, call, which, kind, message):
        # j0, j1 and q are in the functor table, but modules do not move along them
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(which, zero_module(kind, N))


class TestAugmentedChain:
    def test_representable_point(self):
        x = representable("aug_ssimp", 0, N)
        c = restrict("u_a", x)
        assert c.diff[0] == RatMatrix.identity(1)
        _, h_minus1 = bottom_cokernel(c)
        assert h_minus1 == 0

    def test_no_augmentation_space(self):
        x = direct_sum(zero_module("aug_ssimp", N), zero_module("aug_ssimp", N))
        c = restrict("u_a", x)
        _, h_minus1 = bottom_cokernel(c)
        assert h_minus1 == 0


class TestSignShadow:
    def test_interval_dims_and_obstruction_cokernel(self):
        x = representable("scube", 1, N)
        s = restrict("v", x)
        assert s.dim(-1) == 2 and s.dim(0) == 1
        assert validate(s)
        c = restrict("u_a", s)
        _, h = bottom_cokernel(c)
        assert h == 1

    def test_zero(self):
        s = restrict("v", zero_module("scube", N))
        assert not any(s.dims.values())

    def test_shadow_complex_is_shifted_sign_complex(self):
        for c_obj in (1, 2, 3):
            x = representable("scube", c_obj, N)
            lhs = restrict("u_a", restrict("v", x))
            rhs = reindex_shift(restrict("u_square", x), -1)
            assert lhs.dims == rhs.dims
            assert lhs.diff == rhs.diff

    def test_homology_shift_identities(self):
        x = direct_sum(representable("scube", 2, N), representable("scube", 1, N))
        shadow = restrict("v", x)
        h_tau = homology(good_truncation(restrict("u_a", shadow)))
        h_cube = homology(restrict("u_square", x))
        for n in range(0, N - 2):
            assert h_tau.dim(n) == h_cube.dim(n + 1)
        _, h_minus1 = bottom_cokernel(restrict("u_a", shadow))
        assert h_minus1 == h_cube.dim(0)


def sphere_module(n: int, truncation: int):
    return disk_sphere_complex([("sphere", n)], truncation)


class TestInduce:
    def test_obstruction_representable(self):
        m = representable("aug_ssimp", 0, N)
        result = induce("v", m)
        dims = [result.module.dim(n) for n in range(result.module.truncation + 1)]
        assert dims == [2, 1] + [0] * (result.module.truncation - 1)
        assert validate(result.module)
        # matches the cube interval representable degreewise
        interval = representable("scube", 1, result.module.truncation)
        assert {n: result.module.dim(n) for n in result.module.degrees()} == {
            n: interval.dim(n) for n in interval.degrees()
        }

    def test_point_sphere_induction(self):
        m = sphere_module(0, N)
        result = induce("u_delta", m)
        c = restrict("u_delta", result.module)
        h = homology(c)
        assert h.dims_list() == [1] + [0] * (N - 1)
        assert (result.module.lower, result.module.truncation) == (0, N)

    def test_zero_module(self):
        result = induce("u_a", zero_module("chain_neg1", N))
        assert not any(result.module.dims.values())
        assert (result.module.lower, result.module.truncation) == (-1, N)

    def test_window_shrinks_with_top_support(self):
        top = disk_sphere_complex([("sphere", N)], N)
        with pytest.raises(WindowError, match="induction along u_delta has an empty validity window"):
            induce("u_delta", top)

    def test_presentation_labels_cover_dims(self):
        m = representable("aug_ssimp", 0, 3)
        result = induce("v", m)
        for a in result.module.degrees():
            assert len(result.presentation[a]) == result.module.dim(a)

    def test_dimension_oracle_from_freeness(self):
        # dim v_!M(cube a) = sum_q C(q+1, a) dim M_q for supported-below inputs
        from math import comb

        m = representable("aug_ssimp", 1, 3)
        result = induce("v", m)
        for a in result.module.degrees():
            expected = sum(
                comb(q + 1, a) * m.dim(q) for q in range(-1, m.truncation + 1)
            )
            assert result.module.dim(a) == expected


def _predicted_window(which: str, m):
    """The whole target range when M vanishes in its top degree (and has a
    degree below it), else None: the induction is refused."""
    _, tgt_kind, shift, _ = FUNCTORS[which]
    if m.truncation > m.lower and m.dim(m.truncation) == 0:
        return (KIND_LOWER[tgt_kind], m.truncation + shift)
    return None


def _check_windows(modules) -> set[tuple[str, bool]]:
    """Assert that every induction from each module, and from its
    restriction (the induction a counit makes), returns on exactly its
    predicted window or raises WindowError; return the (adjunction, window
    empty) pairs reached."""
    reached = set()
    for x in modules:
        for which in ("u_delta", "u_a", "v"):
            src, tgt, _, _ = FUNCTORS[which]
            for adjunction, kind in ((unit_map, src), (counit_map, tgt)):
                if x.kind != kind:
                    continue
                m = x if adjunction is unit_map else restrict(which, x)
                window = _predicted_window(which, m)
                reached.add((adjunction.__name__, window is None))
                if window is None:
                    with pytest.raises(WindowError):
                        induce(which, m)
                    with pytest.raises(WindowError):
                        adjunction(which, x)
                else:
                    induced = induce(which, m).module
                    assert (induced.lower, induced.truncation) == window, (which, x.kind, x.dims)
                    arrow = adjunction(which, x)
                    assert (arrow.source.lower, arrow.source.truncation) == (x.lower, x.truncation)
    return reached


class TestWindowInvariant:
    """Every induction is certified on its whole target range or refused, as
    _predicted_window says, and every unit and counit that exists is
    certified on all of its source's degrees."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_corpus_inductions(self, seed):
        corpus = generate_corpus(CorpusSpec(seed=seed, truncation=5))
        # corpus modules vanish in their top degree: every window is full
        assert _check_windows(m for _, m in corpus.modules) == {
            ("unit_map", False), ("counit_map", False)
        }

    def test_top_supported_and_single_degree_modules(self):
        n = 4
        modules = [
            disk_sphere_complex(pieces, n, lower=lower)
            for lower in (0, -1)
            for pieces in ([("sphere", n)], [("disk", n)], [("sphere", 1), ("disk", n)],
                           [("disk", n - 1)])
        ]
        modules += [representable(kind, n, n) for kind in ("ssimp", "aug_ssimp", "scube")]
        modules += [zero_module("chain0", 0), zero_module("chain_neg1", -1),
                    zero_module("aug_ssimp", -1)]
        assert {("unit_map", True), ("counit_map", True)} <= _check_windows(modules)


class TestCoendClasses:
    """Coend.classes reads the selected columns from the memoized transpose
    of the projection; column_select on the projection is the independent
    route."""

    @staticmethod
    def _inductions(modules):
        for x in modules:
            for which in ("u_delta", "u_a", "v"):
                src, tgt, _, _ = FUNCTORS[which]
                if x.kind == src:
                    yield induce(which, x)
                if x.kind == tgt:
                    yield induce(which, restrict(which, x))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_classes_equal_column_select_on_every_corpus_induction(self, seed):
        corpus = generate_corpus(CorpusSpec(seed=seed, truncation=5))
        seen = 0
        for result in self._inductions(m for _, m in corpus.modules):
            for c in result.coends.values():
                kept = c.kept_labels()
                for labels in (c.labels, kept, kept[::-1] + kept[:2], []):
                    got = c.classes(iter(labels))
                    assert got == c.proj.column_select([c.index[lab] for lab in labels])
                    assert (got.rows, got.cols) == (c.proj.rows, len(labels))
                seen += 1
        assert seen > 100

    def test_kept_labels_classes_are_the_identity(self):
        x = representable("aug_ssimp", 1, 3)
        for c in induce("v", x).coends.values():
            assert c.classes(c.kept_labels()) == RatMatrix.identity(c.proj.rows)


class TestUnitCounit:
    def test_unit_point_sphere_quasi_iso(self):
        m = sphere_module(0, N)
        unit = unit_map("u_delta", m)
        assert_chain_map(unit)
        assert is_quasi_iso(unit).ok

    def test_unit_u_delta_defect_on_odd_cells(self):
        # Nonaugmented induction glues the endpoints of an odd cell: the disk
        # D[1] induces to the 1-simplex representable, whose restricted complex
        # has H_0 = k, so the unit from the acyclic disk cannot be a
        # quasi-isomorphism.  The augmented comparison absorbs the parity.
        disk = disk_sphere_complex([("disk", 1)], N)
        induced = induce("u_delta", disk)
        interval = representable("ssimp", 1, N)
        assert induced.module.dims == interval.dims
        assert induced.module.actions == interval.actions
        unit = unit_map("u_delta", disk)
        assert_chain_map(unit)
        verdict = is_quasi_iso(unit)
        assert not verdict.ok and verdict.witness == {"failures": [0]}
        disk_aug = disk_sphere_complex([("disk", 1)], N, lower=-1)
        unit_aug = unit_map("u_a", disk_aug)
        assert is_quasi_iso(unit_aug).ok

    def test_unit_u_a_on_spheres_all_parities(self):
        for n in range(-1, N):
            m = disk_sphere_complex([("sphere", n)], N, lower=-1)
            unit = unit_map("u_a", m)
            assert_chain_map(unit)
            assert is_quasi_iso(unit).ok

    def test_unit_v_fails_on_augmented_point(self):
        m = representable("aug_ssimp", 0, N)
        unit = unit_map("v", m)
        assert check_map(unit)
        src = restrict("u_a", unit.source)
        tgt = restrict("u_a", unit.target)
        assert bottom_cokernel(src)[1] == 0
        assert bottom_cokernel(tgt)[1] == 1
        # away from the augmentation the unit is fine
        chain = restrict_map("u_a", unit)
        assert is_quasi_iso(good_truncation_map(chain)).ok
        tau_dims_src = homology(good_truncation(src))
        tau_dims_tgt = homology(good_truncation(tgt))
        assert tau_dims_src.dims == tau_dims_tgt.dims

    def test_unit_u_a_quasi_iso(self):
        m = disk_sphere_complex([("sphere", -1), ("disk", 1)], N, lower=-1)
        unit = unit_map("u_a", m)
        assert_chain_map(unit)
        assert is_quasi_iso(unit).ok

    def test_counit_checks_and_triangle_u_delta(self):
        x = representable("ssimp", 2, N)
        eps = counit_map("u_delta", x)
        assert check_map(eps)
        m = restrict("u_delta", x)
        eta = unit_map("u_delta", m)
        top = min(eps.source.truncation, eta.source.truncation)
        for n in range(0, top + 1):
            composite = eps.components[n] @ eta.components[n]
            assert composite == RatMatrix.identity(m.dim(n))

    def test_counit_triangle_v(self):
        x = representable("scube", 1, N)
        eps = counit_map("v", x)
        assert check_map(eps)
        shadow = restrict("v", x)
        eta = unit_map("v", shadow)
        top = min(eps.source.truncation - 1, eta.source.truncation)
        for n in range(-1, top + 1):
            composite = eps.components[n + 1] @ eta.components[n]
            assert composite == RatMatrix.identity(shadow.dim(n))

    def test_counit_triangle_u_a(self):
        x = representable("aug_ssimp", 1, N)
        eps = counit_map("u_a", x)
        assert check_map(eps)
        m = restrict("u_a", x)
        eta = unit_map("u_a", m)
        top = min(eps.source.truncation, eta.source.truncation)
        for n in range(-1, top + 1):
            composite = eps.components[n] @ eta.components[n]
            assert composite == RatMatrix.identity(m.dim(n))

    def test_counit_u_delta_defect_on_interval(self):
        # same endpoint-gluing defect as for the unit: H_0 doubles
        x = representable("ssimp", 1, N)
        eps = counit_map("u_delta", x)
        verdict = is_quasi_iso(restrict_map("u_delta", eps))
        assert not verdict.ok and verdict.witness == {"failures": [0]}
        src_h = homology(restrict("u_delta", eps.source))
        assert src_h.dim(0) == 2

    def test_counit_quasi_iso_u_a(self):
        for c_obj in (0, 1, 2):
            x = representable("aug_ssimp", c_obj, N)
            eps = counit_map("u_a", x)
            chain = restrict_map("u_a", eps)
            assert is_quasi_iso(chain).ok
            assert bottom_cokernel_map(chain).rows == bottom_cokernel(restrict("u_a", x))[1]


class TestTor:
    def test_tor_equals_restricted_homology(self):
        x = representable("ssimp", 2, N)
        t = tor(x, "k_constant")
        h = homology(restrict("u_delta", x))
        assert t.dims == h.dims

    def test_aug_point_tor(self):
        x = representable("aug_ssimp", 0, N)
        t = tor(x, "k_constant_shifted")
        assert t.dims_list() == [1] + [0] * (N - 1)

    def test_zero_module(self):
        t = tor(zero_module("scube", N), "k_constant")
        assert all(d == 0 for d in t.dims_list())

    def test_shifted_point_coefficient(self):
        c = disk_sphere_complex([("sphere", -1), ("sphere", 1)], N, lower=-1)
        t = tor(c, "k_point_neg1")
        h = homology(c)
        for n in range(-1, N):
            assert t.dim(n + 1) == h.dim(n)

    def test_illegal_pairing(self):
        with pytest.raises(ValueError):
            tor(representable("ssimp", 1, N), "k_point_neg1")


# one module of each kind whose Tor is nonzero, so an identity on Tor is an
# identity on something
_ROUTE_MODULES = {
    "ssimp": direct_sum(representable("ssimp", 0, N), representable("ssimp", 1, N)),
    "aug_ssimp": direct_sum(representable("aug_ssimp", -1, N), representable("aug_ssimp", 0, N)),
    "scube": direct_sum(representable("scube", 0, N), representable("scube", 1, N)),
    "chain0": disk_sphere_complex([("sphere", 0), ("disk", 2), ("sphere", 2)], N),
    "chain_neg1": disk_sphere_complex([("sphere", -1), ("disk", 1), ("sphere", 1)], N, lower=-1),
}

_TOR_PAIRS = [
    ("ssimp", "k_constant"),
    ("scube", "k_constant"),
    ("aug_ssimp", "k_constant_shifted"),
    ("chain0", "k_point"),
    ("chain0", "k_constant"),
    ("chain_neg1", "k_point_neg1"),
]


@pytest.fixture(scope="module")
def corpus_maps():
    return generate_corpus(CorpusSpec(seed=0, truncation=5)).maps


class TestDetectingRoute:
    """detecting_complex and detecting_map are the memoized restriction
    along DETECTING_FUNCTOR, or their argument for a chain kind; tor_map is
    homology_map between the two Tor complexes."""

    @pytest.mark.parametrize("kind", ["ssimp", "aug_ssimp", "scube"])
    def test_index_kind_reads_the_memoized_restriction(self, kind):
        x = _ROUTE_MODULES[kind]
        f = identity_map(x)
        which = DETECTING_FUNCTOR[kind]
        assert detecting_complex(x) is restrict(which, x)
        assert detecting_map(f) is restrict_map(which, f)

    @pytest.mark.parametrize("kind", ["chain0", "chain_neg1"])
    def test_chain_kind_is_its_own_detecting_complex(self, kind):
        x = _ROUTE_MODULES[kind]
        f = identity_map(x)
        assert detecting_complex(x) is x
        assert detecting_map(f) is f

    @pytest.mark.parametrize("kind, coeff", _TOR_PAIRS)
    def test_tor_map_of_the_identity_is_the_identity(self, kind, coeff):
        x = _ROUTE_MODULES[kind]
        report = tor(x, coeff)
        maps = tor_map(identity_map(x), coeff)
        assert sorted(maps) == list(range(report.window[0], report.window[1] + 1))
        assert any(report.dims.values())
        for n, m in maps.items():
            assert m == RatMatrix.identity(report.dim(n)), n

    @pytest.mark.parametrize("kind, coeff, shift", [
        ("chain0", "k_point", 0), ("chain0", "k_constant", 0), ("chain_neg1", "k_point_neg1", 1),
    ])
    def test_chain_kind_tor_map_is_its_homology_map_shifted(self, kind, coeff, shift):
        x = _ROUTE_MODULES[kind]
        f = sum_projection(x, x, 1)
        direct = homology_map(f)
        assert {n - shift: m for n, m in tor_map(f, coeff).items()} == direct

    def test_tor_map_is_the_explicit_composite_on_the_corpus(self, corpus_maps):
        kinds = set()
        for name, f in corpus_maps:
            kind = f.source.kind
            kinds.add(kind)
            if kind == "aug_ssimp":
                want = homology_map(brutal_truncation_map(restrict_map("u_a", f)))
                got = tor_map(f, "k_constant_shifted")
            else:
                want = homology_map(restrict_map({"ssimp": "u_delta", "scube": "u_square"}[kind], f))
                got = tor_map(f, "k_constant")
            assert got == want, name
        assert kinds == {"ssimp", "aug_ssimp", "scube"}

    @pytest.mark.parametrize("kind, coeff", [
        ("ssimp", "k_point"), ("aug_ssimp", "k_constant"), ("scube", "k_point_neg1"),
        ("chain0", "k_point_neg1"), ("chain_neg1", "k_constant"),
    ])
    def test_illegal_pair_is_refused(self, kind, coeff):
        with pytest.raises(ValueError, match="illegal Tor pairing"):
            tor_map(identity_map(_ROUTE_MODULES[kind]), coeff)


class TestTensorRoute:
    def test_co_yoneda_collapse_pointwise(self):
        x = representable("ssimp", 2, 3)
        for p in range(0, 4):
            assert tensor_with_representable(x, p).proj.rows == x.dim(p)

    def test_tensor_complex_matches_tor_ssimp(self):
        x = representable("ssimp", 2, 3)
        lhs = homology(tensor_resolution_complex(x))
        rhs = tor(x, "k_constant")
        assert lhs.dims == rhs.dims

    def test_tensor_complex_matches_tor_scube(self):
        x = representable("scube", 1, 3)
        lhs = homology(tensor_resolution_complex(x))
        rhs = tor(x, "k_constant")
        assert lhs.dims == rhs.dims

    def test_tensor_complex_matches_tor_aug(self):
        x = representable("aug_ssimp", 1, 3)
        lhs = homology(tensor_resolution_complex(x))
        rhs = tor(x, "k_constant_shifted")
        assert lhs.dims == rhs.dims

    def test_tensor_route_on_sum(self):
        x = direct_sum(representable("ssimp", 1, 3), representable("ssimp", 0, 3))
        lhs = homology(tensor_resolution_complex(x))
        rhs = tor(x, "k_constant")
        assert lhs.dims == rhs.dims


def _hom_set_resolution(kind: str, c: int, truncation: int):
    """The augmented representable resolution at c, built from the hom sets:
    column phi of d_p holds the terms of phi o (signed coface sum), and d_0
    is the row of ones (no row at the initial augmented object)."""
    dims = {p: len(hom_basis(kind, p, c)) for p in range(0, truncation + 1)}
    dims[-1] = 0 if (kind == "aug_ssimp" and c == -1) else 1
    diff = {0: RatMatrix.from_rows([[1] * dims[0]] * dims[-1], dims[0])}
    for p in range(1, truncation + 1):
        index_low = hom_index(kind, p - 1, c)
        sign_sum = apply_functor(DETECTING_FUNCTOR[kind], omega_d(p))
        diff[p] = RatMatrix.from_columns(dims[p - 1], (
            {index_low[w]: coeff for w, coeff in LinComb.of(phi).compose(sign_sum).terms.items()}
            for phi in hom_basis(kind, p, c)
        ))
    return make_complex(-1, truncation, dims, diff)


class TestResolutions:
    def test_objectwise_exact(self):
        for kind, objs in (
            ("ssimp", range(0, N)),
            ("aug_ssimp", range(-1, N)),
            ("scube", range(0, N)),
        ):
            for c_obj in objs:
                c = resolution_complex(kind, c_obj, N)
                assert validate(c)
                h = homology(c)
                assert all(d == 0 for d in h.dims_list()), (kind, c_obj, h.dims)

    def test_initial_augmented_object_zero(self):
        c = resolution_complex("aug_ssimp", -1, N)
        assert all(c.dim(n) == 0 for n in c.degrees())

    @pytest.mark.parametrize("kind", ["ssimp", "aug_ssimp", "scube"])
    def test_equals_the_hom_set_route(self, kind):
        for truncation in range(0, 8):
            for c in range(KIND_LOWER[kind], truncation + 1):
                got = resolution_complex(kind, c, truncation)
                want = _hom_set_resolution(kind, c, truncation)
                assert (got.kind, got.truncation, got.dims) == (want.kind, want.truncation, want.dims)
                assert dict(got.diff) == dict(want.diff), (kind, c, truncation)

    @pytest.mark.parametrize("kind, c, truncation, error", [
        ("chain0", 0, 3, "kind 'chain0' has no underlying index category"),
        ("nosuch", 0, 3, "unknown module kind 'nosuch'"),
        ("ssimp", 4, 3, "evaluation object 4 outside truncation"),
        ("ssimp", -1, 3, "evaluation object -1 outside truncation"),
        ("aug_ssimp", -2, 3, "evaluation object -2 outside truncation"),
        ("scube", 1, 0, "evaluation object 1 outside truncation"),
        ("aug_ssimp", -1, -1, None),
        ("aug_ssimp", -1, 0, None),
        ("ssimp", 0, 0, None),
        ("aug_ssimp", 0, 0, None),
        ("scube", 0, 0, None),
    ])
    def test_edge_objects_and_refusals(self, kind, c, truncation, error):
        if error is not None:
            with pytest.raises(ValueError, match=f"^{error}$"):
                resolution_complex(kind, c, truncation)
            return
        got = resolution_complex(kind, c, truncation)
        assert (got.kind, got.truncation) == ("chain_neg1", truncation)
        if c == -1:
            assert not any(got.dims.values())
        else:
            assert got.dims == {-1: 1, 0: 1}
            assert got.diff[0] == RatMatrix.identity(1)
        assert not any(homology(got).dims_list())


def _chain_representable(kind: str, c: int, truncation: int):
    """The representable of a chain kind at c: the sphere at the lower
    degree, the disk D[c] above it."""
    lower = KIND_LOWER[kind]
    piece = ("sphere", c) if c == lower else ("disk", c)
    return disk_sphere_complex([piece], truncation, lower=lower)


class TestYoneda:
    """Induction sends the representable at c to the representable at F(c),
    literally: the same basis and the same matrices."""

    @pytest.mark.parametrize("truncation", [4, 5, 6])
    def test_sign_embedding(self, truncation):
        for c in range(-1, truncation):
            got = induce("v", representable("aug_ssimp", c, truncation)).module
            assert got == representable("scube", c + 1, truncation + 1), c
        with pytest.raises(WindowError):
            induce("v", representable("aug_ssimp", truncation, truncation))

    @pytest.mark.parametrize("which", ["u_delta", "u_a"])
    @pytest.mark.parametrize("truncation", [4, 5, 6])
    def test_chain_representables(self, which, truncation):
        src, tgt, _, _ = FUNCTORS[which]
        for c in range(KIND_LOWER[src], truncation):
            got = induce(which, _chain_representable(src, c, truncation)).module
            assert got == representable(tgt, c, truncation), c
        with pytest.raises(WindowError):
            induce(which, _chain_representable(src, truncation, truncation))


class TestKBullet:
    def test_homology_is_a_point(self):
        h = homology(k_bullet_complex(5))
        assert h.dims_list() == [1, 0, 0, 0, 0]

    def test_inclusion_is_quasi_iso(self):
        f = k_point_to_bullet(5)
        assert_chain_map(f)
        assert is_quasi_iso(f).ok


class TestLowDegree:
    def test_representable_point(self):
        seq = low_degree_sequence(representable("aug_ssimp", 0, N))
        assert seq.dims == (0, 1, 1, 0)
        assert seq.is_exact()
        assert rank(seq.boundary) == 1  # the middle map is an isomorphism

    def test_degenerate_without_augmentation(self):
        # nothing in degree -1: the sequence collapses to H_0(tau) = Tor_0
        from semihomology.diagmod import make_module

        x = make_module("aug_ssimp", N, {0: 2, 1: 1}, {})
        assert validate(x)
        seq = low_degree_sequence(x)
        assert seq.is_exact()
        a, b, c, d = seq.dims
        assert (c, d) == (0, 0)
        assert a == b
        assert rank(seq.include_tau) == a  # the inclusion is an isomorphism

    def test_fields_cannot_be_assigned(self):
        seq = low_degree_sequence(representable("aug_ssimp", 0, N))
        for name in ("dims", "include_tau", "boundary", "project"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(seq, name, None)

    def test_shadow_modules_exact(self):
        shadow = restrict("v", representable("scube", 2, N))
        seq = low_degree_sequence(shadow)
        assert seq.is_exact()

    def test_alternating_sum_vanishes(self):
        for c_obj in (0, 1, 2):
            seq = low_degree_sequence(representable("aug_ssimp", c_obj, N))
            a, b, c, d = seq.dims
            assert a - b + c - d == 0
            assert seq.is_exact()
