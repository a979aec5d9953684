"""Acceptance suite: one test per criterion, at desk scale.

Desk scale is truncation 5, per-degree dimensions at most 6, a deterministic
corpus of 25 modules, exact arithmetic throughout (every tolerance is exact
equality), and a whole-suite CPU budget under 60 seconds.

Criterion 8 is split by comparison functor.  The augmented half asserts
that every unit and counit is a weak equivalence on the full corpus.  The
nonaugmented half asserts the exact defect instead: inducting along the
nonaugmented comparison glues the endpoints of every odd cell (the
contractible disk D[1] induces to the 1-simplex representable, whose complex
has H_0 = k).  The coend relation [dm] = (sum_{i=0}^{q} (-1)^i) [m] kills
nothing for odd q, so H_0(R L M) = H_0(M) + sum_{q odd} M_q.  Each unit is
therefore an isomorphism on H_n for n >= 1 and injective on H_0 with a
cokernel of dimension odd(M) = sum_{q odd} dim M_q; each counit is surjective
on H_0 with a kernel of dimension odd(X).  The prediction is computed from
the dimensions alone, not through induction.
"""

import time
from itertools import product
from math import comb

import pytest

from semihomology.chainkit import (
    bottom_cokernel,
    disk_sphere_complex,
    good_truncation,
    homology,
    homology_map,
    is_quasi_iso,
    reindex_shift,
)
from semihomology.diagmod import (
    ModuleMap,
    module_from_json,
    module_to_json,
    representable,
    validate,
    zero_map,
    zero_module,
    identity_map,
)
from semihomology.exactlin import rank
from semihomology.oracle import (
    CorpusSpec,
    check_fibration,
    check_weak_equivalence,
    cubical_family_matrix,
    decreasing_basis_matrix,
    generate_corpus,
    run_battery,
    run_counterexample,
)
from semihomology.simplexcat import hom_basis
from semihomology.transport import (
    counit_map,
    induce,
    k_bullet_complex,
    k_point_to_bullet,
    low_degree_sequence,
    restrict,
    restrict_map,
    tor,
    unit_map,
)

DESK = CorpusSpec()  # truncation 5, max dim 6, 25 modules
N = DESK.truncation


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(DESK)


def _report(number: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"acceptance {number:02d}: {status}{suffix}")


def test_criterion_01_counterexample_reproduction():
    started = time.perf_counter()
    m = representable("aug_ssimp", 0, N)
    result = induce("v", m)
    dims = [result.module.dim(a) for a in result.module.degrees()]
    _, h_source = bottom_cokernel(restrict("u_a", m))
    unit = unit_map("v", m)
    _, h_shadow = bottom_cokernel(restrict("u_a", unit.target))
    elapsed = time.perf_counter() - started
    ok = (
        dims[:2] == [2, 1]
        and all(d == 0 for d in dims[2:])
        and h_source == 0
        and h_shadow == 1
        and elapsed < 1.0
    )
    _report(1, ok, f"dims {dims[:3]}..., H_-1: {h_source} -> {h_shadow}, {elapsed:.3f}s")
    assert dims[:2] == [2, 1] and all(d == 0 for d in dims[2:])
    assert h_source == 0
    assert h_shadow == 1
    assert elapsed < 1.0


def test_criterion_02_hom_dimension_oracles():
    ok = True
    for n in range(0, 7):
        for m in range(0, n + 1):
            brute = sum(
                1
                for v in product(range(n + 1), repeat=m + 1)
                if all(a < b for a, b in zip(v, v[1:]))
            )
            ok = ok and len(hom_basis("ssimp", m, n)) == comb(n + 1, m + 1) == brute
    tokens = lambda m: ["0", "1"] + [f"x{i}" for i in range(1, m + 1)]
    for n in range(0, 7):
        for m in range(0, n + 1):
            brute = 0
            for v in product(tokens(m), repeat=n):
                coords = [t for t in v if t not in ("0", "1")]
                if coords == [f"x{i}" for i in range(1, m + 1)]:
                    brute += 1
            ok = ok and len(hom_basis("scube", m, n)) == comb(n, m) * 2 ** (n - m) == brute
    _report(2, ok, "binomial counts match brute-force enumeration, n <= 6")
    assert ok


def test_criterion_03_freeness_bases():
    for kind, low in (("ssimp", 0), ("aug_ssimp", -1)):
        for m in range(low, N + 1):
            for n in range(m, N + 1):
                words, matrix = decreasing_basis_matrix(kind, m, n)
                assert matrix.rows == matrix.cols == comb(n + 1, m + 1)
                for r, word in enumerate(words):
                    assert abs(matrix[r, r]) == 1
                    assert matrix[r, r] == (-1) ** word.index_sum()
                    assert all(not matrix[r, k] for k in range(r))
                assert rank(matrix) == matrix.rows
    for m in range(-1, N + 1):
        for n in range(m, N + 1):
            for first in (True, False):
                leading, matrix = cubical_family_matrix(m, n, first)
                assert leading == list(range(matrix.rows))
                assert matrix.rows == matrix.cols == comb(n + 1, m + 1) * 2 ** (n - m)
                for r in range(matrix.rows):
                    assert matrix[r, r] == 1
                    assert all(not matrix[r, k] for k in range(r))
                assert rank(matrix) == matrix.rows
    _report(3, True, "d-monomials and both signed cube families, m <= n <= 5")


def test_criterion_04_resolution_exactness():
    for kind, objs in (
        ("ssimp", range(0, N)),
        ("aug_ssimp", range(-1, N)),
        ("scube", range(0, N)),
    ):
        for c in objs:
            from semihomology.transport import resolution_complex

            cx = resolution_complex(kind, c, N)
            assert validate(cx)
            dims = homology(cx).dims_list()
            assert all(d == 0 for d in dims), (kind, c, dims)
    _report(4, True, "augmented representable complexes exact, eval objects <= 4")


def test_criterion_05_tor_identifications(corpus):
    for name, x in corpus.modules:
        if x.kind == "ssimp":
            assert tor(x, "k_constant").dims == homology(restrict("u_delta", x)).dims, name
        elif x.kind == "scube":
            assert tor(x, "k_constant").dims == homology(restrict("u_square", x)).dims, name
        elif x.kind == "chain0":
            assert tor(x, "k_constant").dims == homology(x).dims, name
    exactness = []
    for name, x in corpus.by_kind("aug_ssimp"):
        seq = low_degree_sequence(x)
        exactness.append((name, seq.is_exact(), seq.dims))
        assert seq.is_exact(), (name, seq.dims)
    _report(5, True, f"Tor = restricted homology; {len(exactness)} low-degree sequences exact")


def test_criterion_06_weq_characterizations_agree(corpus):
    from semihomology.oracle import _check_weq_characterizations, _Runner

    runner = _Runner(corpus.spec)
    _check_weq_characterizations(runner, corpus)
    bad = [c for c in runner.report.checks if not c.passed]
    _report(6, not bad, f"{len(runner.report.checks)} corpus morphisms, four conditions each")
    assert not bad, bad


def test_criterion_07_sign_shadow_shift(corpus):
    checked = 0
    for name, x in corpus.by_kind("scube"):
        shadow = restrict("v", x)
        lhs = restrict("u_a", shadow)
        rhs = reindex_shift(restrict("u_square", x), -1)
        assert lhs.dims == rhs.dims and lhs.diff == rhs.diff, name  # identity of spaces
        h_tau = homology(good_truncation(lhs))
        h_cube = homology(restrict("u_square", x))
        for n in range(0, N - 2):
            assert h_tau.dim(n) == h_cube.dim(n + 1), (name, n)
        _, h_minus1 = bottom_cokernel(lhs)
        assert h_minus1 == h_cube.dim(0), name
        checked += 1
    _report(7, True, f"{checked} semicubical corpus modules")
    assert checked > 0


def test_criterion_08_unit_counit_u_a(corpus):
    failures = []
    for name, m in corpus.by_kind("chain_neg1"):
        unit = unit_map("u_a", m)
        if not is_quasi_iso(unit).ok:
            failures.append(("unit", name))
    for name, x in corpus.by_kind("aug_ssimp"):
        eps = counit_map("u_a", x)
        verdict = check_weak_equivalence(eps)
        if not (verdict.ok and verdict.crosscheck_agrees):
            failures.append(("counit", name))
    _report(8, not failures, "augmented comparison: units and counits on the corpus")
    assert not failures, failures


def _odd_cells(y) -> int:
    """Total dimension in odd degrees 1..truncation: the number of spare
    vertex classes that nonaugmented induction adds to H_0."""
    return sum(y.dim(q) for q in range(1, y.truncation + 1, 2))


def _parity_mismatch(side: str, name: str, f: ModuleMap, predicted: int,
                     reported: list[int]) -> tuple | None:
    """None when H(f) shows exactly the predicted degree-0 excess, else a
    witness naming the object, the predicted and observed excess, and the
    failing degrees.

    A unit must be injective on H_0 with a cokernel of dimension
    `predicted`; a counit surjective with a kernel of that dimension.  Every
    higher H_n(f) must be an isomorphism, and the reported failures must be
    [0] exactly when the excess is positive.
    """
    h = homology_map(f)
    h0 = h[0]
    r = rank(h0)
    if side == "unit":
        observed = h0.rows - r if r == h0.cols else "H_0 not injective"
    else:
        observed = h0.cols - r if r == h0.rows else "H_0 not surjective"
    not_iso = [n for n, hn in sorted(h.items())
               if n >= 1 and not hn.rows == hn.cols == rank(hn)]
    if observed == predicted and not not_iso and reported == ([0] if predicted else []):
        return None
    return (side, name, f"predicted excess {predicted}", f"observed {observed}",
            f"failing degrees {reported}", f"H_n not iso for n >= 1 at {not_iso}")


def test_criterion_08_unit_counit_u_delta(corpus):
    """Nonaugmented units and counits on the corpus carry exactly the
    odd-cell defect: H_n is an isomorphism for n >= 1, and H_0 gains (unit)
    or loses (counit) one class per odd-degree basis vector, so the
    quasi-isomorphism verdict fails at [0] exactly when odd(.) > 0.  The
    witness D[1] -> 1-simplex is checked first."""
    disk = disk_sphere_complex([("disk", 1)], N)
    induced = induce("u_delta", disk).module
    interval = representable("ssimp", 1, N)
    assert induced.dims == interval.dims, "D[1] must induce to the 1-simplex"
    assert induced.actions == interval.actions, "D[1] must induce to the 1-simplex"

    mismatches = []
    units = corpus.by_kind("chain0")
    for name, m in units:
        unit = unit_map("u_delta", m)
        assert (unit.source.lower, unit.source.truncation) == (0, N), name
        verdict = is_quasi_iso(unit)
        found = _parity_mismatch("unit", name, unit, _odd_cells(m), verdict.witness["failures"])
        if found:
            mismatches.append(found)
    counits = corpus.by_kind("ssimp")
    for name, x in counits:
        eps = counit_map("u_delta", x)
        assert (eps.source.lower, eps.source.truncation) == (0, N), name
        verdict = check_weak_equivalence(eps)
        found = _parity_mismatch("counit", name, restrict_map("u_delta", eps),
                                 _odd_cells(x), verdict.witness["failures"])
        if found:
            mismatches.append(found)
    unit_hits = len(units) - sum(1 for miss in mismatches if miss[0] == "unit")
    counit_hits = len(counits) - sum(1 for miss in mismatches if miss[0] == "counit")
    _report(8, bool(units and counits) and not mismatches,
            f"nonaugmented comparison: units {unit_hits}/{len(units)} and counits "
            f"{counit_hits}/{len(counits)} match the odd-degree prediction")
    assert units and counits
    assert not mismatches, f"degree-0 parity defect differs from the prediction: {mismatches}"


def test_criterion_09_point_to_constant_quasi_iso():
    h = homology(k_bullet_complex(N))
    ok = h.dims_list() == [1] + [0] * (N - 1)
    verdict = is_quasi_iso(k_point_to_bullet(N))
    _report(9, ok and verdict.ok, f"H(constant object) = {h.dims_list()}")
    assert ok
    assert verdict.ok


def test_criterion_10_fibration_detection(corpus):
    checked = 0
    for kind in ("ssimp", "aug_ssimp", "scube"):
        mods = corpus.by_kind(kind)
        if not mods:
            continue
        name, x = mods[0]
        z = zero_module(kind, x.truncation)
        assert check_fibration(zero_map(x, z)).ok
        assert check_fibration(identity_map(x)).ok
        if any(x.dim(n) > 0 for n in x.degrees()):
            assert not check_fibration(zero_map(z, x)).ok
        checked += 1
    _report(10, True, f"epi and non-epi fixtures in {checked} kinds")
    assert checked == 3


def test_criterion_11_determinism_and_round_trip(corpus):
    a = run_battery(DESK).to_json()
    b = run_battery(DESK).to_json()
    assert a == b
    for name, x in corpus.modules:
        text = module_to_json(x)
        assert module_to_json(module_from_json(text)) == text, name
    counter = run_counterexample(N)
    assert counter.ok()
    _report(11, True, "byte-identical battery reports; lossless module JSON")
