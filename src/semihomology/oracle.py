"""Corpus generation, verification batteries, and the degree -1 obstruction.

The battery turns every finitely checkable statement into a named check over
a seeded, deterministic corpus of modules and maps: hom-set dimensions,
freeness bases, objectwise exactness of the representable resolutions, Tor
identifications, the low-degree exact sequence, the sign-shadow degree
shift, weak-equivalence characterizations, unit/counit behavior, fibration
detection, and two-out-of-three sampling.

The obstruction is reproduced as a battery of its own: the augmented
representable at the point has vanishing degree -1 homology, its cube
induction is the interval representable, and the unit picks up a one
dimensional cokernel at degree -1 -- so the unit must FAIL the
weak-equivalence check there, and a run where it passes is itself a failure.

Reports serialize deterministically; timing is kept out of the canonical
JSON so that a fixed seed yields a byte-identical report.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import asdict, dataclass, field
from math import comb

from .chainkit import (
    bottom_cokernel,
    bottom_cokernel_map,
    brutal_truncation_map,
    disk_sphere_complex,
    good_truncation,
    good_truncation_map,
    homology,
    homology_map,
    is_quasi_iso,
    reindex_shift,
)
from .diagmod import (
    truncate_module,
    DiagramModule,
    ModuleMap,
    Verdict,
    canonical_json,
    check_map,
    compose_maps,
    direct_sum,
    identity_map,
    representable,
    sum_inclusion,
    sum_projection,
    validate,
    yoneda_map,
    zero_map,
    zero_module,
)
from .exactlin import RatMatrix, echo, is_invertible, rank
from .simplexcat import (
    apply_functor,
    compose,
    cube_delta,
    delta,
    hom_basis,
    strictly_decreasing_basis,
)
from .transport import (
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
    tor,
    tor_map,
    unit_map,
)

REPORT_FORMAT = "semihomology-report/1"
MAX_TRUNC_ENV = "SEMIHOMOLOGY_MAX_TRUNC"


def truncation_cap() -> int:
    """The one truncation cap, for generated corpora and file inputs alike
    (cube hom-sets grow as 2^n): $SEMIHOMOLOGY_MAX_TRUNC, read on every call,
    or 8 when it is unset or empty.  A value that is not ASCII digits is a
    ValueError."""
    raw = os.environ.get(MAX_TRUNC_ENV, "")
    if not raw:
        return 8
    if raw.isascii() and raw.isdigit():
        return int(raw)
    raise ValueError(f"{MAX_TRUNC_ENV}={raw!r} is not a non-negative integer")


def check_truncation(n: int, lowest: int | None = None) -> int:
    """n, or a ValueError when it exceeds the cap or lies below lowest."""
    cap = truncation_cap()
    if n > cap:
        raise ValueError(
            f"truncation {echo(str(n))} exceeds the cap {cap} (set {MAX_TRUNC_ENV} to raise it)"
        )
    if lowest is not None and n < lowest:
        raise ValueError(f"truncation must be in {lowest}..{cap}")
    return n


@dataclass
class CorpusSpec:
    """Counts per construction; the default totals 25 modules at desk scale
    (10 representables + 6 induced + 6 chain complexes + 3 direct sums)."""

    seed: int = 0
    truncation: int = 5
    max_dim: int = 6
    representables: int = 10
    induced: int = 6
    sums: int = 3
    yoneda_maps: int = 8

    def check(self) -> None:
        check_truncation(self.truncation, 2)
        if self.max_dim < 1:
            raise ValueError("max dimension must be positive")
        for name in ("representables", "induced", "sums", "yoneda_maps"):
            if getattr(self, name) < 0:
                raise ValueError(f"count {name} must be nonnegative")

    def to_obj(self) -> dict:
        return asdict(self)


@dataclass
class Corpus:
    spec: CorpusSpec
    modules: list[tuple[str, DiagramModule]]
    maps: list[tuple[str, ModuleMap]]

    def by_kind(self, kind: str) -> list[tuple[str, DiagramModule]]:
        return [(name, m) for name, m in self.modules if m.kind == kind]

    def maps_by_kind(self, kind: str) -> list[tuple[str, ModuleMap]]:
        return [(name, f) for name, f in self.maps if f.source.kind == kind]


def _random_pieces(rng: random.Random, lower: int, top: int, count: int) -> list[tuple[str, int]]:
    pieces = []
    for _ in range(count):
        if rng.random() < 0.5:
            pieces.append(("sphere", rng.randint(lower, top)))
        else:
            pieces.append(("disk", rng.randint(lower + 1, top)))
    return pieces


def _random_unimodular(rng: random.Random, n: int) -> RatMatrix:
    lo = [[1 if i == j else (rng.randint(-1, 1) if i > j else 0) for j in range(n)] for i in range(n)]
    up = [[1 if i == j else (rng.randint(-1, 1) if i < j else 0) for j in range(n)] for i in range(n)]
    return RatMatrix.from_rows(lo, cols=n) @ RatMatrix.from_rows(up, cols=n)


def _random_chain_module(rng: random.Random, lower: int, truncation: int, top: int,
                         pieces_count: int) -> DiagramModule:
    pieces = _random_pieces(rng, lower, top, pieces_count)
    plain = disk_sphere_complex(pieces, truncation, lower=lower)
    twists = {n: _random_unimodular(rng, plain.dim(n)) for n in plain.degrees()}
    return disk_sphere_complex(pieces, truncation, lower=lower, twists=twists)


def _interleave(*groups):
    out = []
    longest = max(len(g) for g in groups)
    for i in range(longest):
        for g in groups:
            if i < len(g):
                out.append(g[i])
    return out


def generate_corpus(spec: CorpusSpec) -> Corpus:
    """Deterministic under the seed; every emitted module passes validate,
    and no two modules or maps share a name."""
    spec.check()
    rng = random.Random(spec.seed)
    n = spec.truncation
    modules: list[tuple[str, DiagramModule]] = []

    rep_candidates = _interleave(
        [(f"rep:ssimp:{c}", representable("ssimp", c, n)) for c in range(1, n)],
        [(f"rep:aug_ssimp:{c}", representable("aug_ssimp", c, n)) for c in range(0, n)],
        [(f"rep:scube:{c}", representable("scube", c, n)) for c in range(1, n)],
        [
            ("rep:ssimp:0", representable("ssimp", 0, n)),
            ("rep:aug_ssimp:-1", representable("aug_ssimp", -1, n)),
            ("rep:scube:0", representable("scube", 0, n)),
        ],
    )
    rep_candidates = [
        (name, x) for name, x in rep_candidates if max(x.dims.values(), default=0) <= spec.max_dim
    ]
    modules.extend(rep_candidates[: spec.representables])

    support_top = max(1, min(2, n - 2))
    chain_inputs: list[tuple[str, DiagramModule]] = []
    induced_candidates: list[tuple[str, DiagramModule]] = []
    if spec.induced:
        from_chain0 = []
        from_chain_neg1 = []
        for k in range(3):
            m0 = _random_chain_module(rng, 0, n, support_top, pieces_count=rng.randint(1, 3))
            chain_inputs.append((f"chain0:{k}", m0))
            from_chain0.append((f"ind:u_delta:{k}", induce("u_delta", m0).module))
        for k in range(3):
            ma = _random_chain_module(rng, -1, n, support_top, pieces_count=rng.randint(1, 3))
            chain_inputs.append((f"chain_neg1:{k}", ma))
            from_chain_neg1.append((f"ind:u_a:{k}", induce("u_a", ma).module))
        # the cube induction raises the truncation by one; bring it back to
        # the corpus truncation so sums and maps can pair modules freely
        from_aug = [
            (f"ind:v:{tag}", truncate_module(induce("v", m).module, n))
            for tag, m in (
                ("rep_aug_0", representable("aug_ssimp", 0, n)),
                ("rep_aug_1", representable("aug_ssimp", 1, n)),
            )
        ]
        induced_candidates = _interleave(from_chain0, from_chain_neg1, from_aug)
    induced_candidates = [
        (name, x) for name, x in induced_candidates if max(x.dims.values(), default=0) <= spec.max_dim
    ]
    modules.extend(induced_candidates[: spec.induced])
    modules.extend(chain_inputs)

    index_modules = [(name, m) for name, m in modules if m.kind in ("ssimp", "aug_ssimp", "scube")]
    sums_added = 0
    for _ in range(spec.sums * 6 if index_modules else 0):
        if sums_added >= spec.sums:
            break
        name_a, a = index_modules[rng.randrange(len(index_modules))]
        partners = [(nm, m) for nm, m in index_modules if m.kind == a.kind and m.truncation == a.truncation]
        name_b, b = partners[rng.randrange(len(partners))]
        name = f"sum:{name_a}+{name_b}"
        if any(nm == name for nm, _ in modules):  # a pair drawn again: skip it, so no name repeats
            continue
        s = direct_sum(a, b)
        if max(s.dims.values(), default=0) <= spec.max_dim:
            modules.append((name, s))
            sums_added += 1

    maps: list[tuple[str, ModuleMap]] = []
    yoneda_pool = [
        ("ssimp", delta(0, 1)),
        ("scube", cube_delta(1, 0, 1)),
        ("aug_ssimp", delta(0, 0)),
        ("ssimp", delta(1, 1)),
        ("scube", cube_delta(1, 1, 1)),
        ("aug_ssimp", delta(1, 1)),
        ("ssimp", compose(delta(2, 2), delta(0, 1))),
        ("scube", compose(cube_delta(2, 1, 2), cube_delta(1, 0, 1))),
        ("aug_ssimp", compose(delta(1, 1), delta(0, 0))),
        ("scube", cube_delta(2, 0, 2)),
    ]
    for k, (kind, g) in enumerate(yoneda_pool[: spec.yoneda_maps]):
        maps.append((f"yoneda:{kind}:{k}", yoneda_map(kind, g, n)))
    for name, m in index_modules[:4]:
        maps.append((f"id:{name}", identity_map(m)))
    pair_count = 0
    for name, m in index_modules:
        partners = [
            (nm, mm)
            for nm, mm in index_modules
            if mm.kind == m.kind and mm.truncation == m.truncation
        ]
        if not partners:
            continue
        name_b, b = partners[rng.randrange(len(partners))]
        maps.append((f"incl0:{name}+{name_b}", sum_inclusion(m, b, 0)))
        maps.append((f"proj0:{name}+{name_b}", sum_projection(m, b, 0)))
        maps.append((f"zero:{name}->{name_b}", zero_map(m, b)))
        pair_count += 1
        if pair_count >= 3:
            break

    for name, m in modules:
        if not validate(m):
            raise AssertionError(f"corpus module {name} failed validation")
    for name, f in maps:
        if not check_map(f):
            raise AssertionError(f"corpus map {name} failed the module-map check")
    return Corpus(spec, modules, maps)


# -- verdicts --------------------------------------------------------------------


def check_weak_equivalence(f) -> Verdict:
    """The detecting invariant of the source kind, exactly.

    Chain kinds: a quasi-isomorphism.  Nonaugmented index kinds: the
    restricted complex must be a quasi-isomorphism.  For both the verdict is
    ``is_quasi_iso`` of the detecting map itself.  Augmented kind: good
    truncation quasi-isomorphism plus an isomorphism on the degree -1
    cokernel; cross-checked against the quasi-isomorphism of the full
    augmented complex, which must agree (``crosscheck_agrees``).
    """
    chain = detecting_map(f)
    if f.source.kind != "aug_ssimp":
        return is_quasi_iso(chain)
    tau = is_quasi_iso(good_truncation_map(chain))
    h_minus1 = bottom_cokernel_map(chain)
    ok = is_invertible(h_minus1) and tau.ok
    full = is_quasi_iso(chain)
    witness = {
        "tau_failures": tau.witness["failures"],
        "h_minus1_shape": [h_minus1.rows, h_minus1.cols, rank(h_minus1)],
        "full_failures": full.witness["failures"],
    }
    return Verdict(ok, (-1, tau.window[1]), witness, crosscheck_agrees=(ok == full.ok))


def check_fibration(f) -> Verdict:
    """Degreewise surjectivity of the detecting components.

    For every kind this comes down to each component being onto: the
    nonaugmented restrictions reuse the components unchanged, the augmented
    chain includes degree -1, and the cube kind is tested after the sign
    shadow, which carries the same components reindexed.  The window is the
    tested source's [lower, truncation], and the witness lists the degrees
    that are not onto.
    """
    if f.source.kind == "scube":
        f = restrict_map("v", f)
    failures = [
        n for n in f.source.degrees() if rank(f.components[n]) != f.target.dim(n)
    ]
    return Verdict(not failures, (f.source.lower, f.source.truncation), {"failures": failures})


# -- reports ---------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    instance: str
    passed: bool
    window: str = ""
    witness: dict = field(default_factory=dict)
    elapsed: float = field(default=0.0, compare=False)

    def to_obj(self, include_timing: bool = False) -> dict:
        obj = {
            "name": self.name,
            "instance": self.instance,
            "verdict": "pass" if self.passed else "fail",
            "window": self.window,
            "witness": self.witness,
        }
        if include_timing:
            obj["elapsed_seconds"] = round(self.elapsed, 6)
        return obj


@dataclass
class VerificationReport:
    spec: CorpusSpec
    checks: list[CheckResult] = field(default_factory=list)

    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_obj(self, include_timing: bool = False) -> dict:
        return {
            "format": REPORT_FORMAT,
            "spec": self.spec.to_obj(),
            "checks": [c.to_obj(include_timing) for c in self.checks],
            "summary": {
                "total": len(self.checks),
                "passed": sum(1 for c in self.checks if c.passed),
                "failed": sum(1 for c in self.checks if not c.passed),
                "ok": self.ok(),
            },
        }

    def to_json(self, include_timing: bool = False) -> str:
        return canonical_json(self.to_obj(include_timing))

    def table(self) -> str:
        lines = []
        name_width = max([len(c.name) for c in self.checks] + [5])
        inst_width = min(44, max([len(c.instance) for c in self.checks] + [8]))
        for c in self.checks:
            verdict = "pass" if c.passed else "FAIL"
            inst = c.instance[:inst_width]
            lines.append(f"{verdict}  {c.name.ljust(name_width)}  {inst.ljust(inst_width)}  {c.window}")
        lines.append(f"{sum(c.passed for c in self.checks)}/{len(self.checks)} checks passed")
        return "\n".join(lines)


class _CheckFailure(Exception):
    def __init__(self, witness: dict):
        super().__init__(str(witness))
        self.witness = witness


def _require(condition: bool, witness: dict) -> None:
    if not condition:
        raise _CheckFailure(witness)


class _Runner:
    def __init__(self, spec: CorpusSpec):
        self.report = VerificationReport(spec)

    def run(self, name: str, instance: str, fn, window: str = "") -> bool:
        started = time.perf_counter()
        try:
            witness = fn() or {}
            passed = True
        except _CheckFailure as exc:
            witness = exc.witness
            passed = False
        except Exception as exc:  # a crash is a failed check, with its reason
            witness = {"error": f"{type(exc).__name__}: {exc}"}
            passed = False
        elapsed = time.perf_counter() - started
        self.report.checks.append(CheckResult(name, instance, passed, window, witness, elapsed))
        return passed


# -- the obstruction -----------------------------------------------------------


def run_counterexample(truncation: int = 5) -> VerificationReport:
    """Reproduce the degree -1 obstruction; every check here must pass.

    The checks assert that the failure is present: the unit of the sign
    embedding at the augmented point representable must NOT be a weak
    equivalence, with the one-dimensional degree -1 defect and no other
    homology change inside the window.  The truncation must lie in 1..cap.
    """
    spec = CorpusSpec(seed=0, truncation=check_truncation(truncation, 1))
    runner = _Runner(spec)
    m = representable("aug_ssimp", 0, truncation)

    def dims_check():
        result = induce("v", m)
        got = [result.module.dim(a) for a in result.module.degrees()]
        want = [2, 1] + [0] * (result.module.truncation - 1)
        _require(got == want, {"dims": got, "expected": want})
        return {"dims": got, "window": [result.module.lower, result.module.truncation]}

    runner.run("obstruction.induced-dims", "v_! of the aug point representable", dims_check)

    def source_check():
        _, h = bottom_cokernel(detecting_complex(m))
        _require(h == 0, {"h_minus1": h})
        return {"h_minus1": h}

    runner.run("obstruction.h-minus1-source", "aug point representable", source_check)

    unit = unit_map("v", m)

    def target_check():
        _, h = bottom_cokernel(detecting_complex(unit.target))
        _require(h == 1, {"h_minus1": h})
        return {"h_minus1": h}

    runner.run("obstruction.h-minus1-shadow", "v* v_! of the aug point representable", target_check)

    def unit_fails_check():
        verdict = check_weak_equivalence(unit)
        _require(not verdict.ok, {"verdict": verdict.ok, "witness": verdict.witness})
        _require(bool(verdict.crosscheck_agrees), {"crosscheck": verdict.crosscheck_agrees})
        return {"verdict": verdict.ok, "witness": verdict.witness}

    runner.run(
        "obstruction.unit-not-weq",
        "unit at the aug point representable",
        unit_fails_check,
        window=f"[-1, {unit.source.truncation}]",
    )

    def higher_iso_check():
        verdict = is_quasi_iso(good_truncation_map(detecting_map(unit)))
        _require(verdict.ok, {"tau_failures": verdict.witness["failures"]})
        return {"tau_window": list(verdict.window)}

    runner.run("obstruction.higher-homology-iso", "unit away from degree -1", higher_iso_check)
    return runner.report


# -- structural checks --------------------------------------------------------------


def _check_hom_dimensions(runner: _Runner, top: int) -> None:
    def injections():
        for n in range(-1, top + 1):
            for m in range(-1, n + 1):
                got = len(hom_basis("aug_ssimp", m, n))
                _require(got == comb(n + 1, m + 1), {"m": m, "n": n, "got": got})
                if m >= 0:
                    _require(len(hom_basis("ssimp", m, n)) == got, {"m": m, "n": n})
        return {"top": top}

    runner.run("hom-dims.injections", f"all m <= n <= {top}", injections)

    def cubes():
        for n in range(0, top + 1):
            for m in range(0, n + 1):
                got = len(hom_basis("scube", m, n))
                _require(got == comb(n, m) * 2 ** (n - m), {"m": m, "n": n, "got": got})
        return {"top": top}

    runner.run("hom-dims.cubes", f"all m <= n <= {top}", cubes)


def _check_triangular(matrix: RatMatrix, diagonal, where: dict) -> None:
    """Require matrix[r, r] == diagonal[r], a unit, and no nonzero entry left
    of it, row by row; the first failure is the witness."""
    for r, diag in enumerate(diagonal):
        _require(matrix[r, r] == diag, {**where, "row": r, "diag": str(matrix[r, r])})
        k = matrix.leading_column(r)
        _require(k >= r, {**where, "below_diagonal": [r, k]})


def decreasing_basis_matrix(kind: str, m: int, n: int):
    """Rows: monomials ordered by index word; columns: coface normal forms
    ordered by their omitted points, descending.  The triangularity of this
    matrix, with diagonal (-1)^(sum of indices), is the freeness statement."""
    words = strictly_decreasing_basis(kind, m, n)
    basis = hom_basis(kind, m, n)
    order = sorted(basis, key=lambda f: tuple(j for j, _ in reversed(f.constants())))
    column = {f: k for k, f in enumerate(order)}
    rows = ({column[f]: c for f, c in word.expand().terms.items()} for word in words)
    return words, RatMatrix.from_columns(len(basis), rows).transpose()


def _check_decreasing_basis(runner: _Runner, top: int) -> None:
    def run_all():
        for kind, low in (("ssimp", 0), ("aug_ssimp", -1)):
            for m in range(low, top + 1):
                for n in range(m, top + 1):
                    words, matrix = decreasing_basis_matrix(kind, m, n)
                    where = {"kind": kind, "m": m, "n": n}
                    _require(
                        matrix.rows == matrix.cols == comb(n + 1, m + 1),
                        {**where, "size": [matrix.rows, matrix.cols]},
                    )
                    _check_triangular(matrix, [(-1) ** w.index_sum() for w in words], where)
                    _require(rank(matrix) == matrix.rows, where)
        return {"top": top}

    runner.run("freeness.decreasing-monomials", f"triangular, signed unit diagonal, n <= {top}", run_all)


def cubical_family_matrix(m: int, n: int, first_family: bool):
    """Rows: the signed-embedding family in leading-term order; columns: the
    monochromatic cube basis ordered by descending count of color-1
    insertions.  Unitriangular with diagonal exactly 1."""
    basis = hom_basis("scube", m + 1, n + 1)
    order = sorted(basis, key=lambda f: (-f.pattern.count(1), f))
    column = {f: k for k, f in enumerate(order)}
    entries = []
    for q in range(m, n + 1):
        for inner in hom_basis("aug_ssimp", m, q):
            for outer in hom_basis("aug_ssimp", q, n):
                if first_family:
                    element = apply_functor("v", outer).compose(apply_functor("j0", inner))
                    lead = compose(
                        apply_functor("j1", outer).single(), apply_functor("j0", inner).single()
                    )
                else:
                    element = apply_functor("j0", outer).compose(apply_functor("v", inner))
                    lead = compose(
                        apply_functor("j0", outer).single(), apply_functor("j1", inner).single()
                    )
                entries.append((column[lead], element))
    entries.sort(key=lambda t: t[0])
    rows = ({column[f]: c for f, c in element.terms.items()} for _, element in entries)
    leading = [pos for pos, _ in entries]
    return leading, RatMatrix.from_columns(len(basis), rows).transpose()


def _check_cubical_basis(runner: _Runner, top: int) -> None:
    def run_all():
        for m in range(-1, top + 1):
            for n in range(m, top + 1):
                for first in (True, False):
                    leading, matrix = cubical_family_matrix(m, n, first)
                    where = {"family": "v(a) j0(b)" if first else "j0(b) v(a)", "m": m, "n": n}
                    _require(leading == list(range(matrix.rows)), {**where, "leading": leading[:8]})
                    _require(
                        matrix.rows == matrix.cols == comb(n + 1, m + 1) * 2 ** (n - m),
                        {**where, "size": [matrix.rows, matrix.cols]},
                    )
                    _check_triangular(matrix, [1] * matrix.rows, where)
                    _require(rank(matrix) == matrix.rows, where)
        return {"top": top}

    runner.run("freeness.cubical-families", f"unitriangular, n <= {top}", run_all)


def _check_resolutions(runner: _Runner, truncation: int) -> None:
    for kind, objs in (
        ("ssimp", range(0, truncation)),
        ("aug_ssimp", range(-1, truncation)),
        ("scube", range(0, truncation)),
    ):
        for c in objs:
            def check(kind=kind, c=c):
                cx = resolution_complex(kind, c, truncation)
                h = homology(cx)
                dims = h.dims_list()
                _require(all(d == 0 for d in dims), {"homology": dims})
                return {"dims": [cx.dim(p) for p in cx.degrees()]}

            runner.run("resolution.exact", f"{kind} at object {c}", check,
                       window=f"[-1, {truncation - 1}]")


def _check_k_bullet(runner: _Runner, truncation: int) -> None:
    def check():
        h = homology(k_bullet_complex(truncation))
        _require(h.dims_list() == [1] + [0] * (truncation - 1), {"dims": h.dims_list()})
        verdict = is_quasi_iso(k_point_to_bullet(truncation))
        _require(verdict.ok, verdict.witness)
        return {"dims": h.dims_list()}

    runner.run("coefficients.point-to-constant", "inclusion quasi-isomorphism", check,
               window=f"[0, {truncation - 1}]")


# -- corpus checks ---------------------------------------------------------------


def _check_tor(runner: _Runner, corpus: Corpus) -> None:
    for name, x in corpus.modules:
        if x.kind in ("ssimp", "scube"):
            def check(x=x):
                t = tor(x, "k_constant")
                h = homology(detecting_complex(x))
                _require(t.dims == h.dims, {"tor": t.dims, "restricted": h.dims})
                return {"dims": t.dims_list()}
        elif x.kind == "aug_ssimp":
            def check(x=x):
                t = tor(x, "k_constant_shifted")
                tau = homology(good_truncation(detecting_complex(x)))
                for n in range(1, t.window[1] + 1):
                    _require(t.dim(n) == tau.dim(n), {"degree": n, "tor": t.dim(n), "tau": tau.dim(n)})
                return {"dims": t.dims_list()}
        else:
            continue
        runner.run("tor.identification", name, check)

    for name, x in [
        ("rep:ssimp:2", representable("ssimp", 2, 3)),
        ("rep:scube:1", representable("scube", 1, 3)),
        ("rep:aug_ssimp:1", representable("aug_ssimp", 1, 3)),
    ]:
        def check(x=x):
            coeff = {"ssimp": "k_constant", "scube": "k_constant", "aug_ssimp": "k_constant_shifted"}[x.kind]
            lhs = homology(tensor_resolution_complex(x))
            rhs = tor(x, coeff)
            _require(lhs.dims == rhs.dims, {"tensor": lhs.dims, "collapsed": rhs.dims})
            return {"dims": rhs.dims_list()}

        runner.run("tor.tensor-route", name, check)


def _check_low_degree(runner: _Runner, corpus: Corpus) -> None:
    for name, x in corpus.by_kind("aug_ssimp"):
        def check(x=x):
            seq = low_degree_sequence(x)
            _require(seq.is_exact(), {"dims": list(seq.dims)})
            a, b, c, d = seq.dims
            _require(a - b + c - d == 0, {"alternating_sum": a - b + c - d})
            return {"dims": list(seq.dims)}

        runner.run("tor.low-degree-sequence", name, check)


def _check_sign_shadow(runner: _Runner, corpus: Corpus) -> None:
    for name, x in corpus.by_kind("scube"):
        def check(x=x):
            shadow = restrict("v", x)
            _require(bool(validate(shadow)), {"shadow_invalid": True})
            lhs = detecting_complex(shadow)
            rhs = reindex_shift(detecting_complex(x), -1)
            _require(lhs.dims == rhs.dims and lhs.diff == rhs.diff, {"complexes_differ": True})
            h_tau = homology(good_truncation(lhs))
            h_cube = homology(detecting_complex(x))
            for n in range(0, x.truncation - 2):
                _require(
                    h_tau.dim(n) == h_cube.dim(n + 1),
                    {"degree": n, "tau": h_tau.dim(n), "cube": h_cube.dim(n + 1)},
                )
            _, h_minus1 = bottom_cokernel(lhs)
            _require(h_minus1 == h_cube.dim(0), {"h_minus1": h_minus1, "cube_h0": h_cube.dim(0)})
            return {"h_minus1": h_minus1}

        runner.run("sign-shadow.shift", name, check)

    for name, f in corpus.maps_by_kind("scube"):
        def check(f=f):
            direct = check_weak_equivalence(f)
            shadowed = check_weak_equivalence(restrict_map("v", f))
            _require(direct.ok == shadowed.ok, {"cube": direct.ok, "shadow": shadowed.ok})
            return {"weq": direct.ok}

        runner.run("sign-shadow.weq-transfer", name, check)


def _invertible_family(maps: dict[int, RatMatrix]) -> bool:
    return all(is_invertible(m) for m in maps.values())


def _check_weq_characterizations(runner: _Runner, corpus: Corpus) -> None:
    for name, f in corpus.maps:
        kind = f.source.kind
        if kind in ("ssimp", "scube"):
            def check(f=f):
                chain = detecting_map(f)
                c1 = is_quasi_iso(chain).ok
                c2 = _invertible_family(homology_map(chain))
                c3 = _invertible_family(tor_map(f, "k_constant"))
                c4 = _invertible_family(tor_map(chain, "k_point"))
                _require(c1 == c2 == c3 == c4, {"conditions": [c1, c2, c3, c4]})
                return {"weq": c1}
        elif kind == "aug_ssimp":
            def check(f=f):
                chain = detecting_map(f)
                tau = good_truncation_map(chain)
                h_minus1 = bottom_cokernel_map(chain)
                minus1_ok = is_invertible(h_minus1)
                tau_maps = homology_map(tau)
                tau0_ok = is_invertible(tau_maps[0])
                c1 = _invertible_family(tau_maps) and minus1_ok
                c2 = is_quasi_iso(chain).ok
                brutal = tor_map(f, "k_constant_shifted")
                c3 = (
                    all(is_invertible(m) for n, m in brutal.items() if n >= 1)
                    and tau0_ok
                    and minus1_ok
                )
                omega = tor_map(brutal_truncation_map(chain), "k_point")
                c4 = (
                    all(is_invertible(m) for n, m in omega.items() if n >= 1)
                    and tau0_ok
                    and minus1_ok
                )
                _require(c1 == c2 == c3 == c4, {"conditions": [c1, c2, c3, c4]})
                return {"weq": c1}
        else:
            continue
        runner.run("weq.characterizations-agree", name, check)


def _check_two_of_three(runner: _Runner, corpus: Corpus, limit: int = 12) -> None:
    pairs = 0
    for name_f, f in corpus.maps:
        for name_g, g in corpus.maps:
            if pairs >= limit:
                return
            if g.source != f.target:
                continue
            kind = f.source.kind
            if kind not in ("ssimp", "scube", "aug_ssimp"):
                continue

            def check(f=f, g=g):
                vf = check_weak_equivalence(f).ok
                vg = check_weak_equivalence(g).ok
                vgf = check_weak_equivalence(compose_maps(g, f)).ok
                _require(sum([vf, vg, vgf]) != 2, {"f": vf, "g": vg, "gf": vgf})
                return {"f": vf, "g": vg, "gf": vgf}

            runner.run("weq.two-out-of-three", f"{name_g} after {name_f}", check)
            pairs += 1


def _check_induction_dimensions(runner: _Runner, corpus: Corpus) -> None:
    """Freeness predicts induced dimensions: the cube induction of an
    augmented module M has dim Sum_q C(q+1, a) dim M_q in cube degree a."""
    for name, m in corpus.by_kind("aug_ssimp"):
        def check(m=m):
            try:
                result = induce("v", m)
            except WindowError:
                raise _CheckFailure({"window": "empty"}) from None
            lo, hi = result.module.lower, result.module.truncation
            for a in range(lo, hi + 1):
                expected = sum(
                    comb(q + 1, a) * m.dim(q) for q in range(-1, m.truncation + 1)
                )
                _require(
                    result.module.dim(a) == expected,
                    {"degree": a, "got": result.module.dim(a), "expected": expected},
                )
            return {"dims": [result.module.dim(a) for a in range(lo, hi + 1)]}

        runner.run("induction.dimension-oracle", name, check)


def _check_unit_counit(runner: _Runner, corpus: Corpus) -> None:
    # each unit and counit must be a weak equivalence, cross-checked when augmented
    for label, adjunction, which, kind in (
        ("unit", unit_map, "u_delta", "chain0"),
        ("unit", unit_map, "u_a", "chain_neg1"),
        ("counit", counit_map, "u_delta", "ssimp"),
        ("counit", counit_map, "u_a", "aug_ssimp"),
    ):
        for name, m in corpus.by_kind(kind):
            def check(m=m, label=label, adjunction=adjunction, which=which):
                arrow = adjunction(which, m)
                verdict = check_weak_equivalence(arrow)
                witness = {"witness": verdict.witness} if label == "counit" else verdict.witness
                _require(verdict.ok and verdict.crosscheck_agrees is not False, witness)
                return {"window": [arrow.source.lower, arrow.source.truncation]}

            runner.run(f"adjunction.{label}-weq.{which}", name, check)
    # the sign embedding's unit verdicts are recorded, never asserted
    for name, m in corpus.by_kind("aug_ssimp"):
        def check(m=m):
            try:
                unit = unit_map("v", m)
            except WindowError:
                return {"recorded": "window-empty"}
            verdict = check_weak_equivalence(unit)
            return {"recorded": verdict.ok, "witness": verdict.witness}

        runner.run("adjunction.unit-recorded.v", name, check)


def _check_fibrations(runner: _Runner, corpus: Corpus) -> None:
    fixtures = []
    for kind in ("ssimp", "aug_ssimp", "scube"):
        mods = corpus.by_kind(kind)
        if not mods:
            continue
        name, x = mods[0]
        z = zero_module(kind, x.truncation)
        fixtures.append((f"onto-zero:{name}", zero_map(x, z), True))
        if any(x.dim(n) > 0 for n in x.degrees()):
            fixtures.append((f"zero-to-nonzero:{name}", zero_map(z, x), False))
        fixtures.append((f"projection:{name}", sum_projection(x, x, 0), True))
        fixtures.append((f"identity:{name}", identity_map(x), True))
    for name, f, expected in fixtures:
        def check(f=f, expected=expected):
            verdict = check_fibration(f)
            _require(verdict.ok == expected, {"got": verdict.ok, **verdict.witness})
            return {"fibration": verdict.ok}

        runner.run("fibration.detect", name, check)


def _check_corpus_validates(runner: _Runner, corpus: Corpus) -> None:
    def check():
        for name, m in corpus.modules:
            _require(bool(validate(m)), {"module": name})
        for name, f in corpus.maps:
            _require(bool(check_map(f)), {"map": name})
        return {"modules": len(corpus.modules), "maps": len(corpus.maps)}

    runner.run("corpus.validates", f"{len(corpus.modules)} modules, {len(corpus.maps)} maps", check)


def run_battery(spec: CorpusSpec | None = None) -> VerificationReport:
    """Run every check over a deterministic corpus.

    The report lists per-check verdicts with witnesses.  The obstruction is
    included with its expected-failure convention: those checks pass exactly
    when the unit FAILS the weak-equivalence test with the documented
    dimensions.
    """
    spec = spec or CorpusSpec()
    spec.check()
    runner = _Runner(spec)
    corpus = generate_corpus(spec)
    _check_corpus_validates(runner, corpus)
    _check_hom_dimensions(runner, top=min(6, spec.truncation + 1))
    _check_decreasing_basis(runner, top=spec.truncation)
    _check_cubical_basis(runner, top=min(4, spec.truncation))
    _check_resolutions(runner, spec.truncation)
    _check_k_bullet(runner, spec.truncation)
    _check_tor(runner, corpus)
    _check_low_degree(runner, corpus)
    _check_sign_shadow(runner, corpus)
    _check_weq_characterizations(runner, corpus)
    _check_two_of_three(runner, corpus)
    _check_induction_dimensions(runner, corpus)
    _check_unit_counit(runner, corpus)
    _check_fibrations(runner, corpus)
    runner.report.checks.extend(run_counterexample(spec.truncation).checks)
    return runner.report
