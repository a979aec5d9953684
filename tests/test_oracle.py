import dataclasses
import hashlib
import json

import pytest

from semihomology.chainkit import is_quasi_iso
from semihomology.diagmod import (
    KIND_LOWER,
    DiagramModule,
    ModuleMap,
    Verdict,
    check_map,
    direct_sum,
    identity_map,
    module_to_json,
    representable,
    truncate_module,
    validate,
    zero_map,
    zero_module,
)
from semihomology.exactlin import RatMatrix
from semihomology.oracle import (
    Corpus,
    CorpusSpec,
    _CheckFailure,
    _Runner,
    _check_cubical_basis,
    _check_decreasing_basis,
    _check_triangular,
    check_fibration,
    check_weak_equivalence,
    cubical_family_matrix,
    decreasing_basis_matrix,
    generate_corpus,
    run_battery,
    run_counterexample,
)
from semihomology.transport import detecting_map, induce, restrict, restrict_map, unit_map

SMALL = CorpusSpec(seed=3, truncation=4, representables=6, induced=4, sums=2, yoneda_maps=5)


class TestCorpus:
    def test_deterministic_under_seed(self):
        a = generate_corpus(SMALL)
        b = generate_corpus(SMALL)
        assert [n for n, _ in a.modules] == [n for n, _ in b.modules]
        for (_, x), (_, y) in zip(a.modules, b.modules):
            assert module_to_json(x) == module_to_json(y)

    def test_default_scale_is_25_modules(self):
        corpus = generate_corpus(CorpusSpec())
        assert len(corpus.modules) == 25
        assert all(max(m.dims.values(), default=0) <= 6 for _, m in corpus.modules)

    def test_every_module_validates(self):
        corpus = generate_corpus(SMALL)
        for _, m in corpus.modules:
            assert validate(m)

    def test_kinds_present(self):
        corpus = generate_corpus(CorpusSpec())
        for kind in ("ssimp", "aug_ssimp", "scube", "chain0", "chain_neg1"):
            assert corpus.by_kind(kind), kind

    @pytest.mark.parametrize("truncation, seeds", [(4, range(30)), (5, range(30)), (6, range(8))])
    def test_module_and_map_names_are_unique(self, truncation, seeds):
        # seeds 4 and 13 once drew one direct sum twice under one name
        for seed in seeds:
            corpus = generate_corpus(CorpusSpec(seed=seed, truncation=truncation))
            names = [n for n, _ in corpus.modules] + [n for n, _ in corpus.maps]
            assert len(names) == len(set(names)), (seed, truncation)

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            generate_corpus(CorpusSpec(truncation=50))

    def test_empty_corpus(self):
        empty = CorpusSpec(representables=0, induced=0, sums=0, yoneda_maps=0)
        corpus = generate_corpus(empty)
        assert corpus.modules == [] and corpus.maps == []
        # only the structural checks and the obstruction run on an empty corpus
        report = run_battery(empty)
        corpus_checks = {"tor.identification", "weq.characterizations-agree", "sign-shadow.shift"}
        assert not corpus_checks & {c.name for c in report.checks}
        assert report.ok()


class TestVerdicts:
    def test_identity_is_weak_equivalence(self):
        for kind in ("ssimp", "aug_ssimp", "scube"):
            x = representable(kind, 1, 4)
            assert check_weak_equivalence(identity_map(x)).ok

    def test_zero_map_to_nonzero_fails(self):
        x = representable("ssimp", 2, 4)
        z = zero_module("ssimp", 4)
        assert not check_weak_equivalence(zero_map(z, x)).ok

    def test_v_unit_verdict_at_point(self):
        unit = unit_map("v", representable("aug_ssimp", 0, 4))
        verdict = check_weak_equivalence(unit)
        assert not verdict.ok
        assert verdict.crosscheck_agrees
        assert verdict.witness["h_minus1_shape"][:2] == [1, 0]

    def test_fibration_fixtures(self):
        x = representable("scube", 1, 4)
        z = zero_module("scube", 4)
        assert check_fibration(zero_map(x, z)).ok
        assert not check_fibration(zero_map(z, x)).ok
        assert check_fibration(identity_map(x)).ok

    def test_every_check_returns_one_verdict_record(self):
        # chain and nonaugmented kinds: the weq verdict is is_quasi_iso of the
        # detecting map itself; only the augmented kind is cross-checked
        for name, f in generate_corpus(SMALL).maps:
            weq = check_weak_equivalence(f)
            if f.source.kind == "aug_ssimp":
                assert weq.crosscheck_agrees is True, name
                assert set(weq.witness) == {"tau_failures", "h_minus1_shape", "full_failures"}
            else:
                assert weq == is_quasi_iso(detecting_map(f)), name
                assert weq.crosscheck_agrees is None
            fib = check_fibration(f)
            tested = restrict("v", f.source) if f.source.kind == "scube" else f.source
            assert fib.window == (tested.lower, tested.truncation), name
            assert bool(fib) == fib.ok == (not fib.witness["failures"]), name
        report = validate(zero_module("ssimp", 2))
        assert (report, report.window, report.witness) == (Verdict(True), None, {})
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.ok = False


class TestBasisMatrices:
    def test_decreasing_matrix_shape(self):
        words, matrix = decreasing_basis_matrix("aug_ssimp", -1, 3)
        assert matrix.rows == matrix.cols == 1  # C(4, 0)
        words, matrix = decreasing_basis_matrix("ssimp", 0, 3)
        assert matrix.rows == matrix.cols == 4

    def test_cubical_matrix_unitriangular_smoke(self):
        leading, matrix = cubical_family_matrix(0, 2, True)
        assert leading == list(range(matrix.rows))
        assert all(matrix[r, r] == 1 for r in range(matrix.rows))

    def test_both_freeness_checks_pass_to_six(self):
        # the battery caps the cubical check at n <= 4; here both run to 6
        runner = _Runner(CorpusSpec(truncation=6))
        _check_decreasing_basis(runner, 6)
        _check_cubical_basis(runner, 6)
        assert [(c.name, c.passed, c.witness) for c in runner.report.checks] == [
            ("freeness.decreasing-monomials", True, {"top": 6}),
            ("freeness.cubical-families", True, {"top": 6}),
        ]


class TestCheckTriangular:
    WHERE = {"kind": "ssimp", "m": 0, "n": 2}

    def witness(self, rows, diagonal):
        try:
            _check_triangular(RatMatrix.from_rows(rows), diagonal, self.WHERE)
        except _CheckFailure as exc:
            return exc.witness
        return None

    def test_signed_triangular_matrix_passes(self):
        assert self.witness([[1, 3, 0], [0, -1, 2], [0, 0, 1]], [1, -1, 1]) is None

    @pytest.mark.parametrize("rows, witness", [
        # a wrong diagonal entry names its row and the entry found
        ([[1, 0, 0], [0, 2, 0], [0, 0, 1]], {"row": 1, "diag": "2"}),
        # an entry below the diagonal names the first nonzero column
        ([[1, 0, 0], [0, 1, 0], [0, 5, 1]], {"below_diagonal": [2, 1]}),
        ([[1, 0, 0], [0, 1, 0], [3, 5, 1]], {"below_diagonal": [2, 0]}),
        # both faults in one row: the diagonal is checked first
        ([[1, 0, 0], [4, 2, 0], [0, 0, 1]], {"row": 1, "diag": "2"}),
        # the first faulty row wins over a later one
        ([[1, 0, 0], [7, 1, 0], [0, 0, 3]], {"below_diagonal": [1, 0]}),
        # a zero row fails its diagonal rather than raising
        ([[1, 0, 0], [0, 0, 0], [0, 0, 1]], {"row": 1, "diag": "0"}),
    ])
    def test_first_failure_and_its_witness(self, rows, witness):
        assert self.witness(rows, [1, 1, 1]) == {**self.WHERE, **witness}


class TestCounterexample:
    def test_reproduces(self):
        report = run_counterexample()
        assert report.ok()
        names = [c.name for c in report.checks]
        assert "obstruction.unit-not-weq" in names
        by_name = {c.name: c for c in report.checks}
        assert by_name["obstruction.induced-dims"].witness["dims"][:2] == [2, 1]
        assert by_name["obstruction.h-minus1-source"].witness["h_minus1"] == 0
        assert by_name["obstruction.h-minus1-shadow"].witness["h_minus1"] == 1


class TestBattery:
    def test_small_battery_failures_are_the_known_defect(self):
        report = run_battery(SMALL)
        failing = {c.name for c in report.failures()}
        assert failing <= {"adjunction.unit-weq.u_delta", "adjunction.counit-weq.u_delta"}
        names = {c.name for c in report.checks}
        assert "obstruction.unit-not-weq" in names
        assert "weq.characterizations-agree" in names
        assert "sign-shadow.shift" in names
        assert "tor.identification" in names

    def test_obstruction_checks_pass_inside_battery(self):
        report = run_battery(SMALL)
        for c in report.checks:
            if c.name.startswith("obstruction."):
                assert c.passed, c.name

    def test_report_json_round_trip_and_determinism(self):
        a = run_battery(SMALL).to_json()
        b = run_battery(SMALL).to_json()
        assert a == b
        obj = json.loads(a)
        assert obj["format"] == "semihomology-report/1"
        assert obj["summary"]["total"] == len(obj["checks"])

    def test_timing_excluded_by_default(self):
        report = run_battery(SMALL)
        obj = json.loads(report.to_json())
        assert "elapsed_seconds" not in obj["checks"][0]
        obj = json.loads(report.to_json(include_timing=True))
        assert "elapsed_seconds" in obj["checks"][0]

    def test_table_renders(self):
        report = run_battery(SMALL)
        text = report.table()
        assert "checks passed" in text.splitlines()[-1]

    # The seed-0 reports are pinned byte for byte: a change that only makes
    # the computation faster must not move a single byte of the canonical
    # report.  Regenerate a hash only when the report itself is meant to change.
    # Truncation 8 holds the largest matrices of any seed-0 report.  The ids
    # stay "truncation-digest", as they were before max_dim was a parameter.
    @pytest.mark.parametrize("truncation, max_dim, digest", [
        pytest.param(t, d, h, id=f"{t}-{h}") for t, d, h in [
            (5, 6, "a6e3a4b0ed01c426262b2e4cd3e4e642f416a55260e465e460960f9ea5f68f86"),
            (6, 6, "444b0a1be12181d0d382e9e687eee2b105f388cbb4e11dd16defbc30e4a82eff"),
            (8, 6, "081b7fae9a659e26519f30dddafcb57e3d5cd9935a4f3ad2f072f7095cc4e436"),
        ]
    ])
    def test_seed0_report_bytes_are_pinned(self, truncation, max_dim, digest):
        text = run_battery(CorpusSpec(seed=0, truncation=truncation, max_dim=max_dim)).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest


# The restrictions and inductions defined on each module kind.
_RESTRICTIONS = {"ssimp": ("u_delta",), "aug_ssimp": ("u_a",), "scube": ("u_square", "v")}
_INDUCTIONS = {"chain0": ("u_delta",), "chain_neg1": ("u_a",), "aug_ssimp": ("v",)}


class TestFiatOutputsValidate:
    """Every construction that marks its output valid without validate is
    checked here by the real validate and check_map, on equal copies with an
    empty memo, so nothing the construction cached is consulted."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_corpus_constructions(self, seed):
        corpus = generate_corpus(CorpusSpec(seed=seed, truncation=5))
        outputs = [zero_module(kind, 5) for kind in KIND_LOWER]
        outputs += [representable(kind, c, 5) for kind, c in
                    [("ssimp", 0), ("ssimp", 3), ("aug_ssimp", -1), ("aug_ssimp", 2), ("scube", 2)]]
        modules = [m for _, m in corpus.modules]
        for x in modules:
            outputs += [restrict(which, x) for which in _RESTRICTIONS.get(x.kind, ())]
            outputs += [induce(which, x).module for which in _INDUCTIONS.get(x.kind, ())]
            outputs.append(truncate_module(x, 4))
            partner = next(m for m in reversed(modules) if m.kind == x.kind)
            outputs.append(direct_sum(x, partner))
        for y in outputs:
            assert validate(DiagramModule(y.kind, y.truncation, y.dims, y.actions)), y.kind
        for _, f in corpus.maps:
            for which in _RESTRICTIONS[f.source.kind]:
                g = restrict_map(which, f)
                fresh = ModuleMap(
                    *(DiagramModule(m.kind, m.truncation, m.dims, m.actions) for m in (g.source, g.target)),
                    g.components,
                )
                assert check_map(fresh), which
