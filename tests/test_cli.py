import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semihomology.chainkit import disk_sphere_complex
from semihomology import cli
from semihomology.cli import build_parser, main
from semihomology.diagmod import (
    MAP_FORMAT,
    MAX_FILE_DIM,
    MODULE_FORMAT,
    generator_tokens,
    identity_map,
    map_from_obj,
    map_to_json,
    module_from_json,
    module_from_obj,
    module_to_json,
    representable,
    yoneda_map,
    zero_module,
)
from semihomology.simplexcat import FUNCTORS, KIND_LOWER, delta


@pytest.fixture()
def module_file(tmp_path):
    path = tmp_path / "interval.json"
    path.write_text(module_to_json(representable("ssimp", 1, 4)))
    return path


@pytest.fixture()
def aug_file(tmp_path):
    path = tmp_path / "augpoint.json"
    path.write_text(module_to_json(representable("aug_ssimp", 0, 4)))
    return path


def run(capsys, *argv):
    """main(argv), with an argparse exit counted as the exit status."""
    try:
        status = main([str(a) for a in argv])
    except SystemExit as exc:
        status = exc.code
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestValidate:
    def test_valid_module(self, capsys, module_file):
        status, out, _ = run(capsys, "validate", "--in", module_file)
        assert status == 0
        assert "valid" in out

    def test_invalid_module_is_math_failure(self, capsys, tmp_path):
        # dims all 1 with mismatched scalar cofaces: the degree-2 relation fails
        obj = {
            "format": "semihomology-module/1",
            "kind": "ssimp",
            "truncation": 2,
            "dims": {"0": 1, "1": 1, "2": 1},
            "actions": {
                "delta 0 1": [["1"]],
                "delta 1 1": [["2"]],
                "delta 0 2": [["1"]],
                "delta 1 2": [["2"]],
                "delta 2 2": [["3"]],
            },
        }
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        status, _, err = run(capsys, "validate", "--in", bad)
        assert status == 1
        assert "relation" in err

    def test_misshaped_matrix_is_input_error(self, capsys, tmp_path):
        obj = json.loads(module_to_json(representable("ssimp", 1, 2)))
        obj["actions"]["delta 0 1"] = [["1", "1"]]
        bad = tmp_path / "shape.json"
        bad.write_text(json.dumps(obj))
        status, _, err = run(capsys, "validate", "--in", bad)
        assert status == 2

    @pytest.mark.parametrize("entry, says", [
        (1.5, "1.5"),
        (3, "3"),
        ("1/0", "zero denominator"),
        # strings outside the "p" / "p/q" grammar, ASCII digits only
        ("1.5", "'1.5'"),
        ("1e3", "'1e3'"),
        ("3_000", "'3_000'"),
        ("\u0663", "'\u0663'"),
        ("\u0661/\u0662", "'\u0661/\u0662'"),
        ("1e2000000", "'1e2000000'"),
    ])
    def test_bad_entry_is_input_error(self, capsys, tmp_path, entry, says):
        obj = json.loads(module_to_json(representable("ssimp", 1, 2)))
        obj["actions"]["delta 0 1"][0][0] = entry
        bad = tmp_path / "entry.json"
        bad.write_text(json.dumps(obj))
        status, out, err = run(capsys, "validate", "--in", bad)
        assert status == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert "entry" in err and says in err

    @pytest.mark.parametrize("section, key, value, says", [
        ("actions", "delta 0 3", [["1"]], "action 'delta 0 3'"),
        ("actions", "d 1", [["1"]], "action 'd 1'"),
        ("dims", "3", 1, "dims key '3'"),
        ("dims", "-1", 1, "dims key '-1'"),
        # an action key is exactly the canonical token of a generator
        ("actions", "", [["1"]], "action ''"),
        ("actions", "delta +0 1", [["1"], ["0"]], "action 'delta +0 1'"),
        ("actions", "delta 1 0_1", [["0"], ["1"]], "action 'delta 1 0_1'"),
        ("actions", "delta 0 01", [["1"], ["0"]], "action 'delta 0 01'"),
        ("actions", "delta  0 1", [["1"], ["0"]], "action 'delta  0 1'"),
        ("actions", "delta \u0660 1", [["1"], ["0"]], "action 'delta \u0660 1'"),
    ])
    def test_out_of_window_entry_is_input_error(self, capsys, tmp_path, section, key, value, says):
        obj = json.loads(module_to_json(representable("ssimp", 1, 2)))
        obj[section][key] = value
        bad = tmp_path / "window.json"
        bad.write_text(json.dumps(obj))
        status, out, err = run(capsys, "validate", "--in", bad)
        assert status == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert says in err and "[0, 2]" in err

    @pytest.mark.parametrize("edit, says", [
        ({"truncation": 2.9}, "truncation must be a JSON integer, got 2.9"),
        ({"truncation": True}, "truncation must be a JSON integer, got true"),
        ({"truncation": "2"}, 'truncation must be a JSON integer, got "2"'),
        ({"truncation": 2.9, "dims": {"0": 1.7, "1": "2"}}, "truncation must be a JSON integer"),
        ({"dims": {"0": 1.7}}, "dims '0' must be a JSON integer, got 1.7"),
        ({"dims": {"1": "2"}}, 'dims \'1\' must be a JSON integer, got "2"'),
        ({"dims": {"0": False}}, "dims '0' must be a JSON integer, got false"),
        ({"dims": {"1_0": 1}}, "dims key '1_0' is not a canonical decimal integer"),
        ({"dims": {" 1": 1}}, "dims key ' 1' is not a canonical decimal integer"),
        ({"dims": {"+1": 1}}, "dims key '+1' is not a canonical decimal integer"),
        ({"dims": {"01": 1}}, "dims key '01' is not a canonical decimal integer"),
    ], ids=["trunc-float", "trunc-bool", "trunc-str", "trunc-and-dims", "dims-float",
            "dims-str", "dims-bool", "key-underscore", "key-space", "key-plus", "key-zero"])
    def test_non_integer_field_is_input_error(self, capsys, tmp_path, edit, says):
        obj = json.loads(module_to_json(representable("ssimp", 1, 2)))
        for field, value in edit.items():
            if field == "dims":
                obj["dims"].update(value)
            else:
                obj[field] = value
        bad = tmp_path / "fields.json"
        bad.write_text(json.dumps(obj))
        status, out, err = run(capsys, "validate", "--in", bad)
        assert status == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert says in err and "fields.json" in err

    def test_malformed_file_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        status, _, err = run(capsys, "validate", "--in", bad)
        assert status == 2
        assert "broken.json:1" in err

    @pytest.mark.parametrize("command", ["validate", "weq"])
    @pytest.mark.parametrize("content, says", [
        (b"\xff\xfe{}", "not UTF-8 text (invalid start byte at byte 0)"),
        (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply"),
    ], ids=["not-utf8", "nested-too-deeply"])
    def test_unreadable_document_is_input_error(self, capsys, tmp_path, command, content, says):
        bad = tmp_path / "unreadable.json"
        bad.write_bytes(content)
        status, out, err = run(capsys, command, "--in", bad)
        assert status == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert f"unreadable.json: {says}" in err

    def test_missing_file(self, capsys, tmp_path):
        status, _, err = run(capsys, "validate", "--in", tmp_path / "nope.json")
        assert status == 2


class TestHomology:
    def test_interval(self, capsys, module_file):
        status, out, _ = run(capsys, "homology", "--in", module_file, "--format", "json")
        assert status == 0
        obj = json.loads(out)
        assert obj["dims"]["0"] == 1
        assert obj["dims"]["1"] == 0

    def test_augmented_includes_degree_minus_one(self, capsys, aug_file):
        status, out, _ = run(capsys, "homology", "--in", aug_file, "--format", "json")
        obj = json.loads(out)
        assert obj["dims"]["-1"] == 0


class TestPipelines:
    def test_restrict_then_homology(self, capsys, module_file, tmp_path):
        out_file = tmp_path / "complex.json"
        status, _, _ = run(capsys, "restrict", "--in", module_file, "--out", out_file)
        assert status == 0
        status, out, _ = run(capsys, "homology", "--in", out_file, "--format", "json")
        assert json.loads(out)["dims"]["0"] == 1

    @pytest.mark.parametrize("kind", ["ssimp", "aug_ssimp"])
    def test_restrict_along_v_wrong_kind_is_input_error(self, capsys, tmp_path, kind):
        path = tmp_path / "x.json"
        path.write_text(module_to_json(representable(kind, 1, 4)))
        status, _, err = run(capsys, "restrict", "--in", path, "--functor", "v")
        assert status == 2
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert f"got {kind}" in err

    def test_augment_then_truncate(self, capsys, aug_file, tmp_path):
        aug_complex = tmp_path / "augc.json"
        run(capsys, "augment", "--in", aug_file, "--out", aug_complex)
        truncated = tmp_path / "tau.json"
        status, _, _ = run(capsys, "truncate", "--in", aug_complex, "--out", truncated)
        assert status == 0
        module = module_from_json(truncated.read_text())
        assert module.kind == "chain0"
        assert module.dim(0) == 0  # the augmentation of the point is an isomorphism

    def test_induce_v_on_point(self, capsys, aug_file, tmp_path):
        out_file = tmp_path / "induced.json"
        status, out, _ = run(
            capsys, "induce", "--in", aug_file, "--functor", "v", "--out", out_file,
            "--format", "json",
        )
        assert status == 0
        obj = json.loads(out)
        assert obj["dims"]["0"] == 2 and obj["dims"]["1"] == 1
        induced = module_from_json(out_file.read_text())
        assert induced.kind == "scube"

    def test_unit_v_reports_failure_verdict(self, capsys, aug_file):
        status, out, _ = run(capsys, "unit", "--in", aug_file, "--functor", "v", "--format", "json")
        assert status == 0
        obj = json.loads(out)
        assert obj["weak_equivalence"] is False

    def test_induce_presentation_golden(self, capsys, aug_file):
        # pin the coend basis choice for the obstruction induction
        status, out, _ = run(capsys, "induce", "--in", aug_file, "--functor", "v", "--format", "json")
        assert status == 0
        obj = json.loads(out)
        # the surviving coend basis at the bottom is the two one-color cofaces
        assert obj["presentation"]["0"] == [
            [0, "cube 0->1 [0]", 0],
            [0, "cube 0->1 [1]", 0],
        ]
        assert obj["presentation"]["1"] == [[0, "cube 1->1 [x1]", 0]]

    def test_empty_window_rejects_top_supported_module(self, capsys, tmp_path):
        # a complex supported at the truncation edge cannot certify induction
        sphere_top = disk_sphere_complex([("sphere", 4)], 4)
        path = tmp_path / "top.json"
        path.write_text(module_to_json(sphere_top))
        status, out, err = run(capsys, "induce", "--in", path, "--functor", "u_delta")
        assert status == 2
        assert out == ""
        assert err == "semihomology: the validity window is empty: nothing can be certified\n"

    def test_induce_from_the_wrong_kind_names_both_kinds(self, capsys, tmp_path):
        # a chain0 file is top-supported too: the kind mismatch is reported,
        # not the empty window
        path = tmp_path / "chain.json"
        path.write_text(module_to_json(disk_sphere_complex([("sphere", 4)], 4)))
        status, out, err = run(capsys, "induce", "--in", path, "--functor", "v")
        assert status == 2
        assert out == ""
        assert err == "semihomology: v induces from kind aug_ssimp, got chain0\n"

    def test_counit_u_a_is_weq(self, capsys, aug_file):
        status, out, _ = run(capsys, "counit", "--in", aug_file, "--functor", "u_a", "--format", "json")
        assert status == 0
        assert json.loads(out)["weak_equivalence"] is True

    def test_tor(self, capsys, aug_file):
        status, out, _ = run(
            capsys, "tor", "--in", aug_file, "--coeff", "k_constant_shifted", "--format", "json"
        )
        assert status == 0
        assert json.loads(out)["dims"]["0"] == 1

    def test_tor_illegal_pairing(self, capsys, aug_file):
        status, _, err = run(capsys, "tor", "--in", aug_file, "--coeff", "k_point")
        assert status == 2
        assert "pairing" in err


class TestMapCommands:
    def test_weq_and_fib(self, capsys, tmp_path):
        # both representables have a single homology class; the vertex
        # inclusion hits it, so this is a weak equivalence but no fibration
        f = yoneda_map("ssimp", delta(0, 1), 4)
        path = tmp_path / "map.json"
        path.write_text(map_to_json(f))
        status, out, _ = run(capsys, "weq", "--in", path, "--format", "json")
        assert status == 0
        assert json.loads(out)["weak_equivalence"] is True
        status, out, _ = run(capsys, "fib", "--in", path, "--format", "json")
        assert status == 0
        assert json.loads(out)["fibration"] is False

    def test_weq_false_on_zero_endomorphism(self, capsys, tmp_path):
        from semihomology.diagmod import zero_map

        x = representable("ssimp", 1, 4)
        path = tmp_path / "zero.json"
        path.write_text(map_to_json(zero_map(x, x)))
        status, out, _ = run(capsys, "weq", "--in", path, "--format", "json")
        assert status == 0
        assert json.loads(out)["weak_equivalence"] is False


    @pytest.mark.parametrize("part, field, value, says", [
        ("map", "truncation", True, "truncation must be a JSON integer, got true"),
        ("source", "truncation", 2.9, "truncation must be a JSON integer, got 2.9"),
        ("target", "truncation", "2", 'truncation must be a JSON integer, got "2"'),
        ("source", "dims", {"0": 1.7}, "dims '0' must be a JSON integer, got 1.7"),
        ("target", "dims", {"1": "2"}, 'dims \'1\' must be a JSON integer, got "2"'),
        ("source", "dims", {"+1": 1}, "dims key '+1' is not a canonical decimal integer"),
        ("map", "components", {"1_0": []}, "components key '1_0' is not a canonical decimal integer"),
        ("map", "components", {" 1": []}, "components key ' 1' is not a canonical decimal integer"),
        # an object field of another JSON type names the field
        ("map", "components", [], "components must be a JSON object, got []"),
        ("map", "source", [], "source must be a JSON object, got []"),
        ("map", "target", 3, "target must be a JSON object, got 3"),
        ("source", "dims", [], "dims must be a JSON object, got []"),
        ("target", "actions", None, "actions must be a JSON object, got null"),
    ], ids=["map-trunc-bool", "source-trunc-float", "target-trunc-str", "source-dims-float",
            "target-dims-str", "source-key-plus", "components-key-underscore", "components-key-space",
            "components-list", "source-list", "target-int", "source-dims-list", "target-actions-null"])
    def test_non_integer_field_is_input_error(self, capsys, tmp_path, part, field, value, says):
        obj = json.loads(map_to_json(yoneda_map("ssimp", delta(0, 1), 2)))
        doc = obj if part == "map" else obj[part]
        if isinstance(value, dict):
            doc[field].update(value)
        else:
            doc[field] = value
        path = tmp_path / "map.json"
        path.write_text(json.dumps(obj))
        status, out, err = run(capsys, "weq", "--in", path)
        assert status == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert says in err and "map.json" in err


def _chain_module(dims: dict, actions: dict) -> dict:
    return {"format": "semihomology-module/1", "kind": "chain0", "truncation": 1,
            "dims": dims, "actions": actions}


# degree 0 of a chain0 map from k^2 to k, both concentrated in degree 0
_POINTS_MAP = {"format": "semihomology-map/1", "kind": "chain0", "truncation": 1,
               "source": _chain_module({"0": 2}, {}), "target": _chain_module({"0": 1}, {})}


class TestMapHeader:
    """A map document's kind and truncation repeat its source's; a missing
    one, or one that disagrees, exits 2 with one stderr line naming it, for
    every command that reads a map.  A missing source is still named first."""

    @pytest.mark.parametrize("command", [["weq"], ["fib"], ["convert", "--to", "map-json"]])
    @pytest.mark.parametrize("edit, says", [
        ({"kind": "aug_ssimp"}, 'map kind "aug_ssimp" does not match the source\'s "ssimp"'),
        ({"kind": ["ssimp"]}, 'map kind ["ssimp"] does not match the source\'s "ssimp"'),
        ({"truncation": 1}, "map truncation 1 does not match the source's 2"),
        ({"truncation": 2.0}, "truncation must be a JSON integer, got 2.0"),
        ({"kind": None}, "required field kind is missing"),
        ({"truncation": None}, "required field truncation is missing"),
        ({"kind": None, "truncation": None}, "required field kind is missing"),
        ({"kind": None, "truncation": None, "source": None}, "required field source is missing"),
    ], ids=["kind-other", "kind-list", "truncation-other", "truncation-float", "no-kind",
            "no-truncation", "no-header", "no-header-no-source"])
    def test_is_input_error(self, capsys, tmp_path, command, edit, says):
        obj = json.loads(map_to_json(yoneda_map("ssimp", delta(0, 1), 2)))
        for field, value in edit.items():
            if value is None:
                del obj[field]
            else:
                obj[field] = value
        path = tmp_path / "map.json"
        path.write_text(json.dumps(obj))
        status, out, err = run(capsys, *command, "--in", path)
        assert (status, out) == (2, "")
        assert err == f"semihomology: {path}: {says}\n"


class TestEmptyGoodTruncation:
    """At truncation -1 there is no degree 0 to truncate to: truncate and
    the augmented weq verdict exit 2 with one stderr line, where both once
    raised KeyError: 0."""

    @pytest.mark.parametrize("command, kind", [("truncate", "chain_neg1"), ("weq", "aug_ssimp")])
    def test_is_input_error(self, capsys, tmp_path, command, kind):
        x = zero_module(kind, -1)
        path = tmp_path / "doc.json"
        path.write_text(map_to_json(identity_map(x)) if command == "weq" else module_to_json(x))
        status, out, err = run(capsys, command, "--in", path)
        assert (status, out) == (2, "")
        assert err == "semihomology: good truncation needs degree 0: the validity window is empty\n"


class TestJsonFieldTypes:
    """A module's dims and actions must be JSON objects, and every matrix of
    a module or map a list of lists; otherwise exit 2 with one stderr line
    that names the field, the token or the degree.  The map fields are in
    TestMapCommands."""

    @staticmethod
    def rejected(capsys, tmp_path, doc, *argv):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        status, out, err = run(capsys, *argv, "--in", path)
        assert status == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err and "doc.json" in err
        return err

    @pytest.mark.parametrize("doc, argv, says", [
        # a string is not a column: "12" was read as the rows ["1"], ["2"]
        (_chain_module({"0": 2, "1": 1}, {"d 1": "12"}), ["validate"],
         "action 'd 1' must be a list of lists of entries, got \"12\""),
        # nor a row: ["12"] was read as the row ["1", "2"]
        (_chain_module({"0": 1, "1": 2}, {"d 1": ["12"]}), ["convert", "--to", "module-json"],
         "action 'd 1' must be a list of lists of entries, got [\"12\"]"),
        ({**_POINTS_MAP, "components": {"0": ["12"]}}, ["fib"],
         "component '0' must be a list of lists of entries, got [\"12\"]"),
        ({**_POINTS_MAP, "components": {"0": ["12"]}}, ["weq"],
         "component '0' must be a list of lists of entries"),
    ], ids=["action-column", "action-row", "component-fib", "component-weq"])
    def test_string_matrix_is_input_error(self, capsys, tmp_path, doc, argv, says):
        assert says in self.rejected(capsys, tmp_path, doc, *argv)

    @pytest.mark.parametrize("field, value, says", [
        ("dims", [], "dims must be a JSON object, got []"),
        ("dims", None, "dims must be a JSON object, got null"),
        ("actions", [], "actions must be a JSON object, got []"),
        ("actions", "d 1", 'actions must be a JSON object, got "d 1"'),
    ], ids=["dims-list", "dims-null", "actions-list", "actions-string"])
    def test_non_object_module_field_is_input_error(self, capsys, tmp_path, field, value, says):
        doc = json.loads(module_to_json(representable("ssimp", 1, 2)))
        doc[field] = value
        assert says in self.rejected(capsys, tmp_path, doc, "validate")

    @pytest.mark.parametrize("doc, argv, says", [
        ({k: v for k, v in _chain_module({"0": 1}, {}).items() if k != "truncation"}, ["validate"],
         "doc.json: required field truncation is missing"),
        ({k: v for k, v in _chain_module({"0": 1}, {}).items() if k != "kind"}, ["validate"],
         "doc.json: required field kind is missing"),
        ({k: v for k, v in _POINTS_MAP.items() if k != "source"}, ["weq"],
         "doc.json: required field source is missing"),
        ({**_POINTS_MAP, "target": {k: v for k, v in _POINTS_MAP["target"].items() if k != "truncation"}},
         ["fib"], "doc.json: required field truncation is missing"),
        # a list kind once reached a cache and failed as "unhashable type: 'list'"
        ({**_chain_module({"0": 1}, {}), "kind": []}, ["validate"], "doc.json: kind must be a JSON string, got []"),
        ({**_chain_module({"0": 1}, {}), "kind": 5}, ["validate"], "doc.json: kind must be a JSON string, got 5"),
        ({**_chain_module({"0": 1}, {}), "kind": "foo"}, ["validate"], "doc.json: unknown module kind 'foo'"),
    ], ids=["no-truncation", "no-kind", "no-source", "no-target-truncation", "kind-list", "kind-int",
            "kind-unknown"])
    def test_missing_or_mistyped_field_is_named(self, capsys, tmp_path, doc, argv, says):
        assert self.rejected(capsys, tmp_path, doc, *argv).rstrip("\n").endswith(says)


class TestEchoedValueIsBounded:
    """An input error echoes at most a short prefix of the offending value,
    so a huge value still gives one short stderr line that names the field;
    a number no sequence can hold as a dimension, or too long to read at
    all, is an input error too, never a traceback."""

    @pytest.mark.parametrize("doc, command, says", [
        ({**_chain_module({"0": 1}, {}), "truncation": "x" * 100_000}, "validate",
         "truncation must be a JSON integer, got \"xxx"),
        ({**_chain_module({"0": 1}, {}), "kind": list(range(5000))}, "validate",
         "kind must be a JSON string, got [0, 1, 2"),
        (_chain_module({"0": 1, "1": 1}, {"d 1": [[list(range(5000))]]}), "validate",
         "matrix entry [0, 1, 2"),
        (_chain_module({"1" * 4000: 1}, {}), "validate", "dims key '111"),
        ({**_POINTS_MAP, "components": {"1" * 4000: [["1"]]}}, "weq", "degree 111"),
    ], ids=["long-truncation", "long-kind", "long-entry", "long-dims-key", "long-component-key"])
    def test_long_value_is_cut(self, capsys, tmp_path, doc, command, says):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        status, out, err = run(capsys, command, "--in", path)
        assert status == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err and says in err and "…" in err
        assert len(err.encode()) - len(str(path).encode()) <= 200

    @pytest.mark.parametrize("command", ["validate", "homology"])
    def test_dimension_past_any_sequence_is_input_error(self, capsys, tmp_path, command):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_chain_module({"0": 10**30}, {})))
        status, out, err = run(capsys, command, "--in", path)
        assert status == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err and "doc.json: dims '0' exceeds the largest dimension" in err

    @pytest.mark.parametrize("digits", [4000, 5000], ids=["over-cap", "too-long-to-read"])
    def test_long_integer_is_input_error(self, capsys, tmp_path, digits):
        path = tmp_path / "doc.json"
        doc = json.dumps(_chain_module({"0": 1}, {}))
        path.write_text(doc.replace('"truncation": 1', '"truncation": ' + "1" * digits))
        status, out, err = run(capsys, "validate", "--in", path)
        assert status == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err and "doc.json" in err
        assert len(err.encode()) - len(str(path).encode()) <= 200


class TestDimensionBudget:
    """A module document declares each dimension in a few bytes; above
    MAX_FILE_DIM the loaders refuse it before any matrix is built, with
    exit 2 and one stderr line that names the degree."""

    @pytest.mark.parametrize("command", ["validate", "homology"])
    @pytest.mark.parametrize("doc, degree", [
        # once a MemoryError traceback in validate
        (_chain_module({"0": 10**12}, {}), "0"),
        # once a homology run still busy after 20 s
        (_chain_module({"0": 3_000_000, "1": 3_000_000}, {}), "0"),
        (_chain_module({"0": 1, "1": MAX_FILE_DIM + 1}, {}), "1"),
        ({**_POINTS_MAP, "target": _chain_module({"0": 1, "1": 10**9}, {})}, "1"),
    ], ids=["1e12", "3e6-twice", "budget-plus-one", "map-target"])
    def test_over_budget_is_input_error(self, capsys, tmp_path, command, doc, degree):
        if doc["format"] == MAP_FORMAT:
            command = {"validate": "weq", "homology": "fib"}[command]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        status, out, err = run(capsys, command, "--in", path)
        assert status == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert f"doc.json: dims '{degree}' exceeds the largest dimension a file may declare, {MAX_FILE_DIM}" in err

    def test_at_budget_loads(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_chain_module({"0": MAX_FILE_DIM, "1": 1}, {})))
        status, out, _ = run(capsys, "validate", "--in", path)
        assert status == 0 and "valid" in out


# A 104-byte module document over truncation 500: building it, let alone
# validating it, takes far longer than rejecting it.
HUGE_MODULE = {"format": "semihomology-module/1", "kind": "ssimp", "truncation": 500,
               "dims": {"0": 1}, "actions": {}}


def _huge_map(part: str) -> dict:
    """A small valid map document whose `part` claims truncation 500."""
    obj = json.loads(map_to_json(yoneda_map("ssimp", delta(0, 1), 2)))
    if part == "map":
        obj["truncation"] = 500
    else:
        obj[part]["truncation"] = 500
    return obj


class TestTruncationCapOnFiles:
    @pytest.mark.parametrize("argv, doc", [
        (["validate"], HUGE_MODULE),
        (["homology"], HUGE_MODULE),
        (["induce", "--functor", "u_delta"], HUGE_MODULE),
        (["weq"], _huge_map("map")),
        (["weq"], _huge_map("source")),
        (["weq"], _huge_map("target")),
    ], ids=["validate", "homology", "induce-u_delta", "weq-map", "weq-source", "weq-target"])
    def test_over_cap_is_input_error_before_any_work(self, capsys, tmp_path, monkeypatch, argv, doc):
        monkeypatch.delenv("SEMIHOMOLOGY_MAX_TRUNC", raising=False)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        status, out, err = run(capsys, *argv, "--in", path)
        assert status == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "truncation 500 exceeds the cap 8" in err and "huge.json" in err

    def test_cap_can_be_raised(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SEMIHOMOLOGY_MAX_TRUNC", "9")
        path = tmp_path / "nine.json"
        path.write_text(json.dumps({**HUGE_MODULE, "truncation": 9}))
        status, _, _ = run(capsys, "validate", "--in", path)
        assert status == 0


class TestCapVariable:
    """SEMIHOMOLOGY_MAX_TRUNC is read on every call and must be a
    non-negative integer; unset or empty means 8."""

    @pytest.mark.parametrize("raw", ["abc", "1.5", "-5"])
    @pytest.mark.parametrize("command", ["validate", "counterexample"])
    def test_malformed_value_is_input_error(self, capsys, module_file, monkeypatch, raw, command):
        monkeypatch.setenv("SEMIHOMOLOGY_MAX_TRUNC", raw)
        argv = ["--in", module_file] if command == "validate" else ["--trunc", "2"]
        status, out, err = run(capsys, command, *argv)
        assert status == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert f"SEMIHOMOLOGY_MAX_TRUNC='{raw}'" in err

    @pytest.mark.parametrize("raw", [None, ""], ids=["unset", "empty"])
    def test_unset_or_empty_means_eight(self, capsys, tmp_path, monkeypatch, raw):
        if raw is None:
            monkeypatch.delenv("SEMIHOMOLOGY_MAX_TRUNC", raising=False)
        else:
            monkeypatch.setenv("SEMIHOMOLOGY_MAX_TRUNC", raw)
        path = tmp_path / "nine.json"
        path.write_text(json.dumps({**HUGE_MODULE, "truncation": 9}))
        status, _, err = run(capsys, "validate", "--in", path)
        assert status == 2
        assert "truncation 9 exceeds the cap 8" in err

    def test_read_on_every_call(self, capsys, module_file, monkeypatch):
        monkeypatch.setenv("SEMIHOMOLOGY_MAX_TRUNC", "0")
        status, _, err = run(capsys, "validate", "--in", module_file)
        assert status == 2
        assert "truncation 4 exceeds the cap 0" in err
        monkeypatch.setenv("SEMIHOMOLOGY_MAX_TRUNC", "4")
        status, _, _ = run(capsys, "validate", "--in", module_file)
        assert status == 0


class TestCounterexample:
    def test_reproduces_with_exit_zero(self, capsys):
        status, out, _ = run(capsys, "counterexample", "--format", "json")
        assert status == 0
        obj = json.loads(out)
        names = {c["name"]: c for c in obj["checks"]}
        assert names["obstruction.h-minus1-source"]["witness"]["h_minus1"] == 0
        assert names["obstruction.h-minus1-shadow"]["witness"]["h_minus1"] == 1

    def test_truncation_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("SEMIHOMOLOGY_MAX_TRUNC", "4")
        status, _, err = run(capsys, "counterexample", "--trunc", "6")
        assert status == 2
        assert "cap" in err

    @pytest.mark.parametrize("n", [0, -1, -3])
    def test_truncation_below_one_is_input_error(self, capsys, monkeypatch, n):
        monkeypatch.delenv("SEMIHOMOLOGY_MAX_TRUNC", raising=False)
        status, out, err = run(capsys, "counterexample", "--trunc", n)
        assert (status, out) == (2, "")
        assert err == "semihomology: truncation must be in 1..8\n"

    def test_truncation_one_reproduces(self, capsys):
        status, _, _ = run(capsys, "counterexample", "--trunc", "1")
        assert status == 0

    def test_runs_as_python_dash_m_from_the_source_tree(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        env.pop("SEMIHOMOLOGY_MAX_TRUNC", None)
        done = subprocess.run(
            [sys.executable, "-m", "semihomology", "counterexample", "--trunc", "5"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "obstruction.h-minus1-shadow" in done.stdout


class TestOneCap:
    """battery, corpus and counterexample share the cap of the file inputs."""

    @pytest.mark.parametrize("command", ["battery", "corpus"])
    def test_default_cap_is_eight(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.delenv("SEMIHOMOLOGY_MAX_TRUNC", raising=False)
        out_dir = ["--out-dir", tmp_path / "c"] if command == "corpus" else []
        status, out, err = run(capsys, command, "--trunc", "9", *out_dir)
        assert (status, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert "truncation 9 exceeds the cap 8" in err
        assert not (tmp_path / "c").exists()

    def test_raised_cap_admits_the_corpus(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SEMIHOMOLOGY_MAX_TRUNC", "9")
        status, _, err = run(capsys, "corpus", "--trunc", "9", "--out-dir", tmp_path)
        assert (status, err) == (0, "")
        assert json.loads((tmp_path / "index.json").read_text())["entries"]

    def test_battery_below_two_is_input_error(self, capsys, monkeypatch):
        monkeypatch.delenv("SEMIHOMOLOGY_MAX_TRUNC", raising=False)
        status, out, err = run(capsys, "battery", "--trunc", "1")
        assert (status, out) == (2, "")
        assert err == "semihomology: truncation must be in 2..8\n"


class TestBattery:
    ARGS = ["battery", "--trunc", "4", "--seed", "1", "--representables", "5",
            "--induced", "3", "--sums", "1", "--yoneda-maps", "4"]

    def test_exit_reflects_known_defect_and_report_written(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        status, _, err = run(capsys, *self.ARGS, "--out", out_file, "--format", "json")
        # the nonaugmented unit/counit checks fail (documented defect), so exit 1
        assert status == 1
        obj = json.loads(out_file.read_text())
        failing = {c["name"] for c in obj["checks"] if c["verdict"] == "fail"}
        assert failing <= {"adjunction.unit-weq.u_delta", "adjunction.counit-weq.u_delta"}
        obstruction = [c for c in obj["checks"] if c["name"].startswith("obstruction.")]
        assert obstruction and all(c["verdict"] == "pass" for c in obstruction)

    def test_byte_identical_reports(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(capsys, *self.ARGS, "--out", a)
        run(capsys, *self.ARGS, "--out", b)
        assert a.read_bytes() == b.read_bytes()


class TestCorpusAndConvert:
    def test_corpus_round_trip(self, capsys, tmp_path):
        out_dir = tmp_path / "corpus"
        status, _, _ = run(
            capsys, "corpus", "--trunc", "4", "--seed", "2", "--representables", "4",
            "--induced", "2", "--sums", "1", "--out-dir", out_dir,
        )
        assert status == 0
        index = json.loads((out_dir / "index.json").read_text())
        assert index["entries"]
        first = next(e for e in index["entries"] if not e.get("map"))
        status, _, _ = run(capsys, "validate", "--in", out_dir / first["file"])
        assert status == 0

    def test_corpus_index_names_one_file_per_entry(self, capsys, tmp_path):
        # seed 4 at truncation 4 once drew one direct sum twice, so two
        # entries named one file
        out_dir = tmp_path / "corpus"
        status, _, _ = run(capsys, "corpus", "--trunc", "4", "--seed", "4", "--out-dir", out_dir)
        assert status == 0
        files = [e["file"] for e in json.loads((out_dir / "index.json").read_text())["entries"]]
        assert len(files) == len(set(files))
        assert sorted(files) == sorted(p.name for p in out_dir.iterdir() if p.name != "index.json")

    def test_convert_module_round_trip_canonical(self, capsys, module_file, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        run(capsys, "convert", "--in", module_file, "--to", "module-json", "--out", out1)
        run(capsys, "convert", "--in", out1, "--to", "module-json", "--out", out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_convert_module_to_text(self, capsys, module_file):
        status, out, _ = run(capsys, "convert", "--in", module_file, "--to", "text")
        assert status == 0
        assert "delta 0 1" in out

    def test_convert_report_to_table(self, capsys, tmp_path):
        status, out, _ = run(capsys, "counterexample", "--format", "json")
        assert status == 0
        report = tmp_path / "report.json"
        report.write_text(out)
        status, out, _ = run(capsys, "convert", "--in", report, "--to", "table")
        assert status == 0
        assert "obstruction.unit-not-weq" in out

    @pytest.mark.parametrize("to, says", [("module-json", "zero denominator"), ("text", "zero denominator")])
    def test_convert_malformed_module_is_input_error(self, capsys, tmp_path, to, says):
        obj = json.loads(module_to_json(representable("ssimp", 1, 2)))
        obj["actions"]["delta 0 1"][0][0] = "1/0"
        bad = tmp_path / "entry.json"
        bad.write_text(json.dumps(obj))
        status, out, err = run(capsys, "convert", "--in", bad, "--to", to)
        assert status == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err and says in err

    @pytest.mark.parametrize("checks", [
        ["x"],
        {"a": 1},
        "pass",
        None,
        [{"name": "hom-dims.cubes", "verdict": "pass"}, 3],
    ])
    def test_convert_malformed_report_is_input_error(self, capsys, tmp_path, checks):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"format": "semihomology-report/1", "checks": checks}))
        status, out, err = run(capsys, "convert", "--in", path, "--to", "table")
        assert status == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err and "'checks' must be a list of objects" in err

    @pytest.mark.parametrize("report, says", [
        ({}, "report 'checks' must be a list of objects"),
        ({"checks": [{"instance": "i", "verdict": "pass"}]}, "check 0: required field name is missing"),
        ({"checks": [{"name": "n", "verdict": "pass"}]}, "check 0: required field instance is missing"),
        ({"checks": [{"name": "n", "instance": "i"}]}, "check 0: required field verdict is missing"),
        ({"checks": [{"name": 3, "instance": "i", "verdict": "pass"}]},
         "check 0: name must be a JSON string, got 3"),
        ({"checks": [{"name": None, "instance": "i", "verdict": "pass"}]},
         "check 0: name must be a JSON string, got null"),
        ({"checks": [{"name": "n", "instance": [], "verdict": "pass"}]},
         "check 0: instance must be a JSON string, got []"),
        ({"checks": [{"name": "n", "instance": "i", "verdict": "maybe"}]},
         'check 0: verdict must be "pass" or "fail", got "maybe"'),
        ({"checks": [{"name": "n", "instance": "i", "verdict": "pass"},
                     {"name": "n", "instance": "i", "verdict": True}]},
         'check 1: verdict must be "pass" or "fail", got true'),
        ({"checks": [{"name": "n", "instance": "i", "verdict": "PASS"}]},
         'check 0: verdict must be "pass" or "fail", got "PASS"'),
    ], ids=["no-checks", "no-name", "no-instance", "no-verdict", "int-name", "null-name",
            "list-instance", "unknown-verdict", "bool-verdict", "uppercase-verdict"])
    def test_convert_report_field_errors_name_the_field(self, capsys, tmp_path, report, says):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"format": "semihomology-report/1", **report}))
        status, out, err = run(capsys, "convert", "--in", path, "--to", "table")
        assert status == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert says in err

    def test_convert_report_table_lines(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        checks = [{"name": "a.b", "instance": "x", "verdict": "pass", "window": None},
                  {"name": "c", "instance": "", "verdict": "fail"}]
        path.write_text(json.dumps({"format": "semihomology-report/1", "checks": checks}))
        status, out, _ = run(capsys, "convert", "--in", path, "--to", "table")
        assert (status, out) == (0, "pass  a.b  x\nFAIL  c  \n")

    def test_convert_applies_the_truncation_cap(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("SEMIHOMOLOGY_MAX_TRUNC", raising=False)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(HUGE_MODULE))
        status, out, err = run(capsys, "convert", "--in", path, "--to", "text")
        assert status == 2
        assert out == ""
        assert "truncation 500 exceeds the cap 8" in err

    def test_convert_unknown_format(self, capsys, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text('{"format": "mystery/9"}')
        status, _, err = run(capsys, "convert", "--in", path, "--to", "text")
        assert status == 2


class TestDeterminism:
    def test_identical_invocations_byte_identical(self, capsys, aug_file):
        status1, out1, _ = run(capsys, "tor", "--in", aug_file, "--coeff", "k_constant_shifted",
                               "--format", "json")
        status2, out2, _ = run(capsys, "tor", "--in", aug_file, "--coeff", "k_constant_shifted",
                               "--format", "json")
        assert (status1, out1) == (status2, out2)


def _subcommands(parser) -> list[str]:
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(action.choices)


class TestParserReuse:
    """One parser per process: every main(argv) parses with build_parser()'s
    single parser and behaves as it would with a fresh one."""

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def _sequence(self, capsys, module_file, aug_file, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        out_file = tmp_path / "induced.json"
        results = []
        for argv in (
            ["validate", "--in", module_file],
            ["validate", "--in", broken],
            ["induce", "--in", aug_file],  # --functor is required
            ["homology", "--in", module_file, "--format", "json"],
            ["induce", "--in", aug_file, "--functor", "v", "--out", out_file],
        ):
            out_file.unlink(missing_ok=True)
            status, out, err = run(capsys, *argv)
            written = out_file.read_bytes() if out_file.exists() else None
            results.append((status, out, err, written))
        return results

    def test_interleaved_requests_match_a_fresh_parser(self, capsys, monkeypatch, module_file,
                                                        aug_file, tmp_path):
        build_parser()
        cached = self._sequence(capsys, module_file, aug_file, tmp_path)
        monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
        fresh = self._sequence(capsys, module_file, aug_file, tmp_path)
        assert [r[0] for r in cached] == [0, 2, 2, 0, 0]
        assert "--functor" in cached[2][2]
        assert cached[4][3] is not None
        assert cached == fresh

    def test_no_flag_leaks_into_a_later_namespace(self):
        parser = build_parser()
        sequence = [
            ["restrict", "--in", "x.json", "--out", "o.json", "--functor", "v"],
            ["restrict", "--in", "x.json"],
            ["induce", "--in", "x.json", "--functor", "u_a", "--out", "o.json", "--format", "json"],
            ["induce", "--in", "x.json", "--functor", "v"],
            ["battery", "--timing", "--out", "r.json", "--seed", "3"],
            ["battery"],
            ["validate", "--in", "x.json"],
        ]
        for argv in sequence:
            assert parser.parse_args(argv) == build_parser.__wrapped__().parse_args(argv), argv
        later = parser.parse_args(["restrict", "--in", "x.json"])
        assert (later.out, later.functor) == (None, "auto")
        later = parser.parse_args(["induce", "--in", "x.json", "--functor", "v"])
        assert (later.out, later.format) == (None, "table")
        later = parser.parse_args(["battery"])
        assert (later.timing, later.out, later.seed) == (False, None, 0)
        assert not hasattr(parser.parse_args(["validate", "--in", "x.json"]), "out")

    def test_help_is_identical_to_a_fresh_parser(self, capsys, monkeypatch):
        commands = [[]] + [[name] for name in _subcommands(build_parser.__wrapped__())]
        assert len(commands) == 16
        cached = [run(capsys, *c, "--help") for c in commands]
        monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
        fresh = [run(capsys, *c, "--help") for c in commands]
        assert all(status == 0 and out for status, out, _ in cached)
        assert cached == fresh


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["tor", "--in", "X.json", "--coeff", "k_bullet"],
        ["validate"],
        ["nosuch"],
        ["battery", "--trunc", "x"],
        [],
        ["validate", "--in", "X.json", "--bogus"],
    ], ids=["bad-choice", "missing-required", "unknown-command", "bad-int", "no-command",
            "unrecognized"])
    def test_usage_error_is_one_line(self, capsys, argv):
        status, out, err = run(capsys, *argv)
        assert status == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("semihomology: ")


class TestUnwritableOutput:
    # {missing} is a directory that does not exist, {file} an existing file
    @pytest.mark.parametrize("argv, target", [
        (["battery", "--trunc", "3", "--representables", "1", "--induced", "0", "--sums", "0",
          "--yoneda-maps", "0", "--out", "{missing}/r.json"], "{missing}/r.json"),
        (["battery", "--trunc", "3", "--representables", "1", "--induced", "0", "--sums", "0",
          "--yoneda-maps", "0", "--out", "{tmp}"], "{tmp}"),
        (["restrict", "--in", "{module}", "--out", "{missing}/y.json"], "{missing}/y.json"),
        (["augment", "--in", "{aug}", "--out", "{missing}/c.json"], "{missing}/c.json"),
        (["induce", "--in", "{aug}", "--functor", "v", "--out", "{missing}/y.json"],
         "{missing}/y.json"),
        (["convert", "--in", "{module}", "--to", "text", "--out", "{missing}/t.txt"],
         "{missing}/t.txt"),
        (["corpus", "--trunc", "3", "--out-dir", "{file}"], "{file}"),
        (["corpus", "--trunc", "3", "--out-dir", "{file}/sub"], "{file}/sub"),
    ], ids=["battery-missing-dir", "battery-directory", "restrict", "augment", "induce",
            "convert", "corpus-over-file", "corpus-under-file"])
    def test_is_input_error_naming_the_path(self, capsys, tmp_path, module_file, aug_file,
                                            argv, target):
        names = {"missing": tmp_path / "missing", "file": module_file, "tmp": tmp_path,
                 "module": module_file, "aug": aug_file}
        status, out, err = run(capsys, *(a.format(**names) for a in argv))
        assert status == 2
        assert out == ""
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"semihomology: {target.format(**names)}: ")


# the legal (kind, coefficient) pairs of tor
_TOR_COEFFS = {
    "ssimp": ("k_constant",),
    "scube": ("k_constant",),
    "aug_ssimp": ("k_constant_shifted",),
    "chain0": ("k_point", "k_constant"),
    "chain_neg1": ("k_point_neg1",),
}


def _pinned_requests(corpus_dir: Path) -> list[list[str]]:
    """Every report request on the files of a corpus directory, with --format
    json, plus one invalid module and one map that does not commute."""
    requests = []
    for entry in json.loads((corpus_dir / "index.json").read_text())["entries"]:
        name, kind = entry["file"], entry["kind"]
        if entry.get("map"):
            requests += [[cmd, "--in", name] for cmd in ("weq", "fib")]
            continue
        requests += [["validate", "--in", name], ["homology", "--in", name]]
        requests += [["tor", "--in", name, "--coeff", c] for c in _TOR_COEFFS[kind]]
        for which in ("u_delta", "u_a", "v"):
            source, target = FUNCTORS[which][:2]
            for cmd, legal in (("unit", source), ("counit", target)):
                if kind == legal:
                    requests.append([cmd, "--in", name, "--functor", which])
    requests = [argv + ["--format", "json"] for argv in requests]
    # dims all 1 with mismatched scalar cofaces: the degree-2 relation fails
    (corpus_dir / "bad_module.json").write_text(json.dumps({
        "format": "semihomology-module/1", "kind": "ssimp", "truncation": 2,
        "dims": {"0": 1, "1": 1, "2": 1},
        "actions": {"delta 0 1": [["1"]], "delta 1 1": [["2"]], "delta 0 2": [["1"]],
                    "delta 1 2": [["2"]], "delta 2 2": [["3"]]},
    }))
    # twice the identity in degree 1 only: no longer commutes with the cofaces
    doc = json.loads((corpus_dir / "map_id_rep_ssimp_1.json").read_text())
    doc["components"]["1"] = [[str(2 * int(e)) for e in row] for row in doc["components"]["1"]]
    (corpus_dir / "bad_map.json").write_text(json.dumps(doc))
    return requests + [["validate", "--in", "bad_module.json"], ["weq", "--in", "bad_map.json"]]


class TestCliBytesArePinned:
    """One sha256 over (argv, exit code, stdout, stderr) of every report
    request on the seed-0 truncation-4 corpus: any change to a verdict, a
    window, a witness or an error message of the CLI moves it."""

    DIGEST = "45d6ac257e784e314a3b4a2a4f6a854ace76a0111f5db487bf21d11766d130c6"

    def test_corpus_requests(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("SEMIHOMOLOGY_MAX_TRUNC", raising=False)
        monkeypatch.chdir(tmp_path)  # file names, not paths, reach argv and stderr
        assert run(capsys, "corpus", "--trunc", "4", "--out-dir", ".")[0] == 0
        requests = _pinned_requests(tmp_path)
        digest = hashlib.sha256()
        codes = []
        for argv in requests:
            status, out, err = run(capsys, *argv)
            codes.append(status)
            digest.update(json.dumps([argv, status, out, err]).encode() + b"\n")
        assert codes == [0] * (len(requests) - 2) + [1, 1]
        assert len(requests) == 154
        assert digest.hexdigest() == self.DIGEST


# -- loader fuzz ----------------------------------------------------------------

_VALID_ENTRIES = ("0", "1", "-1", "2", "1/2", "-3/4")
_MALFORMED_ENTRIES = ("1/0", "x", "", "1.5", " 1", "0x1", "1e3", "--1")
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-3, 3, allow_nan=False),
    st.text(max_size=3), st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
)
_ENTRY_MIXES = (
    st.just("0"),
    st.sampled_from(_VALID_ENTRIES),
    st.one_of(st.sampled_from(_VALID_ENTRIES), st.sampled_from(_MALFORMED_ENTRIES), _JSON_VALUES),
)


def _draw_matrix(draw, entries, rows: int, cols: int) -> list:
    """A rows x cols matrix of entries; one time in eight, one row or
    column too many or too few."""
    if draw(st.integers(0, 7)) == 0:
        rows += draw(st.sampled_from((-1, 1)))
        cols += draw(st.sampled_from((-1, 0, 1)))
    return [[draw(entries) for _ in range(cols)] for _ in range(rows)]


_MODULE_FIELDS = ("format", "kind", "truncation", "dims", "actions")
_MAP_FIELDS = ("format", "kind", "truncation", "source", "target", "components")


def _draw_defect(draw, parts: list[tuple[dict, tuple[str, ...]]]) -> None:
    """Half the time, delete one field of one of the (document, fields)
    parts or set it to another JSON value."""
    if draw(st.booleans()):
        part, fields = draw(st.sampled_from(parts))
        field = draw(st.sampled_from(fields))
        if draw(st.booleans()):
            del part[field]
        else:
            part[field] = draw(_JSON_VALUES)


@st.composite
def _module_docs(draw, kind: str, truncation: int, entries) -> tuple[dict, dict[int, int]]:
    """A module document with dims <= 6 and its dims; the actions are
    drawn, so most fail validation, some are malformed, and some are
    missing, misshaped or not generators of the kind.  One time in ten a
    degree declares a dimension above MAX_FILE_DIM."""
    lower = KIND_LOWER[kind]
    dims = {n: draw(st.integers(0, 6)) for n in range(lower, truncation + 1)}
    actions = {}
    for t, g in generator_tokens(kind, truncation).items():
        if draw(st.integers(0, 5)):
            actions[t] = _draw_matrix(draw, entries, dims[g.source], dims[g.target])
    keys = {str(n): d for n, d in dims.items()}
    if draw(st.integers(0, 9)) == 0:
        keys[draw(st.sampled_from(("+1", "01", "x", str(truncation + 1))))] = 1
    if draw(st.integers(0, 9)) == 0:
        keys[str(draw(st.sampled_from(sorted(dims))))] = draw(st.integers(MAX_FILE_DIM + 1, 10**30))
    if draw(st.integers(0, 9)) == 0:
        actions[draw(st.sampled_from(("d 9", "delta 0 0", "cube 1 2 1", "nope")))] = [["1"]]
    doc = {"format": MODULE_FORMAT, "kind": kind, "truncation": truncation,
           "dims": keys, "actions": actions}
    return doc, dims


@st.composite
def _documents(draw) -> tuple[str, dict]:
    """("module", document) or ("map", document), truncation <= 3."""
    kind = draw(st.sampled_from(tuple(KIND_LOWER)))
    truncation = draw(st.integers(KIND_LOWER[kind], 3))
    entries = draw(st.sampled_from(_ENTRY_MIXES))
    source, sdims = draw(_module_docs(kind, truncation, entries))
    if draw(st.booleans()):
        _draw_defect(draw, [(source, _MODULE_FIELDS)])
        return "module", source
    target, tdims = draw(_module_docs(kind, truncation, entries))
    components = {
        str(n): _draw_matrix(draw, entries, tdims[n], sdims[n])
        for n in sdims if draw(st.integers(0, 5))
    }
    doc = {"format": MAP_FORMAT, "kind": kind, "truncation": truncation,
           "source": source, "target": target, "components": components}
    _draw_defect(draw, [(doc, _MAP_FIELDS), (source, _MODULE_FIELDS), (target, _MODULE_FIELDS)])
    return "map", doc


class TestLoaderFuzz:
    """Drawn module and map documents, valid and malformed: the loaders
    accept them or raise ValueError, and the CLI exits 0, 1 or 2 without
    a traceback, with exactly one stderr line on exit 2."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "doc.json"

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(drawn=_documents())
    def test_loaders_and_cli(self, path, drawn):
        which, doc = drawn
        try:
            (module_from_obj if which == "module" else map_from_obj)(doc)
        except ValueError:
            pass
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(["validate" if which == "module" else "weq", "--in", str(path)])
        assert status in (0, 1, 2)
        if status == 2:
            assert len(err.getvalue().splitlines()) == 1, err.getvalue()
        assert "Traceback" not in err.getvalue()
