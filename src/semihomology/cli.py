"""Command-line entry point.

Commands load modules or maps from JSON files, run exact computations, and
emit deterministic reports: identical invocations (flags, files, seed)
produce byte-identical output.  All numbers are exact rational strings.

Exit codes: 0 success or verified; 1 mathematical failure (violated
invariant, failed check other than the expected obstruction); 2 input error
(malformed file, illegal flags, truncation over the cap, empty validity
window).
Stdout carries reports; stderr carries diagnostics.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from .chainkit import homology, good_truncation
from .diagmod import (
    DiagramModule,
    MAP_FORMAT,
    MODULE_FORMAT,
    canonical_json,
    check_map,
    json_int,
    map_from_obj,
    map_to_json,
    module_from_obj,
    module_to_json,
    validate,
)
from .exactlin import echo
from .oracle import (
    REPORT_FORMAT,
    CorpusSpec,
    check_fibration,
    check_truncation,
    check_weak_equivalence,
    generate_corpus,
    run_battery,
    run_counterexample,
    truncation_cap,
)
from .simplexcat import FUNCTORS
from .transport import (
    COEFFICIENTS,
    DETECTING_FUNCTOR,
    WindowError,
    counit_map,
    detecting_complex,
    induce,
    restrict,
    tor,
    unit_map,
)

OK, MATH_FAILURE, INPUT_ERROR = 0, 1, 2


class CliError(Exception):
    def __init__(self, message: str, status: int = INPUT_ERROR):
        super().__init__(message)
        self.status = status


def _call(fn, *args):
    """fn(*args), with a ValueError an input error."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise CliError(f"{path}: JSON nested too deeply") from None
    except ValueError:  # an integer past Python's limit on digits converted
        raise CliError(f"{path}: a JSON integer is too long to read") from None
    if not isinstance(obj, dict):
        raise CliError(f"{path}: expected a JSON object")
    return obj


def _parse(path: str, obj: dict, build, *parts: str):
    """build(obj), with a malformed document an input error.  The truncation
    cap is checked first on obj and on its named parts (a map's source and
    target), before anything is built: a module over a huge truncation costs
    time before it can fail.  A malformed cap is an error of its own, not of
    the file."""
    _call(truncation_cap)
    try:
        for doc in (obj, *(obj.get(part) for part in parts)):
            if isinstance(doc, dict) and "truncation" in doc:
                check_truncation(json_int(doc["truncation"], "truncation"))
        return build(obj)
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"{path}: {exc}") from None


def _require(path: str, what: str, verdict) -> None:
    """A refused validate or check_map verdict is a mathematical failure."""
    if not verdict:
        raise CliError(f"{path}: {what}: {verdict.witness['message']}", MATH_FAILURE)


def _load_module(path: str) -> DiagramModule:
    module = _parse(path, _load_json(path), module_from_obj)
    _require(path, "invalid module", validate(module))
    return module


def _load_map(path: str):
    f = _parse(path, _load_json(path), map_from_obj, "source", "target")
    for side, m in (("source", f.source), ("target", f.target)):
        _require(path, f"invalid {side} module", validate(m))
    _require(path, "not a module map", check_map(f))
    return f


def _write(path: str | Path | None, text: str) -> None:
    if path:
        try:
            Path(path).write_text(text)
        except OSError as exc:
            raise CliError(f"{path}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _emit(args, obj: dict, table: str) -> None:
    if args.format == "json":
        sys.stdout.write(canonical_json(obj))
    else:
        print(table)


def _homology_obj(report) -> dict:
    lo, hi = report.window
    return {
        "window": [lo, hi],
        "dims": {str(n): report.dim(n) for n in range(lo, hi + 1)},
    }


def _homology_table(report, title: str) -> str:
    lo, hi = report.window
    lines = [title, f"window [{lo}, {hi}]"]
    for n in range(lo, hi + 1):
        lines.append(f"  H_{n} = {report.dim(n)}")
    return "\n".join(lines)


# -- commands -----------------------------------------------------------------


def cmd_validate(args) -> int:
    module = _load_module(args.infile)  # raises with status 1 when invalid
    _emit(
        args,
        {"valid": True, "kind": module.kind, "truncation": module.truncation},
        f"valid {module.kind} module, truncation {module.truncation}",
    )
    return OK


_HOMOLOGY_TITLES = {
    "ssimp": "restricted complex homology",
    "scube": "sign complex homology",
    "aug_ssimp": "augmented complex homology",
}


def cmd_homology(args) -> int:
    module = _load_module(args.infile)
    report = homology(detecting_complex(module))
    title = _HOMOLOGY_TITLES.get(module.kind, "chain complex homology")
    _emit(args, _homology_obj(report), _homology_table(report, title))
    return OK


def cmd_restrict(args) -> int:
    module = _load_module(args.infile)
    functor = args.functor
    if functor == "auto":
        # the augmented complex has its own command, augment
        functor = DETECTING_FUNCTOR.get(module.kind) if module.kind != "aug_ssimp" else None
        if functor is None:
            raise CliError(f"no default restriction for kind {module.kind}; pass --functor")
    _write(args.out, module_to_json(_call(restrict, functor, module)))
    return OK


def cmd_augment(args) -> int:
    module = _load_module(args.infile)
    if module.kind != "aug_ssimp":
        raise CliError(f"augment needs an aug_ssimp module, got {module.kind}")
    _write(args.out, module_to_json(detecting_complex(module)))
    return OK


def cmd_truncate(args) -> int:
    module = _load_module(args.infile)
    if module.kind != "chain_neg1":
        raise CliError(f"truncate needs a chain_neg1 module, got {module.kind}")
    _write(args.out, module_to_json(_call(good_truncation, module)))
    return OK


def cmd_induce(args) -> int:
    module = _load_module(args.infile)
    source, _, shift, _ = FUNCTORS[args.functor]
    if module.kind == source:  # else induce names both kinds
        try:  # the induced module must be readable by every command
            check_truncation(module.truncation + shift)
        except ValueError as exc:
            raise CliError(f"{args.infile}: induced along {args.functor}: {exc}") from None
    try:
        result = induce(args.functor, module)
    except WindowError:
        raise CliError("the validity window is empty: nothing can be certified") from None
    except ValueError as exc:
        raise CliError(str(exc)) from None
    window = (result.module.lower, result.module.truncation)
    if args.out:
        _write(args.out, module_to_json(result.module))
    obj = {
        "functor": args.functor,
        "valid_window": list(window),
        "dims": {str(n): result.module.dim(n) for n in result.module.degrees()},
        "presentation": {
            str(n): [[q, phi, i] for q, phi, i in labels]
            for n, labels in result.presentation.items()
        },
    }
    lines = [f"induced along {args.functor}: window {window}"]
    for n in result.module.degrees():
        lines.append(f"  degree {n}: dim {result.module.dim(n)}")
    _emit(args, obj, "\n".join(lines))
    return OK


def cmd_adjunction(args) -> int:
    """unit or counit, as the subcommand's default ``adjunction`` says."""
    module = _load_module(args.infile)
    arrow = _call(args.adjunction, args.functor, module)
    window = (arrow.source.lower, arrow.source.truncation)
    label = f"{args.command} along {args.functor}"
    verdict = check_weak_equivalence(arrow)
    obj = {
        "map": label,
        "window": list(window),
        "weak_equivalence": verdict.ok,
        "witness": verdict.witness,
    }
    table = f"{label}: window {window}, weak equivalence: {verdict.ok}"
    _emit(args, obj, table)
    return OK


def cmd_tor(args) -> int:
    module = _load_module(args.infile)
    report = _call(tor, module, args.coeff)
    _emit(args, _homology_obj(report), _homology_table(report, f"Tor against {args.coeff}"))
    return OK


def cmd_weq(args) -> int:
    f = _load_map(args.infile)
    verdict = _call(check_weak_equivalence, f)
    obj = {
        "kind": f.source.kind,
        "weak_equivalence": verdict.ok,
        "window": list(verdict.window),
        "witness": verdict.witness,
    }
    _emit(args, obj, f"weak equivalence: {verdict.ok} on window {list(verdict.window)}")
    return OK


def cmd_fib(args) -> int:
    f = _load_map(args.infile)
    verdict = check_fibration(f)
    failures = verdict.witness["failures"]
    obj = {"kind": f.source.kind, "fibration": verdict.ok, "failures": failures}
    _emit(args, obj, f"fibration: {verdict.ok}" + (f" (fails at {failures})" if failures else ""))
    return OK


def cmd_counterexample(args) -> int:
    report = _call(run_counterexample, args.trunc)
    if args.format == "json":
        sys.stdout.write(report.to_json(include_timing=args.timing))
    else:
        print(report.table())
    return OK if report.ok() else MATH_FAILURE


def _spec_from_args(args) -> CorpusSpec:
    spec = CorpusSpec(**{f.name: getattr(args, f.name) for f in dataclasses.fields(CorpusSpec)})
    _call(spec.check)
    return spec


def cmd_battery(args) -> int:
    report = run_battery(_spec_from_args(args))
    text = report.to_json(include_timing=args.timing)
    if args.out:
        _write(args.out, text)
    if args.format == "json":
        sys.stdout.write(text)
    else:
        print(report.table())
        for c in report.failures():
            print(f"failed: {c.name} [{c.instance}]: {c.witness}", file=sys.stderr)
    return OK if report.ok() else MATH_FAILURE


def cmd_corpus(args) -> int:
    corpus = generate_corpus(_spec_from_args(args))
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"{out_dir}: {exc.strerror or exc}") from None
    index = []
    for name, module in corpus.modules:
        fname = name.replace(":", "_").replace("+", "_") + ".json"
        _write(out_dir / fname, module_to_json(module))
        index.append({"name": name, "file": fname, "kind": module.kind})
    for name, f in corpus.maps:
        fname = "map_" + name.replace(":", "_").replace("->", "_to_").replace("+", "_") + ".json"
        _write(out_dir / fname, map_to_json(f))
        index.append({"name": name, "file": fname, "kind": f.source.kind, "map": True})
    _write(out_dir / "index.json", canonical_json({"entries": index}))
    _emit(
        args,
        {"modules": len(corpus.modules), "maps": len(corpus.maps), "dir": str(out_dir)},
        f"wrote {len(corpus.modules)} modules and {len(corpus.maps)} maps to {out_dir}",
    )
    return OK


def _module_text_dump(module: DiagramModule) -> str:
    from .diagmod import generator_tokens

    lines = [f"kind {module.kind}, truncation {module.truncation}"]
    lines.append("dims " + " ".join(f"{n}:{module.dim(n)}" for n in module.degrees()))
    for t, g in generator_tokens(module.kind, module.truncation).items():
        m = module.actions[g]
        lines.append(f"[{t}]  ({m.rows}x{m.cols})")
        if not m.is_zero():
            lines.append(m.pretty())
    return "\n".join(lines) + "\n"


def _report_table(path: str, obj: dict) -> str:
    """One line per check of a report document: its verdict, name and
    instance.  A missing or mistyped field is an input error that names it."""
    checks = obj.get("checks")
    if not isinstance(checks, list) or not all(isinstance(c, dict) for c in checks):
        raise CliError(f"{path}: report 'checks' must be a list of objects")
    lines = []
    for k, c in enumerate(checks):
        for field, want in (("name", "a JSON string"), ("instance", "a JSON string"),
                            ("verdict", '"pass" or "fail"')):
            if field not in c:
                raise CliError(f"{path}: check {k}: required field {field} is missing")
            value = c[field]
            if not (value in ("pass", "fail") if field == "verdict" else isinstance(value, str)):
                raise CliError(f"{path}: check {k}: {field} must be {want}, got {echo(json.dumps(value))}")
        lines.append(f"{'pass' if c['verdict'] == 'pass' else 'FAIL'}  {c['name']}  {c['instance']}")
    return "\n".join(lines) + "\n"


def cmd_convert(args) -> int:
    obj = _load_json(args.infile)
    fmt = obj.get("format")
    if fmt == MODULE_FORMAT:
        if args.to == "module-json":
            _write(args.out, module_to_json(_parse(args.infile, obj, module_from_obj)))
            return OK
        if args.to == "text":
            _write(args.out, _module_text_dump(_parse(args.infile, obj, module_from_obj)))
            return OK
        raise CliError(f"cannot convert a module document to {args.to!r}")
    if fmt == MAP_FORMAT:
        if args.to == "map-json":
            _write(args.out, map_to_json(_parse(args.infile, obj, map_from_obj, "source", "target")))
            return OK
        raise CliError(f"cannot convert a map document to {args.to!r}")
    if fmt == REPORT_FORMAT:
        if args.to == "table":
            _write(args.out, _report_table(args.infile, obj))
            return OK
        raise CliError(f"cannot convert a report document to {args.to!r}")
    raise CliError(f"unrecognized document format {echo(repr(fmt))}")


# -- parser ---------------------------------------------------------------------


def _add_timing(p: argparse.ArgumentParser) -> None:
    p.add_argument("--timing", action="store_true", help="include timing in JSON reports")


def _add_corpus_flags(p: argparse.ArgumentParser) -> None:
    """One integer flag per CorpusSpec field, named after it; the truncation
    keeps the short name --trunc."""
    for f in dataclasses.fields(CorpusSpec):
        flag = "trunc" if f.name == "truncation" else f.name.replace("_", "-")
        p.add_argument(f"--{flag}", dest=f.name, metavar=flag.replace("-", "_").upper(),
                       type=int, default=f.default)


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are one stderr line and exit 2, like
    every other input error; the subparsers share the class."""

    def error(self, message: str):
        self.exit(INPUT_ERROR, f"semihomology: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: building it costs far more than a
    parse, and a parse leaves no state on it (every default is immutable,
    and argparse looks up sys.stdout and sys.stderr only when it prints)."""
    parser = _Parser(
        prog="semihomology",
        description="Exact homology and comparison functors for semisimplicial, "
        "augmented semisimplicial, and semicubical modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, fn, help_: str, report: bool = True, infile: bool = True,
                out: bool = False) -> argparse.ArgumentParser:
        """A subcommand; a report command takes --format, a file command
        --in, and a command that writes a file --out."""
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        if report:
            p.add_argument("--format", choices=("table", "json"), default="table")
        if infile:
            p.add_argument("--in", dest="infile", required=True)
        if out:
            p.add_argument("--out", default=None)
        return p

    command("validate", cmd_validate, "check the defining identities of a module file")
    command("homology", cmd_homology, "detecting homology of a module, per kind")

    p = command("restrict", cmd_restrict,
                "restriction along a comparison functor: the chain complex along "
                "u_delta or u_square, the sign shadow along v", report=False, out=True)
    p.add_argument("--functor", choices=("auto", "u_delta", "u_square", "v"), default="auto")

    command("augment", cmd_augment, "full augmented complex of an aug_ssimp module",
            report=False, out=True)
    command("truncate", cmd_truncate, "good truncation of a chain_neg1 module", report=False,
            out=True)

    p = command("induce", cmd_induce, "extension of scalars along a comparison functor", out=True)
    p.add_argument("--functor", choices=("u_delta", "u_a", "v"), required=True)

    for name, adjunction in (("unit", unit_map), ("counit", counit_map)):
        p = command(name, cmd_adjunction, f"adjunction {name} and its weak-equivalence verdict")
        p.set_defaults(adjunction=adjunction)
        p.add_argument("--functor", choices=("u_delta", "u_a", "v"), required=True)

    p = command("tor", cmd_tor, "Tor against a named coefficient object")
    p.add_argument("--coeff", choices=COEFFICIENTS, required=True)

    command("weq", cmd_weq, "weak-equivalence verdict for a map file")
    command("fib", cmd_fib, "fibration verdict for a map file")

    p = command("counterexample", cmd_counterexample, "reproduce the degree -1 obstruction",
                infile=False)
    _add_timing(p)
    p.add_argument("--trunc", type=int, default=5)

    p = command("battery", cmd_battery, "run the full verification battery", infile=False)
    _add_timing(p)
    _add_corpus_flags(p)
    p.add_argument("--out", default=None, help="also write the JSON report here")

    p = command("corpus", cmd_corpus, "write a deterministic corpus to a directory", infile=False)
    _add_corpus_flags(p)
    p.add_argument("--out-dir", required=True)

    p = command("convert", cmd_convert, "convert between the JSON formats and text dumps",
                report=False, out=True)
    p.add_argument("--to", choices=("module-json", "map-json", "text", "table"), required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"semihomology: {exc}", file=sys.stderr)
        return exc.status
    except BrokenPipeError:
        return OK


if __name__ == "__main__":
    sys.exit(main())
