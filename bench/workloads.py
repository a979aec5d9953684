"""The benchmark workloads: `battery` and `queries`, which BENCHMARK.json
lists, and `resolution`, which is run by hand.

Each workload makes its inputs from the seed in `setup`, hands the timed
section a list of ops, and checks every result in `verify`, after the timed
section.  Once per pass, `setup` runs against a freshly imported package,
and `ops` and `verify` against another one, so the timed ops start from the
caches of a new process.

An op result is `(value, error)`; `error` is the exception an op raised, or
None.  `verify` returns `(attempted, failed, wrong)`: `failed` counts every op
without its expected result, `wrong` describes the results that are wrong
answers, which make the run fail.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_DIR = BENCH_DIR / "expected"

# The one designed failure family of the battery (the paper's result: the
# nonaugmented induction glues an interval into a circle).
DESIGNED_FAILURES = ("adjunction.unit-weq.u_delta", "adjunction.counit-weq.u_delta")


def battery_rows(report) -> list[list[str]]:
    """(name, instance, verdict, window) of every check, in report order."""
    return [[c.name, c.instance, "pass" if c.passed else "fail", c.window] for c in report.checks]


# -- battery -------------------------------------------------------------------


class Battery:
    """`run_battery` at truncation 6, corpus generation included.

    The passes cycle through a fixed pool of corpora in an order the seed
    permutes.  One pass costs from 1.5 s to 2.7 s depending on its corpus,
    so a run's median must not depend on which corpora it drew.
    """

    truncation = 6
    corpus_seeds = range(8)

    def setup(self, mods, seed: int, pass_index: int):
        order = list(self.corpus_seeds)
        random.Random(seed).shuffle(order)
        return {"seed": order[pass_index % len(order)]}

    def ops(self, mods, state):
        oracle = mods["oracle"]
        spec = oracle.CorpusSpec(seed=state["seed"], truncation=self.truncation)
        return [("run_battery", lambda: oracle.run_battery(spec))]

    def verify(self, mods, state, results):
        (_, (report, error)), = results
        if error is not None:
            return 1, 1, [f"run_battery raised {type(error).__name__}: {error}"]
        rows = battery_rows(report)
        wrong = [f"unexpected failure {r[0]} [{r[1]}]" for r in rows
                 if r[2] == "fail" and r[0] not in DESIGNED_FAILURES]
        fixture = EXPECTED_DIR / f"battery_t{self.truncation}_seed{state['seed']}.json"
        if fixture.exists():
            expected = json.loads(fixture.read_text())
            if len(expected) != len(rows):
                wrong.append(f"{len(rows)} checks, expected {len(expected)}")
            wrong += [f"check {i}: got {got}, expected {want}"
                      for i, (got, want) in enumerate(zip(rows, expected)) if got != want]
        return len(rows), len(wrong), wrong


# -- resolution ----------------------------------------------------------------


class Resolution:
    """Homology of every representable resolution at truncation 6: 22 ops,
    each a few large, sparse integer matrices; no request repeats.  Run by
    hand: its spread on the reference host is too wide to gate on."""

    truncation = 6
    objects = {"ssimp": range(0, 7), "aug_ssimp": range(-1, 7), "scube": range(0, 7)}

    def setup(self, mods, seed: int, pass_index: int):
        cases = [(kind, c) for kind, objs in self.objects.items() for c in objs]
        random.Random(seed).shuffle(cases)
        return {"cases": cases}

    def ops(self, mods, state):
        transport, chainkit = mods["transport"], mods["chainkit"]
        n = self.truncation

        def op(kind, c):
            return lambda: chainkit.homology(transport.resolution_complex(kind, c, n))

        return [(f"{kind}:{c}", op(kind, c)) for kind, c in state["cases"]]

    def verify(self, mods, state, results):
        wrong = []
        for op_id, (report, error) in results:
            if error is not None:
                wrong.append(f"{op_id}: raised {type(error).__name__}: {error}")
            elif any(report.dims_list()):
                wrong.append(f"{op_id}: homology {report.dims_list()}, expected all zero")
        return len(results), len(wrong), wrong


# -- queries -------------------------------------------------------------------

QUERY_TRUNCATIONS = (5, 6)
QUERY_CORPUS_SEED = 0
TOR_COEFF = {"ssimp": "k_constant", "scube": "k_constant", "aug_ssimp": "k_constant_shifted",
             "chain0": "k_point", "chain_neg1": "k_point_neg1"}
# Requests per module kind, besides validate, homology, tor and convert.
KIND_REQUESTS = {
    "ssimp": [("restrict", ()), ("counit", ("--functor", "u_delta"))],
    "scube": [("restrict", ("--functor", "v"))],
    "aug_ssimp": [("augment", ()), ("induce", ("--functor", "v")), ("counit", ("--functor", "u_a"))],
    "chain0": [("unit", ("--functor", "u_delta"))],
    "chain_neg1": [("induce", ("--functor", "u_a")), ("unit", ("--functor", "u_a"))],
}
WRITES = {"restrict", "augment", "induce", "convert"}
MALFORMED_EVERY = 25
MALFORMED = ("zero-denominator", "float-entry", "out-of-window-token")
# Diagonal entries of the rational twists.
RATIONAL_SCALES = (Fraction(2), Fraction(1, 2), Fraction(-3), Fraction(3, 2), Fraction(-2, 3))


def _twist(rng: random.Random, d: int, rational: bool):
    """A random invertible d x d matrix and its inverse, as row lists."""
    p = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    q = [row[:] for row in p]
    for _ in range(2 * d if d > 1 else 0):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-2, -1, 1, 2))
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]  # p <- E p
        for row in q:                                      # q <- q E^-1
            row[j] -= c * row[i]
    if rational:
        for i in range(d):
            s = rng.choice(RATIONAL_SCALES)
            p[i] = [s * a for a in p[i]]
            for row in q:
                row[i] /= s
    return p, q


def _matmul(a, b, inner: int):
    cols = len(b[0]) if b else 0
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)]
            for i in range(len(a))]


def _twist_matrix(left, rows, right, shape):
    """left @ rows @ right for a JSON matrix of the given shape, as JSON."""
    r, c = shape
    if r == 0 or c == 0:
        return rows
    m = [[Fraction(e) for e in row] for row in rows]
    out = _matmul(_matmul(left, m, r), right, c)
    return [[str(e) for e in row] for row in out]


def _token_degree(token: str) -> int:
    # every generator token ("delta i n", "cube i c n", "d n") ends in its degree
    return int(token.split()[-1])


def twist_module(obj: dict, rng: random.Random, rational: bool):
    """An isomorphic copy of a module document in a random basis.

    Returns the twisted document and the per-degree (P, P^-1) used: the
    action X(g): X_n -> X_{n-1} becomes P_{n-1} X(g) P_n^-1.
    """
    dims = {int(k): v for k, v in obj["dims"].items()}
    bases = {n: _twist(rng, d, rational) for n, d in dims.items()}
    actions = {}
    for token, rows in obj["actions"].items():
        n = _token_degree(token)
        actions[token] = _twist_matrix(bases[n - 1][0], rows, bases[n][1], (dims[n - 1], dims[n]))
    return dict(obj, actions=actions), bases


def twist_map(obj: dict, rng: random.Random, rational: bool) -> dict:
    source, p = twist_module(obj["source"], rng, rational)
    target, q = twist_module(obj["target"], rng, rational)
    tdims = {int(k): v for k, v in obj["target"]["dims"].items()}
    sdims = {int(k): v for k, v in obj["source"]["dims"].items()}
    comps = {
        key: _twist_matrix(q[int(key)][0], rows, p[int(key)][1], (tdims[int(key)], sdims[int(key)]))
        for key, rows in obj["components"].items()
    }
    return dict(obj, source=source, target=target, components=comps)


def _malformed(obj: dict, which: str) -> dict:
    """A module document with one defect the loader must reject."""
    actions = {t: [list(r) for r in rows] for t, rows in obj["actions"].items()}
    if which == "out-of-window-token":
        actions[f"d {obj['truncation'] + 1}"] = [["1"]]
    else:
        token = next(t for t, rows in actions.items() if rows and rows[0])
        actions[token][0][0] = "1/0" if which == "zero-denominator" else 1.5
    return dict(obj, actions=actions)


class Queries:
    """A few hundred CLI requests through `cli.main(argv)` in-process, on
    module and map files that are twists of two fixed corpora.

    The seed and the pass choose the twists, the malformed files and the
    order of the requests; the corpora stay fixed so that every run asks the
    same mix of requests.  Every pass twists again, so no request repeats
    within a process.  About half the twists scale by rational diagonals, so
    entries carry denominators.  One request in 25 is malformed and must get
    exit 2 with one line on stderr.
    """

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self.expected: dict[tuple, object] = {}

    def setup(self, mods, seed: int, pass_index: int):
        oracle, diagmod = mods["oracle"], mods["diagmod"]
        originals: dict[str, tuple[str, dict]] = {}  # key -> (doc type, document)
        for n in QUERY_TRUNCATIONS:
            corpus = oracle.generate_corpus(oracle.CorpusSpec(seed=QUERY_CORPUS_SEED, truncation=n))
            for k, (_, m) in enumerate(corpus.modules):
                originals[f"t{n}-m{k:02d}"] = ("module", diagmod.module_to_obj(m))
            for k, (_, f) in enumerate(corpus.maps):
                originals[f"t{n}-f{k:02d}"] = ("map", diagmod.map_to_obj(f))

        rng = random.Random(seed * 1_000_003 + pass_index)
        pass_dir = self.work_dir / f"pass{pass_index}"
        pass_dir.mkdir(parents=True, exist_ok=True)
        requests = []
        for key, (doc, obj) in originals.items():
            rational = rng.random() < 0.5
            twisted = twist_module(obj, rng, rational)[0] if doc == "module" else twist_map(obj, rng, rational)
            (pass_dir / f"{key}.json").write_text(json.dumps(twisted))
            if doc == "map":
                requests += [("weq", key, ()), ("fib", key, ())]
                continue
            kind = obj["kind"]
            requests += [("validate", key, ()), ("homology", key, ()),
                         ("tor", key, ("--coeff", TOR_COEFF[kind])),
                         ("convert", key, ("--to", "module-json"))]
            requests += [(cmd, key, extra) for cmd, extra in KIND_REQUESTS[kind]]
        rng.shuffle(requests)

        chain_keys = sorted(k for k, (doc, obj) in originals.items()
                            if doc == "module" and obj["kind"].startswith("chain")
                            and any(rows and rows[0] for rows in obj["actions"].values()))
        bad = []
        for i in range(len(requests) // (MALFORMED_EVERY - 1)):
            which = MALFORMED[i % len(MALFORMED)]
            key = rng.choice(chain_keys)
            path = pass_dir / f"bad{i}.json"
            path.write_text(json.dumps(_malformed(originals[key][1], which)))
            bad.append(("validate", f"bad{i}", which))
        for i, req in enumerate(bad):
            requests.insert((i + 1) * MALFORMED_EVERY - 1, req)
        return {"originals": originals, "requests": requests, "dir": pass_dir}

    def argv(self, directory: Path, cmd: str, key: str, extra, tag: str) -> list[str]:
        argv = [cmd, "--in", str(directory / f"{key}.json"), *extra]
        if cmd in WRITES:
            argv += ["--out", str(directory / f"{tag}.out.json")]
        else:
            argv += ["--format", "json"]
        return argv

    def ops(self, mods, state):
        main = mods["cli"].main

        def op(argv):
            def call():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = main(argv)
                    except SystemExit as exc:  # argparse rejects a command line
                        code = exc.code
                return code, out.getvalue(), err.getvalue()
            return call

        ops = []
        for i, (cmd, key, extra) in enumerate(state["requests"]):
            if key.startswith("bad"):
                argv = ["validate", "--in", str(state["dir"] / f"{key}.json")]
            else:
                argv = self.argv(state["dir"], cmd, key, extra, f"r{i}")
            ops.append((f"{cmd}:{key}", op(argv)))
        return ops

    def _answer(self, mods, directory: Path, cmd: str, key: str, extra, tag: str, code, stdout):
        """The basis-independent part of a request's result."""
        if code != 0:
            return ("exit", code)
        if cmd in WRITES:
            diagmod = mods["diagmod"]
            try:
                module = diagmod.module_from_json((directory / f"{tag}.out.json").read_text())
            except (OSError, ValueError, KeyError, TypeError) as exc:
                return ("unreadable module written", type(exc).__name__)
            if not diagmod.validate(module):
                return ("invalid module written",)
            return ("module", module.kind, module.truncation, sorted(module.dims.items()))
        obj = json.loads(stdout)
        obj.pop("presentation", None)  # induce: kept coordinates depend on the basis
        return ("json", json.dumps(obj, sort_keys=True))

    def _expected(self, mods, state, cmd, key, extra):
        """The answer on the untwisted original, computed once per run."""
        sig = (cmd, key, extra)
        if sig not in self.expected:
            orig_dir = self.work_dir / "originals"
            orig_dir.mkdir(parents=True, exist_ok=True)
            path = orig_dir / f"{key}.json"
            if not path.exists():
                path.write_text(json.dumps(state["originals"][key][1]))
            argv = self.argv(orig_dir, cmd, key, extra, "expected")
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = mods["cli"].main(argv)
            self.expected[sig] = self._answer(mods, orig_dir, cmd, key, extra, "expected", code, out.getvalue())
        return self.expected[sig]

    def verify(self, mods, state, results):
        failed, wrong = 0, []
        for i, ((cmd, key, extra), (op_id, (value, error))) in enumerate(zip(state["requests"], results)):
            if key.startswith("bad"):
                # a traceback on malformed input is a failed op, not a wrong answer
                ok = error is None and value[0] == 2 and len(value[2].splitlines()) == 1
                failed += not ok
                if error is None and value[0] == 0:
                    wrong.append(f"{op_id} ({extra}): malformed input accepted")
                continue
            if error is not None:
                got = ("raised", type(error).__name__)
            else:
                code, stdout, _ = value
                got = self._answer(mods, state["dir"], cmd, key, extra, f"r{i}", code, stdout)
            want = self._expected(mods, state, cmd, key, extra)
            if got != want or want[0] == "exit":
                failed += 1
                wrong.append(f"{op_id} {' '.join(extra)}: got {got}, expected {want}")
        return len(results), failed, wrong
