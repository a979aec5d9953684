"""Benchmark of the semihomology package: one workload per run.

    python3 bench/run.py --workload battery|resolution|queries \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from `src/`.  A run
repeats passes until `--seconds` have gone by; each pass imports the package
afresh (as a new CLI process would start), builds the workload's inputs,
runs the timed ops and then checks every result.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json.
With `--trace 1` the first half of the time runs untraced passes and the
second half traced passes on the same inputs; the metrics are the per-layer
ones, and the spans are written to `bench/out/`.  Exits 1 on a wrong answer, without a result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import Battery, Queries, Resolution  # noqa: E402

MIN_PASSES = 3


def fresh_package() -> dict:
    """Drop every loaded semihomology module and import the layers again."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "semihomology" or n.startswith("semihomology.")]:
        del sys.modules[name]
    mods = {layer: importlib.import_module(f"semihomology.{layer}") for layer in LAYERS}
    for mod in mods.values():
        if not Path(mod.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"{mod.__name__} was imported from {mod.__file__}, not from {SRC}")
    return mods


class Run:
    """Everything one run measures, accumulated pass by pass."""

    def __init__(self):
        self.setup_s: list[float] = []
        self.pass_s: list[float] = []
        self.op_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.layers: list[dict] = []
        self.spans: list[dict] = []


def one_pass(workload, seed: int, index: int, run: Run, tracer: Tracer | None) -> None:
    t0 = time.perf_counter()
    state = workload.setup(fresh_package(), seed, index)
    mods = fresh_package()  # the timed ops start from the caches of a new process
    ops = workload.ops(mods, state)
    run.setup_s.append(time.perf_counter() - t0)
    gc.collect()  # leave the previous pass's garbage out of this pass's timing
    if tracer is not None:
        tracer.install(mods)
    t1 = time.perf_counter()
    results = []
    for op_id, fn in ops:
        before = tracer.layer_snapshot() if tracer is not None else None
        start = time.perf_counter()
        try:
            value, error = fn(), None
        except Exception as exc:  # the op failed; verify decides how to count it
            value, error = None, exc
        elapsed = time.perf_counter() - start
        run.op_s.append(elapsed)
        results.append((op_id, (value, error)))
        if tracer is not None:
            tracer.record_op(op_id, elapsed, before)
    wall = time.perf_counter() - t1
    run.pass_s.append(wall)
    if tracer is not None:
        run.layers.append(tracer.pass_metrics(wall))
        run.spans.append({"pass": index, "wall_s": wall, "spans": tracer.span_table(), "ops": tracer.ops})
    attempted, failed, wrong = workload.verify(mods, state, results)
    run.attempted += attempted
    run.failed += failed
    run.wrong += wrong


def measure(workload, seed: int, seconds: float, traced: bool, run: Run,
            min_passes: int = MIN_PASSES) -> None:
    """Run passes until the next one would end after `seconds`."""
    deadline = time.perf_counter() + seconds
    index = 0
    last = 0.0
    while index < min_passes or time.perf_counter() + last < deadline:
        start = time.perf_counter()
        one_pass(workload, seed, index, run, Tracer() if traced else None)
        last = time.perf_counter() - start
        index += 1


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(run: Run) -> dict[str, float]:
    return {
        "wall_s": statistics.median(run.pass_s),
        "setup_s": statistics.median(run.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (run.attempted - run.failed) / run.attempted,
        "op_p50_ms": 1000 * quantile(run.op_s, 50),
        "op_p90_ms": 1000 * quantile(run.op_s, 90),
    }


def per_layer(untraced: Run, traced: Run) -> dict[str, float]:
    out = {name: statistics.median(p[name] for p in traced.layers) for name in traced.layers[0]}
    # traced pass k has the inputs of untraced pass k
    out["trace.overhead_ratio"] = statistics.median(t / u for t, u in zip(traced.pass_s, untraced.pass_s))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("battery", "resolution", "queries"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    work_dir = BENCH_DIR / f".work-{args.workload}-{args.seed}"
    workload = {
        "battery": Battery,
        "resolution": Resolution,
        "queries": lambda: Queries(work_dir),
    }[args.workload]()

    untraced = Run()
    try:
        if args.trace:
            traced = Run()
            measure(workload, args.seed, args.seconds / 2, False, untraced, min_passes=1)
            measure(workload, args.seed, args.seconds / 2, True, traced, min_passes=1)
            metrics = per_layer(untraced, traced)
            runs = (untraced, traced)
        else:
            measure(workload, args.seed, args.seconds, False, untraced)
            metrics = end_to_end(untraced)
            runs = (untraced,)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    wrong = [w for r in runs for w in r.wrong]
    print(f"workload {args.workload}, seed {args.seed}: {len(untraced.pass_s)} untraced passes"
          + (f", {len(traced.pass_s)} traced" if args.trace else "")
          + f", {len(untraced.op_s)} timed ops, {attempted} checked, {failed} failed"
          + f" (fail_ratio {failed / attempted:.4f})")
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(traced.spans))
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    for item in wanted:
        print(f"  {item['name']:<36} {metrics[item['name']]:>14.6g} {item['unit']}")
    if wrong:
        for line in wrong[:20]:
            print(f"WRONG: {line}", file=sys.stderr)
        print(f"{len(wrong)} wrong answers; no result", file=sys.stderr)
        return 1
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {item["name"]: {"value": metrics[item["name"]], "unit": item["unit"]} for item in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
