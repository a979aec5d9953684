"""Tests of the benchmark itself: python3 -m pytest -q bench/test_bench.py

The counter cross-check pins the repetition the traced battery must show at
seed 0: eliminations and distinct eliminated matrices, `homology` calls and
distinct complexes ("distinct" is by content), counted from outside.
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from run import fresh_package  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import MALFORMED_EVERY, Queries, _twist  # noqa: E402


@pytest.mark.parametrize(
    "truncation, elims, distinct_elims, homologies, distinct_complexes",
    [(5, 10_204, 316, 481, 69), (6, 12_187, 344, 484, 71)],
)
def test_traced_battery_counts(truncation, elims, distinct_elims, homologies, distinct_complexes):
    mods = fresh_package()
    tracer = Tracer()
    tracer.install(mods)
    oracle = mods["oracle"]
    oracle.run_battery(oracle.CorpusSpec(seed=0, truncation=truncation))
    m = tracer.pass_metrics(wall=0.0)
    assert (m["exactlin.elim.calls"], m["exactlin.elim.distinct"]) == (elims, distinct_elims)
    assert (m["chainkit.homology.calls"], m["chainkit.homology.distinct"]) == (homologies, distinct_complexes)


@pytest.mark.parametrize("d, rational", [(1, True), (3, False), (5, True)])
def test_twist_is_invertible(d, rational):
    p, q = _twist(random.Random(d), d, rational)
    product = [[sum(p[i][k] * q[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
    assert product == [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]


def test_queries_malformed_slice(tmp_path):
    mods = fresh_package()
    state = Queries(tmp_path).setup(mods, seed=3, pass_index=0)
    requests = state["requests"]
    bad = [i for i, (_, key, _) in enumerate(requests) if key.startswith("bad")]
    assert bad == list(range(MALFORMED_EVERY - 1, len(requests), MALFORMED_EVERY))
    assert 200 <= len(requests) <= 600


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work-*", "out"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "resolution", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
