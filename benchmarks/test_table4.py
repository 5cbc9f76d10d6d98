"""Benchmark T4 — paper Fig 17: plan quality & generation time for large n.

Prints its table without saving it: ``results/table4.txt`` comes from
``jobs/run.py table4`` at paper scale (``report.JOB_TABLES``).
"""
import pytest

from benchmarks.bench_config import bench_config, bench_table
from repro.experiments.tables import FIG17_ALGS, table4
from repro.streams.stock import StreamConfig


@pytest.mark.benchmark(group="table4")
def test_table4_large_plans(benchmark):
    cfg = bench_config(
        stream=StreamConfig(n_symbols=24, seed=7),
        sizes=(3, 6, 9, 12, 14, 16, 18), per_size=2, algorithms=FIG17_ALGS,
    )
    rows = bench_table(
        benchmark, "[Table 4 | Fig 17] normalized plan cost & generation time vs size",
        table4, None, cfg,
    )
    by = {(r["size"], r["algorithm"]): r for r in rows}
    # DP caps honoured (the paper's 50 h DP-B run at n=22 motivates them)
    assert (16, "DP-B") not in by and (14, "DP-LD") in by
    # generation time explodes for DP, stays trivial for the heuristics
    assert by[(14, "DP-LD")]["gen_seconds"] > by[(14, "GREEDY")]["gen_seconds"]
    # DP plans are never worse than the heuristics (normalized: higher=better)
    for size in (6, 9, 12):
        assert by[(size, "DP-LD")]["norm_cost"] >= by[(size, "GREEDY")]["norm_cost"] - 1e-9
    # at n=18 DP-LD still plans, and no heuristic beats it
    for alg in ("II-GREEDY", "GREEDY"):
        assert by[(18, "DP-LD")]["norm_cost"] >= by[(18, alg)]["norm_cost"] - 1e-9
