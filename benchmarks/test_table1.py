"""Benchmark T1 — paper Figs 4–5: throughput & memory per category × algorithm."""
import pytest

from benchmarks.bench_config import bench_config, bench_table
from repro.experiments.tables import table1


@pytest.mark.benchmark(group="table1")
def test_table1_throughput_memory(spark, benchmark):
    cfg = bench_config(sizes=(3, 4, 5))
    rows = bench_table(
        benchmark, "[Table 1 | Figs 4-5] avg throughput & memory per category x algorithm",
        table1, spark, cfg,
    )
    assert rows
    algs = {r["algorithm"] for r in rows}
    assert {"TRIVIAL", "EFREQ", "DP-LD", "ZSTREAM", "DP-B"} <= algs
    assert {r["category"] for r in rows} == set(cfg.categories)
