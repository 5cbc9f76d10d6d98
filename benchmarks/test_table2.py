"""Benchmark T2 — paper Figs 6–15: throughput & memory vs pattern size."""
import pytest

from benchmarks.bench_config import bench_config, bench_table
from repro.experiments.tables import table2


@pytest.mark.benchmark(group="table2")
def test_table2_by_size(spark, benchmark):
    cfg = bench_config(categories=("sequence",), sizes=(3, 4, 5, 6))
    rows = bench_table(
        benchmark, "[Table 2 | Figs 6-15] throughput & memory vs pattern size (sequences)",
        table2, spark, cfg,
    )
    assert {r["size"] for r in rows} == {3, 4, 5, 6}
