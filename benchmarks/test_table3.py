"""Benchmark T3 — paper Fig 16: measured performance vs plan cost."""
import pytest

from benchmarks.bench_config import bench_config, bench_table
from repro.experiments.tables import table3


@pytest.mark.benchmark(group="table3")
def test_table3_cost_validation(spark, benchmark):
    cfg = bench_config(categories=("sequence", "conjunction"), sizes=(3, 4, 5))
    result = bench_table(
        benchmark, "[Table 3 | Fig 16] throughput & memory vs plan cost",
        table3, spark, cfg,
    )
    s = result["summary"]
    # The paper's Fig 16 shapes: cost anti-correlates with throughput and
    # correlates (≈ linearly) with memory.
    assert s["spearman_cost_vs_memory"] > 0.5
    assert s["spearman_cost_vs_throughput"] < 0.1
