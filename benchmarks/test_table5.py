"""Benchmark T5 — paper Fig 18: throughput vs latency for α ∈ {0, 0.5, 1}."""
import pytest

from benchmarks.bench_config import bench_config, bench_table
from repro.experiments.tables import table5


@pytest.mark.benchmark(group="table5")
def test_table5_latency_tradeoff(spark, benchmark):
    cfg = bench_config(categories=("sequence",), sizes=(4, 5), per_size=1)
    rows = bench_table(
        benchmark, "[Table 5 | Fig 18] throughput vs latency per alpha",
        table5, spark, cfg,
    )
    by = {(r["algorithm"], r["alpha"]): r for r in rows}
    # raising alpha must not increase the expected latency of the plans
    for alg in ("GREEDY", "DP-LD", "DP-B"):
        assert by[(alg, 1.0)]["latency"] <= by[(alg, 0.0)]["latency"] + 1e-9
