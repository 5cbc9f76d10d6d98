"""Benchmark T6 — paper Fig 19: throughput per event selection strategy."""
import pytest

from benchmarks.bench_config import bench_config, bench_table
from repro.experiments.tables import table6


@pytest.mark.benchmark(group="table6")
def test_table6_selection_strategies(spark, benchmark):
    cfg = bench_config(categories=("sequence",), sizes=(3, 4), per_size=1)
    rows = bench_table(
        benchmark, "[Table 6 | Fig 19] throughput per selection strategy",
        table6, spark, cfg,
    )
    assert {r["strategy"] for r in rows} == {"any", "next", "contiguity"}
    by = {(r["strategy"], r["algorithm"]): r for r in rows}
    # skip-till-next and contiguity buffer far fewer partials than any-match
    assert by[("next", "TRIVIAL")]["memory"] <= by[("any", "TRIVIAL")]["memory"]
