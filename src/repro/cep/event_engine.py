"""Event-at-a-time CEP as a distributed Spark operator.

The pure-Python detector of :mod:`repro.cep.detectors` is data-parallel
across time windows: the stream, projected to the six columns the
detectors read, is grouped by tumbling window id and each window is
detected independently inside ``applyInPandas`` (the standard
way to run a custom streaming operator on the Spark DataFrame API). An
order plan runs as its left-deep instance tree (the lazy NFA), a tree
plan as its own.

Two entry points, each one Spark action when collected:

- :func:`run_metrics` — per-window cost rows (events, matches, peak
  partial matches, comparisons, latency) aggregated into
  :class:`~repro.cep.metrics.ExecutionMetrics`; the stream's event count
  is the sum of the per-window counts;
- :func:`run_matches` — the actual matches (one ``p{i}_id`` column per
  pattern position), used by the correctness tests to cross-validate
  against the join engine and the DuckDB oracle.
"""
from __future__ import annotations

import time

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.pattern import Pattern
from repro.core.plans import OrderPlan, TreePlan
from .detectors import DetectorResult, _validate, detect_order, detect_tree
from .metrics import ExecutionMetrics

_METRIC_SCHEMA = T.StructType(
    [
        T.StructField("wid", T.LongType()),
        T.StructField("n_events", T.LongType()),
        T.StructField("n_matches", T.LongType()),
        T.StructField("peak_partials", T.LongType()),
        T.StructField("comparisons", T.LongType()),
        T.StructField("sum_latency", T.DoubleType()),
    ]
)


# The columns the detectors read: only these are shuffled into the windows.
_COLUMNS = ("wid", "symbol", "event_id", "ts", "serial", "diff")


def _detect(window: pd.DataFrame, pattern, plan, strategy) -> DetectorResult:
    if isinstance(plan, OrderPlan):
        return detect_order(window, pattern, plan, strategy)
    if isinstance(plan, TreePlan):
        return detect_tree(window, pattern, plan, strategy)
    raise TypeError(f"unsupported plan type {type(plan)!r}")


def run_metrics(
    spark: SparkSession,
    events: DataFrame,
    pattern: Pattern,
    plan: OrderPlan | TreePlan,
    *,
    strategy: str = "any",
) -> tuple[pd.DataFrame, ExecutionMetrics]:
    """Detect per window; return (per-window rows, aggregated metrics)."""
    _validate(pattern, strategy)

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        r = _detect(pdf, pattern, plan, strategy)
        return pd.DataFrame(
            {
                "wid": [int(pdf["wid"].iloc[0])],
                "n_events": [len(pdf)],
                "n_matches": [r.n_matches],
                "peak_partials": [r.peak_partials],
                "comparisons": [r.comparisons],
                "sum_latency": [float(sum(r.match_latencies))],
            }
        )

    t0 = time.perf_counter()
    rows = (
        events.select(*_COLUMNS).groupBy("wid")
        .applyInPandas(fn, schema=_METRIC_SCHEMA).toPandas()
    )
    wall = time.perf_counter() - t0
    n_matches = int(rows["n_matches"].sum())
    metrics = ExecutionMetrics(
        strategy=strategy,
        # Every event is in one window's group, so no second action is needed.
        n_events=int(rows["n_events"].sum()),
        n_windows=len(rows),
        intermediate_counts=[int(x) for x in rows["peak_partials"]],
        n_matches=n_matches,
        wall_seconds=wall,
        latency_surrogate=(
            float(rows["sum_latency"].sum()) / n_matches if n_matches else 0.0
        ),
    )
    return rows, metrics


def run_matches(
    spark: SparkSession,
    events: DataFrame,
    pattern: Pattern,
    plan: OrderPlan | TreePlan,
    *,
    strategy: str = "any",
) -> DataFrame:
    """Detect per window; return the match id tuples as a DataFrame."""
    _validate(pattern, strategy)
    n = len(pattern.types)
    cols = [f"p{i}_id" for i in range(n)]
    schema = T.StructType([T.StructField(c, T.LongType()) for c in cols])

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        r = _detect(pdf, pattern, plan, strategy)
        return pd.DataFrame(r.matches, columns=cols)

    return events.select(*_COLUMNS).groupBy("wid").applyInPandas(fn, schema=schema)
