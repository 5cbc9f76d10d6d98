"""Structured Streaming execution of an order-based CEP plan.

The join engine (`repro.cep.join_engine`) runs plans as batch window
joins; this module runs the *same* left-deep join chain as genuine
Spark Structured Streaming stream-stream joins:

- the event stream is staged as time-sliced parquet files and replayed
  with ``maxFilesPerTrigger=1`` (a deterministic file-source stream);
- each pattern position becomes the join engine's leaf over the stream,
  with an event-time column and a watermark of one window;
- the plan's join chain becomes chained stream-stream inner joins keyed
  on the tumbling window id with the pattern predicates attached — the
  optimized join *ordering* is preserved;
- matches accumulate in a memory sink.

Match sets are identical to the batch engine's (asserted in
``tests/test_streaming.py``), demonstrating that the paper's optimized
plans drop directly onto Structured Streaming operators. Metrics
experiments use the batch engine, which exposes per-stage cardinalities.
"""
from __future__ import annotations

import math
import os
import time
import uuid

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.pattern import Pattern
from repro.core.planner import PlannedPattern
from .join_engine import _check_strategy, _cross_conditions, _engine_conf, _position_df

_SCHEMA = T.StructType(
    [
        T.StructField("event_id", T.LongType()),
        T.StructField("symbol", T.StringType()),
        T.StructField("ts", T.DoubleType()),
        T.StructField("wid", T.LongType()),
        T.StructField("serial", T.LongType()),
        T.StructField("price", T.DoubleType()),
        T.StructField("diff", T.DoubleType()),
    ]
)


def stage_stream(events_pdf: pd.DataFrame, directory: str, n_slices: int = 6) -> None:
    """Write the stream as ``n_slices`` time-ordered parquet files."""
    os.makedirs(directory, exist_ok=True)
    bounds = np.array_split(np.arange(len(events_pdf)), n_slices)
    for k, idx in enumerate(bounds):
        if len(idx) == 0:
            continue
        events_pdf.iloc[idx].to_parquet(
            os.path.join(directory, f"slice-{k:04d}.parquet"), index=False
        )


def _position_stream(
    stream: DataFrame, pattern: Pattern, i: int, window: float
) -> DataFrame:
    """The join engine's leaf for position ``i``, plus event time and a
    watermark of one window."""
    et = f"p{i}_et"
    return (
        _position_df(stream, pattern, i)
        .withColumn(et, F.timestamp_seconds(F.col(f"p{i}_ts")))
        .withWatermark(et, f"{int(window) + 1} seconds")
    )


def execute_order_plan_streaming(
    spark: SparkSession,
    planned: PlannedPattern,
    input_dir: str,
    *,
    strategy: str = "any",
    timeout_s: float = 120.0,
) -> pd.DataFrame:
    """Run an order plan as chained stream-stream joins; return matches.

    Supports pure SEQ/AND patterns (the paper's streaming core); NOT and
    KL require the batch engine's anti-join/aggregation stages.
    """
    _check_strategy(strategy)
    pattern, stats, plan = planned.pattern, planned.stats, planned.order_plan
    if plan is None:
        raise ValueError("planned pattern carries no order plan")
    if not pattern.is_pure():
        raise ValueError("streaming engine supports pure SEQ/AND patterns")
    pos_sequence = [stats.positions[k] for k in plan.order]
    stream = (
        spark.readStream.schema(_SCHEMA)
        .option("maxFilesPerTrigger", 1)
        .parquet(input_dir)
    )
    # The chain is built here, not by the join engine's builder: an
    # ``Observation`` cannot observe a streaming Dataset, and stream-stream
    # joins take no ``shuffle_hash`` hints.
    first = pos_sequence[0]
    # Same tumbling window ⇒ |Δt| < W ≤ ⌈W⌉: whole seconds, rounded up so
    # that a fractional window keeps all of its pairs.
    within = F.expr(f"INTERVAL {math.ceil(pattern.window)} SECONDS")
    cur = _position_stream(stream, pattern, first, pattern.window)
    bound = {first}
    for i in pos_sequence[1:]:
        nxt = _position_stream(stream, pattern, i, pattern.window)
        cond = F.col(f"p{first}_wid") == F.col(f"p{i}_wid")
        # Event-time range constraint, which bounds the join state.
        cond = cond & F.col(f"p{i}_et").between(
            F.col(f"p{first}_et") - within, F.col(f"p{first}_et") + within
        )
        for c in _cross_conditions(pattern, bound, {i}, strategy):
            cond = cond & F.expr(c)
        cur = cur.join(nxt, cond, "inner").drop(f"p{i}_wid")
        bound.add(i)
    out_cols = [f"p{i}_id" for i in sorted(bound)]
    name = f"cep_{uuid.uuid4().hex[:10]}"
    # A streaming query keeps the shuffle-partition count it starts with,
    # and every micro-batch runs one state-store partition per shuffle
    # partition per join, so start it under the join engine's
    # SHUFFLE_PARTITIONS.
    with _engine_conf(spark):
        query = (
            cur.select(*out_cols)
            .writeStream.format("memory")
            .queryName(name)
            .outputMode("append")
            .trigger(availableNow=True)
            .start()
        )
    try:
        if not query.awaitTermination(timeout=timeout_s):
            raise TimeoutError("streaming query did not finish in time")
        return spark.table(name).toPandas()
    finally:
        query.stop()
        spark.catalog.dropTempView(name)
