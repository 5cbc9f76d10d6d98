"""Structured Streaming execution of a CEP plan.

The join engine (`repro.cep.join_engine`) runs plans as batch window
joins; this module runs the *same* plan tree, built by the same builder
(``join_engine._build``), as genuine Spark Structured Streaming
stream-stream joins:

- the event stream is staged as time-sliced parquet files and replayed
  with ``maxFilesPerTrigger=1`` (a deterministic file-source stream);
- the builder sees a streaming input, so each leaf reads the stream
  itself (never the batch engine's clustered copy) and gets an event-time
  column with a watermark of ``⌈W⌉ + 1`` seconds, and each join an
  event-time range conjunct between its two anchors, which bounds the
  join state;
- an order plan runs as its left-deep tree and a tree plan as its bushy
  tree of stream-stream inner joins (Theorems 1 and 2), so the optimized
  join *ordering* or *tree* is preserved;
- matches accumulate in a memory sink.

Match sets are identical to the batch engine's and to DuckDB's (asserted
in ``tests/test_streaming.py``), demonstrating that the paper's optimized
plans drop directly onto Structured Streaming operators. Metrics
experiments use the batch engine, which exposes per-stage cardinalities.
"""
from __future__ import annotations

import os
import uuid

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.planner import PlannedPattern
from .join_engine import _build, _check_strategy, _engine_conf, _root


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


def execute_streaming(
    spark: SparkSession,
    planned: PlannedPattern,
    input_dir: str,
    *,
    strategy: str = "any",
    timeout_s: float = 120.0,
) -> pd.DataFrame:
    """Run a plan as a tree of stream-stream joins; return matches.

    Supports pure SEQ/AND patterns (the paper's streaming core); NOT and
    KL require the batch engine's anti-join/aggregation stages.
    """
    _check_strategy(strategy)
    pattern = planned.pattern
    if not pattern.is_pure():
        raise ValueError("streaming engine supports pure SEQ/AND patterns")
    stream = (
        spark.readStream.schema(spark.read.parquet(input_dir).schema)
        .option("maxFilesPerTrigger", 1)
        .parquet(input_dir)
    )
    name = f"cep_{uuid.uuid4().hex[:10]}"
    # A streaming query keeps the shuffle-partition count it starts with,
    # and every micro-batch runs one state-store partition per shuffle
    # partition per join, so start it under the join engine's settings:
    # one shuffle partition per core.
    with _engine_conf(spark):
        cur, _ = _build(stream, planned, _root(planned), strategy, {}, 0)
        query = (
            cur.select(*[f"p{i}_id" for i in pattern.positive()])
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
