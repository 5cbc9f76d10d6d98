"""Shared CLI plumbing for the spark-submit job entrypoints.

Each ``jobs/table*.py`` reproduces one evaluation table (DESIGN.md §5)
through :func:`run`, which builds the job's own SparkSession (jobs run
standalone under ``spark-submit`` or plain ``python``; tests/benchmarks
use the shared ``spark`` fixture instead).
"""
from __future__ import annotations

import argparse

from pyspark.sql import SparkSession

from repro.experiments.report import save_table
from repro.experiments.tables import ExperimentConfig, table4
from repro.streams.stock import StreamConfig


def build_spark(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .master("local[*]")
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )


def base_parser(description: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=description)
    p.add_argument("--n-symbols", type=int, default=20)
    p.add_argument("--duration", type=float, default=3600.0)
    p.add_argument("--window", type=float, default=60.0)
    p.add_argument("--sizes", type=int, nargs="+", default=[3, 4, 5])
    p.add_argument("--per-size", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dp-b-max-n", type=int, default=16)
    return p


def config_from(args, **overrides) -> ExperimentConfig:
    kw = dict(
        stream=StreamConfig(
            n_symbols=args.n_symbols,
            duration=args.duration,
            window=args.window,
            seed=7,
        ),
        sizes=tuple(args.sizes),
        per_size=args.per_size,
        seed=args.seed,
        dp_b_max_n=args.dp_b_max_n,
    )
    kw.update(overrides)
    return ExperimentConfig(**kw)


def run(name: str, table, cfg: ExperimentConfig, **kwargs) -> None:
    """Run ``table`` on a session of its own (none for the planner-only
    Table 4), then print it and save it as ``results/<name>.txt``."""
    spark = None if table is table4 else build_spark(name)
    try:
        _, text = table(spark, cfg, **kwargs)
    finally:
        if spark is not None:
            spark.stop()
    print(text)
    print("saved:", save_table(name, text))
