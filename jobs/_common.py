"""Shared CLI plumbing for the spark-submit job entrypoints.

Each ``jobs/table*.py`` reproduces one evaluation table (DESIGN.md §5).
Jobs build their own SparkSession (they run standalone under
``spark-submit`` or plain ``python``); tests/benchmarks use the shared
``spark`` fixture instead.
"""
from __future__ import annotations

import argparse

from pyspark.sql import SparkSession

from repro.experiments.tables import ExperimentConfig
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
    p.add_argument("--dp-ld-max-n", type=int, default=22)
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
        dp_ld_max_n=args.dp_ld_max_n,
        dp_b_max_n=args.dp_b_max_n,
    )
    kw.update(overrides)
    return ExperimentConfig(**kw)
