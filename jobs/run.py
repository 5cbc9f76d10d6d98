"""Paper-scale runs of the six evaluation tables (DESIGN.md §5).

One subcommand per table. All share the scale flags; a sweep flag
belongs to its own table. A run prints its table and saves it under
``results/`` only if the job owns that file (``report.JOB_TABLES``).

Usage: python jobs/run.py table4 --sizes 3 6 9 12 16 20 22
       spark-submit jobs/run.py table1 --sizes 3 4 5 --per-size 3
       spark-submit jobs/run.py table5 --alphas 0 0.5 1
"""
import argparse

from pyspark.sql import SparkSession

from repro.experiments.report import JOB_TABLES, save_table
from repro.experiments.tables import (
    FIG17_ALGS, JQPG_ALGS, ExperimentConfig, table1, table2, table3, table4, table5, table6,
)
from repro.streams.stock import StreamConfig
from repro.workloads.generator import CATEGORIES

# table → (harness, its figure's workload as ExperimentConfig fields, whose
# "sizes" is the --sizes default (3 4 5 without one)[, sweep flag, its options]).
JOBS = {
    "table1": (table1, {}),
    "table2": (table2, {}, "--categories", dict(nargs="+", default=list(CATEGORIES))),
    "table3": (table3, {"categories": ("sequence", "conjunction")}),
    "table4": (table4, {"algorithms": FIG17_ALGS, "sizes": (3, 6, 9, 12, 14, 16, 18, 20, 22)}),
    "table5": (table5, {"categories": ("sequence",), "algorithms": JQPG_ALGS},
               "--alphas", dict(type=float, nargs="+", default=[0.0, 0.5, 1.0])),
    "table6": (table6, {"categories": ("sequence",)},
               "--strategies", dict(nargs="+", default=["any", "next", "contiguity"])),
}


def parser() -> argparse.ArgumentParser:
    scale = argparse.ArgumentParser(add_help=False)
    scale.add_argument("--n-symbols", type=int, default=20)
    scale.add_argument("--duration", type=float, default=3600.0)
    scale.add_argument("--window", type=float, default=60.0)
    scale.add_argument("--sizes", type=int, nargs="+")
    scale.add_argument("--per-size", type=int, default=3)
    scale.add_argument("--seed", type=int, default=0)
    scale.add_argument("--dp-b-max-n", type=int, default=16)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    tables = p.add_subparsers(dest="table", required=True)
    for name, (table, _, *sweep) in JOBS.items():
        t = tables.add_parser(name, parents=[scale], help=table.__doc__.split(":")[0])
        if sweep:
            t.add_argument(sweep[0], **sweep[1])
    return p


def parse(argv=None):
    """``(name, table, cfg, sweep kwargs)`` of one command line."""
    args = parser().parse_args(argv)
    table, workload, *sweep = JOBS[args.table]
    sizes = tuple(args.sizes or workload.get("sizes", (3, 4, 5)))
    # Every table's stream has at least 2 symbols more than its largest size.
    stream = StreamConfig(n_symbols=max(args.n_symbols, max(sizes) + 2),
                          duration=args.duration, window=args.window, seed=7)
    scale = dict(stream=stream, sizes=sizes, per_size=args.per_size,
                 seed=args.seed, dp_b_max_n=args.dp_b_max_n)
    kwargs = {}
    if sweep:  # --categories sets a config field; --alphas and --strategies are arguments
        key = sweep[0][2:]
        into = scale if key in ExperimentConfig.__dataclass_fields__ else kwargs
        into[key] = tuple(getattr(args, key))
    return args.table, table, ExperimentConfig(**workload | scale), kwargs


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


def run(name: str, table, cfg: ExperimentConfig, **kwargs) -> None:
    """Run ``table`` on its own session (none for the planner-only Table 4)."""
    spark = None if table is table4 else build_spark(name)
    try:
        _, text = table(spark, cfg, **kwargs)
    finally:
        if spark is not None:
            spark.stop()
    print(text)
    if name in JOB_TABLES:
        print("saved:", save_table(name, text))


if __name__ == "__main__":
    name, table, cfg, kwargs = parse()
    run(name, table, cfg, **kwargs)
