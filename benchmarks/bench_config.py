"""Shared scale configuration for the table benchmarks.

Benchmark scale ≈ "SF 0.1" of the paper's setup: a denser stream than the
unit tests (so plan quality dominates wall-clock) but small enough that
the full suite finishes in minutes. ``jobs/run.py`` runs the same
harnesses at larger scale.
"""
from repro.experiments.report import JOB_TABLES, save_table
from repro.experiments.tables import ExperimentConfig
from repro.streams.stock import StreamConfig

BENCH_STREAM = StreamConfig(
    n_symbols=14,
    duration=2400.0,
    window=60.0,
    rate_min=0.05,
    rate_max=0.7,
    diff_mu_spread=1.2,  # widens predicate selectivities toward the
    seed=7,              # paper's 0.002–0.88 range
)


def bench_config(**overrides) -> ExperimentConfig:
    kw = dict(stream=BENCH_STREAM, sizes=(3, 4), per_size=1, seed=0)
    kw.update(overrides)
    return ExperimentConfig(**kw)


def bench_table(benchmark, title: str, table, spark, cfg: ExperimentConfig, **kwargs):
    """Time one run of ``table``, print it under ``title`` and return its
    result. Saves it under ``results/`` unless that file is the job's
    (``report.JOB_TABLES``, written by ``jobs/run.py`` at paper scale)."""
    result, text = benchmark.pedantic(
        table, args=(spark, cfg), kwargs=kwargs, rounds=1, iterations=1
    )
    print(f"\n{title}")
    print(text)
    if table.__name__ not in JOB_TABLES:
        save_table(table.__name__, text)
    return result
