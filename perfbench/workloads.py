"""The benchmark's workloads: a stream configuration and a fixed call list each.

A call is one pattern × one planner (× one selection strategy on the
event engine). Every workload's call list is fixed, so the counts that
depend only on the plans (``memory_rows``, ``plan_quality``) repeat
exactly from run to run; the run's ``--seed`` sets the order in which
the calls are made (see :func:`calls`). Patterns come from the repo's own
generator, ``repro.workloads.generator.make_pattern``.

Call lists are sized so that one pass takes 3–10 s on 2 cores; a run
makes whole passes until ``--seconds`` have been measured. README.md
says why each workload exists and which layer it stresses.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from benchmarks.bench_config import BENCH_STREAM
from repro.experiments.tables import ORDER_ALGS, TREE_ALGS, ExperimentConfig
from repro.streams.stock import StreamConfig

# The tables' DP caps: DP-LD ≤ 16, DP-B and the ZStream planners ≤ 12.
capped = ExperimentConfig().skip


@dataclass(frozen=True)
class Workload:
    name: str
    engine: str  # "join" | "event" | "plan"
    stream: StreamConfig
    # (category, size, pattern seed, planners run on that pattern)
    patterns: tuple[tuple[str, int, int, tuple[str, ...]], ...]
    strategies: tuple[str, ...] = ("any",)


WORKLOADS = {
    w.name: w
    for w in (
        # Many small plans on the table benchmarks' stream (14 symbols,
        # 2,400 s, W = 60 s: 8,223 events in 40 windows), where the fixed
        # cost of each Spark action dominates. All five categories, order
        # and tree planners; the sequence pattern runs under two planners
        # so that their match counts can be compared.
        Workload(
            "join_grid",
            "join",
            BENCH_STREAM,
            (
                ("sequence", 4, 4, ("EFREQ", "DP-B")),
                ("negation", 4, 4, ("DP-LD",)),
                ("conjunction", 3, 3, ("ZSTREAM-ORD",)),
                ("kleene", 3, 3, ("GREEDY",)),
                ("disjunction", 3, 3, ("DP-B",)),
            ),
        ),
        # Event-at-a-time detection: per-window Python detectors under all
        # three selection strategies, with an order and a tree planner.
        Workload(
            "event_detect",
            "event",
            StreamConfig(
                n_symbols=14, duration=2400.0, window=120.0, rate_min=0.05,
                rate_max=0.7, diff_mu_spread=1.2, seed=7,
            ),
            (("sequence", 4, 1, ("EFREQ", "ZSTREAM-ORD")),),
            ("any", "next", "contiguity"),
        ),
        # Planner only (the Fig 17 path), all 9 planners within the DP caps;
        # no SparkSession is started.
        Workload(
            "planner_large",
            "plan",
            StreamConfig(n_symbols=24),
            tuple(("sequence", n, 997 * n, ORDER_ALGS + TREE_ALGS) for n in (8, 10, 12, 14, 16)),
        ),
    )
}


def calls(w: Workload, seed: int) -> list[tuple[int, str, str]]:
    """(pattern index, planner, strategy) for one pass, in ``seed``'s order."""
    out = [
        (i, planner, strategy)
        for i, (_, size, _, planners) in enumerate(w.patterns)
        for planner in planners
        for strategy in w.strategies
        if not capped(planner, size)
    ]
    random.Random(seed).shuffle(out)
    return out
