"""CEP plan execution as Spark DataFrame window-join dataflows.

This is the reproduction's primary evaluation mechanism (DESIGN.md §2).
One executor runs every plan as a tree of joins. A **tree-based plan**
runs as its bushy join tree, ZStream's instance buffers as per-node
DataFrames (§4.2). An **order-based plan** runs as its left-deep tree
(Theorem 1: ``Cost_ord = Cost_LDJ``), whose k-th join *is* the set of
partial matches of length k of the lazy NFA (§4.1). Only the reporting
differs by plan kind: the layout of the stage counts (an order plan
reports the raw buffers of its later types, as a lazy NFA keeps them) and
the §6.1 latency surrogate.

Detection semantics (DESIGN.md §3): matches are event combinations
sharing a tumbling window id, every ``Pattern.pair_conditions`` entry
(declared, SEQ order, §6.2 contiguity adjacency) is rendered as SQL at the
earliest join where both operands are bound, each negated event is a
left-anti join on its ``Pattern.absence_conditions`` at the earliest step
that binds all their positive positions (§5.3), and a Kleene position is
joined event-at-a-time with a final power-set aggregation (Σ(2^m − 1)
logical matches, instance-shared as in [52]).

Every intermediate result is counted — those counts are the paper's
"number of partial matches" and feed the memory proxy; wall-clock time
over the whole dataflow gives throughput.

Each (sub)plan is one lazy DataFrame chain that ends in a single Spark
action: ``count()`` of the last stage, or for a Kleene pattern the
histogram of group sizes. Stage sizes are read from a
``DataFrame.observe`` count on every stage, which that action fills in.
An observed count is exact only if Spark reads every row of the stage, so
every join is a shuffled hash join (``shuffle_hash`` hints): it reads its
build side whole and iterates its probe side whole, where a sort-merge
join stops reading one side once the other is exhausted. Adaptive query
execution is off inside the engine, because it may prune a subtree next
to an empty stage (whose observation would then never fire) and it runs
each shuffle stage as a job of its own. For the first reason, too, the
optimizer may not drop a join next to an input it can prove empty.
Predicates are built as SQL strings and parsed once per join, which keeps
the driver's round trips to the JVM few.
"""
from __future__ import annotations

import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

from pyspark.sql import DataFrame, Observation, SparkSession
from pyspark.sql import functions as F

from repro.core.pattern import Op, Pattern
from repro.core.planner import PlannedPattern
from repro.core.plans import TreeNode, left_deep_tree
from .metrics import ExecutionMetrics

@dataclass
class JoinExecution:
    """Result of executing one simple pattern: matches + metrics.

    ``matches`` has one column ``p{i}_id`` per positive non-Kleene pattern
    position (event ids) plus ``kl_ids`` (array) when a Kleene position
    exists. Logical match counts fold the Kleene power set analytically.
    """

    matches: DataFrame
    metrics: ExecutionMetrics


_PROPAGATE_EMPTY = "org.apache.spark.sql.catalyst.optimizer.PropagateEmptyRelation"

#: Shuffle partitions of every engine join: a small count for the tiny
#: per-window joins.
SHUFFLE_PARTITIONS = 8


@contextmanager
def _engine_conf(spark: SparkSession):
    """Scope the engine's session settings: :data:`SHUFFLE_PARTITIONS`,
    no adaptive execution, and no dropping of a join next to an input the
    optimizer proves empty (as it can for a small in-memory DataFrame).
    The module docstring says why."""
    settings = {
        "spark.sql.shuffle.partitions": str(SHUFFLE_PARTITIONS),
        "spark.sql.adaptive.enabled": "false",
        "spark.sql.optimizer.excludedRules": _PROPAGATE_EMPTY,
    }
    old = {k: spark.conf.get(k, None) for k in settings}
    for k, v in settings.items():
        spark.conf.set(k, v)
    try:
        yield
    finally:
        for k, v in old.items():
            if v is None:
                spark.conf.unset(k)
            else:
                spark.conf.set(k, v)


def _position_df(events: DataFrame, pattern: Pattern, i: int, prefix: str = "p") -> DataFrame:
    """Events of position ``i``'s type, columns renamed ``{prefix}{i}_*``."""
    p = f"{prefix}{i}"
    symbol = pattern.types[i].replace("\\", "\\\\").replace("'", "\\'")
    return events.where(f"symbol = '{symbol}'").selectExpr(
        f"wid AS {p}_wid",
        f"event_id AS {p}_id",
        f"ts AS {p}_ts",
        f"serial AS {p}_serial",
        f"diff AS {p}_diff",
    )


def _sql(comparison: tuple[str, int, str], a: str, b: str) -> str:
    """A :data:`~repro.core.pattern.COMPARISONS` entry as SQL between the
    column prefixes ``a`` and ``b``."""
    field, offset, op = comparison
    return f"{a}_{field}{f' + {offset}' if offset else ''} {op} {b}_{field}"


def _cross_conditions(
    pattern: Pattern, left: set[int], right: set[int], strategy: str
) -> list[str]:
    """The SQL of every condition spanning two disjoint sets of bound
    positive positions: :meth:`Pattern.pair_conditions` of each pair with
    one position on each side (DESIGN.md §3)."""
    return [
        _sql(c, f"p{i}", f"p{j}")
        for a in sorted(left)
        for b in sorted(right)
        for i, j in [sorted((a, b))]
        for c in pattern.pair_conditions(i, j, strategy)
    ]


def _hash_join(left: DataFrame, right: DataFrame, conds: list[str], how: str) -> DataFrame:
    """Join on the AND of ``conds`` as a shuffled hash join, which reads
    every row of both inputs (the module docstring says why that matters).
    A left-anti join can only build its right side, so only that is hinted."""
    if how != "left_anti":
        left = left.hint("shuffle_hash")
    return left.join(right.hint("shuffle_hash"), F.expr(" AND ".join(conds)), how)


def _apply_negations(
    cur: DataFrame,
    events: DataFrame,
    pattern: Pattern,
    bound: set[int],
    pending: set[int],
    wid: str,
) -> DataFrame:
    """Left-anti join every pending negated position whose
    :meth:`Pattern.absence_conditions` partners are all bound (§5.3: the
    absence check runs at the earliest possible point), rendering those
    conditions as SQL, and remove it from ``pending``. ``wid`` names
    ``cur``'s window-id column."""
    for j in sorted(pending):
        conds, n = pattern.absence_conditions(j), f"n{j}"
        if not conds.keys() <= bound:
            continue
        pending.remove(j)
        sql = [f"{n}_wid = {wid}"]
        sql += [
            _sql(c, n, f"p{i}") if left else _sql(c, f"p{i}", n)
            for i, cs in conds.items()
            for c, left in cs
        ]
        cur = _hash_join(cur, _position_df(events, pattern, j, prefix="n"), sql, "left_anti")
    return cur


def _check_strategy(strategy: str) -> None:
    if strategy not in ("any", "contiguity"):
        raise ValueError(
            "join engine supports 'any' and 'contiguity'; use the event "
            "engine for skip-till-next-match"
        )


def _observed(df: DataFrame) -> tuple[DataFrame, Observation]:
    """``df`` with its row count observed; read it once the plan's action
    has run."""
    obs = Observation()
    return df.observe(obs, F.expr("count(1) AS n")), obs


def _finalize(cur: DataFrame, pattern: Pattern) -> tuple[DataFrame, int]:
    """Project match ids and run the plan's one Spark action, which yields
    the logical match count. A Kleene position's power set is folded
    exactly: Σ over base combinations of 2^m − 1, in Python integers."""
    base = [i for i in pattern.positive() if i not in pattern.kleene]
    id_cols = [f"p{i}_id" for i in base]
    if not pattern.kleene:
        return cur.select(*id_cols), cur.count()
    (k,) = pattern.kleene
    grouped = cur.groupBy(*id_cols).agg(
        F.expr(f"sort_array(collect_list(p{k}_id)) AS kl_ids"),
        F.expr("count(1) AS _m"),
    )
    histogram = grouped.groupBy("_m").count().collect()
    n_logical = sum(r["count"] * (2 ** r["_m"] - 1) for r in histogram)
    return grouped.select(*id_cols, "kl_ids"), n_logical


def _measured_window_counts(events: DataFrame) -> tuple[dict[str, float], int, int]:
    """(avg events per window per symbol, n_events, n_windows) — measured
    in one Spark action."""
    rows = events.groupBy("wid", "symbol").count().collect()
    n_windows = len({r["wid"] for r in rows})
    per_symbol: Counter[str] = Counter()
    for r in rows:
        per_symbol[r["symbol"]] += r["count"]
    per_window = {s: c / max(n_windows, 1) for s, c in per_symbol.items()}
    return per_window, sum(per_symbol.values()), n_windows


def _buffer(per_window: dict[str, float], n_windows: int, symbol: str) -> int:
    """A type's measured event count; a type absent from the stream has none."""
    return int(round(per_window.get(symbol, 0.0) * n_windows))


def _root(planned: PlannedPattern) -> TreeNode:
    """The plan's join tree: an order plan runs as its left-deep tree
    (Theorem 1), a tree plan as its own tree (Theorem 2)."""
    if planned.order_plan is not None:
        return left_deep_tree(planned.order_plan.order).root
    return planned.tree_plan.root


def _build(
    events: DataFrame,
    planned: PlannedPattern,
    root: TreeNode,
    strategy: str,
    per_window: dict[str, float],
    n_windows: int,
) -> tuple[DataFrame, dict[int, int | Observation]]:
    """The plan tree as one lazy DataFrame chain of window joins, and the
    size of every node by mask, in post-order. A leaf built while no
    negation is left to place has its measured buffer as size; every other
    node has an observed count, filled in by the chain's action.

    On a streaming ``events`` the joins are stream-stream joins: each leaf
    gets an event-time column ``p{i}_et`` with a watermark, each join a
    range conjunct on its two anchors' event times, which bounds the join
    state, and no node is counted (an ``Observation`` cannot observe a
    streaming Dataset)."""
    pattern, stats = planned.pattern, planned.stats
    pending = set(pattern.negated)
    sizes: dict[int, int | Observation] = {}
    streaming = events.isStreaming
    # Same tumbling window ⇒ |Δt| < W ≤ ⌈W⌉: whole seconds, rounded up so
    # that a fractional window keeps all of its pairs.
    within = math.ceil(pattern.window)

    def build(node: TreeNode) -> tuple[DataFrame, set[int], str]:
        """Returns (df, bound pattern positions, anchor prefix ``p{i}``),
        the anchor being the position whose window id the node keeps."""
        if node.is_leaf():
            i = stats.positions[node.leaf]
            df, bound, anchor = _position_df(events, pattern, i), {i}, f"p{i}"
            if streaming:
                df = df.withColumn(f"{anchor}_et", F.timestamp_seconds(f"{anchor}_ts"))
                df = df.withWatermark(f"{anchor}_et", f"{within + 1} seconds")
            elif not pending:
                sizes[node.mask] = _buffer(per_window, n_windows, pattern.types[i])
                return df, bound, anchor
        else:
            ldf, lpos, anchor = build(node.left)
            rdf, rpos, right = build(node.right)
            conds = [f"{anchor}_wid = {right}_wid"]
            if streaming:
                conds.append(
                    f"{right}_et BETWEEN {anchor}_et - INTERVAL {within} SECONDS"
                    f" AND {anchor}_et + INTERVAL {within} SECONDS"
                )
            conds += _cross_conditions(pattern, lpos, rpos, strategy)
            df = _hash_join(ldf, rdf, conds, "inner").drop(f"{right}_wid", f"{right}_et")
            bound = lpos | rpos
        df = _apply_negations(df, events, pattern, bound, pending, wid=f"{anchor}_wid")
        if not streaming:
            df, sizes[node.mask] = _observed(df)
        return df, bound, anchor

    return build(root)[0], sizes


def _order_report(
    planned: PlannedPattern,
    root: TreeNode,
    sizes: dict[int, int],
    per_window: dict[str, float],
    n_windows: int,
) -> tuple[list[int], float]:
    """An order plan's (intermediate counts, latency surrogate).

    Counts are the first stage, the joins in order, then the raw buffers
    of the remaining types: a lazy NFA buffers every event of a type, so a
    negation checked on that type alone does not shrink its buffer. The
    §6.1 latency is ``Cost^lat_ord`` measured: the per-window buffers of
    the types succeeding T_n in the executed order.
    """
    pattern, stats = planned.pattern, planned.stats
    leaves = root.leaves_in_order()
    pos_sequence = [stats.positions[k] for k in leaves]
    joins = [sizes[n.mask] for n in root.nodes() if not n.is_leaf()]
    buffers = [_buffer(per_window, n_windows, pattern.types[i]) for i in pos_sequence[1:]]
    latency = 0.0
    if pattern.op is Op.SEQ:
        idx = pos_sequence.index(stats.positions[stats.last_seq_position])
        latency = float(
            sum(per_window.get(pattern.types[i], 0.0) for i in pos_sequence[idx + 1 :])
        )
    return [sizes[1 << leaves[0]], *joins, *buffers], latency


def _tree_report(
    planned: PlannedPattern,
    root: TreeNode,
    sizes: dict[int, int],
    per_window: dict[str, float],
    n_windows: int,
) -> tuple[list[int], float]:
    """A tree plan's (intermediate counts, latency surrogate).

    Counts are every node's size in post-order. The §6.1 latency is
    ``Cost^lat_tree`` measured: the partial matches buffered on the
    siblings of T_n's ancestors, per window.
    """
    pattern, stats = planned.pattern, planned.stats
    latency = 0.0
    if pattern.op is Op.SEQ:
        last_bit = 1 << stats.last_seq_position
        node = root
        while not node.is_leaf():
            sib = node.right if node.left.mask & last_bit else node.left
            latency += sizes[sib.mask]
            node = node.left if node.left.mask & last_bit else node.right
        latency /= max(n_windows, 1)
    return list(sizes.values()), latency


def execute_planned(
    spark: SparkSession,
    events: DataFrame,
    planned: PlannedPattern,
    *,
    strategy: str = "any",
    measured: tuple[dict[str, float], int, int] | None = None,
) -> JoinExecution:
    """Run a plan as a tree of window joins; an order plan runs as its
    left-deep tree (Theorem 1).

    ``measured`` optionally carries precomputed
    :func:`_measured_window_counts` output so batch harnesses running many
    plans over one cached stream skip the measurement action.
    """
    _check_strategy(strategy)
    root = _root(planned)
    report = _order_report if planned.kind == "order" else _tree_report
    with _engine_conf(spark):
        per_window, n_events, n_windows = measured or _measured_window_counts(events)
        t0 = time.perf_counter()
        cur, observed = _build(events, planned, root, strategy, per_window, n_windows)
        matches, n_matches = _finalize(cur, planned.pattern)
        sizes = {m: c if isinstance(c, int) else int(c.get["n"]) for m, c in observed.items()}
        wall = time.perf_counter() - t0

    counts, latency = report(planned, root, sizes, per_window, n_windows)
    metrics = ExecutionMetrics(
        strategy=strategy,
        n_events=n_events,
        n_windows=n_windows,
        intermediate_counts=counts,
        n_matches=n_matches,
        wall_seconds=wall,
        latency_surrogate=latency,
    )
    return JoinExecution(matches=matches, metrics=metrics)


def execute_pattern(
    spark: SparkSession,
    events: DataFrame,
    planned_list: list[PlannedPattern],
    *,
    strategy: str = "any",
    measured: tuple[dict[str, float], int, int] | None = None,
) -> tuple[list[JoinExecution], ExecutionMetrics]:
    """Execute a (possibly disjunctive) pattern: one run per subplan.

    Subpatterns are detected independently and their metrics merged
    (§5.4); the returned list preserves subpattern order. The stream is
    measured once for all subplans.
    """
    if measured is None:
        with _engine_conf(spark):
            measured = _measured_window_counts(events)
    runs = [
        execute_planned(spark, events, pp, strategy=strategy, measured=measured)
        for pp in planned_list
    ]
    merged = runs[0].metrics
    for r in runs[1:]:
        merged = merged.merged_with(r.metrics)
    return runs, merged
