"""CEP plan execution as Spark DataFrame window-join dataflows.

This is the reproduction's primary evaluation mechanism (DESIGN.md §2):

- an **order-based plan** runs as a left-deep chain of joins — exactly
  the paper's lazy-NFA semantics, where the k-th intermediate result *is*
  the set of partial matches of length k (§4.1);
- a **tree-based plan** runs as a bushy join tree — ZStream's instance
  buffers materialized as per-node DataFrames (§4.2).

Detection semantics (DESIGN.md §3): matches are event combinations
sharing a tumbling window id, every pattern predicate (declared, implied
temporal order for SEQ, §6.2 contiguity adjacency) is attached at the
earliest join where both operands are bound, negated events become
left-anti joins at the earliest dependency-satisfying step (§5.3), and a
Kleene position is joined event-at-a-time with a final power-set
aggregation (Σ(2^m − 1) logical matches, instance-shared as in [52]).

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

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

from pyspark.sql import DataFrame, Observation, SparkSession
from pyspark.sql import functions as F

from repro.core.pattern import Op, Pattern, Predicate
from repro.core.planner import PlannedPattern
from repro.core.plans import TreeNode
from repro.core.transformations import negation_dependencies
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


@contextmanager
def _engine_conf(spark: SparkSession, shuffle_partitions: int):
    """Scope the engine's session settings: a small shuffle-partition
    count for the tiny per-window joins, no adaptive execution, and no
    dropping of a join next to an input the optimizer proves empty (as it
    can for a small in-memory DataFrame). The module docstring says why."""
    settings = {
        "spark.sql.shuffle.partitions": str(shuffle_partitions),
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


_PREDICATE_SQL = {
    "diff_lt": "{a}_diff < {b}_diff",
    "diff_gt": "{a}_diff > {b}_diff",
    "ts_lt": "{a}_ts < {b}_ts",
    "serial_adj": "{b}_serial = {a}_serial + 1",
    "true": "true",
}


def _pred_expr(q: Predicate, li: str, lj: str) -> str:
    """The SQL condition of predicate ``q`` between the column prefixes
    bound at positions ``q.i`` (→ ``li``) and ``q.j`` (→ ``lj``)."""
    return _PREDICATE_SQL[q.kind].format(a=li, b=lj)


def _cross_conditions(
    pattern: Pattern,
    left_positions: set[int],
    right_positions: set[int],
    strategy: str,
) -> list[str]:
    """All predicate conditions (SQL) spanning two disjoint bound position sets.

    Includes declared predicates, the implied temporal total order for SEQ
    patterns (what the lazy NFA / ZStream actually check — DESIGN.md §3),
    a distinct-event guard for duplicate types, and — under the
    ``contiguity`` strategy — serial adjacency between pattern-adjacent
    positive positions.
    """
    conds: list[str] = []
    for q in pattern.predicates:
        if q.i == q.j:
            continue
        if (q.i in left_positions and q.j in right_positions) or (
            q.j in left_positions and q.i in right_positions
        ):
            conds.append(_pred_expr(q, f"p{q.i}", f"p{q.j}"))
    positives = set(pattern.positive())
    for a in sorted(left_positions & positives):
        for b in sorted(right_positions & positives):
            lo, hi = min(a, b), max(a, b)
            if pattern.op is Op.SEQ:
                conds.append(f"p{lo}_ts < p{hi}_ts")
            elif pattern.types[a] == pattern.types[b]:
                conds.append(f"p{lo}_id != p{hi}_id")
    if strategy == "contiguity":
        order = sorted(positives)
        bound = left_positions | right_positions
        for a, b in zip(order, order[1:]):
            spans = (a in left_positions) != (b in left_positions)
            if a in bound and b in bound and spans:
                conds.append(f"p{b}_serial = p{a}_serial + 1")
    return conds


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
    pending: dict[int, frozenset[int]],
    wid: str = "wid",
) -> DataFrame:
    """Left-anti join every negated position whose dependencies are bound
    (§5.3: the absence check runs at the earliest possible point), and
    remove those positions from ``pending``. ``wid`` names ``cur``'s
    window-id column."""
    applied = [j for j, deps in sorted(pending.items()) if deps <= bound]
    for j in applied:
        del pending[j]
        neg = _position_df(events, pattern, j, prefix="n")
        conds = [f"n{j}_wid = {wid}"]
        if pattern.op is Op.SEQ:
            for i in range(j - 1, -1, -1):
                if i in bound:
                    conds.append(f"p{i}_ts < n{j}_ts")
                    break
            for i in range(j + 1, len(pattern.types)):
                if i in bound:
                    conds.append(f"n{j}_ts < p{i}_ts")
                    break
        for q in pattern.predicates:
            if q.i == j and q.j in bound:
                conds.append(_pred_expr(q, f"n{j}", f"p{q.j}"))
            elif q.j == j and q.i in bound:
                conds.append(_pred_expr(q, f"p{q.i}", f"n{j}"))
        cur = _hash_join(cur, neg, conds, "left_anti")
    return cur


def _observed(df: DataFrame, counts: list[int | Observation]) -> DataFrame:
    """``df`` with its row count observed; the count is appended to
    ``counts`` and can be read once the plan's action has run."""
    obs = Observation()
    counts.append(obs)
    return df.observe(obs, F.expr("count(1) AS n"))


def _read_counts(counts: list[int | Observation]) -> list[int]:
    return [c if isinstance(c, int) else int(c.get["n"]) for c in counts]


def _finalize(cur: DataFrame, pattern: Pattern, kl_positions: list[int]) -> tuple[DataFrame, int]:
    """Project match ids and run the plan's one Spark action, which yields
    the logical match count. A Kleene position's power set is folded
    exactly: Σ over base combinations of 2^m − 1, in Python integers."""
    base = [i for i in pattern.positive() if i not in pattern.kleene]
    id_cols = [f"p{i}_id" for i in base]
    if not kl_positions:
        return cur.select(*id_cols), cur.count()
    (k,) = kl_positions
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


def execute_order_plan(
    spark: SparkSession,
    events: DataFrame,
    planned: PlannedPattern,
    *,
    strategy: str = "any",
    shuffle_partitions: int = 8,
    measured: tuple[dict[str, float], int, int] | None = None,
) -> JoinExecution:
    """Run an order-based plan as a left-deep chain of window joins."""
    if strategy not in ("any", "contiguity"):
        raise ValueError(
            "join engine supports 'any' and 'contiguity'; use the event "
            "engine for skip-till-next-match"
        )
    pattern, stats, plan = planned.pattern, planned.stats, planned.order_plan
    if plan is None:
        raise ValueError("planned pattern carries no order plan")
    pos_sequence = [stats.positions[k] for k in plan.order]
    kl_positions = sorted(pattern.kleene)
    pending = dict(negation_dependencies(pattern))

    with _engine_conf(spark, shuffle_partitions):
        per_window, n_events, n_windows = measured or _measured_window_counts(events)
        t0 = time.perf_counter()
        observed: list[int | Observation] = []
        first = pos_sequence[0]
        cur = _position_df(events, pattern, first).withColumnRenamed(f"p{first}_wid", "wid")
        bound = {first}
        cur = _observed(_apply_negations(cur, events, pattern, bound, pending), observed)
        for i in pos_sequence[1:]:
            conds = [f"wid = p{i}_wid", *_cross_conditions(pattern, bound, {i}, strategy)]
            cur = _hash_join(cur, _position_df(events, pattern, i), conds, "inner")
            bound.add(i)
            cur = _apply_negations(cur.drop(f"p{i}_wid"), events, pattern, bound, pending)
            cur = _observed(cur, observed)
        matches, n_matches = _finalize(cur, pattern, kl_positions)
        counts = _read_counts(observed)
        wall = time.perf_counter() - t0

    # §6.1 latency surrogate: buffered events of types succeeding T_n in
    # the executed order, measured per window. A type absent from the
    # stream buffers nothing.
    latency = 0.0
    if pattern.op is Op.SEQ:
        last_pos = stats.positions[stats.last_seq_position]
        idx = pos_sequence.index(last_pos)
        latency = float(
            sum(per_window.get(pattern.types[i], 0.0) for i in pos_sequence[idx + 1 :])
        )
    # Memory proxy: partial matches per stage + per-type event buffers.
    buffers = [
        int(round(per_window.get(pattern.types[i], 0.0) * n_windows))
        for i in pos_sequence
    ]
    metrics = ExecutionMetrics(
        strategy=strategy,
        n_events=n_events,
        n_windows=n_windows,
        intermediate_counts=counts + buffers[1:],
        n_matches=n_matches,
        wall_seconds=wall,
        latency_surrogate=latency,
    )
    return JoinExecution(matches=matches, metrics=metrics)


def execute_tree_plan(
    spark: SparkSession,
    events: DataFrame,
    planned: PlannedPattern,
    *,
    strategy: str = "any",
    shuffle_partitions: int = 8,
    measured: tuple[dict[str, float], int, int] | None = None,
) -> JoinExecution:
    """Run a tree-based plan as a bushy tree of window joins."""
    if strategy not in ("any", "contiguity"):
        raise ValueError(
            "join engine supports 'any' and 'contiguity'; use the event "
            "engine for skip-till-next-match"
        )
    pattern, stats, plan = planned.pattern, planned.stats, planned.tree_plan
    if plan is None:
        raise ValueError("planned pattern carries no tree plan")
    kl_positions = sorted(pattern.kleene)
    pending = dict(negation_dependencies(pattern))
    # Per node, in post-order: a measured leaf size or an observed count.
    observed: list[int | Observation] = []
    node_index: dict[int, int] = {}

    def build(node: TreeNode) -> tuple[DataFrame, set[int], str]:
        """Returns (df, bound pattern positions, wid anchor column)."""
        if node.is_leaf():
            i = stats.positions[node.leaf]
            df = _position_df(events, pattern, i)
            bound = {i}
            anchor = f"p{i}_wid"
            if not pending:
                # Leaf buffers: their sizes are per-type event counts,
                # already measured — nothing to observe.
                node_index[node.mask] = len(observed)
                observed.append(int(round(per_window.get(pattern.types[i], 0.0) * n_windows)))
                return df, bound, anchor
        else:
            ldf, lpos, lanchor = build(node.left)
            rdf, rpos, ranchor = build(node.right)
            conds = [f"{lanchor} = {ranchor}", *_cross_conditions(pattern, lpos, rpos, strategy)]
            df = _hash_join(ldf, rdf, conds, "inner").drop(ranchor)
            bound = lpos | rpos
            anchor = lanchor
        df = _apply_negations(df, events, pattern, bound, pending, wid=anchor)
        node_index[node.mask] = len(observed)
        return _observed(df, observed), bound, anchor

    with _engine_conf(spark, shuffle_partitions):
        per_window, n_events, n_windows = measured or _measured_window_counts(events)
        t0 = time.perf_counter()
        root_df, _, _ = build(plan.root)
        matches, n_matches = _finalize(root_df, pattern, kl_positions)
        counts = _read_counts(observed)
        wall = time.perf_counter() - t0

    # §6.1 latency surrogate for trees: measured partial matches buffered
    # on the siblings of T_n's ancestors.
    latency = 0.0
    if pattern.op is Op.SEQ:
        last_bit = 1 << stats.last_seq_position
        node = plan.root
        while not node.is_leaf():
            sib = node.right if node.left.mask & last_bit else node.left
            latency += counts[node_index[sib.mask]]
            node = node.left if node.left.mask & last_bit else node.right
        latency /= max(n_windows, 1)
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


def execute_planned(
    spark: SparkSession,
    events: DataFrame,
    planned: PlannedPattern,
    *,
    strategy: str = "any",
    shuffle_partitions: int = 8,
    measured: tuple[dict[str, float], int, int] | None = None,
) -> JoinExecution:
    """Dispatch to the order- or tree-plan executor.

    ``measured`` optionally carries precomputed
    :func:`_measured_window_counts` output so batch harnesses running many
    plans over one cached stream skip the two measurement actions.
    """
    fn = execute_order_plan if planned.order_plan is not None else execute_tree_plan
    return fn(
        spark,
        events,
        planned,
        strategy=strategy,
        shuffle_partitions=shuffle_partitions,
        measured=measured,
    )


def execute_pattern(
    spark: SparkSession,
    events: DataFrame,
    planned_list: list[PlannedPattern],
    *,
    strategy: str = "any",
    shuffle_partitions: int = 8,
    measured: tuple[dict[str, float], int, int] | None = None,
) -> tuple[list[JoinExecution], ExecutionMetrics]:
    """Execute a (possibly disjunctive) pattern: one run per subplan.

    Subpatterns are detected independently and their metrics merged
    (§5.4); the returned list preserves subpattern order. The stream is
    measured once for all subplans.
    """
    if measured is None:
        with _engine_conf(spark, shuffle_partitions):
            measured = _measured_window_counts(events)
    runs = [
        execute_planned(
            spark,
            events,
            pp,
            strategy=strategy,
            shuffle_partitions=shuffle_partitions,
            measured=measured,
        )
        for pp in planned_list
    ]
    merged = runs[0].metrics
    for r in runs[1:]:
        merged = merged.merged_with(r.metrics)
    return runs, merged
