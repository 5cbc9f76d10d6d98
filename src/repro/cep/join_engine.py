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
from repro.core.plans import TreeNode, left_deep_tree
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
        deps = pending.pop(j)
        neg = _position_df(events, pattern, j, prefix="n")
        conds = [f"n{j}_wid = {wid}"]
        if pattern.op is Op.SEQ:
            # The temporal neighbours are j's nearest dependencies on each
            # side (negation_dependencies).
            if below := [i for i in deps if i < j]:
                conds.append(f"p{max(below)}_ts < n{j}_ts")
            if above := [i for i in deps if i > j]:
                conds.append(f"n{j}_ts < p{min(above)}_ts")
        for q in pattern.predicates:
            if q.i == j and q.j in bound:
                conds.append(_pred_expr(q, f"n{j}", f"p{q.j}"))
            elif q.j == j and q.i in bound:
                conds.append(_pred_expr(q, f"p{q.i}", f"n{j}"))
        cur = _hash_join(cur, neg, conds, "left_anti")
    return cur


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
    node has an observed count, filled in by the chain's action."""
    pattern, stats = planned.pattern, planned.stats
    pending = dict(negation_dependencies(pattern))
    sizes: dict[int, int | Observation] = {}

    def build(node: TreeNode) -> tuple[DataFrame, set[int], str]:
        """Returns (df, bound pattern positions, wid anchor column)."""
        if node.is_leaf():
            i = stats.positions[node.leaf]
            df, bound, anchor = _position_df(events, pattern, i), {i}, f"p{i}_wid"
            if not pending:
                sizes[node.mask] = _buffer(per_window, n_windows, pattern.types[i])
                return df, bound, anchor
        else:
            ldf, lpos, anchor = build(node.left)
            rdf, rpos, ranchor = build(node.right)
            conds = [f"{anchor} = {ranchor}", *_cross_conditions(pattern, lpos, rpos, strategy)]
            df, bound = _hash_join(ldf, rdf, conds, "inner").drop(ranchor), lpos | rpos
        df = _apply_negations(df, events, pattern, bound, pending, wid=anchor)
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
    if strategy not in ("any", "contiguity"):
        raise ValueError(
            "join engine supports 'any' and 'contiguity'; use the event "
            "engine for skip-till-next-match"
        )
    if planned.order_plan is not None:
        root, report = left_deep_tree(planned.order_plan.order).root, _order_report
    else:
        root, report = planned.tree_plan.root, _tree_report
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
