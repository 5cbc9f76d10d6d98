"""Event-at-a-time CEP detectors (paper §2.2–§2.3), pure Python.

One evaluation mechanism over the events of ONE time window, processed in
arrival (serial) order: the instance tree of ZStream [35]. Events enter
leaves, and each new instance combines with the instances of its sibling
node on the way up; an instance at the root is a match.

- :func:`detect_tree` runs a tree plan's instance tree.
- :func:`detect_order` runs the out-of-order lazy NFA of [29] as its
  left-deep instance tree (Theorem 1). The first leaf holds the NFA's
  length-1 partial matches. The later leaves are its type buffers: an
  out-of-order event waits there until a partial match reaches its state.
  Buffers are not partial matches, so they are not counted in the peak
  (the join engine's order-plan report keeps the same split).

Both plan kinds run under the §6.2 selection strategies:

- ``any`` (skip-till-any-match) — every combination detected;
- ``next`` (skip-till-next-match) — events are consumed by the first full
  match they complete and removed from every node's instances;
- ``contiguity`` — strict contiguity (global-serial adjacency between
  pattern-adjacent events) with consumption.

Metrics measured per run: peak concurrent partial matches (memory),
predicate comparisons (work), and per-match latency = comparisons
performed between the arrival of the match's final primitive event and
its emission (§6.1's definition, measured rather than estimated).

Restricted to pure SEQ/AND patterns (no NOT/KL) — the join engine covers
those categories; the event engine exists for consumption semantics and
latency, which the paper evaluates on pure sequences (Figs 18–19).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import pandas as pd

from repro.core.cost_model import STRATEGIES
from repro.core.pattern import Op, Pattern
from repro.core.plans import OrderPlan, TreeNode, TreePlan, left_deep_tree


@dataclass
class DetectorResult:
    """Matches and measured cost of one window's detection."""

    matches: list[tuple[int, ...]]  # event ids, indexed by pattern position
    n_events: int
    peak_partials: int = 0
    comparisons: int = 0
    match_latencies: list[int] = field(default_factory=list)

    @property
    def n_matches(self) -> int:
        return len(self.matches)


class _Event:
    """One primitive event (plain attributes beat dict lookups here)."""

    __slots__ = ("id", "pos", "ts", "serial", "diff")

    def __init__(self, id_, pos, ts, serial, diff):
        self.id = id_
        self.pos = pos
        self.ts = ts
        self.serial = serial
        self.diff = diff


def _check(pattern: Pattern, a: _Event, b: _Event, strategy: str) -> bool:
    """All pattern constraints between two bound events (one comparison)."""
    i, j = (a, b) if a.pos < b.pos else (b, a)
    if pattern.op is Op.SEQ:
        if not (i.ts < j.ts):
            return False
    elif i.pos != j.pos and i.id == j.id:
        return False
    if strategy == "contiguity" and j.pos == i.pos + 1:
        if j.serial != i.serial + 1:
            return False
    for q in pattern.predicates:
        if (q.i, q.j) != (i.pos, j.pos):
            continue
        if q.kind == "diff_lt" and not (i.diff < j.diff):
            return False
        if q.kind == "diff_gt" and not (i.diff > j.diff):
            return False
        if q.kind == "ts_lt" and not (i.ts < j.ts):
            return False
        if q.kind == "serial_adj" and j.serial != i.serial + 1:
            return False
    return True


def _events_of(window: pd.DataFrame, pattern: Pattern) -> list[_Event]:
    """Window rows → `_Event`s for positions of this pattern, serial order."""
    pos_of = {t: i for i, t in enumerate(pattern.types)}
    out = []
    sub = window[window["symbol"].isin(pos_of)].sort_values("serial")
    for row in sub.itertuples(index=False):
        out.append(
            _Event(int(row.event_id), pos_of[row.symbol], float(row.ts),
                   int(row.serial), float(row.diff))
        )
    return out


def _validate(pattern: Pattern, strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if not pattern.is_pure():
        raise ValueError("event detectors support pure SEQ/AND patterns only")
    if len(set(pattern.types)) != len(pattern.types):
        raise ValueError("event engine requires distinct types per pattern")


def detect_order(
    window: pd.DataFrame,
    pattern: Pattern,
    plan: OrderPlan,
    strategy: str = "any",
) -> DetectorResult:
    """Lazy-NFA detection of a pure pattern over one window's events: the
    order's left-deep instance tree, whose later leaves are type buffers."""
    # Planning positions are pattern positions for pure patterns.
    root = left_deep_tree(plan.order).root
    return _detect(window, pattern, root, strategy, {1 << t for t in plan.order[1:]})


def detect_tree(
    window: pd.DataFrame,
    pattern: Pattern,
    plan: TreePlan,
    strategy: str = "any",
) -> DetectorResult:
    """Instance-tree (ZStream-style) detection over one window's events."""
    return _detect(window, pattern, plan.root, strategy, set())


def _detect(
    window: pd.DataFrame,
    pattern: Pattern,
    root: TreeNode,
    strategy: str,
    buffers: set[int],
) -> DetectorResult:
    """Instance-tree detection under ``root``. Instances of the leaves whose
    masks are in ``buffers`` are a lazy NFA's type buffers: stored and
    scanned like any leaf's, but never counted as partial matches."""
    _validate(pattern, strategy)
    events = _events_of(window, pattern)
    res = DetectorResult(matches=[], n_events=len(events))
    parent: dict[int, TreeNode] = {}
    leaf_node: dict[int, TreeNode] = {}
    for node in root.nodes():
        if node.is_leaf():
            leaf_node[node.leaf] = node
        else:
            parent[node.left.mask] = node
            parent[node.right.mask] = node
    instances: dict[int, list[tuple[_Event, ...]]] = {
        node.mask: [] for node in root.nodes()
    }
    consume = strategy in ("next", "contiguity")
    consumed: set[int] = set()
    live = 0
    ops_at_arrival = 0

    def emit(inst: tuple[_Event, ...]) -> None:
        nonlocal live
        by_pos = sorted(inst, key=lambda e: e.pos)
        res.matches.append(tuple(e.id for e in by_pos))
        res.match_latencies.append(res.comparisons - ops_at_arrival)
        if consume:
            ids = {e.id for e in inst}
            consumed.update(ids)
            for mask, lst in instances.items():
                kept = [q for q in lst if not any(e.id in ids for e in q)]
                if mask not in buffers:
                    live -= len(lst) - len(kept)
                lst[:] = kept

    def compat(a: tuple[_Event, ...], b: tuple[_Event, ...]) -> bool:
        for x in a:
            for y in b:
                res.comparisons += 1
                if not _check(pattern, x, y, strategy):
                    return False
        return True

    def add_instance(node: TreeNode, inst: tuple[_Event, ...]) -> None:
        nonlocal live
        if node is root:
            emit(inst)
            return
        instances[node.mask].append(inst)
        if node.mask not in buffers:
            live += 1
            res.peak_partials = max(res.peak_partials, live)
        par = parent[node.mask]
        sib = par.right if par.left is node else par.left
        for other in list(instances[sib.mask]):
            # ``inst`` itself is only consumed by a match made in this loop,
            # which returns at once.
            if consume and any(e.id in consumed for e in other):
                continue
            if compat(inst, other):
                merged = inst + other if par.left is node else other + inst
                add_instance(par, merged)
                if consume and any(e.id in consumed for e in inst):
                    return

    for e in events:
        ops_at_arrival = res.comparisons
        add_instance(leaf_node[e.pos], (e,))
    return res
