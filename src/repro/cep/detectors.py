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

The constraints between a node's instance and its sibling's are fixed by
the plan, since an instance's slots follow its node's leaves. They are
compiled once per (pattern, plan, strategy) and process into one generated
check per node side, which makes the same comparisons in the same order as
a walk over every predicate would. Events are plain tuples.

Metrics measured per run: peak concurrent partial matches (memory),
predicate comparisons (work), and per-match latency = comparisons
performed between the arrival of the match's final primitive event and
its emission (§6.1's definition, measured rather than estimated).

Restricted to pure SEQ/AND patterns (no NOT/KL) — the join engine covers
those categories; the event engine exists for consumption semantics and
latency, which the paper evaluates on pure sequences (Figs 18–19).
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core.cost_model import STRATEGIES
from repro.core.pattern import Pattern
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


# Where each field a comparison names sits in an event tuple.
_FIELDS = {"id": 0, "ts": 2, "serial": 3, "diff": 4}


def _events_of(window: pd.DataFrame, pattern: Pattern) -> list[tuple]:
    """Window rows → ``(id, pos, ts, serial, diff)`` tuples for positions of
    this pattern, serial order."""
    pos_of = {t: i for i, t in enumerate(pattern.types)}
    rows = zip(
        window["event_id"].to_numpy(np.int64).tolist(),
        window["symbol"].tolist(),
        window["ts"].to_numpy(float).tolist(),
        window["serial"].to_numpy(np.int64).tolist(),
        window["diff"].to_numpy(float).tolist(),
    )
    return sorted(
        ((i, pos_of[s], ts, serial, diff) for i, s, ts, serial, diff in rows if s in pos_of),
        key=operator.itemgetter(3),
    )


def _pair_source(pattern: Pattern, strategy: str, a_slots, b_slots) -> str:
    """Source of ``check(a, b)``: every constraint between an instance laid
    out as ``a_slots`` and one laid out as ``b_slots``, one comparison per
    (slot, slot) pair in x-major order, each :meth:`Pattern.pair_conditions`
    of the pair rendered over the event tuples' fields. It returns the number
    of comparisons made, negated if the last one failed. The source holds
    nothing but loop counters, tuple indices and the fixed operators of
    :data:`~repro.core.pattern.COMPARISONS`."""
    lines = ["def check(a, b):",
             f"    {''.join(f'x{k}, ' for k in range(len(a_slots)))}= a",
             f"    {''.join(f'y{k}, ' for k in range(len(b_slots)))}= b"]
    n = 0
    for k, p in enumerate(a_slots):
        for m, q in enumerate(b_slots):
            n += 1
            (lo, i), (hi, j) = sorted([(p, f"x{k}"), (q, f"y{m}")])
            test = " and ".join(
                f"{i}[{_FIELDS[f]}]{f' + {offset}' if offset else ''} {op} {j}[{_FIELDS[f]}]"
                for f, offset, op in pattern.pair_conditions(lo, hi, strategy)
            )
            if test:
                lines.append(f"    if not ({test}): return {-n}")
    lines.append(f"    return {n}")
    return "\n".join(lines)


@functools.lru_cache(maxsize=256)
def _program(pattern: Pattern, root: TreeNode, strategy: str):
    """The checks of one (pattern, plan, strategy), compiled once per process.

    An instance's slots follow its node's ``leaves_in_order()``, so every
    constraint between a node's instance and its sibling's is fixed by the
    plan. Returns, per non-root node mask, ``(parent mask, sibling mask,
    is left child, pair check of this side)``, and the root instance's
    match key (ids in pattern-position order)."""
    links, namespace = {}, {}
    for par in root.nodes():
        if par.is_leaf():
            continue
        for node, sib in ((par.left, par.right), (par.right, par.left)):
            exec(_pair_source(pattern, strategy, node.leaves_in_order(),
                              sib.leaves_in_order()), namespace)
            links[node.mask] = (par.mask, sib.mask, node is par.left, namespace["check"])
    slots = root.leaves_in_order()
    key = "".join(f"m[{slots.index(p)}][0], " for p in sorted(slots))
    exec(f"def match_key(m): return ({key})", namespace)
    return links, namespace["match_key"]


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
    links, match_key = _program(pattern, root, strategy)
    instances: dict[int, list[tuple]] = {node.mask: [] for node in root.nodes()}
    consume = strategy in ("next", "contiguity")
    consumed: set[int] = set()
    live = peak = ops = ops_at_arrival = 0

    def emit(inst: tuple) -> None:
        nonlocal live
        res.matches.append(match_key(inst))
        res.match_latencies.append(ops - ops_at_arrival)
        if consume:
            ids = {e[0] for e in inst}
            consumed.update(ids)
            for mask, lst in instances.items():
                kept = [q for q in lst if not any(e[0] in ids for e in q)]
                if mask not in buffers:
                    live -= len(lst) - len(kept)
                lst[:] = kept

    def add_instance(mask: int, inst: tuple) -> None:
        nonlocal live, peak, ops
        if mask == root.mask:
            emit(inst)
            return
        instances[mask].append(inst)
        if mask not in buffers:
            live += 1
            peak = max(peak, live)
        par, sib, left, check = links[mask]
        for other in list(instances[sib]):
            # ``inst`` itself is only consumed by a match made in this loop,
            # which returns at once.
            if consume and any(e[0] in consumed for e in other):
                continue
            n = check(inst, other)
            if n < 0:
                ops -= n
                continue
            ops += n
            add_instance(par, inst + other if left else other + inst)
            if consume and any(e[0] in consumed for e in inst):
                return

    for e in events:
        ops_at_arrival = ops
        add_instance(1 << e[1], (e,))
    res.peak_partials, res.comparisons = peak, ops
    return res
