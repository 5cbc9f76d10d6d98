"""Order-based plan generation algorithms (paper §7.1).

CEP-native baselines:

- :func:`trivial` — the pattern's own order (SASE [50], Cayuga [18]).
- :func:`efreq` — ascending arrival frequency (PB-CED [6], Lazy NFA [29]).

JQPG methods adapted to CPG:

- :func:`greedy` — Swami's greedy heuristic [47]: repeatedly append the
  event type minimizing the cost increment.
- :func:`ii_random` / :func:`ii_greedy` — Iterative Improvement [47]:
  local search over *swap* and *cycle* moves from a random / greedy start.
- :func:`dp_ld` — Selinger-style dynamic programming over subsets [45],
  provably optimal among left-deep plans (cross products allowed).

Every algorithm minimizes a :class:`repro.core.cost_model.Objective`, so
the hybrid latency model (§6.1) and the selection-strategy models (§6.2)
come for free.
"""
from __future__ import annotations

import functools
import math
import random

import numpy as np

from .cost_model import Objective, OrderIndex, SubsetTables
from .plans import OrderPlan, PlanResult


def _result(obj: Objective, order: tuple[int, ...]) -> PlanResult:
    plan = OrderPlan(order)
    return PlanResult(plan, obj.order_cost(plan))


def trivial(obj: Objective) -> PlanResult:
    """The initial pattern order — no optimization."""
    return _result(obj, tuple(range(obj.stats.n)))


def efreq(obj: Objective) -> PlanResult:
    """Ascending order of arrival frequency (W·r_i), ties by position."""
    n = obj.stats.n
    order = tuple(sorted(range(n), key=lambda i: (obj.stats.counts[i], i)))
    return _result(obj, order)


def greedy(obj: Objective) -> PlanResult:
    """Greedy cost-based ordering [47].

    At each step appends the remaining position that minimizes the added
    cost (the new prefix's expected partial matches plus its latency
    contribution).
    """
    n = obj.stats.n
    remaining = set(range(n))
    order: list[int] = []
    mask = 0
    while remaining:
        best_t, best_c = None, math.inf
        for t in sorted(remaining):
            c = obj.prefix_pm(mask | 1 << t) + obj.lat_step(mask, t)
            if c < best_c:
                best_t, best_c = t, c
        order.append(best_t)
        remaining.remove(best_t)
        mask |= 1 << best_t
    return _result(obj, tuple(order))


def _neighbours(order: tuple[int, ...]):
    """Swap and cycle moves of Iterative Improvement [47]."""
    n = len(order)
    lst = list(order)
    for i in range(n):
        for j in range(i + 1, n):
            nb = lst.copy()
            nb[i], nb[j] = nb[j], nb[i]
            yield tuple(nb)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                nb = lst.copy()
                nb[i], nb[j], nb[k] = nb[k], nb[i], nb[j]
                yield tuple(nb)
                nb2 = lst.copy()
                nb2[i], nb2[j], nb2[k] = nb2[j], nb2[k], nb2[i]
                yield tuple(nb2)


@functools.cache
def _moves(n: int) -> np.ndarray:
    """:func:`_neighbours` of ``range(n)`` as an index table: row m is the
    m-th neighbour of ``range(n)``, so ``order[_moves(n)]`` lists the
    neighbours of any ``order`` in :func:`_neighbours`' order."""
    return np.array(list(_neighbours(tuple(range(n)))), dtype=np.intp).reshape(-1, n)


@functools.cache
def _neighbourhood(n: int) -> OrderIndex:
    """The :class:`OrderIndex` of :func:`_moves`, built once per n: it
    serves every current order of a descent."""
    return OrderIndex(_moves(n), n)


def _descend(obj: Objective, order: tuple[int, ...]) -> tuple[tuple[int, ...], float]:
    """Steepest-descent local search until a local minimum.

    Each step costs the whole swap/cycle neighbourhood of the current order
    in one :meth:`Objective.order_costs` call, with the current order as the
    base and the cached :func:`_neighbourhood` tables (so a step gathers its
    factors from the current order's own n×n factor matrix). It then scans
    the costs in neighbour order and keeps a neighbour only if it beats the
    running best by the relative tolerance below (so among near-ties the
    first one wins, which an ``argmin`` would not guarantee).
    """
    index = _neighbourhood(len(order))
    current = np.array(order)
    cost = obj.order_cost(OrderPlan(order))
    while True:
        costs = obj.order_costs(index, current)
        best_i, best_c = -1, cost
        # Only a neighbour that beats the current cost can beat the running best.
        for i in np.flatnonzero((costs < cost - 1e-300) & (costs < cost * (1 - 1e-12))):
            c = costs[i]
            if c < best_c - 1e-300 and c < best_c * (1 - 1e-12):
                best_i, best_c = i, c
        if best_i < 0:
            return tuple(current.tolist()), cost
        current, cost = current[index.positions[:, best_i]], float(best_c)


def ii_random(obj: Objective, seed: int = 0) -> PlanResult:
    """Iterative Improvement from a random initial order (II-RANDOM)."""
    order = list(range(obj.stats.n))
    random.Random(seed).shuffle(order)
    order, cost = _descend(obj, tuple(order))
    return PlanResult(OrderPlan(order), cost)


def ii_greedy(obj: Objective) -> PlanResult:
    """Iterative Improvement from the greedy order (II-GREEDY)."""
    start = greedy(obj).plan.order
    order, cost = _descend(obj, start)
    return PlanResult(OrderPlan(order), cost)


def dp_ld(obj: Objective) -> PlanResult:
    """Optimal left-deep plan via dynamic programming over subsets [45].

    ``cost[S] = pm(S) + min_{t∈S} (cost[S∖t] + lat_step(S∖t, t))`` — valid
    because both throughput models depend on the member *set* only, and
    the latency term decomposes over placements after T_n (see
    DESIGN.md). The subsets are processed one popcount layer at a time
    (:meth:`SubsetTables.layers`), with vector operations over the layer:
    for t ascending, a running strict-``<`` minimum, so the lowest t wins
    a tie. A mask without bit t reads ``cost[S | t]`` of the next layer,
    still ∞, and never wins.
    O(2ⁿ·n) time, O(2ⁿ) space.
    """
    n = obj.stats.n
    tables = SubsetTables(obj)
    size = 1 << n
    cost = np.full(size, math.inf)
    cost[0] = 0.0
    choice = np.full(size, -1, dtype=np.int8)
    for layer in tables.layers()[1:]:
        best = np.full(len(layer), math.inf)
        best_t = np.full(len(layer), -1, dtype=np.int8)
        for t in range(n):
            prev = layer ^ (1 << t)
            c = cost[prev]
            c += obj.lat_step(prev, t)
            better = c < best
            np.copyto(best, c, where=better)
            np.copyto(best_t, t, where=better)
        cost[layer] = best + tables.prefix_pm(layer)
        choice[layer] = best_t
    order: list[int] = []
    mask = size - 1
    while mask:
        t = int(choice[mask])
        order.append(t)
        mask ^= 1 << t
    order.reverse()
    return PlanResult(OrderPlan(tuple(order)), float(cost[size - 1]))


ORDER_ALGORITHMS = {
    "TRIVIAL": trivial,
    "EFREQ": efreq,
    "GREEDY": greedy,
    "II-RANDOM": ii_random,
    "II-GREEDY": ii_greedy,
    "DP-LD": dp_ld,
}
