"""Tree-based plan generation algorithms (paper §7.1).

- :func:`zstream` — ZStream's native optimizer [35]: dynamic programming
  over all tree topologies for a *fixed* left-to-right leaf order
  (matrix-chain style, O(n³)). Leaf reordering is not supported — the
  limitation Figure 3 of the paper illustrates.
- :func:`zstream_ord` — ZSTREAM-ORD: run the JQPG greedy heuristic to
  produce a good leaf order first, then ZStream's DP on that order.
- :func:`dp_b` — DP over subsets for unrestricted bushy trees [45, 36]
  (cross products allowed), provably optimal; O(3ⁿ) splits, costed one
  popcount layer at a time with numpy, with the ties broken as a scalar
  scan over the splits would break them.
"""
from __future__ import annotations

import math

import numpy as np

from .cost_model import Objective, SubsetTables
from .order_algorithms import greedy
from .plans import PlanResult, TreeNode, TreePlan, join, leaf


def _zstream_dp(obj: Objective, leaf_order: tuple[int, ...]) -> PlanResult:
    """Optimal tree over contiguous groupings of ``leaf_order``."""
    n = len(leaf_order)
    tables = SubsetTables(obj)
    masks = {}
    for i in range(n):
        m = 0
        for j in range(i, n):
            m |= 1 << leaf_order[j]
            masks[i, j] = m
    cost: dict[tuple[int, int], float] = {}
    split: dict[tuple[int, int], int] = {}
    for i in range(n):
        cost[i, i] = tables.node_pm(1 << leaf_order[i])
    for span in range(2, n + 1):
        for i in range(0, n - span + 1):
            j = i + span - 1
            node = tables.node_pm(masks[i, j])
            best, best_k = math.inf, i
            for k in range(i, j):
                c = (
                    cost[i, k]
                    + cost[k + 1, j]
                    + tables.lat_combine(masks[i, k], masks[k + 1, j])
                )
                if c < best:
                    best, best_k = c, k
            cost[i, j] = node + best
            split[i, j] = best_k

    def build(i: int, j: int) -> TreeNode:
        if i == j:
            return leaf(leaf_order[i])
        k = split[i, j]
        return join(build(i, k), build(k + 1, j))

    return PlanResult(TreePlan(build(0, n - 1)), cost[0, n - 1])


def zstream(obj: Objective) -> PlanResult:
    """ZStream's DP on the pattern's own leaf order [35]."""
    return _zstream_dp(obj, tuple(range(obj.stats.n)))


def zstream_ord(obj: Objective) -> PlanResult:
    """GREEDY leaf ordering followed by ZStream's DP (ZSTREAM-ORD)."""
    return _zstream_dp(obj, greedy(obj).plan.order)


# Most (mask, split) pairs that DP-B costs at once; bounds its temporaries
# to a few MB each, whatever the layer's size.
_SPLIT_CHUNK = 1 << 17


def dp_b(obj: Objective) -> PlanResult:
    """Optimal bushy tree via DP over subsets (DP-B) [45].

    ``cost[S] = node_pm(S) + min_{L⊂S} (cost[L] + cost[S∖L] +
    lat_combine(L, S∖L))``; leaves are the singleton base case. S's lowest
    bit stays on the left side, so each unordered split is tried once
    (Moerkotte & Neumann's DPsub). O(3ⁿ) — the paper reports 50 h at
    n = 22 for its Java implementation; callers cap n accordingly.

    The subsets are processed one popcount layer at a time
    (:meth:`~repro.core.cost_model.SubsetTables.layers`). For a layer's
    masks, every split is costed in one array: row S lists the right sides
    R = the non-empty submasks of S∖low in ascending order (so the left
    sides L = S∖R descend), ``c = cost[L] + cost[R] + lat_combine(L, R)``
    (the last term skipped at α = 0), and ``np.argmin`` keeps the first
    minimum of each row: the largest left side wins a tie, exactly as a
    strict-``<`` scan over descending left sides. A large layer is costed
    in chunks of rows with at most ``_SPLIT_CHUNK`` splits (or one row);
    rows are independent, so chunking changes no result.
    """
    n = obj.stats.n
    tables = SubsetTables(obj)
    size = 1 << n
    cost = np.full(size, math.inf)
    split = np.zeros(size, dtype=np.int64)
    layers = tables.layers()
    cost[layers[1]] = tables.node_pm(layers[1])
    for p, layer in enumerate(layers[2:], 2):
        half = 1 << (p - 1)
        per_chunk = max(1, _SPLIT_CHUNK // half)
        for start in range(0, len(layer), per_chunk):
            masks = layer[start : start + per_chunk]
            # Each row's bits ascending; bits[:, 0] is the lowest (left) bit.
            bits = np.nonzero(masks[:, None] >> np.arange(n) & 1)[1].reshape(-1, p)
            # sub[:, j] = the j-th submask of S∖low in ascending order.
            sub = np.zeros((len(masks), half), dtype=np.int64)
            for k in range(1, p):
                h = 1 << (k - 1)
                sub[:, h : 2 * h] = sub[:, :h] + (1 << bits[:, k : k + 1])
            right = sub[:, 1:]
            left = masks[:, None] ^ right
            c = cost[left] + cost[right]
            if tables.alpha:
                c += tables.lat_combine(left, right)
            rows, best = np.arange(len(masks)), np.argmin(c, axis=1)
            cost[masks] = tables.node_pm(masks) + c[rows, best]
            split[masks] = left[rows, best]

    def build(mask: int) -> TreeNode:
        if mask.bit_count() == 1:
            return leaf(mask.bit_length() - 1)
        l_mask = int(split[mask])
        return join(build(l_mask), build(mask ^ l_mask))

    return PlanResult(TreePlan(build(size - 1)), float(cost[size - 1]))


TREE_ALGORITHMS = {
    "ZSTREAM": zstream,
    "ZSTREAM-ORD": zstream_ord,
    "DP-B": dp_b,
}
