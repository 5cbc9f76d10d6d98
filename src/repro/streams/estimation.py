"""On-stream statistics estimation (the paper's preprocessing stage, §7.2).

The JQPG planners need per-type arrival rates and per-predicate
selectivities. The paper computes both from the dataset before running;
:func:`estimate` does the same from the (pandas) event stream:

- ``rate(symbol) = #events(symbol) / duration``;
- ``selectivity(a, b, kind)``: the empirical probability that a random
  (event-of-a, event-of-b) pair satisfies the predicate, estimated from a
  bounded per-symbol sample of ``diff`` values (exact cross-pair mean).

The resulting :class:`StreamStatistics` also builds predicate selectivity
lookups for the workload generator and pattern-level rate dicts for
:func:`repro.core.planner.plan_pattern`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

_KINDS = ("diff_lt", "diff_gt")


@dataclass
class StreamStatistics:
    """Measured stream statistics: rates and pairwise selectivities."""

    rates: dict[str, float]
    diff_samples: dict[str, np.ndarray]
    _sel_cache: dict[tuple[str, str, str], float] = field(default_factory=dict)

    def selectivity(self, sym_a: str, sym_b: str, kind: str) -> float:
        """P(pred(a, b)) for random events a of ``sym_a``, b of ``sym_b``.

        Estimates are clamped away from exactly 0/1 so the cost models
        never divide by zero or collapse terms entirely. A symbol the stream
        never produced has no sample, so nothing was measured: the result is
        1.0. Its rate is 0.0 (:meth:`rates_for`), so every partial-match
        count that includes it is 0 whatever the selectivity.
        """
        if kind == "true":
            return 1.0
        if kind not in _KINDS:
            raise ValueError(f"no selectivity model for predicate kind {kind!r}")
        key = (sym_a, sym_b, kind)
        if key not in self._sel_cache:
            da = self.diff_samples.get(sym_a)
            db = self.diff_samples.get(sym_b)
            if da is None or db is None:
                self._sel_cache[key] = 1.0
                return 1.0
            if kind == "diff_lt":
                p = float(np.mean(da[:, None] < db[None, :]))
            else:
                p = float(np.mean(da[:, None] > db[None, :]))
            self._sel_cache[key] = min(max(p, 1e-4), 1.0 - 1e-4)
        return self._sel_cache[key]

    def rates_for(self, symbols) -> dict[str, float]:
        """Rate dict restricted to the given symbols (planner input). A symbol
        the stream never produced has rate 0.0: zero events were measured."""
        return {s: self.rates.get(s, 0.0) for s in symbols}


def estimate(
    events: pd.DataFrame,
    duration: float,
    *,
    max_samples: int = 400,
    seed: int = 0,
) -> StreamStatistics:
    """Measure rates and diff-distributions from an event stream."""
    if len(events) == 0:
        raise ValueError("cannot estimate statistics from an empty stream")
    if not duration > 0:
        raise ValueError(f"stream duration must be positive: {duration}")
    g = np.random.default_rng(seed)
    rates: dict[str, float] = {}
    samples: dict[str, np.ndarray] = {}
    for sym, grp in events.groupby("symbol"):
        rates[sym] = len(grp) / duration
        d = grp["diff"].to_numpy()
        if len(d) > max_samples:
            d = g.choice(d, size=max_samples, replace=False)
        samples[sym] = d
    return StreamStatistics(rates=rates, diff_samples=samples)
