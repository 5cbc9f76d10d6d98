"""Synthetic stock-tick event stream (NASDAQ substitute, DESIGN.md §4).

The paper's dataset: one event per stock-price update with (stock id,
timestamp, price) plus a preprocessed ``difference`` attribute (price
change since the previous update of the same stock); one CEP event type
per stock id; arrival rates 1–45 ev/s within a 20-minute window.

This generator reproduces that structure at laptop scale:

- per-symbol Poisson arrivals, rates log-uniform in
  ``[rate_min, rate_max]`` — heterogeneous frequencies, the property the
  EFREQ baseline and all cost models key on;
- per-symbol price random walks with symbol-specific ``difference``
  distributions ``N(μ_i, σ_i)`` so the paper's predicate family
  ``a.difference < b.difference`` spans a wide selectivity range;
- a global ``serial`` number (the §6.2 contiguity attribute) and a
  tumbling window id ``wid = floor(ts / window)``.

Everything is deterministic in ``seed``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd


@dataclass(frozen=True)
class StreamConfig:
    """Scale knobs for the synthetic stream.

    Defaults give ~20 symbols · ~0.2 ev/s · 3600 s ≈ 12k events with
    4–40 events per symbol per 60 s window — small enough that the
    worst evaluation plans at pattern size 7 still finish, large enough
    that plan quality dominates wall-clock (DESIGN.md §4).
    """

    n_symbols: int = 20
    duration: float = 3600.0
    window: float = 60.0
    rate_min: float = 0.05
    rate_max: float = 0.7
    diff_mu_spread: float = 0.6
    seed: int = 7

    def __post_init__(self) -> None:
        if self.n_symbols < 1 or not (0 < self.duration < np.inf and 0 < self.window < np.inf):
            raise ValueError("invalid stream configuration")
        if not (0 < self.rate_min <= self.rate_max):
            raise ValueError("require 0 < rate_min <= rate_max")


def symbol_names(cfg: StreamConfig) -> list[str]:
    """Symbol identifiers ``S00..S{n-1}`` (one CEP event type each)."""
    return [f"S{i:02d}" for i in range(cfg.n_symbols)]


def true_rates(cfg: StreamConfig) -> dict[str, float]:
    """The generating (ground-truth) arrival rates, events/second."""
    g = np.random.default_rng(cfg.seed)
    lo, hi = np.log(cfg.rate_min), np.log(cfg.rate_max)
    return {
        s: float(np.exp(g.uniform(lo, hi))) for s in symbol_names(cfg)
    }


def stock_events_pdf(cfg: StreamConfig) -> pd.DataFrame:
    """Generate the event stream as a pandas DataFrame.

    Columns: ``event_id`` (arrival order), ``symbol``, ``ts`` (seconds),
    ``wid`` (tumbling window id), ``serial`` (== event_id; the §6.2
    contiguity attribute), ``price``, ``diff``.
    """
    g = np.random.default_rng(cfg.seed)
    rates = true_rates(cfg)
    frames = []
    for i, sym in enumerate(symbol_names(cfg)):
        rate = rates[sym]
        # Poisson process: draw a safe surplus of exponential gaps, clip.
        n_draw = max(16, int(rate * cfg.duration * 1.6) + 16)
        ts = np.cumsum(g.exponential(1.0 / rate, n_draw))
        ts = ts[ts < cfg.duration]
        if len(ts) == 0:
            ts = np.array([g.uniform(0, cfg.duration)])
        mu = g.normal(0.0, cfg.diff_mu_spread)
        sigma = float(np.exp(g.uniform(np.log(0.5), np.log(2.0))))
        diff = g.normal(mu, sigma, len(ts))
        price = 100.0 + 5.0 * i + np.cumsum(diff)
        frames.append(
            pd.DataFrame({"symbol": sym, "ts": ts, "price": price, "diff": diff})
        )
    pdf = pd.concat(frames, ignore_index=True)
    pdf = pdf.sort_values("ts", kind="mergesort").reset_index(drop=True)
    pdf.insert(0, "event_id", np.arange(len(pdf), dtype=np.int64))
    pdf["serial"] = pdf["event_id"]
    pdf["wid"] = (pdf["ts"] // cfg.window).astype(np.int64)
    return pdf[["event_id", "symbol", "ts", "wid", "serial", "price", "diff"]]
