"""CEP evaluation mechanisms (the paper's detection substrate).

- :mod:`repro.cep.join_engine` — evaluation plans executed as Spark
  DataFrame window-join dataflows by one executor: a tree-based plan runs
  as its join tree, an order-based plan as its left-deep tree.
- :mod:`repro.cep.detectors` — a pure-Python event-at-a-time detector
  with selection strategies: instance trees (§2.3), and the lazy NFA
  (§2.2) as an order's left-deep instance tree.
- :mod:`repro.cep.event_engine` — the detectors parallelized across time
  windows with ``applyInPandas``.
- :mod:`repro.cep.streaming` — Structured Streaming execution of any
  plan: the join engine's builder run on a streaming input, as a tree of
  stream-stream joins.
"""
