"""The benchmark's run logic: set-up, timed passes, checks and metrics.

Imported by ``run.py`` after it has put ``src`` on the path and set the
Spark launch options.
"""
from __future__ import annotations

import math
import statistics
import sys
import time
import traceback

from pyspark.sql import functions as F

from repro.cep.detectors import detect_order, detect_tree
from repro.cep.event_engine import run_metrics
from repro.cep.join_engine import execute_pattern
from repro.core.cost_model import Objective
from repro.core.order_algorithms import efreq
from repro.core.pattern import Op
from repro.core.planner import ALGORITHM_KIND, plan_pattern
from repro.core.plans import left_deep_tree
from repro.core.stats import PatternStats
from repro.experiments.tables import ORDER_ALGS, TREE_ALGS
from repro.oracle import assert_equivalent
from repro.streams.estimation import estimate
from repro.streams.stock import stock_events_pdf
from repro.workloads.generator import make_pattern
from tests.cep_sql import pattern_sql
from workloads import calls, capped

REL_TOL = 1e-9

class Bench:
    """State of one benchmark run over one workload."""

    def __init__(self, workload, seed: int, tracer, spark) -> None:
        self.w = workload
        self.tracer = tracer
        self.spark = spark
        self.order = calls(workload, seed)
        self.events = None
        self.ref_cache: dict = {}

    # -- set-up ------------------------------------------------------------
    def setup_round(self) -> None:
        tr, cfg = self.tracer, self.w.stream
        with tr.span("streams.stock.stock_events_pdf"):
            self.pdf = stock_events_pdf(cfg)
        with tr.span("streams.estimation.estimate"):
            self.stats = estimate(self.pdf, cfg.duration, seed=0)
        self.patterns = [
            make_pattern(cat, size, self.stats, cfg.window, seed=ps)
            for cat, size, ps, _ in self.w.patterns
        ]
        # Warm-up pattern: a small sequence on the same stream.
        self.warm = make_pattern("sequence", 3, self.stats, cfg.window, seed=0)
        n_windows = int(self.pdf["wid"].nunique())
        per_window = {s: c / n_windows for s, c in self.pdf["symbol"].value_counts().items()}
        self.measured = (per_window, len(self.pdf), n_windows)
        if self.spark is not None:
            if self.events is not None:
                self.events.unpersist()
            with tr.span("spark.ingest"):
                self.events = self.spark.createDataFrame(self.pdf).persist()
                self.events.count()
        with tr.span("warmup"):
            self.warmup()

    def warmup(self) -> None:
        """First calls pay JIT, codegen and Python-worker start-up."""
        p = self.warm
        if self.w.engine == "plan":
            for planner in self.w.patterns[0][3]:
                plan_pattern(self.patterns[0], self.rates(self.patterns[0]), planner)
            return
        if self.w.engine == "join":
            execute_pattern(self.spark, self.events, plan_pattern(p, self.rates(p), "DP-LD"), measured=self.measured)
        else:
            pp = plan_pattern(p, self.rates(p), "DP-LD", strategy="next")[0]
            run_metrics(self.spark, self.events, p, pp.order_plan, strategy="next")

    def rates(self, pattern) -> dict[str, float]:
        subs = pattern.subpatterns if pattern.op is Op.OR else (pattern,)
        return {t: self.stats.rates[t] for sp in subs for t in sp.types}

    # -- timed calls ---------------------------------------------------------
    def run_pass(self, traced: bool) -> list[dict]:
        self.tracer.enabled = traced
        with self.tracer.span("workload", workload=self.w.name) as sp:
            self.pass_span = sp.id
            return [self.call(*c, traced=traced) for c in self.order]

    def call(self, i: int, planner: str, strategy: str, *, traced: bool) -> dict:
        tr, pattern = self.tracer, self.patterns[i]
        category, size = self.w.patterns[i][:2]
        rec = {
            "pattern": i, "category": category, "size": size, "planner": planner,
            "kind": ALGORITHM_KIND[planner], "strategy": strategy,
        }
        plan_strategy = "any" if strategy == "any" else "next"
        try:
            with tr.span("pattern", category=category, size=size, planner=planner, strategy=strategy):
                if traced:
                    self.decompose_planning(pattern, planner, plan_strategy)
                with tr.span("core.planner.plan_pattern", planner=planner, size=size) as sp:
                    t0 = time.perf_counter()
                    planned = plan_pattern(pattern, self.rates(pattern), planner, strategy=plan_strategy)
                    rec["plan_s"] = time.perf_counter() - t0
                    sp.attrs["gen_seconds"] = sum(pp.gen_seconds for pp in planned)
                rec["planned"] = planned
                rec["gen_s"] = sp.attrs["gen_seconds"]
                if self.w.engine == "plan":
                    rec["call_s"] = rec["plan_s"]
                    rec["rows"] = self.predicted_rows(planned)
                elif self.w.engine == "join":
                    self.join_call(rec, planned)
                else:
                    self.event_call(rec, pattern, planned[0], strategy, traced)
        except Exception:  # noqa: BLE001 - a failing call is counted, not fatal
            rec["error"] = traceback.format_exc()
            print(rec["error"], file=sys.stderr)
        return rec

    def decompose_planning(self, pattern, planner: str, plan_strategy: str) -> None:
        """Traced run only: the stats and Objective set-up plan_simple does
        before the algorithm, timed on their own (the result is discarded)."""
        tr = self.tracer
        subs = pattern.subpatterns if pattern.op is Op.OR else (pattern,)
        for sp in subs:
            with tr.span("core.stats.PatternStats.from_pattern", planner=planner):
                stats = PatternStats.from_pattern(sp, self.rates(sp), temporal_mode="exact")
            with tr.span("core.cost_model.Objective", planner=planner):
                Objective(stats, alpha=0.0, strategy=plan_strategy)

    def join_call(self, rec: dict, planned) -> None:
        with self.tracer.span(
            "cep.join_engine.execute_pattern", category=rec["category"], kind=rec["kind"]
        ) as sp:
            t0 = time.perf_counter()
            runs, m = execute_pattern(self.spark, self.events, planned, measured=self.measured)
            rec["call_s"] = time.perf_counter() - t0
        rec["matches"] = [r.matches for r in runs]  # lazy; read by the DuckDB check
        rec |= {
            "n_matches": m.n_matches, "rows": m.memory_proxy, "events": m.n_events,
            "jobs": sp.attrs["jobs"], "stages": sp.attrs["stages"], "tasks": sp.attrs["tasks"],
        }

    def event_call(self, rec: dict, pattern, pp, strategy: str, traced: bool) -> None:
        plan = pp.order_plan or pp.tree_plan
        with self.tracer.span("cep.event_engine.run_metrics", strategy=strategy, kind=rec["kind"]) as sp:
            t0 = time.perf_counter()
            rows, m = run_metrics(self.spark, self.events, pattern, plan, strategy=strategy)
            rec["call_s"] = time.perf_counter() - t0
        rec |= {
            "n_matches": m.n_matches, "rows": m.memory_proxy, "events": m.n_events,
            "jobs": sp.attrs["jobs"], "stages": sp.attrs["stages"], "tasks": sp.attrs["tasks"],
        }
        if traced:
            self.detect_on_driver(rec, pattern, plan, strategy)

    def detect_on_driver(self, rec: dict, pattern, plan, strategy: str) -> None:
        """Traced run only: the same per-window detectors on the driver's
        pandas windows, one span per window — pure Python time."""
        fn, name = (detect_tree, "detect_tree") if rec["kind"] == "tree" else (detect_order, "detect_order")
        win_s, comparisons, peak, matches = [], 0, 0, 0
        for wid, window in self.pdf.groupby("wid"):
            with self.tracer.span(f"cep.detectors.{name}", wid=int(wid), spark=False) as sp:
                r = fn(window, pattern, plan, strategy)
            win_s.append(sp.seconds)
            comparisons += r.comparisons
            peak = max(peak, r.peak_partials)
            matches += r.n_matches
        rec |= {
            "detect_s": sum(win_s), "window_skew": max(win_s) / statistics.fmean(win_s),
            "comparisons": comparisons, "peak_partials": peak,
        }
        if matches != rec["n_matches"]:
            rec["check"] = f"driver-side detectors found {matches} matches, run_metrics {rec['n_matches']}"

    def predicted_rows(self, planned) -> float:
        """Planner-only: the cost model's partial matches, over all windows."""
        n_windows = self.w.stream.duration / self.w.stream.window
        return float(sum(pp.raw_cost for pp in planned)) * n_windows

    # -- correctness --------------------------------------------------------
    def quality(self, rec: dict, strategy: str) -> list[float]:
        """EFREQ's cost ÷ the plan's cost, per subplan (Fig 17's normalisation:
        tree plans against EFREQ's order realised as a left-deep tree)."""
        plan_strategy = "any" if strategy == "any" else "next"
        out = []
        for k, pp in enumerate(rec["planned"]):
            key = (rec["pattern"], plan_strategy, k)
            if key not in self.ref_cache:
                obj = Objective(pp.stats, alpha=0.0, strategy=plan_strategy)
                base = efreq(obj)
                self.ref_cache[key] = (base.cost, obj.tree_cost(left_deep_tree(base.plan.order)))
            order_ref, tree_ref = self.ref_cache[key]
            ref = order_ref if pp.order_plan is not None else tree_ref
            out.append(ref / max(pp.objective_cost, 1e-300))
        return out

    def check(self, passes: list[list[dict]]) -> list[str]:
        """Correctness checks after the timed region. Marks failing calls
        (``rec['check']``) and returns every failure message."""
        failures: list[str] = []

        def fail(recs, msg):
            failures.append(msg)
            for r in recs:
                r.setdefault("check", msg)

        ok = [r for p in passes for r in p if "error" not in r]
        for r in ok:
            r["quality"] = self.quality(r, r["strategy"])
            r["costs"] = [pp.objective_cost for pp in r["planned"]]
        # Plans, costs and rows repeat exactly from pass to pass.
        first = {(r["pattern"], r["planner"], r["strategy"]): r for r in passes[0] if "error" not in r}
        for r in ok:
            f = first.get((r["pattern"], r["planner"], r["strategy"]))
            if f is not None and any(f[k] != r[k] for k in ("rows", "quality", "costs")):
                fail([r], f"pattern {r['pattern']} {r['planner']}: rows/cost changed between passes")
        # Every planner finds the same matches (join engine; event engine under any).
        if self.w.engine != "plan":
            by_pattern: dict = {}
            for r in ok:
                if r["strategy"] == "any":
                    by_pattern.setdefault(r["pattern"], []).append(r)
            for i, recs in by_pattern.items():
                counts = {r["planner"]: r["n_matches"] for r in recs}
                if len(set(counts.values())) > 1:
                    fail(recs, f"pattern {i}: planners disagree on n_matches {counts}")
        # DP-LD is optimal among order plans, DP-B among ZStream's trees.
        for i, p in enumerate(self.patterns):
            size = self.w.patterns[i][1]
            for strategy in {"any" if s == "any" else "next" for s in self.w.strategies}:
                costs = {
                    r["planner"]: r["costs"] for r in ok
                    if r["pattern"] == i and ("any" if r["strategy"] == "any" else "next") == strategy
                }
                for planner in ORDER_ALGS + TREE_ALGS:
                    if planner not in costs and not capped(planner, size):
                        costs[planner] = [pp.objective_cost for pp in plan_pattern(p, self.rates(p), planner, strategy=strategy)]
                recs = [r for r in ok if r["pattern"] == i]
                for k in range(len(costs["EFREQ"])):
                    best = costs["DP-LD"][k]
                    worst_ok = min(costs[a][k] for a in ORDER_ALGS)
                    if best > worst_ok * (1 + REL_TOL):
                        fail(recs, f"pattern {i}: DP-LD cost {best} above an order planner's {worst_ok}")
                    if "DP-B" in costs:
                        zs = min(costs[a][k] for a in ("ZSTREAM", "ZSTREAM-ORD"))
                        if costs["DP-B"][k] > zs * (1 + REL_TOL):
                            fail(recs, f"pattern {i}: DP-B cost {costs['DP-B'][k]} above ZStream's {zs}")
        if self.w.engine != "plan":
            self.check_engines(ok, fail)
        for r in ok:
            if "check" in r and r["check"] not in failures:
                failures.append(r["check"])
        return failures

    def check_engines(self, ok: list[dict], fail) -> None:
        """DuckDB spot check of one pattern per category, and the event
        engine's ``any`` count against the join engine's."""

        seen = set()
        with self.tracer.span("checks"):
            for i, p in enumerate(self.patterns):
                category = self.w.patterns[i][0]
                recs = [r for r in ok if r["pattern"] == i]
                if self.w.engine == "event":
                    runs, m = execute_pattern(
                        self.spark, self.events, plan_pattern(p, self.rates(p), "DP-LD"), measured=self.measured
                    )
                    matches = [r.matches for r in runs]
                    for r in recs:
                        if r["strategy"] == "any" and r["n_matches"] != m.n_matches:
                            fail([r], f"pattern {i}: event engine {r['n_matches']} matches, join engine {m.n_matches}")
                elif recs:
                    matches = recs[0]["matches"]
                else:
                    continue
                if category in seen:
                    continue
                seen.add(category)
                subs = p.subpatterns if p.op is Op.OR else (p,)
                for sp, df in zip(subs, matches):
                    if sp.kleene:
                        (k,) = sp.kleene
                        df = df.select(
                            *[c for c in df.columns if c != "kl_ids"],
                            F.explode("kl_ids").alias(f"p{k}_id"),
                        )
                    try:
                        assert_equivalent(df, pattern_sql(sp), ev=self.pdf)
                    except AssertionError as e:
                        fail(recs, f"pattern {i} ({category}): join engine differs from DuckDB: {e}")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def geomean(xs) -> float:
    return math.exp(statistics.fmean(math.log(x) for x in xs))


def percentile_line(name: str, xs: list[float]) -> str:
    """p50, plus p75 only where ≥ 10 samples lie beyond it (≥ 40 calls)."""
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    line = f"{name}.p50={q[1]:.6g} s"
    if len(xs) >= 40:
        line += f"  {name}.p75={q[2]:.6g} s"
    return line + f"  (n={len(xs)})"


def end_to_end(w, recs, first_pass, setup_times, peak_kb) -> tuple[dict, list[str]]:
    done = [r for r in recs if "error" not in r]
    call_s = [r["call_s"] for r in done]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "calls_per_s": (len(call_s) / sum(call_s), "1/s"),
        "memory_rows": (float(sum(r["rows"] for r in first_pass if "error" not in r)), "rows"),
        "plan_quality": (geomean(q for r in first_pass if "error" not in r for q in r["quality"]), "x"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    failed = sum(1 for r in recs if "error" in r or "check" in r)
    lines = [f"setup_s={metrics['setup_s'][0]:.6g} s  (median of {len(setup_times)} rounds: "
             + ", ".join(f"{t:.4g}" for t in setup_times) + "; round 1 includes process and Spark start)"]
    if w.engine == "plan":
        lines += [f"plans_per_s={metrics['calls_per_s'][0]:.6g} plans/s", percentile_line("plan_s", call_s),
                  f"memory_rows={metrics['memory_rows'][0]:.6g} rows  (predicted by the cost model; nothing executes)"]
    else:
        events = sum(r["events"] for r in done)
        lines += [f"events_per_s={events / sum(call_s):.6g} events/s  ({events} events in {len(call_s)} calls)",
                  percentile_line("detect_s", call_s),
                  f"memory_rows={metrics['memory_rows'][0]:.0f} rows  (Σ memory_proxy, one pass)"]
    lines += [
        f"plan_quality={metrics['plan_quality'][0]:.6g} x",
        f"peak_rss_mb={metrics['peak_rss_mb'][0]:.6g} MB",
        f"failed_share={failed / max(len(recs), 1):.4g}  ({failed} of {len(recs)} calls)",
    ]
    return metrics, lines


def slope(xs, ys) -> float:
    """Least-squares slope of log y on log x (0 if undefined)."""
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(p[0] for p in pts)
    my = statistics.fmean(p[1] for p in pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / sxx if sxx else 0.0


def job_share(recs) -> float:
    """Share of join time explained by a fixed cost per Spark job, from a
    least-squares fit ``wall ≈ a·jobs + b·rows`` over the join calls."""
    pts = [(r["jobs"], r["rows"], r["call_s"]) for r in recs]
    if len(pts) < 2:
        return 0.0
    sjj = sum(j * j for j, _, _ in pts)
    srr = sum(n * n for _, n, _ in pts)
    sjr = sum(j * n for j, n, _ in pts)
    sjw = sum(j * w for j, _, w in pts)
    srw = sum(n * w for _, n, w in pts)
    det = sjj * srr - sjr * sjr
    a = (sjw * srr - srw * sjr) / det if det else sjw / sjj
    a = max(a, 0.0)
    return a * sum(j for j, _, _ in pts) / sum(w for _, _, w in pts)


# Layers of the timed calls, for self-time shares of the traced pass.
LAYER_GROUPS = {
    "driver": ("workload", "pattern"),
    "core": ("core.planner.plan_pattern", "core.stats.PatternStats.from_pattern", "core.cost_model.Objective"),
    "cep.join_engine": ("cep.join_engine.execute_pattern",),
    "cep.event_engine": ("cep.event_engine.run_metrics",),
    "cep.detectors": ("cep.detectors.detect_order", "cep.detectors.detect_tree"),
}


def per_layer(tracer, w, traced: list[dict], untraced: list[dict], pass_span: str) -> tuple[dict, list[str]]:
    ok = [r for r in traced if "error" not in r]
    joins = [r for r in ok if w.engine == "join"]
    events = [r for r in ok if w.engine == "event"]
    n_rounds = max(1, sum(1 for s in tracer.spans if s.name == "streams.stock.stock_events_pdf"))
    rows = sum(r["rows"] for r in joins)
    exec_s = sum(r["call_s"] for r in joins)
    run_s = sum(r["call_s"] for r in events)
    detect_s = sum(r["detect_s"] for r in events)
    jobs = sum(r.get("jobs", 0) for r in ok)

    def rate(recs):
        return len(recs) / sum(r["call_s"] for r in recs)

    self_s = tracer.self_seconds(root=pass_span)
    total_self = sum(self_s.values())
    metrics = {
        "streams.stock.gen_s": (tracer.total("streams.stock.stock_events_pdf") / n_rounds, "s"),
        "streams.estimation.estimate_s": (tracer.total("streams.estimation.estimate") / n_rounds, "s"),
        "core.stats.from_pattern_s": (tracer.total("core.stats.PatternStats.from_pattern"), "s"),
        "core.cost_model.objective_s": (tracer.total("core.cost_model.Objective"), "s"),
        "core.planner.algo_s": (sum(r["gen_s"] for r in ok), "s"),
        "core.planner.plan_s": (sum(r["plan_s"] for r in ok), "s"),
        "spark.jobs": (jobs, "count"),
        "spark.stages": (sum(r.get("stages", 0) for r in ok), "count"),
        "spark.tasks": (sum(r.get("tasks", 0) for r in ok), "count"),
        "cep.join_engine.rows": (rows, "rows"),
        "cep.join_engine.match_yield": (sum(r["n_matches"] for r in joins) / rows if rows else 0.0, "ratio"),
        "cep.join_engine.wall_rows_slope": (slope([r["rows"] for r in joins], [r["call_s"] for r in joins]), "ratio"),
        "cep.join_engine.job_share": (job_share(joins), "ratio"),
        "cep.event_engine.python_share": (detect_s / run_s if run_s else 0.0, "ratio"),
        "cep.event_engine.window_skew": (max((r["window_skew"] for r in events), default=0.0), "ratio"),
        "cep.detectors.comparisons": (sum(r["comparisons"] for r in events), "count"),
        "cep.detectors.peak_partials": (max((r["peak_partials"] for r in events), default=0), "count"),
        "trace.throughput_ratio": (rate(ok) / rate([r for r in untraced if "error" not in r]), "ratio"),
    }
    # Human-readable detail: every split the README names.
    lines = [f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items()]
    for group, names in LAYER_GROUPS.items():
        share = sum(self_s.get(n, 0.0) for n in names) / total_self
        lines.append(f"self_share.{group}={share:.4g}  (of the traced pass's self time)")
    setup_names = {"spark.ingest": "spark.ingest_s", "warmup": "spark.warmup_s" if w.engine != "plan" else "core.warmup_s"}
    for name, label in setup_names.items():
        if tracer.total(name):
            lines.append(f"{label}={tracer.total(name) / n_rounds:.6g} s  (mean of {n_rounds} set-up rounds)")

    def split(prefix, recs, key, value="call_s"):
        groups: dict = {}
        for r in recs:
            groups[r[key]] = groups.get(r[key], 0.0) + r[value]
        return [f"{prefix}.{g}={t:.6g} s" for g, t in sorted(groups.items())]

    lines += split("core.planner.plan_s", ok, "planner", "plan_s")
    lines += [s.replace("plan_s.", "plan_s.n", 1) for s in split("core.planner.plan_s", ok, "size", "plan_s")]
    if joins:
        lines.append(f"cep.join_engine.execute_s={exec_s:.6g} s")
        lines += split("cep.join_engine.execute_s", joins, "category") + split("cep.join_engine.execute_s", joins, "kind")
        lines += [
            f"cep.join_engine.s_per_job={exec_s / jobs:.6g} s  (spark.jobs × s_per_job = execute_s by definition;"
            f" job_share is the part a fixed per-job cost explains)",
            f"cep.join_engine.rows_per_s={rows / exec_s:.6g} rows/s",
        ]
    if events:
        lines.append(f"cep.event_engine.run_s={run_s:.6g} s")
        lines += split("cep.event_engine.run_s", events, "strategy")
        lines.append(f"cep.detectors.detect_s={detect_s:.6g} s  (driver-side, per window)")
    for title, table in (("traced pass", self_s), ("whole traced run, set-up and checks included", tracer.self_seconds())):
        total = sum(table.values())
        lines.append(f"self time per span name, {title} (s):")
        for name, s in sorted(table.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name:<42} {s:10.4f}  {s / total:6.1%}")
    dominant = max(self_s.items(), key=lambda kv: kv[1])[0]
    lines.append(f"dominant layer by self time in the traced pass: {dominant}")
    return metrics, lines
