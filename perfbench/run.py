"""Layer-by-layer CEP benchmark: one workload per run, closed loop, one driver.

Usage (from the repository root)::

    python3 perfbench/run.py --workload join_grid --seed 1 --seconds 8 --trace 0

One Python driver process drives the system's public functions in a
closed loop: each planning or detection call starts only after the
previous one has finished. Spark runs as ``local[2]`` in this process;
the ``planner_large`` workload starts no Spark at all.

A run has three phases:

1. set-up, repeated ``SETUP_ROUNDS`` times (stream generation, statistics,
   event ingest and one warm-up call); ``setup_s`` is the median round.
   The first round also boots the SparkSession and makes one untimed
   priming pass over the call list, so it is the slowest round and is
   printed on its own;
2. whole passes over the workload's call list until ``--seconds`` have
   been measured;
3. correctness checks, outside every timed region.

With ``--trace 0`` the last stdout line is the end-to-end metrics; with
``--trace 1`` one untraced pass is followed by one traced pass, the
spans are written to ``perfbench/out/`` and the last line is the
per-layer metrics. Every line before it is human-readable detail.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
CORES = 2
DRIVER_MEMORY = "1g"
SHUFFLE_PARTITIONS = 8
SETUP_ROUNDS = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Spark launch
# ---------------------------------------------------------------------------


def prepare_environment() -> None:
    """Paths and Spark launch options; must run before pyspark is imported.

    ``repro`` is not installed, so ``src`` goes on ``PYTHONPATH`` for the
    Spark Python workers (``applyInPandas``) as well as on ``sys.path``.
    Scratch files stay inside ``perfbench/out``.
    """
    src = str(ROOT / "src")
    sys.path[:0] = [src, str(ROOT), str(ROOT / "perfbench")]
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src, str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{CORES}]",
            f"--driver-memory {DRIVER_MEMORY}",
            f'--driver-java-options "-Xms{DRIVER_MEMORY} -Djava.io.tmpdir={tmp} -XX:-UsePerfData"',
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.local.dir={tmp}",
            f"--conf spark.sql.warehouse.dir={OUT / 'warehouse'}",
            "pyspark-shell",
        ]
    )


def start_spark():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait for the JVM (and its Python workers) to exit."""
    gateway = spark.sparkContext._gateway
    spark.stop()
    gateway.shutdown()
    proc = gateway.proc
    proc.stdin.close()  # the gateway JVM exits on EOF on its stdin
    try:
        proc.wait(timeout=30)
    except Exception:  # noqa: BLE001 - a JVM that ignores EOF is killed
        proc.kill()
        proc.wait(timeout=30)


def env_header(spark) -> dict:
    import pyspark

    head = {
        "cores": CORES,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "driver_memory": DRIVER_MEMORY,
    }
    if spark is not None:
        conf = spark.conf
        head |= {
            "master": spark.sparkContext.master,
            "spark": pyspark.__version__,
            "default_parallelism": spark.sparkContext.defaultParallelism,
            "shuffle_partitions": conf.get("spark.sql.shuffle.partitions"),
            "broadcast_threshold": conf.get("spark.sql.autoBroadcastJoinThreshold"),
        }
    return head


def vm_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "tests" / "cep_sql.py").is_file():
        print(f"perfbench: no repro sources under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    prepare_environment()
    from bench import Bench, end_to_end, per_layer
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    run_id = f"{w.name}-s{args.seed}-{os.getpid()}"
    tracer = Tracer(run_id, enabled=bool(args.trace))
    spark = start_spark() if w.engine != "plan" else None
    try:
        if spark is not None:
            tracer.sc = spark.sparkContext
        print("# env " + json.dumps(env_header(spark)), flush=True)
        bench = Bench(w, args.seed, tracer, spark)

        setup_times = []
        for k in range(SETUP_ROUNDS):
            t0 = T_START if k == 0 else time.perf_counter()
            tracer.enabled = bool(args.trace)
            bench.setup_round()
            if k == 0 and w.engine == "join":
                # Priming pass: compiles every query shape of the call list,
                # so that the timed passes measure warm calls.
                bench.run_pass(traced=False)
            setup_times.append(time.perf_counter() - t0)

        passes = []
        t0 = time.perf_counter()
        while not passes or (not args.trace and time.perf_counter() - t0 < args.seconds):
            passes.append(bench.run_pass(traced=False))
        untraced = [r for p in passes for r in p]
        if args.trace:
            passes.append(bench.run_pass(traced=True))
        failures = bench.check(passes)

        peak_kb = vm_hwm_kb(os.getpid())
        if spark is not None:
            peak_kb += vm_hwm_kb(spark.sparkContext._gateway.proc.pid)
    finally:
        if spark is not None:
            stop_spark(spark)

    recs = [r for p in passes for r in p]
    failed = sum(1 for r in recs if "error" in r or "check" in r)
    print(f"# workload={w.name} seed={args.seed} passes={len(passes)} calls/pass={len(bench.order)}")
    print("# setup rounds (s): " + ", ".join(f"{t:.4g}" for t in setup_times))
    print("# timed call wall per pass (s): " + ", ".join(f"{sum(r.get('call_s', 0.0) for r in p):.4g}" for p in passes))
    for msg in failures:
        print(f"# CHECK FAILED: {msg}")
    if args.trace:
        metrics, lines = per_layer(tracer, w, passes[-1], untraced, bench.pass_span)
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"spans-{w.name}-seed{args.seed}.jsonl"
        tracer.write(path)
        lines.append(f"spans: {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    else:
        metrics, lines = end_to_end(w, recs, passes[0], setup_times, peak_kb)
    for line in lines:
        print(line)
    print(
        json.dumps(
            {
                "correct": not failures and failed == 0,
                "attempted": len(recs),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
