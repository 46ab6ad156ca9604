"""FlashP benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload sampled-arima --seed 1 --seconds 12 --trace 0

Runs from the root of a checkout. One local SparkSession; one closed-loop
client sends forecasting tasks through ``FlashP.run`` until the ops have
taken ``--seconds`` of wall time. Every op's training series is checked
against a DuckDB oracle after the timed window. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics from a separate
traced run. The last line of standard output is the result object;
an earlier line starting ``env`` records the environment, and
``perfbench/out/`` keeps the full record and the trace spans.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from oracle import Oracle, forecast_sane, relative_error, series_matches  # noqa: E402
from repro.synth_data import ADS_MEASURES, ads_pandas  # noqa: E402
from tracing import Tracer, layer_totals  # noqa: E402
from workloads import (  # noqa: E402
    DATA_SEED, DAYS, HORIZON, PROBE_KEY, T_END, T_START, WORKLOADS, Task,
    layers, run_task, setup, task_stream, teardown, warm_up,
)

SF = 0.05
CORES = min(4, os.cpu_count() or 1)
DRIVER_MEM = "3g"
SHUFFLE_PARTITIONS = 64
# The JVMs would otherwise write their perf-data files under /tmp.
NO_PERF_DATA = "-XX:-UsePerfData"
N_PROBE = 4
END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "ok_ratio": "ratio",
    "fc_rel_err": "ratio",
    "pi_coverage": "ratio",
    "space_ratio": "ratio",
    "py_peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "load.cache_ms": "ms",
    "load.partitions": "count",
    "task.parse_ms": "ms",
    "pipeline.self_ms": "ms",
    "estimators.series_ms": "ms",
    "estimators.spark_jobs": "count",
    "estimators.spark_tasks": "count",
    "estimators.rows_source": "count",
    "estimators.rows_matched": "count",
    "estimators.agg_rel_err": "ratio",
    "arima.fit_ms": "ms",
    "arima.candidates": "count",
    "arima.forecast_ms": "ms",
    "arma.css_evals": "count",
    "arma.css_us": "us",
    "lstm.fit_ms": "ms",
    "lstm.forecast_ms": "ms",
    "gsw.solve_delta_ms": "ms",
    "gsw.solve_spark_jobs": "count",
    "gsw.draw_cache_ms": "ms",
    "gsw.sample_rows": "count",
    "uniform.build_ms": "ms",
    "priority.build_ms": "ms",
    "pim.build_ms": "ms",
    "grouping.kcenter_ms": "ms",
    "trace.op_p50_ms": "ms",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--sf", type=float, default=SF, help="scale factor (self-tests shrink it)")
    args = p.parse_args(argv)
    if args.seconds <= 0 or args.sf <= 0 or args.seed < 0:
        p.error("--seconds and --sf must be positive and --seed non-negative")
    return args


@dataclass
class Op:
    task: Task
    latency_s: float
    out: object = None
    error: str | None = None
    span_id: int | None = None
    ok: bool = False


# ------------------------------------------------------------- Spark
def start_spark():
    """One local SparkSession whose scratch files stay under ``OUT``."""
    tmp, local = OUT / "tmp", OUT / "spark-local"
    tmp.mkdir(parents=True, exist_ok=True)
    local.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["SPARK_LAUNCHER_OPTS"] = NO_PERF_DATA
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{CORES}]",
            f"--driver-memory {DRIVER_MEM}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "--conf " + shlex.quote(f"spark.local.dir={local}"),
            "--conf " + shlex.quote(f"spark.sql.warehouse.dir={OUT / 'warehouse'}"),
            "--conf " + shlex.quote(
                f"spark.driver.extraJavaOptions=-Djava.io.tmpdir={tmp} {NO_PERF_DATA}"
            ),
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("flashp-perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it started to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        gateway.proc.stdin.close()  # the JVM exits on EOF of its stdin
        gateway.proc.wait(timeout=120)
        SparkContext._gateway = SparkContext._jvm = None


def environment(args, spark, gen_s: float, rows: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    versions = {}
    for pkg in ("pyspark", "numpy", "pandas", "duckdb", "pyarrow"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    versions["python"] = platform.python_version()
    versions["java"] = spark.sparkContext._jvm.System.getProperty("java.version")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sf": args.sf,
        "rows": rows,
        "nproc": os.cpu_count(),
        "spark_master": spark.sparkContext.master,
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "git_sha": sha,
        "versions": versions,
        "data_gen_s": gen_s,
    }


# --------------------------------------------------------------- ops
def execute(fp, task, tracer) -> Op:
    with tracer.span("op") if tracer else nullcontext() as span:
        t0 = time.perf_counter()
        try:
            out, error = run_task(fp, task), None
        except Exception:  # a failed op is counted, the loop goes on
            out, error = None, traceback.format_exc()
            print(error, file=sys.stderr)
        latency = time.perf_counter() - t0
    return Op(task, latency, out, error, span["id"] if span else None)


def check(ops: list[Op], oracle) -> None:
    """Oracle verdict per op: the series matches and the forecast is sane."""
    for op in ops:
        if op.out is None:
            continue
        t = op.task
        want = oracle.series(t.source, t.where, t.measure)[T_START : T_END + 1]
        op.ok = series_matches(op.out.series, want) and forecast_sane(
            op.out.point, op.out.lower, op.out.upper, HORIZON
        )
        if not op.ok:
            print(f"oracle mismatch: {t.sql} on {t.source}", file=sys.stderr)


def accuracy(probe: list[Op], oracle) -> dict[str, float]:
    """Forecast error, interval coverage and aggregation error on the probe."""
    fc, agg, hit, n = [], [], 0, 0
    for op in probe:
        if not op.ok:
            continue
        truth = oracle.series("full", op.task.where, op.task.measure)
        future = truth[T_END + 1 : T_END + 1 + HORIZON]
        fc.append(relative_error(op.out.point, future))
        agg.append(relative_error(op.out.series, truth[T_START : T_END + 1]))
        hit += int(np.sum((op.out.lower <= future) & (future <= op.out.upper)))
        n += HORIZON
    return {
        "fc_rel_err": statistics.fmean(fc) if fc else float("nan"),
        "pi_coverage": hit / n if n else float("nan"),
        "agg_rel_err": statistics.fmean(agg) if agg else float("nan"),
    }


# ------------------------------------------------------------ layers
def instrument(tracer) -> None:
    """Wrap the public calls between the program's layers."""
    import repro.core.estimators as estimators
    import repro.core.pipeline as pipeline
    import repro.forecast.arima as arima
    import repro.forecast.arma as arma
    from repro.forecast.lstm import LSTMForecaster

    tracer.wrap(pipeline.FlashP, "run", "pipeline.run")
    tracer.wrap(pipeline, "parse_task", "task.parse")
    tracer.wrap(estimators, "exact_series", "estimators.series", spark=True)
    tracer.wrap(estimators, "estimated_series", "estimators.series", spark=True)
    tracer.wrap(pipeline, "auto_arima", "arima.fit")
    tracer.wrap(arima, "fit_arima", "arima.candidate")
    tracer.wrap(arima.ARIMAResult, "forecast", "arima.forecast")
    tracer.count_calls(arma, "css_residuals", "css")
    tracer.wrap(LSTMForecaster, "fit", "lstm.fit")
    tracer.wrap(LSTMForecaster, "forecast", "lstm.forecast")
    tracer.wrap(pipeline.FlashP, "add_gsw_sample", "gsw.build", spark=True)
    tracer.wrap(pipeline, "delta_for_rate", "gsw.solve_delta", spark=True)
    tracer.wrap(pipeline.FlashP, "add_uniform_sample", "uniform.build", spark=True)
    tracer.wrap(pipeline.FlashP, "add_priority_sample", "priority.build", spark=True)
    tracer.wrap(pipeline.FlashP, "build_pim", "pim.build", spark=True)


def offline_baselines(fp, tracer, seed: int) -> None:
    """Build each non-GSW layer once (traced runs of the sampled path only)."""
    from repro.core.grouping import k_center_groups, measure_matrix

    fp.add_uniform_sample("uniform@0.02", rate=0.02, seed=seed)
    fp.sample("uniform@0.02").unpersist()
    fp.add_priority_sample("priority@0.02", rate=0.02, measure="impression", seed=seed)
    fp.sample("priority@0.02").unpersist()
    fp.build_pim()
    with tracer.span("grouping.kcenter", spark=True):
        k_center_groups(measure_matrix(fp.df, list(ADS_MEASURES), rate=0.05, seed=seed), 2)


def layer_metrics(tracer, setup_ids, partitions, stream: list[Op], probe_acc, oracle, extra_id) -> dict:
    def med(values):
        return statistics.median(values) if values else 0.0

    setup = [layer_totals(tracer, i) for i in setup_ids]
    ops = [layer_totals(tracer, op.span_id) for op in stream]
    builds = [r for r in tracer.spans if r["name"] == "gsw.build" and r["parent"] == setup_ids[0]]
    solves = [layer_totals(tracer, r["id"]).get("gsw.solve_delta", {}) for r in builds]
    extra = layer_totals(tracer, extra_id) if extra_id is not None else {}

    def per_op(name, key, scale=1.0):
        return med([o.get(name, {}).get(key, 0) * scale for o in ops])

    css_n = sum(o.get("arima.candidate", {}).get("css", 0) for o in ops)
    css_s = sum(o.get("arima.candidate", {}).get("css_s", 0.0) for o in ops)
    gsw_rows = sum(oracle.rows[n] for n in oracle.rows if n != "full")
    return {
        "load.cache_ms": med([s["load.cache"]["total_s"] * 1e3 for s in setup]),
        "load.partitions": float(partitions),
        "task.parse_ms": per_op("task.parse", "total_s", 1e3),
        "pipeline.self_ms": per_op("pipeline.run", "self_s", 1e3),
        "estimators.series_ms": per_op("estimators.series", "total_s", 1e3),
        "estimators.spark_jobs": per_op("estimators.series", "spark_jobs"),
        "estimators.spark_tasks": per_op("estimators.series", "spark_tasks"),
        "estimators.rows_source": med([float(oracle.rows[op.task.source]) for op in stream]),
        "estimators.rows_matched": med(
            [float(oracle.matched_rows(op.task.source, op.task.where)) for op in stream]
        ),
        "estimators.agg_rel_err": probe_acc["agg_rel_err"],
        "arima.fit_ms": per_op("arima.fit", "total_s", 1e3),
        "arima.candidates": per_op("arima.candidate", "calls"),
        "arima.forecast_ms": per_op("arima.forecast", "total_s", 1e3),
        "arma.css_evals": per_op("arima.candidate", "css"),
        "arma.css_us": css_s / css_n * 1e6 if css_n else 0.0,
        "lstm.fit_ms": per_op("lstm.fit", "total_s", 1e3),
        "lstm.forecast_ms": per_op("lstm.forecast", "total_s", 1e3),
        "gsw.solve_delta_ms": med([s.get("total_s", 0) * 1e3 for s in solves]),
        "gsw.solve_spark_jobs": med([s.get("spark_jobs", 0) for s in solves]),
        "gsw.draw_cache_ms": med(
            [layer_totals(tracer, r["id"])["gsw.build"]["self_s"] * 1e3 for r in builds]
        ),
        "gsw.sample_rows": float(gsw_rows),
        "uniform.build_ms": extra.get("uniform.build", {}).get("total_s", 0) * 1e3,
        "priority.build_ms": extra.get("priority.build", {}).get("total_s", 0) * 1e3,
        "pim.build_ms": extra.get("pim.build", {}).get("total_s", 0) * 1e3,
        "grouping.kcenter_ms": extra.get("grouping.kcenter", {}).get("total_s", 0) * 1e3,
        "trace.op_p50_ms": med([op.latency_s * 1e3 for op in stream]),
    }


# --------------------------------------------------------------- run
def run(args) -> dict:
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    t_start = time.perf_counter()
    phases = {}

    def mark(name):
        phases[name] = time.perf_counter() - t_start

    pdf = ads_pandas(sf=args.sf, days=DAYS, seed=DATA_SEED)
    gen_s = time.perf_counter() - t_start
    mark("data")

    spark = start_spark()
    mark("spark")
    oracle = Oracle(pdf, days=DAYS)
    tracer = Tracer(spark.sparkContext) if args.trace else None
    try:
        env = environment(args, spark, gen_s, len(pdf))
        print("env " + json.dumps(env), flush=True)

        warm_up(spark, pdf.iloc[::100])
        mark("warm_up")

        if tracer:
            instrument(tracer)
        span = (lambda name: tracer.span(name, spark=True)) if tracer else (lambda name: nullcontext())
        setup_s, setup_ids = [], []
        for r in range(wl.setup_repeats):
            with tracer.span("setup") if tracer else nullcontext() as rec:
                t0 = time.perf_counter()
                fp = setup(spark, pdf, wl, span)
                setup_s.append(time.perf_counter() - t0)
            if rec:
                setup_ids.append(rec["id"])
            if r + 1 < wl.setup_repeats:
                teardown(fp, wl)
        partitions = fp.df.rdd.getNumPartitions()
        mark("setup")

        # Untimed: collect each sample layer once for the oracle.
        for name in layers(wl):
            sdf = fp.sample(name)
            keep = [c for c in sdf.columns if c not in ("_p", "_w")]
            oracle.add_source(name, sdf.select(*keep).toPandas())

        # The probe: fixed tasks outside the stream that warm up the
        # serving path and give the accuracy metrics, the same every run.
        seen: set[str] = set()
        probe_tasks = task_stream(wl, PROBE_KEY, seen)
        mark("collect")
        probe = [execute(fp, next(probe_tasks), tracer) for _ in range(N_PROBE)]
        mark("probe")

        stream, busy = [], 0.0
        tasks = task_stream(wl, (1, args.seed), seen)
        while busy < args.seconds:
            stream.append(execute(fp, next(tasks), tracer))
            busy += stream[-1].latency_s

        mark("stream")
        check(probe + stream, oracle)
        acc = accuracy(probe, oracle)
        mark("oracle")
        extra_id = None
        if tracer and wl.sampled:
            with tracer.span("offline-baselines") as rec:
                offline_baselines(fp, tracer, args.seed)
            extra_id = rec["id"]
        if tracer:
            tracer.restore()
            tracer.resolve_spark_counts()
    finally:
        oracle_rows = dict(oracle.rows)
        stop_spark(spark)
        for scratch in ("spark-local", "tmp"):
            shutil.rmtree(OUT / scratch, ignore_errors=True)
        mark("stop")

    ops = probe + stream
    failed = sum(not op.ok for op in ops)
    ok_stream = [op for op in stream if op.ok]
    if tracer:
        metrics = layer_metrics(tracer, setup_ids, partitions, stream, acc, oracle, extra_id)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "latency_p50_ms": statistics.median(op.latency_s for op in stream) * 1e3,
            "ops_per_s": len(ok_stream) / busy,
            "setup_s": statistics.median(setup_s),
            "ok_ratio": (len(ops) - failed) / len(ops),
            "fc_rel_err": acc["fc_rel_err"],
            "pi_coverage": acc["pi_coverage"],
            "space_ratio": (
                sum(v for k, v in oracle_rows.items() if k != "full") / oracle_rows["full"]
                if wl.sampled else 1.0
            ),
            "py_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    oracle.close()

    record = {
        "env": env,
        "setup_s": setup_s,
        "phases": phases,
        "partitions": partitions,
        "ops": [
            {
                "kind": "probe" if i < len(probe) else "stream",
                "sql": op.task.sql,
                "source": op.task.source,
                "latency_s": op.latency_s,
                "ok": op.ok,
                "error": op.error,
                "order": list(op.out.model_order) if op.out and op.out.model_order else None,
                "timings": op.out.timings if op.out else None,
            }
            for i, op in enumerate(ops)
        ],
        "metrics": metrics,
    }
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer:
        spans = [{k: r[k] for k in ("id", "parent", "name", "start", "end", "counters")} for r in tracer.spans]
        (OUT / f"trace-{stem}.json").write_text(json.dumps(spans))
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    result = run(parse_args(argv))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
