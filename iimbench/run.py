"""IIM benchmark: closed-loop workloads against the ``repro`` package.

    python3 iimbench/run.py --workload ca_adaptive --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its
``src/``. One client sends one operation at a time under a fixed local
Spark master. A run starts one SparkSession, warms it up, sets the
workload up ``SETUPS`` times, then repeats whole passes of the workload until
``--seconds`` have passed and the workload's minimum number of calls
was made, checking every operation's output outside its timing.
With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics, from a run whose
passes alternate between traced and untraced. ``--record`` instead
stores the IIM imputations of one pass as the reference. See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shlex
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKLOADS = ["ca_adaptive", "ccpp_online", "da_table_v"]
SETUPS = 5
#: At most this many local cores, so runs on larger machines stay comparable.
MAX_CORES = 4
DRIVER_MEMORY = "2g"
#: Tuples sampled by the single-core kernel replay.
REPLAY_SAMPLE = 64

UNITS = {
    "wall_s": "s", "setup_s": "s", "tuples_per_s": "1/s", "batch_p50_s": "s",
    "batch_tail_s": "s", "rms_iim": "rms", "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["bench", "tiny"], default="bench",
                    help="tiny: the smoke test's sizes")
    ap.add_argument("--record", action="store_true",
                    help="store this commit's IIM imputations in reference.json")
    return ap.parse_args(argv)


def configure_environment(tmp: Path, cores: int) -> None:
    """Point every temporary file of Python, the JVM and Spark into the
    checkout, and make the Spark workers import the checkout's package."""
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    confs = {
        "spark.driver.host": "127.0.0.1",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.local.dir": str(tmp),
        "spark.sql.warehouse.dir": str(tmp / "warehouse"),
    }
    # Every JVM, the spark-submit launcher's too.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join(
        ["--master", f"local[{cores}]", "--driver-memory", DRIVER_MEMORY,
         *[a for k, v in confs.items() for a in ("--conf", f"{k}={v}")], "pyspark-shell"])
    sys.path.insert(0, str(ROOT / "src"))


def new_session():
    """A SparkSession with the repository's job configuration
    (jobs/_session.py)."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("iimbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_jvm(spark) -> None:
    """Stop Spark and wait until the JVM it launched has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        gateway.proc.stdin.close()
        gateway.proc.wait(timeout=60)
        SparkContext._gateway = SparkContext._jvm = None


def machine(spark, cores: int) -> dict:
    import numpy
    import pyspark

    mem_kb = next(int(line.split()[1]) for line in open("/proc/meminfo")
                  if line.startswith("MemTotal:"))
    return {
        "nproc": os.cpu_count(), "cores_used": cores, "mem_total_gb": round(mem_kb / 2**20, 1),
        "master": spark.sparkContext.master,
        "default_parallelism": spark.sparkContext.defaultParallelism,
        "python": sys.version.split()[0], "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
    }


def tail(values: list[float]) -> float:
    """p75, which has at least ten calls beyond it once a run makes its
    ``min_calls`` (42 or more). Inclusive interpolation: with the few calls
    of ``ca_adaptive`` the exclusive method reads close to the maximum, a
    single outlier."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def run(args, cores: int) -> tuple[dict, dict]:
    from tracing import Tracer
    from workloads import Workload

    reference = None
    if not args.record:
        reference = json.loads(REFERENCE.read_text())[args.scale][args.workload]
    tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
    wl = Workload(args.workload, args.scale, args.seed, tracer, reference)

    t0 = time.perf_counter()
    spark = new_session()
    session_start = time.perf_counter() - t0
    try:
        return measure(args, cores, spark, session_start, tracer, wl)
    finally:
        stop_jvm(spark)


def measure(args, cores, spark, session_start, tracer, wl) -> tuple[dict, dict]:
    from tracing import replay
    from workloads import DEFAULT_K, LAYERS

    t0 = time.perf_counter()
    if not args.record:
        wl.warm_up(spark)
    warm_up = time.perf_counter() - t0
    tracer.active = bool(args.trace)
    setups = []
    for i in range(1 if args.record else SETUPS):
        if i:
            wl.teardown()
        t0 = time.perf_counter()
        wl.setup(spark)
        setups.append(time.perf_counter() - t0)
    tracer.count_jobs(spark.sparkContext)
    shape = machine(spark, cores)

    # Timed passes. Traced runs alternate traced and untraced passes so
    # the tracing overhead is measured under the same conditions.
    passes: list[tuple[bool, list]] = []
    t_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 0
        tracer.active = traced
        passes.append((traced, wl.run_pass(spark, len(passes) + 1)))
        tracer.active = False
        tracer.count_jobs(spark.sparkContext)
        if args.record:
            break
        calls = sum(len(p) for _, p in passes)
        done = time.perf_counter() - t_start >= args.seconds and calls >= wl.min_calls
        if done and (not args.trace or len(passes) >= 2):
            break

    ops = [op for _, p in passes for op in p]
    pass_iim = [_concat([op.iim for op in p if op.iim is not None]) for _, p in passes]
    if args.record:
        if not all(op.ok for op in ops):
            raise SystemExit("iimbench: an operation failed; nothing recorded")
        iim = pass_iim[0]
        return shape, {"reference": {str(int(i)): float(v)
                                     for i, v in zip(iim["row_id"], iim["imputed"])}}

    def pass_seconds(traced: bool) -> list[float]:
        return [sum(op.seconds for op in p) for t, p in passes if t == traced]

    timed = [op.seconds for op in ops]
    rms = [wl.rms(i) for i in pass_iim if len(i) == len(wl.exp.truth)]
    e2e = {
        "wall_s": statistics.median(pass_seconds(False)),
        "setup_s": statistics.median(setups),
        "tuples_per_s": statistics.median([sum(op.cells for op in p) / sum(op.seconds for op in p)
                                           for t, p in passes if not t]),
        "batch_p50_s": statistics.median(timed),
        "batch_tail_s": tail(timed),
        "rms_iim": rms[-1] if rms else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"iimbench: session start {session_start:.2f} s, warm-up {warm_up:.2f} s, set-ups "
          f"{', '.join(f'{t:.2f}' for t in setups)} s, passes "
          f"{', '.join(f'{sum(op.seconds for op in p):.2f}' for _, p in passes)} s",
          file=sys.stderr)
    summary = {
        "attempted": len(ops), "failed": sum(not op.ok for op in ops),
        "passes": len(passes), "e2e": e2e,
        "rms_repeats": len(set(rms)) <= 1,
    }
    if args.trace:
        g = wl.exp.groups[0]
        from repro.core import collect_relation

        rel = collect_relation(wl.exp.complete, g.F, g.A_x)
        queries = g.incomplete.toPandas()[g.F].to_numpy(float)
        counts = replay(rel, queries, DEFAULT_K, REPLAY_SAMPLE)
        layers = tracer.layer_metrics(LAYERS)
        sweep_s = layers["core.adaptive.sweep_s"]
        per_layer = {
            **layers,
            **{k: v for k, v in counts.items() if k != "serial_sweep_s"},
            "core.adaptive.l_star_mean": wl.l_star_mean,
            "spark.session_start_s": session_start,
            "spark.warmup_s": warm_up,
            "spark.parallel_efficiency": counts["serial_sweep_s"] / (cores * sweep_s),
            "trace.overhead_s": statistics.median(pass_seconds(True)) - e2e["wall_s"],
        }
        summary["per_layer"] = per_layer
        tracer.write(ROOT / ".bench_out" / f"spans-{tracer.run_id}.json")
    return shape, summary


def _concat(frames):
    import pandas as pd

    return pd.concat(frames, ignore_index=True) if frames else pd.DataFrame(
        {"row_id": [], "imputed": []})


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"iimbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cores = min(MAX_CORES, os.cpu_count() or 1)
    out = ROOT / ".bench_out"
    tmp = out / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    configure_environment(tmp, cores)
    sys.path.insert(0, str(HERE))
    try:
        shape, summary = run(args, cores)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print("machine " + json.dumps(shape))
    if args.record:
        refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        refs.setdefault(args.scale, {})[args.workload] = summary["reference"]
        REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(summary['reference'])} IIM imputations")
        return 0

    attempted, failed = summary["attempted"], summary["failed"]
    for name, value in summary["e2e"].items():
        print(f"{name:>14} {value:.6g} {UNITS[name]}")
    print(f"{'error_rate':>14} {failed / attempted:.6g} ({failed}/{attempted} operations, "
          f"{summary['passes']} passes)")
    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in summary["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in summary["e2e"].items()}
    correct = failed == 0 and summary["rms_repeats"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_ms_per_tuple") or metric.endswith("_ms_per_query"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("demand_ratio", "parallel_efficiency")):
        return "ratio"
    if metric.endswith("l_star_mean"):
        return "tuples"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
