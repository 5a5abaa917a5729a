"""Outside-in tracing for the IIM benchmark.

Spans are recorded only around the calls the benchmark itself makes into
the ``repro`` layers; nothing inside the package is instrumented. Each
span also sets a Spark job group, so the jobs and tasks a call launched
are attributed to it afterwards through the status tracker. Exact
operation counts and single-core kernel timings come from replaying the
package's public functions on the workload's relation (:func:`replay`).
"""
from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: str
    start: float
    end: float = 0.0
    jobs: int = 0
    tasks: int = 0


class Tracer:
    """In-memory span recorder; every method is a no-op while inactive."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.active = False
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._uncounted: list[Span] = []

    def _group(self, s: Span) -> str:
        return f"{self.run_id}/{s.id}"

    @contextmanager
    def span(self, sc, name: str):
        if not self.active:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, parent.id if parent else None,
                 self.run_id, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        self._uncounted.append(s)
        sc.setJobGroup(self._group(s), name)
        try:
            yield
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                sc.setJobGroup(self._group(parent), parent.name)
            else:
                sc.setLocalProperty("spark.jobGroup.id", None)

    def count_jobs(self, sc) -> None:
        """Attribute finished Spark jobs and tasks to the spans recorded so
        far. Call before the SparkContext stops: its status store goes
        with it."""
        if not self._uncounted:
            return
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        st = sc.statusTracker()
        for s in self._uncounted:
            for job in st.getJobIdsForGroup(self._group(s)):
                s.jobs += 1
                info = st.getJobInfo(job)
                for stage in info.stageIds if info else ():
                    si = st.getStageInfo(stage)
                    s.tasks += si.numCompletedTasks if si else 0
        self._uncounted.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def layer_metrics(self, layers: list[str]) -> dict[str, float]:
        """Median per-call self time, Spark jobs and Spark tasks per layer.
        A layer the workload never calls reads 0."""
        calls: dict[str, list[tuple[float, int, int]]] = {}
        for s, own in zip(self.spans, self.self_times()):
            calls.setdefault(s.name, []).append((own, s.jobs, s.tasks))
        out: dict[str, float] = {}
        for layer in layers:
            rows = calls.get(layer, [(0.0, 0, 0)])
            out[f"{layer}_s"] = statistics.median(r[0] for r in rows)
            out[f"spark.jobs.{layer}"] = statistics.median(r[1] for r in rows)
            out[f"spark.tasks.{layer}"] = statistics.median(r[2] for r in rows)
        return out

    def write(self, path: Path) -> None:
        rows = [dict(asdict(s), self_s=own) for s, own in zip(self.spans, self.self_times())]
        path.write_text(json.dumps(rows))


def replay(rel, queries: np.ndarray, k: int, sample: int) -> dict[str, float]:
    """Replay IIM's kernels single-core on ``rel`` (a collected
    ``repro.core.Relation``), with the queries one imputation pass sends.

    Counts follow from array sizes and the public functions, so they
    repeat exactly; the ``*_ms_*`` timings are per-call means over
    ``sample`` evenly spaced tuples and are the serial baseline for
    ``spark.parallel_efficiency``.
    """
    from repro.core import knn_numpy, make_grid, pairwise_dist, prefix_params, prefix_params_scratch
    from repro.core.adaptive import DEFAULT_L_MAX, auto_step

    n, X, y, ids = rel.n, rel.X, rel.y, rel.ids
    grid = make_grid(n, auto_step(n, DEFAULT_L_MAX), DEFAULT_L_MAX)
    kk = min(k, n - 1)
    self_nn = np.concatenate([
        knn_numpy(X[s:s + 1024], X, kk, r_ids=ids,
                  exclude_ids=ids[s:s + 1024], q_ids=ids[s:s + 1024])[0]
        for s in range(0, n, 1024)
    ])
    imp_nn, _ = knn_numpy(queries, X, min(k, n), r_ids=ids)

    order_s = sweep_s = scratch_s = knn_s = 0.0
    picks = np.linspace(0, n - 1, min(sample, n)).astype(np.int64)
    for i in picks:
        t0 = time.perf_counter()
        d = pairwise_dist(X[i], X)[0]
        d[i] = -np.inf
        order = np.lexsort((ids, d))
        t1 = time.perf_counter()
        prefix_params(X[order], y[order], grid)
        t2 = time.perf_counter()
        prefix_params_scratch(X[order], y[order], grid)
        t3 = time.perf_counter()
        knn_numpy(X[i:i + 1], X, kk, r_ids=ids, exclude_ids=ids[i:i + 1], q_ids=ids[i:i + 1])
        t4 = time.perf_counter()
        order_s += t1 - t0
        sweep_s += t2 - t1
        scratch_s += t3 - t2
        knn_s += t4 - t3
    ms = 1000.0 / len(picks)
    return {
        "core.linalg.models_solved": n * len(grid),
        "core.linalg.rows_absorbed": n * int(grid[-1]),
        "core.nn.distances_selfknn": n * n,
        "core.nn.distances_impute": len(queries) * n,
        "core.iim.demand_ratio": np.unique(imp_nn).size / n,
        "core.adaptive.fallback_tuples": n - np.unique(self_nn).size,
        "core.nn.order_ms_per_tuple": order_s * ms,
        "core.linalg.sweep_ms_per_tuple": sweep_s * ms,
        "core.linalg.scratch_ms_per_tuple": scratch_s * ms,
        "core.nn.knn_ms_per_query": knn_s * ms,
        # serial (single-core) time of one whole candidate sweep over r
        "serial_sweep_s": n * (order_s + sweep_s) / len(picks),
    }
