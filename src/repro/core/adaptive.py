"""Adaptive learning (Algorithm 3) with stepping and incremental U/V.

For every complete tuple t_i, candidate individual models are learned
over a grid of neighbor counts l in {1, 1+h, ...} (stepping, Section
V-A2). Every complete tuple t_j doubles as a validation tuple: its
value y_j is withheld and each of its k nearest neighbors t_i scores
cost[i][l] += (y_j - (1, t_j[F]) phi_i^(l))^2 (Line 7 of Algorithm 3).
Each tuple then keeps the candidate model with the lowest accumulated
validation cost. Fixed-l learning (Algorithm 1) is the same pipeline
with the one-point grid {l} and nothing to validate.

This is the only learner of the broadcast engine. The relation r is
collected and broadcast once. The driver computes, KNN_BLOCK rows at a
time, every tuple's k nearest neighbors within r (the validation
assignments, adaptive l only) and, for one-shot imputation, the
incomplete tuples' k nearest complete tuples (Algorithm 2), both with
the (distance, id) rule of knn_numpy. It inverts the validation
assignments into reverse-kNN lists over all n tuples (n*k ids — tiny);
one Spark pass fans the per-tuple candidate sweep out over executors,
with the incremental prefix computation of Proposition 3 inside each
task. Each tuple ranks itself first, so its l=1 model is its own value
(Section III-A2) even when it has a duplicate with a lower id.
:func:`adaptive_learn` sweeps every tuple (learn once, impute many);
one-shot imputation sweeps only the incomplete tuples' neighbors, the
only models Algorithm 2 reads. A swept tuple's validation set comes
from the full self-kNN either way, so its l* and phi do not depend on
which other tuples are swept.

``adaptive_reference`` is a literal, driver-side O(n^2 * |grid|)
transcription of Algorithm 3 used by the tests to pin down the
distributed implementation exactly.
"""
from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import ArrayType, DoubleType, LongType, StructField, StructType

from . import linalg
from .nn import ID, Relation, collect_relation, knn_numpy, pairwise_dist

ADAPTIVE_SCHEMA = StructType(
    [
        StructField(ID, LongType(), False),
        StructField("phi", ArrayType(DoubleType(), False), False),
        StructField("l_star", LongType(), False),
    ]
)

#: Default cap on the learning-neighbor grid: None = search l all the
#: way to n, as in Algorithm 3. (A finite cap trades the ability to
#: recover the global-regression regime, Prop. 2, for speed; the grid
#: stepping below already bounds the sweep cost.)
DEFAULT_L_MAX: int | None = None
#: Grid is thinned so it never exceeds this many candidate l values
#: unless the caller pins h explicitly (paper uses h=50 at n>=10k).
MAX_GRID_POINTS = 64
#: Rows per distance block of the driver-side kNN, so the driver holds
#: at most KNN_BLOCK x n distances whatever the number of rows.
KNN_BLOCK = 256


def auto_step(n: int, l_max: int | None) -> int:
    cap = n if l_max is None else min(n, l_max)
    return max(1, math.ceil(cap / MAX_GRID_POINTS))


def _validation_k(n: int, k: int) -> int:
    """Neighbors per validation assignment: k, less the tuple itself."""
    return min(k, n - 1) if n > 1 else 1


def _sorted_neighbor_order(rel: Relation, pos: int) -> np.ndarray:
    """Positions of all tuples ordered by (distance to tuple #pos, id),
    with the tuple itself forced first (it is its own 1-NN)."""
    d = pairwise_dist(rel.X[pos], rel.X)[0]
    d[pos] = -np.inf
    return np.lexsort((rel.ids, d))


def _candidate_models(
    rel: Relation, pos: int, grid: np.ndarray, alpha: float, *, incremental: bool = True
) -> np.ndarray:
    order = _sorted_neighbor_order(rel, pos)
    fn = linalg.prefix_params if incremental else linalg.prefix_params_scratch
    return fn(rel.X[order], rel.y[order], grid, alpha)


def _pick(
    rel: Relation,
    pos: int,
    grid: np.ndarray,
    alpha: float,
    val_pos: np.ndarray,
    *,
    incremental: bool = True,
) -> tuple[np.ndarray, int]:
    """Candidate sweep + validation scoring for one tuple. Returns
    (phi, l_star)."""
    phis = _candidate_models(rel, pos, grid, alpha, incremental=incremental)
    Xv = linalg.design(rel.X[val_pos])  # (V, m)
    err = Xv @ phis.T - rel.y[val_pos][:, None]  # (V, |grid|)
    cost = (err**2).sum(axis=0)
    g = int(np.argmin(cost))  # ties -> smallest l (np.argmin is first-hit)
    return phis[g], int(grid[g])


def _reverse_validation(rel: Relation, nn_idx: np.ndarray) -> list[np.ndarray]:
    """Invert per-tuple kNN assignments into reverse-kNN validation lists.

    ``nn_idx[j]`` holds positions of NN(t_j, F, k) excluding t_j itself.
    Tuple i's validation set is {j : i in NN(j, k)}; tuples nobody picked
    fall back to their own kNN (so every tuple is validated on *some*
    nearby data rather than defaulting to l=1).
    """
    rev: list[list[int]] = [[] for _ in range(rel.n)]
    for j in range(rel.n):
        for i in nn_idx[j]:
            rev[int(i)].append(j)
    out = []
    for i in range(rel.n):
        v = rev[i] if rev[i] else list(nn_idx[i])
        out.append(np.asarray(sorted(v), dtype=np.int64))
    return out


def _knn(rel: Relation, X: np.ndarray, k: int, own_ids: np.ndarray | None = None) -> np.ndarray:
    """Positions of the k nearest tuples of r to each row of ``X``, nearest
    first, computed on the driver in KNN_BLOCK-row blocks. ``own_ids``
    (aligned with X) excludes each row's own tuple."""
    out = np.empty((len(X), min(k, rel.n)), dtype=np.int64)
    for s in range(0, len(X), KNN_BLOCK):
        ex = None if own_ids is None else own_ids[s:s + KNN_BLOCK]
        out[s:s + KNN_BLOCK], _ = knn_numpy(
            X[s:s + KNN_BLOCK], rel.X, k, r_ids=rel.ids, exclude_ids=ex, q_ids=ex
        )
    return out


def _self_knn(rel: Relation, k: int) -> np.ndarray:
    """kNN of every tuple within r, excluding itself: the validation
    assignments of Algorithm 3."""
    return _knn(rel, rel.X, _validation_k(rel.n, k), rel.ids)


def _sweep(
    spark: SparkSession,
    b,
    positions: np.ndarray,
    grid: np.ndarray,
    val_sets: list[np.ndarray],
    alpha: float,
    incremental: bool,
) -> DataFrame:
    """Candidate sweep and validation scoring (Algorithm 3, lines 3-9) of
    the tuples at ``positions``, fanned out over executors. Returns
    ``(row_id, phi, l_star)``."""
    vs = {int(p): val_sets[p] for p in positions}  # shipped with the task closure

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        rv: Relation = b.value
        for pdf in batches:
            rows = []
            for pos in pdf["pos"].to_numpy(np.int64):
                phi, l_star = _pick(rv, pos, grid, alpha, vs[int(pos)], incremental=incremental)
                rows.append((int(rv.ids[pos]), phi.tolist(), l_star))
            yield pd.DataFrame(rows, columns=[ID, "phi", "l_star"])

    src = spark.createDataFrame(pd.DataFrame({"pos": np.asarray(positions, np.int64)}), "pos long")
    return src.mapInPandas(run, ADAPTIVE_SCHEMA)


def adaptive_models(
    spark: SparkSession,
    r: DataFrame,
    F: Sequence[str],
    A_x: str,
    queries: np.ndarray | None = None,
    *,
    k: int = 10,
    h: int | None = None,
    l_max: int | None = DEFAULT_L_MAX,
    alpha: float = linalg.DEFAULT_ALPHA,
    incremental: bool = True,
    l: int | None = None,
) -> tuple[Relation, DataFrame, np.ndarray | None]:
    """Algorithm 3 (or, with ``l`` set, Algorithm 1) for the models that
    imputing ``queries`` (the F values of the incomplete tuples) reads —
    every complete tuple when ``queries`` is None.

    Collects and broadcasts r once and returns the collected Relation,
    the (lazy) ``(row_id, phi, l_star)`` models of the swept tuples and
    the positions of each query's k nearest tuples of r.
    """
    rel = collect_relation(r, F, A_x)
    b = spark.sparkContext.broadcast(rel)
    if l is None:
        grid = linalg.make_grid(rel.n, h or auto_step(rel.n, l_max), l_max)
        val_sets = _reverse_validation(rel, _self_knn(rel, k))
    else:  # one candidate: nothing to validate, so no self-kNN
        grid = np.array([min(l, rel.n)], dtype=np.int64)
        val_sets = [np.empty(0, dtype=np.int64)] * rel.n
    query_nn = None if queries is None else _knn(rel, queries, k)
    positions = np.arange(rel.n) if query_nn is None else np.unique(query_nn)
    return rel, _sweep(spark, b, positions, grid, val_sets, alpha, incremental), query_nn


def adaptive_learn(
    spark: SparkSession,
    r: DataFrame,
    F: Sequence[str],
    A_x: str,
    *,
    k: int = 10,
    h: int | None = None,
    l_max: int | None = DEFAULT_L_MAX,
    alpha: float = linalg.DEFAULT_ALPHA,
    incremental: bool = True,
) -> DataFrame:
    """Distributed Algorithm 3 over every complete tuple. Returns
    ``(row_id, phi, l_star)``.

    This is the learn-once mode: the models can be cached and handed to
    :func:`repro.core.iim.impute` for any number of query batches.
    ``incremental=False`` swaps in the from-scratch candidate sweep (the
    straightforward baseline of Table III / Fig. 12); results are
    identical, only slower — asserted by tests.
    """
    _, models, _ = adaptive_models(
        spark, r, F, A_x, k=k, h=h, l_max=l_max, alpha=alpha, incremental=incremental
    )
    return models


def adaptive_reference(
    rel: Relation,
    *,
    k: int = 10,
    h: int = 1,
    l_max: int | None = None,
    alpha: float = linalg.DEFAULT_ALPHA,
) -> pd.DataFrame:
    """Literal driver-side Algorithm 3 (test oracle for adaptive_learn).

    Learns all candidate models from scratch for every l in the grid,
    accumulates cost[i][l] over all validation tuples, falls back to a
    tuple's own kNN when its reverse-kNN set is empty, and returns a
    pandas frame (row_id, phi, l_star).
    """
    n = rel.n
    grid = linalg.make_grid(n, h, l_max)
    # Phi[g][i] = model of tuple i learned over grid[g] neighbors.
    phis = np.empty((len(grid), n, rel.X.shape[1] + 1))
    for i in range(n):
        phis[:, i, :] = _candidate_models(rel, i, grid, alpha, incremental=False)

    nn_idx = _self_knn(rel, k)
    cost = np.zeros((n, len(grid)))
    hit = np.zeros(n, dtype=bool)
    for j in range(n):  # each tuple as validation tuple
        xj = linalg.design(rel.X[j][None, :])[0]
        for i in nn_idx[j]:
            pred = phis[:, int(i), :] @ xj
            cost[int(i)] += (rel.y[j] - pred) ** 2
            hit[int(i)] = True
    for i in np.where(~hit)[0]:  # fallback: validate on own kNN
        xv = linalg.design(rel.X[nn_idx[i]])
        cost[i] = ((xv @ phis[:, i, :].T - rel.y[nn_idx[i]][:, None]) ** 2).sum(axis=0)

    best = cost.argmin(axis=1)
    return pd.DataFrame(
        {
            ID: rel.ids,
            "phi": [phis[best[i], i, :].tolist() for i in range(n)],
            "l_star": grid[best].astype(np.int64),
        }
    )
