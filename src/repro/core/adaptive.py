"""Adaptive learning (Algorithm 3) with stepping and incremental U/V.

For every complete tuple t_i, candidate individual models are learned
over a grid of neighbor counts l in {1, 1+h, ...} (stepping, Section
V-A2). Every complete tuple t_j doubles as a validation tuple: its
value y_j is withheld and each of its k nearest neighbors t_i scores
cost[i][l] += (y_j - (1, t_j[F]) phi_i^(l))^2 (Line 7 of Algorithm 3).
Each tuple then keeps the candidate model with the lowest accumulated
validation cost. Fixed-l learning (Algorithm 1) is the same pipeline
with the one-point grid {l} and nothing to validate.

This is the only learner of the broadcast engine. It takes r collected
(by the method registry for one-shot imputation, by :func:`learn_all`
for learn-once callers) and broadcasts it once. The driver computes
every tuple's k nearest neighbors within r (the validation assignments, adaptive l
only) and, for one-shot imputation, the incomplete tuples' k nearest
complete tuples (Algorithm 2), both with :func:`repro.core.nn.knn_blocked`.
It inverts the validation assignments into reverse-kNN sets over all n
tuples (n*k ids — tiny); one RDD map over blocks of positions fans the
candidate sweep out over executors and collects its (phi, l_star) arrays
in block order. There the block kernel :func:`_sweep_block` handles
SWEEP_BLOCK tuples per call: one distance GEMM, one (distance, id)
ranking by :func:`repro.core.nn.argsort_rows`, the incremental prefix
computation of Proposition 3 as segment Gram matrices, a cumulative sum
and one batched solve, then the scoring of every validation tuple of
the block. Each tuple ranks itself first, so its l=1 model is its own
value (Section III-A2) even when it has a duplicate with a lower id.
:func:`adaptive_learn` sweeps every tuple (learn once, impute many);
one-shot imputation sweeps only the incomplete tuples' neighbors, the
only models Algorithm 2 reads. A
swept tuple's validation set comes from the full self-kNN either way,
and its output does not depend on which other tuples share its block,
so its l* and phi do not depend on which other tuples are swept.

``adaptive_reference`` is a literal, driver-side O(n^2 * |grid|)
transcription of Algorithm 3 used by the tests to pin down the
distributed implementation exactly.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import ArrayType, DoubleType, LongType, StructField, StructType

from . import linalg
from .nn import ID, Relation, argsort_rows, collect_relation, knn_blocked, pairwise_dist, self_knn

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
#: Tuples per call of the candidate-sweep kernel (:func:`_sweep_block`).
SWEEP_BLOCK = 16


def auto_step(n: int, l_max: int | None) -> int:
    cap = n if l_max is None else min(n, l_max)
    return max(1, math.ceil(cap / MAX_GRID_POINTS))


def _sorted_neighbor_order(rel: Relation, pos: int) -> np.ndarray:
    """Positions of all tuples ordered by (distance to tuple #pos, id),
    with the tuple itself forced first (it is its own 1-NN). Per-tuple
    ordering of :func:`adaptive_reference`."""
    d = pairwise_dist(rel.X[pos], rel.X)[0]
    d[pos] = -np.inf
    return np.lexsort((rel.ids, d))


def _reverse_validation(nn_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert per-tuple kNN assignments into reverse-kNN validation sets.

    ``nn_idx[j]`` holds positions of NN(t_j, F, k) excluding t_j itself.
    Tuple i's validation set is {j : i in NN(j, k)}; tuples nobody picked
    fall back to their own kNN (so every tuple is validated on *some*
    nearby data rather than defaulting to l=1). Returns the sets in CSR
    form: tuple i's set is ``idx[ptr[i]:ptr[i + 1]]``, ascending.
    """
    n, k = nn_idx.shape
    owner, val = nn_idx.ravel(), np.repeat(np.arange(n), k)
    lone = np.flatnonzero(np.bincount(owner, minlength=n) == 0)
    owner = np.concatenate([owner, np.repeat(lone, k)])
    val = np.concatenate([val, nn_idx[lone].ravel()])
    ptr = np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=n))])
    return ptr, val[np.lexsort((val, owner))]


def _sweep_block(
    rel: Relation,
    pos: np.ndarray,
    grid: np.ndarray,
    val: tuple[np.ndarray, np.ndarray],
    alpha: float,
    incremental: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate sweep and validation scoring (Algorithm 3, lines 3-9) of
    the at most SWEEP_BLOCK tuples at ``pos``. Returns (phi, l_star).

    One GEMM gives the block's distances (padded to SWEEP_BLOCK rows: a
    GEMM's rounding depends on its row count, and a tuple's models must
    not depend on its block); each tuple is set to rank itself first,
    and :func:`repro.core.nn.argsort_rows` orders the rest by (distance,
    position), which is (distance, id) as r's ids are ascending: an
    unstable vectorized sort, with only the rows that tie within the
    grid's reach re-sorted by one integer key. The candidate models of
    every tuple come from one :func:`linalg.candidate_params` call, and
    every validation tuple of the block is scored at once.
    """
    B = len(pos)
    Q = np.zeros((SWEEP_BLOCK, rel.X.shape[1]))
    Q[:B] = rel.X[pos]
    d = pairwise_dist(Q, rel.X)[:B]
    d[np.arange(B), pos] = -np.inf
    order = argsort_rows(d, upto=int(grid[-1]))
    if incremental:
        phis = linalg.candidate_params(linalg.augment(rel.X, rel.y), order, grid, alpha)
    else:  # the straightforward baseline of Table III
        phis = np.stack([
            linalg.prefix_params_scratch(rel.X[o], rel.y[o], grid, alpha) for o in order
        ])
    ptr, idx = val
    counts = ptr[pos + 1] - ptr[pos]
    owner = np.repeat(np.arange(B), counts)  # the block's validation tuples, in pos order
    v = idx[np.arange(counts.sum()) + np.repeat(ptr[pos] - np.cumsum(counts) + counts, counts)]
    pred = (linalg.design(rel.X[v])[:, None, :] * phis[owner]).sum(axis=-1)  # (V, |grid|)
    cost = np.zeros((B, len(grid)))
    np.add.at(cost, owner, (pred - rel.y[v][:, None]) ** 2)
    g = cost.argmin(axis=1)  # ties -> smallest l (np.argmin is first-hit)
    return phis[np.arange(B), g], grid[g]


def _sweep(
    spark: SparkSession,
    rel: Relation,
    positions: np.ndarray,
    grid: np.ndarray,
    val: tuple[np.ndarray, np.ndarray],
    alpha: float,
    incremental: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """The block kernel :func:`_sweep_block` over the tuples at
    ``positions``, SWEEP_BLOCK tuples per call: r is broadcast once and one
    RDD map over the position blocks runs the kernel on executors. Returns
    (phi, l_star) in ``positions`` order."""
    if not len(positions):  # no query, so no model to learn
        return np.empty((0, rel.X.shape[1] + 1)), np.empty(0, dtype=np.int64)
    blocks = [positions[s:s + SWEEP_BLOCK] for s in range(0, len(positions), SWEEP_BLOCK)]
    b = spark.sparkContext.broadcast(rel)
    try:
        parts = spark.sparkContext.parallelize(blocks).map(
            lambda pos: _sweep_block(b.value, pos, grid, val, alpha, incremental)
        ).collect()
    finally:
        b.destroy()
    phi, l_star = zip(*parts)
    return np.concatenate(phi), np.concatenate(l_star)


def adaptive_models(
    spark: SparkSession,
    rel: Relation,
    queries: np.ndarray | None = None,
    *,
    k: int = 10,
    h: int | None = None,
    l_max: int | None = DEFAULT_L_MAX,
    alpha: float = linalg.DEFAULT_ALPHA,
    incremental: bool = True,
    l: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Algorithm 3 (or, with ``l`` set, Algorithm 1) on the collected r for
    the models that imputing ``queries`` (the F values of the incomplete
    tuples) reads — every complete tuple when ``queries`` is None.

    Returns the swept positions of r (ascending), their ``phi`` and
    ``l_star`` in that order, and the positions of each query's k nearest
    tuples of r.
    """
    if l is None:
        grid = linalg.make_grid(rel.n, h or auto_step(rel.n, l_max), l_max)
        val = _reverse_validation(self_knn(rel, k))
    else:  # one candidate: nothing to validate, so no self-kNN
        grid = np.array([min(l, rel.n)], dtype=np.int64)
        val = np.zeros(rel.n + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
    query_nn = None if queries is None else knn_blocked(rel, queries, k)[0]
    positions = np.arange(rel.n) if query_nn is None else np.unique(query_nn)
    return (positions, *_sweep(spark, rel, positions, grid, val, alpha, incremental), query_nn)


def learn_all(spark: SparkSession, r: DataFrame, F: Sequence[str], A_x: str, **kw) -> DataFrame:
    """Collect r and learn every tuple's model with :func:`adaptive_models`
    (``kw``: its options). Returns ``(row_id, phi, l_star)`` as a Spark
    DataFrame, for the learn-once callers."""
    rel = collect_relation(r, F, A_x)
    _, phi, l_star, _ = adaptive_models(spark, rel, **kw)
    return spark.createDataFrame(
        pd.DataFrame({ID: rel.ids, "phi": phi.tolist(), "l_star": l_star}), ADAPTIVE_SCHEMA
    )


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
    return learn_all(spark, r, F, A_x, k=k, h=h, l_max=l_max, alpha=alpha, incremental=incremental)


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
        order = _sorted_neighbor_order(rel, i)
        phis[:, i, :] = linalg.prefix_params_scratch(rel.X[order], rel.y[order], grid, alpha)

    nn_idx = self_knn(rel, k)
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
