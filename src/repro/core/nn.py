"""Nearest-neighbor search over the complete relation r.

Two interchangeable engines, both using the paper's Formula 1 distance
(root mean squared difference over the complete attributes F; the
1/|F| factor does not change the ranking but is kept so distances match
the paper's examples):

* :func:`knn_join` — a pure Catalyst plan (crossJoin + window) returning
  the (query, neighbor, rank, distance) pairs. This is the
  "nearest-neighbor lookup via joins" path; quadratic, used at test
  scale and oracle-checked.
* :func:`knn_numpy` on a collected :class:`Relation` — vectorized numpy kNN
  against a broadcast copy of r, used inside mapInPandas partitions by
  the scalable engines.

Ties are broken deterministically by (distance, neighbor row_id) in
both engines so they agree bit-for-bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F_


ID = "row_id"


def distance_expr(F: Sequence[str], left: str = "q_", right: str = "n_"):
    """Column expression for Formula 1 over per-side prefixed columns.

    Columns are renamed (``q_A1`` vs ``n_A1``) rather than aliased
    because a crossJoin of a relation with itself cannot disambiguate
    ``q.A1``/``r.A1`` — both resolve to the same plan node.
    """
    sq = sum(
        (F_.col(f"{left}{a}") - F_.col(f"{right}{a}")) ** 2 for a in F
    )
    return F_.sqrt(sq / F_.lit(float(len(F))))


def knn_join(
    queries: DataFrame,
    r: DataFrame,
    F: Sequence[str],
    k: int,
    *,
    exclude_self: bool = False,
    id_col: str = ID,
) -> DataFrame:
    """k nearest neighbors of every query tuple from r, as a DataFrame.

    Returns columns ``q_id, n_id, rank, dist`` (rank 1 = closest).
    ``exclude_self`` drops pairs with equal ids — used when the queries
    are themselves members of r (validation in adaptive learning).
    """
    q = queries.select(
        F_.col(id_col).alias("q_id"), *[F_.col(a).alias(f"q_{a}") for a in F]
    )
    n = r.select(
        F_.col(id_col).alias("n_id"), *[F_.col(a).alias(f"n_{a}") for a in F]
    )
    pairs = q.crossJoin(n)
    if exclude_self:
        pairs = pairs.where(F_.col("q_id") != F_.col("n_id"))
    pairs = pairs.select(
        "q_id", "n_id", distance_expr(F).alias("dist")
    )
    w = Window.partitionBy("q_id").orderBy(F_.col("dist").asc(), F_.col("n_id").asc())
    return (
        pairs.withColumn("rank", F_.row_number().over(w))
        .where(F_.col("rank") <= k)
        .select("q_id", "n_id", "rank", "dist")
    )


def pairwise_dist(Q: np.ndarray, R: np.ndarray) -> np.ndarray:
    """(|Q| x |R|) Formula-1 distances, vectorized."""
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    R = np.atleast_2d(np.asarray(R, dtype=np.float64))
    # ||q-r||^2 = ||q||^2 + ||r||^2 - 2 q.r ; clamp fp negatives.
    sq = (
        (Q**2).sum(1)[:, None] + (R**2).sum(1)[None, :] - 2.0 * (Q @ R.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq / Q.shape[1])


def knn_numpy(
    Q: np.ndarray,
    R: np.ndarray,
    k: int,
    *,
    r_ids: np.ndarray | None = None,
    exclude_ids: np.ndarray | None = None,
    q_ids: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Indices (into R) and distances of the k nearest rows of R per query.

    Tie-break: (distance, r_id) ascending, matching :func:`knn_join`.
    ``exclude_ids`` (aligned with Q via ``q_ids``) removes the query's own
    row from candidacy (validation mode).
    """
    R = np.atleast_2d(np.asarray(R, dtype=np.float64))
    n = R.shape[0]
    if r_ids is None:
        r_ids = np.arange(n)
    d = pairwise_dist(Q, R)
    if exclude_ids is not None:
        for qi, ex in enumerate(np.asarray(exclude_ids)):
            d[qi, r_ids == ex] = np.inf
    k = min(k, n)
    if k * 4 < n:
        # Exact fast path: argpartition to the k-th distance, widen to all
        # exact ties at the boundary, then (dist, id)-lexsort the
        # candidates only — O(n) per row instead of O(n log n).
        order = np.empty((d.shape[0], k), dtype=np.int64)
        for qi in range(d.shape[0]):
            row = d[qi]
            kv = np.partition(row, k - 1)[k - 1]
            cand = np.flatnonzero(row <= kv)
            top = cand[np.lexsort((r_ids[cand], row[cand]))[:k]]
            order[qi] = top
    else:
        order = np.lexsort((np.broadcast_to(r_ids, d.shape), d), axis=1)[:, :k]
    rows = np.arange(d.shape[0])[:, None]
    return order, d[rows, order]


@dataclass(frozen=True)
class Relation:
    """A materialized copy of a relation for numpy-side NN work."""

    ids: np.ndarray  # (n,) int64 row ids
    X: np.ndarray  # (n, |F|) complete-attribute matrix
    y: np.ndarray  # (n,) incomplete-attribute values

    @property
    def n(self) -> int:
        return len(self.ids)


def collect_relation(df: DataFrame, F: Sequence[str], A_x: str, id_col: str = ID) -> Relation:
    """Collect (id, F, A_x) columns of a Spark relation into numpy arrays,
    sorted by id for determinism."""
    cols = [id_col, *F] + ([A_x] if A_x not in F else [])
    pdf = df.select(*cols).toPandas().sort_values(id_col)
    return Relation(
        ids=pdf[id_col].to_numpy(np.int64),
        X=pdf[list(F)].to_numpy(np.float64),
        y=pdf[A_x].to_numpy(np.float64),
    )


def knn_pairs_numpy(rel: Relation, k: int, *, exclude_self: bool) -> pd.DataFrame:
    """All-pairs kNN of r against itself (driver-side helper for tests
    and the adaptive reference implementation)."""
    idx, dist = knn_numpy(
        rel.X,
        rel.X,
        k,
        r_ids=rel.ids,
        exclude_ids=rel.ids if exclude_self else None,
        q_ids=rel.ids,
    )
    qn = np.repeat(rel.ids, idx.shape[1])
    return pd.DataFrame(
        {
            "q_id": qn,
            "n_id": rel.ids[idx.ravel()],
            "rank": np.tile(np.arange(1, idx.shape[1] + 1), len(rel.ids)),
            "dist": dist.ravel(),
        }
    )
