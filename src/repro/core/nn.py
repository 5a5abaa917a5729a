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
  against a collected copy of r (one argpartition and one row-wise
  lexsort per call), used by the scalable engines: on the driver in
  KNN_BLOCK-row blocks by :func:`knn_blocked` (IIM and ERACER), inside
  mapInPandas partitions by the kNN-based baselines.

Ties are broken deterministically by (distance, neighbor row_id) in
both engines so they agree bit-for-bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F_


ID = "row_id"
#: Rows per distance block of :func:`knn_blocked`.
KNN_BLOCK = 256


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

    Tie-break: (distance, r_id) ascending, matching :func:`knn_join`;
    ``r_ids`` must be unique. ``exclude_ids`` (aligned with Q via
    ``q_ids``) removes the query's own row from candidacy (validation
    mode).
    """
    R = np.atleast_2d(np.asarray(R, dtype=np.float64))
    n = R.shape[0]
    if r_ids is None:
        r_ids = np.arange(n)
    d = pairwise_dist(Q, R)
    rows = np.arange(d.shape[0])[:, None]
    if exclude_ids is not None:
        ex = np.asarray(exclude_ids)
        srt = np.argsort(r_ids, kind="stable")
        at = srt[np.minimum(np.searchsorted(r_ids, ex, sorter=srt), n - 1)]
        hit = r_ids[at] == ex
        d[rows[hit, 0], at[hit]] = np.inf
    k = min(k, n)
    if k * 4 < n:
        # Exact fast path: argpartition to the k-th distance, then
        # (dist, id)-lexsort the k candidates only — O(n) per row instead
        # of O(n log n). Rows whose k-th distance ties beyond slot k widen
        # to all the ties, since argpartition cuts a tie arbitrarily.
        part = np.argpartition(d, k - 1, axis=1)
        kth = d[rows, part[:, k - 1 : k]]
        cand = part[:, :k]
        order = cand[rows, np.lexsort((r_ids[cand], d[rows, cand]), axis=1)]
        for qi in np.flatnonzero((d <= kth).sum(axis=1) > k):
            row = d[qi]
            wide = np.flatnonzero(row <= kth[qi, 0])
            order[qi] = wide[np.lexsort((r_ids[wide], row[wide]))[:k]]
    else:
        order = np.lexsort((np.broadcast_to(r_ids, d.shape), d), axis=1)[:, :k]
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
    sorted by id for determinism.

    Raises ValueError on NaN/inf values or duplicate ids: the adaptive
    sweep ranks distance ties by position, which is the (distance, id)
    rule only because the ids come out unique and ascending.
    """
    cols = [id_col, *F] + ([A_x] if A_x not in F else [])
    pdf = df.select(*cols).toPandas().sort_values(id_col)
    rel = Relation(
        ids=pdf[id_col].to_numpy(np.int64),
        X=pdf[list(F)].to_numpy(np.float64),
        y=pdf[A_x].to_numpy(np.float64),
    )
    if not (np.isfinite(rel.X).all() and np.isfinite(rel.y).all()):
        raise ValueError(f"NaN or infinite values in {[*F, A_x]}: r must be complete and finite")
    if (np.diff(rel.ids) == 0).any():
        raise ValueError(f"duplicate {id_col} values in r")
    return rel


def knn_blocked(rel: Relation, X: np.ndarray, k: int, own_ids: np.ndarray | None = None) -> np.ndarray:
    """Positions of the k nearest tuples of r to each row of ``X``, nearest
    first, with :func:`knn_numpy` in KNN_BLOCK-row blocks, so at most
    KNN_BLOCK x n distances are held whatever the number of rows.
    ``own_ids`` (aligned with X) excludes each row's own tuple."""
    out = np.empty((len(X), min(k, rel.n)), dtype=np.int64)
    for s in range(0, len(X), KNN_BLOCK):
        ex = None if own_ids is None else own_ids[s:s + KNN_BLOCK]
        out[s:s + KNN_BLOCK], _ = knn_numpy(
            X[s:s + KNN_BLOCK], rel.X, k, r_ids=rel.ids, exclude_ids=ex, q_ids=ex
        )
    return out


def self_knn(rel: Relation, k: int) -> np.ndarray:
    """kNN of every tuple within r, excluding itself: IIM's validation
    assignments (Algorithm 3) and ERACER's neighbor aggregates."""
    return knn_blocked(rel, rel.X, min(k, rel.n - 1) if rel.n > 1 else 1, rel.ids)
