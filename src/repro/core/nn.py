"""Nearest-neighbor search over the complete relation r, on the driver.

:func:`collect_relation` and :func:`collect_queries` turn r and the
incomplete tuples (Spark or pandas frames) into id-ordered arrays; the
method registry (:class:`repro.baselines.Method`) is their one caller on
the imputation path, so every method computes on arrays.

Every distance is the paper's Formula 1 (root mean squared difference
over the complete attributes F; the 1/|F| factor does not change the
ranking but is kept so distances match the paper's examples).
:func:`knn_blocked` on a collected :class:`Relation` is the one kNN entry
point, used by IIM, kNN, kNNE, ERACER, LOESS and ILLS: vectorized numpy
kNN against a collected copy of r in zero-padded KNN_BLOCK-row blocks;
:func:`knn_numpy` is its one-call form on bare matrices. It is exact but
ranks only the entries that can be neighbors: a row's k-th smallest
squared distance over a strided sample of the columns bounds its true k-th
from above, and only the entries within that bound (plus a rounding
margin) get a Formula-1 distance and a (distance, id) ranking — about 2 %
of them on CA.

Ties are broken deterministically by (distance, neighbor row_id), as in
the Catalyst reference :func:`repro.core.sql_engine.knn_join`, which the
tests hold this module to. Every ranking (this kNN, the adaptive sweep's
neighbor order, PMM's donors) goes through :func:`argsort_rows`: numpy's
default unstable argsort, which is SIMD vectorized where the CPU allows,
with the tie order repaired afterwards.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame


ID = "row_id"
#: Rows per distance block of :func:`knn_blocked`.
KNN_BLOCK = 64
#: Column stride of the sample that bounds each row's k-th distance.
_SAMPLE_STRIDE = 8


def _sq_dist(Q: np.ndarray, R: np.ndarray, rn: np.ndarray) -> np.ndarray:
    """(|Q| x |R|) squared distances by the expansion
    (||q||^2 + ||r||^2) - 2 q.r, computed in place in two full-size
    arrays; ``rn`` is ``(R**2).sum(1)``. May hold fp negatives."""
    S = np.add.outer((Q**2).sum(1), rn)
    G = Q @ R.T
    G *= 2.0
    S -= G
    return S


def _formula1(S: np.ndarray, m: int) -> np.ndarray:
    """Formula 1 from squared distances over m attributes, in place:
    sqrt(max(S, 0) / m), the clamp removing fp negatives."""
    np.maximum(S, 0.0, out=S)
    S /= m
    return np.sqrt(S, out=S)


def pairwise_dist(Q: np.ndarray, R: np.ndarray) -> np.ndarray:
    """(|Q| x |R|) Formula-1 distances, vectorized."""
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    R = np.atleast_2d(np.asarray(R, dtype=np.float64))
    return _formula1(_sq_dist(Q, R, (R**2).sum(1)), Q.shape[1])


def argsort_rows(D: np.ndarray, tie: np.ndarray | None = None, upto: int | None = None) -> np.ndarray:
    """The first ``upto`` (default: all) positions of each row of ``D`` in
    (value, tie key) order, as a row-wise ``np.lexsort((tie, D))`` gives them.

    ``tie`` holds non-negative integer keys broadcastable to D and distinct
    within a row; by default it is the column position. One unstable
    ``np.argsort`` orders the values; only the rows with equal values among
    their first ``upto + 1`` sorted slots (a tie run that reaches slot
    ``upto - 1``) can be out of tie order, and they are re-sorted at once by
    one int64 key, the run index of the value times (largest tie key + 1)
    plus the tie key.
    """
    order = np.argsort(D, axis=1)
    upto = D.shape[1] if upto is None else min(upto, D.shape[1])
    head = np.take_along_axis(D, order[:, : upto + 1], axis=1)
    rows = np.flatnonzero((head[:, 1:] == head[:, :-1]).any(axis=1))
    if len(rows):
        o = order[rows]
        v = np.take_along_axis(D[rows], o, axis=1)
        run = np.zeros(o.shape, dtype=np.int64)
        np.cumsum(v[:, 1:] != v[:, :-1], axis=1, out=run[:, 1:])
        t = o if tie is None else np.take_along_axis(np.broadcast_to(tie, D.shape)[rows], o, axis=1)
        key = run * (int(t.max()) + 1) + t
        order[rows] = np.take_along_axis(o, np.argsort(key, axis=1), axis=1)
    return order[:, :upto]


def _positions(r_ids: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Position in ``r_ids`` (unique) of each of ``ids``, -1 if absent."""
    ids = np.asarray(ids)
    srt = np.argsort(r_ids, kind="stable")
    at = srt[np.minimum(np.searchsorted(r_ids, ids, sorter=srt), len(r_ids) - 1)]
    return np.where(r_ids[at] == ids, at, -1)


def _ranks(ids: np.ndarray) -> np.ndarray:
    """Rank of each of the unique ``ids`` in ascending order (0 .. n-1)."""
    rank = np.empty(len(ids), dtype=np.int64)
    rank[np.argsort(ids)] = np.arange(len(ids))
    return rank


def _knn(
    S: np.ndarray, m: int, k: int, rank: np.ndarray, ex: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`knn_numpy` for ``k <= n``, given the queries' squared
    distances ``S`` to r over m attributes (:func:`_sq_dist`; overwritten),
    the :func:`_ranks` of r's ids and the position ``ex`` (-1: none) of
    each query's excluded row.

    Every row's candidates are the entries whose squared distance S is at
    most tau = max(t, 0)(1 + 2^-20) + 2^-1000, where t is the k-th smallest
    S over the strided sample ``S[:, ::_SAMPLE_STRIDE]``; only they get a
    Formula-1 distance. They are scattered into a (rows x most candidates)
    matrix padded with +inf, which :func:`argsort_rows` ranks by
    (distance, id rank).
    The candidates hold the whole (distance, id) top-k, ties included.
    Proof: D(s) = sqrt(max(s, 0) / |F|), as rounded, is non-decreasing in
    s. The sample holds k entries with S <= t, so the row's k-th smallest
    distance is at most D(t), and so is every top-k distance. Rounding
    merges distinct S into one D only within a few units in the last
    place: if s > tau, then s/|F| exceeds t/|F| by a factor above
    1 + 2^-20, or by more than 2^-1000/|F| where t/|F| is subnormal or
    t <= 0, and each of the division and the sqrt rounds by at most
    2^-53 relative or one subnormal step (any |F| < 2^40), so
    D(s) > D(t). Hence an entry with D <= D(t) has S <= tau. Rows whose
    sample has at most k columns (n <= 8k) are ranked in full.
    """
    rows = np.arange(len(S))
    if ex is not None:
        hit = ex >= 0
        S[rows[hit], ex[hit]] = np.inf
    if S.shape[1] <= _SAMPLE_STRIDE * k:
        d = _formula1(S, m)
        order = argsort_rows(d, rank, k)
        return order, np.take_along_axis(d, order, axis=1)
    t = np.partition(S[:, ::_SAMPLE_STRIDE], k - 1, axis=1)[:, k - 1]
    tau = np.maximum(t, 0.0) * (1.0 + 2.0**-20) + 2.0**-1000
    cand = S <= tau[:, None]
    flat = np.flatnonzero(cand)
    cnt = np.count_nonzero(cand, axis=1)
    qi = np.repeat(rows, cnt)
    slot = np.arange(len(flat)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    col = np.zeros((len(S), cnt.max(initial=k)), dtype=np.int64)
    col[qi, slot] = flat - qi * S.shape[1]
    d = np.full(col.shape, np.inf)
    d[qi, slot] = _formula1(S.ravel()[flat], m)
    order = argsort_rows(d, rank[col], k)
    return np.take_along_axis(col, order, axis=1), np.take_along_axis(d, order, axis=1)


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

    Tie-break: (distance, r_id) ascending, as in the SQL reference;
    ``r_ids`` must be unique. ``exclude_ids[i]`` (aligned with Q) is
    removed from query i's candidacy (validation mode). ``q_ids`` is
    unused and kept for existing callers. Exact: only the entries a
    sampled bound cannot rule out are ranked (see :func:`_knn`).
    """
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    R = np.atleast_2d(np.asarray(R, dtype=np.float64))
    if r_ids is None:
        r_ids = np.arange(len(R))
    ex = None if exclude_ids is None else _positions(r_ids, exclude_ids)
    return _knn(_sq_dist(Q, R, (R**2).sum(1)), Q.shape[1], min(k, len(R)), _ranks(r_ids), ex)


@dataclass(frozen=True)
class Relation:
    """A materialized copy of a relation for numpy-side NN work."""

    ids: np.ndarray  # (n,) int64 row ids
    X: np.ndarray  # (n, |F|) complete-attribute matrix
    y: np.ndarray  # (n,) incomplete-attribute values

    @property
    def n(self) -> int:
        return len(self.ids)


def _sorted_frame(df: DataFrame | pd.DataFrame, cols: list[str]) -> pd.DataFrame:
    """The columns ``cols`` of a Spark or pandas frame, as pandas, in id order."""
    pdf = df[cols] if isinstance(df, pd.DataFrame) else df.select(*cols).toPandas()
    return pdf.sort_values(ID)


def collect_relation(df: DataFrame | pd.DataFrame, F: Sequence[str], A_x: str) -> Relation:
    """Collect (id, F, A_x) columns of a relation (Spark or pandas) into
    numpy arrays, sorted by id for determinism.

    Raises ValueError on NaN/inf values or duplicate ids: the adaptive
    sweep ranks distance ties by position, which is the (distance, id)
    rule only because the ids come out unique and ascending.
    """
    pdf = _sorted_frame(df, [ID, *F] + ([A_x] if A_x not in F else []))
    rel = Relation(
        ids=pdf[ID].to_numpy(np.int64),
        X=pdf[list(F)].to_numpy(np.float64),
        y=pdf[A_x].to_numpy(np.float64),
    )
    if not (np.isfinite(rel.X).all() and np.isfinite(rel.y).all()):
        raise ValueError(f"NaN or infinite values in {[*F, A_x]}: r must be complete and finite")
    if (np.diff(rel.ids) == 0).any():
        raise ValueError(f"duplicate {ID} values in r")
    return rel


def collect_queries(
    df: DataFrame | pd.DataFrame, F: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Collect the incomplete tuples (Spark or pandas) as ``(ids, Q)``:
    their row ids in ascending order and their F values, one row per id.

    Raises ValueError on NaN/inf F values or repeated ids, so no query is
    imputed from garbage neighbors (a NaN distance sorts last).
    """
    pdf = _sorted_frame(df, [ID, *F])
    ids, Q = pdf[ID].to_numpy(np.int64), pdf[list(F)].to_numpy(np.float64)
    if not np.isfinite(Q).all():
        raise ValueError(f"NaN or infinite values in the incomplete tuples' {list(F)}")
    if (np.diff(ids) == 0).any():
        raise ValueError(f"duplicate {ID} values in the incomplete tuples")
    return ids, Q


def knn_blocked(
    rel: Relation, X: np.ndarray, k: int, own_ids: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Positions and distances of the k nearest tuples of r to each row of
    ``X``, nearest first, as :func:`knn_numpy` returns them, in KNN_BLOCK-row
    blocks, so at most KNN_BLOCK x n distances are held at once. r's squared
    norms, id ranks and the excluded positions are computed once per call.
    ``own_ids`` (aligned with X) excludes each row's own tuple.

    Every block's distance GEMM is zero-padded to KNN_BLOCK rows, as the
    sweep's is to SWEEP_BLOCK: a GEMM's rounding depends on its row count,
    and a row's neighbors must not depend on how many rows share its call."""
    X = np.asarray(X, dtype=np.float64)
    k = min(k, rel.n)
    rn, rank = (rel.X**2).sum(1), _ranks(rel.ids)
    ex = None if own_ids is None else _positions(rel.ids, own_ids)
    pos, dist = np.empty((len(X), k), dtype=np.int64), np.empty((len(X), k))
    for s in range(0, len(X), KNN_BLOCK):
        blk, B = slice(s, s + KNN_BLOCK), min(KNN_BLOCK, len(X) - s)
        Q = np.zeros((KNN_BLOCK, X.shape[1]))
        Q[:B] = X[blk]
        pos[blk], dist[blk] = _knn(
            _sq_dist(Q, rel.X, rn)[:B], X.shape[1], k, rank, None if ex is None else ex[blk]
        )
    return pos, dist


def self_knn(rel: Relation, k: int) -> np.ndarray:
    """kNN of every tuple within r, excluding itself: IIM's validation
    assignments (Algorithm 3) and ERACER's neighbor aggregates.

    A tuple is never its own neighbor, so k >= n is clamped to n - 1, and
    a one-tuple r gets an empty (1, 0) array."""
    if rel.n == 1:
        return np.empty((1, 0), dtype=np.int64)
    return knn_blocked(rel, rel.X, min(k, rel.n - 1), rel.ids)[0]
