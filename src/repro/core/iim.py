"""IIM — Imputation via Individual Models (Algorithms 1 and 2).

Learning phase (:func:`learn_models`): for each complete tuple t_i in r,
take its l nearest neighbors on the complete attributes F (the tuple
itself first, as in the paper's Example 2) and fit an individual ridge
regression F -> A_x (Formula 5); l=1 uses the single-neighbor rule, so
t_i's model is its own value.

Imputation phase (:func:`impute`): for each incomplete tuple t_x, take
its k nearest complete neighbors, let each neighbor's individual model
predict a candidate (Formula 9), and combine candidates with the
vote weights of Formulas 10-12 (candidates close to the other
candidates get more weight; the all-equal case degenerates to uniform
weights, which keeps Propositions 1-2 exact).

Learning is :mod:`repro.core.adaptive`'s pipeline (fixed l is its
one-point grid): r is broadcast once and executors sweep the candidate
models, returning them as arrays. Imputation runs on the driver: the
incomplete tuples' kNN in blocks, then the vote. :func:`iim_impute`, like
every method, computes on the arrays that the registry
(:class:`repro.baselines.Method`) collects.
:mod:`repro.core.sql_engine` states both phases as Catalyst plans; the
tests hold this module to it.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import DoubleType, LongType, StructField, StructType

from . import linalg
from .adaptive import adaptive_models, learn_all
from .nn import ID, Relation, collect_queries, collect_relation, knn_blocked

IMPUTED_SCHEMA = StructType(
    [
        StructField(ID, LongType(), False),
        StructField("imputed", DoubleType(), False),
    ]
)


# ---------------------------------------------------------------- learning


def learn_models(
    spark: SparkSession,
    r: DataFrame,
    F: Sequence[str],
    A_x: str,
    l: int,
    *,
    alpha: float = linalg.DEFAULT_ALPHA,
) -> DataFrame:
    """Algorithm 1: individual model per complete tuple, fixed l.

    Returns a DataFrame ``(row_id, phi)`` where ``phi`` is the
    (1+|F|)-vector [intercept, slopes...] of t_i's individual model.
    """
    return learn_all(spark, r, F, A_x, alpha=alpha, l=l).select(ID, "phi")


# --------------------------------------------------------------- combining


#: Candidates whose pairwise distances c_xi are all at most this are equal.
VOTE_TOL = 1e-12


def combine_candidates(C: np.ndarray, *, weighting: str = "vote") -> np.ndarray:
    """Aggregate candidate matrices (q x k) into imputations (Formulas 10-12).

    vote: w_i proportional to 1 / sum_j |c_i - c_j|; rows whose candidates are
    all (numerically) equal fall back to uniform weights — the c=0 case,
    which also makes the l=n setting coincide exactly with GLR (Prop. 2).
    """
    C = np.atleast_2d(np.asarray(C, dtype=np.float64))
    q, k = C.shape
    if weighting == "uniform" or k == 1:
        return C.mean(axis=1)
    if weighting != "vote":
        raise ValueError(f"unknown weighting {weighting!r}")
    c = np.abs(C[:, :, None] - C[:, None, :]).sum(axis=2)  # (q, k) distances c_xi
    out = np.empty(q)
    degenerate = c.max(axis=1) <= VOTE_TOL
    out[degenerate] = C[degenerate].mean(axis=1)
    ok = ~degenerate
    if ok.any():
        inv = 1.0 / np.maximum(c[ok], VOTE_TOL)
        w = inv / inv.sum(axis=1, keepdims=True)
        out[ok] = (C[ok] * w).sum(axis=1)
    return out


# --------------------------------------------------------------- imputation


def impute(
    spark: SparkSession,
    r: DataFrame,
    incomplete: DataFrame,
    models: DataFrame,
    F: Sequence[str],
    A_x: str,
    k: int,
    *,
    weighting: str = "vote",
) -> DataFrame:
    """Algorithm 2: impute ``incomplete[A_x]`` from the individual models.

    Returns a Spark DataFrame ``(row_id, imputed)``, one row per incomplete
    tuple: unlike the registry's ``METHODS["IIM"]``, which returns a pandas
    frame, it keeps a DataFrame because ``iimbench/`` calls ``.toPandas()`` on it.
    """
    rel = collect_relation(r, F, A_x)
    mp = models.select(ID, "phi").toPandas().sort_values(ID)
    if not np.array_equal(mp[ID].to_numpy(np.int64), rel.ids):
        raise ValueError("models must cover exactly the complete relation r")
    Phi = np.array(mp["phi"].tolist(), dtype=np.float64)  # aligned with rel rows
    ids, Q = collect_queries(incomplete, F)
    imputed = _vote(Q, Phi, knn_blocked(rel, Q, k)[0], weighting)
    return spark.createDataFrame(pd.DataFrame({ID: ids, "imputed": imputed}), IMPUTED_SCHEMA)


def _vote(Q: np.ndarray, Phi: np.ndarray, nn: np.ndarray, weighting: str) -> np.ndarray:
    """Formulas 9-12: the model ``Phi[nn[x, i]]`` of each of t_x's
    neighbors predicts a candidate from ``Q[x]``; the vote combines them.
    ``Q`` is made C-contiguous because einsum's rounding follows the memory
    layout: pandas hands out F-ordered matrices, except for a single row,
    and a row must impute the same whatever batch supplied it."""
    P = Phi[nn]  # (q, k, m)
    cand = P[:, :, 0] + np.einsum("qkm,qm->qk", P[:, :, 1:], np.ascontiguousarray(Q))
    return combine_candidates(cand, weighting=weighting)


def iim_impute(
    spark: SparkSession,
    rel: Relation,
    ids: np.ndarray,
    Q: np.ndarray,
    *,
    k: int = 10,
    l: int | None = None,
    h: int | None = None,
    l_max: int | None = None,
    alpha: float = linalg.DEFAULT_ALPHA,
    weighting: str = "vote",
) -> np.ndarray:
    """One-shot IIM on the collected r: learn (fixed-l or adaptive) then
    impute the queries ``Q``. Called through the registry, ``METHODS["IIM"]``.

    ``l`` set -> fixed-l Algorithm 1; otherwise adaptive Algorithm 3
    (the paper's recommended mode) with stepping ``h`` (auto if None).

    Learning is demand-driven: r is broadcast once, the driver finds the
    incomplete tuples' k nearest complete tuples (and, for adaptive l,
    every complete tuple's validation neighbors), and the candidate sweep
    runs on executors only for the union of the former — the only models
    Algorithm 2 reads. Their l* and phi are those of full learning, so the
    imputations are too. To learn every model once and impute many query
    batches, call :func:`learn_models` or
    :func:`repro.core.adaptive.adaptive_learn` and then :func:`impute`.
    """
    pos, phi, _, nn = adaptive_models(spark, rel, Q, k=k, h=h, l_max=l_max, alpha=alpha, l=l)
    Phi = np.full((rel.n, phi.shape[1]), np.nan)  # rows no query reads stay NaN
    Phi[pos] = phi
    return _vote(Q, Phi, nn, weighting)
