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
one-point grid): r is collected and broadcast once and executors sweep
the candidate models. Imputation runs on the driver through
:func:`impute_on_driver`, the tail every method shares: the incomplete
tuples' kNN in blocks, then the vote, returned as a pandas frame.
:mod:`repro.core.sql_engine` states both phases as Catalyst plans; the
tests hold this module to it.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import DoubleType, LongType, StructField, StructType

from . import linalg
from .adaptive import adaptive_models
from .nn import ID, collect_relation, knn_blocked

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
    _, models, _ = adaptive_models(spark, r, F, A_x, alpha=alpha, l=l)
    return models.select(ID, "phi")


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
    tuple: unlike :func:`iim_impute`, which returns the driver tail's pandas
    frame, it keeps a DataFrame because ``iimbench/`` calls ``.toPandas()`` on it.
    """
    rel = collect_relation(r, F, A_x)
    mp = models.select(ID, "phi").toPandas().sort_values(ID)
    if not np.array_equal(mp[ID].to_numpy(np.int64), rel.ids):
        raise ValueError("models must cover exactly the complete relation r")
    Phi = np.array(mp["phi"].tolist(), dtype=np.float64)  # aligned with rel rows
    imputed = impute_on_driver(
        incomplete, F, lambda _, Q: _vote(Q, Phi, knn_blocked(rel, Q, k)[0], weighting)
    )
    return spark.createDataFrame(imputed, IMPUTED_SCHEMA)


def impute_on_driver(
    incomplete: DataFrame,
    F: Sequence[str],
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> pd.DataFrame:
    """The imputation tail of every method: IIM and the 13 baselines.

    Collects ``(row_id, F)`` of the incomplete tuples in id order, computes
    ``fn(ids, Q)`` on the driver (Q: their F values, one row per id) and
    returns the pandas frame ``(row_id, imputed)`` in ascending id order.
    Each tuple is imputed on its own (Algorithm 2), so the result does not
    depend on how ``incomplete`` is partitioned. Raises ValueError on
    NaN/inf F values or repeated row ids.
    """
    qp = incomplete.select(ID, *F).toPandas().sort_values(ID)
    ids, Q = qp[ID].to_numpy(np.int64), qp[list(F)].to_numpy(np.float64)
    if not np.isfinite(Q).all():
        raise ValueError(f"NaN or infinite values in the incomplete tuples' {list(F)}")
    if (np.diff(ids) == 0).any():
        raise ValueError(f"duplicate {ID} values in the incomplete tuples")
    return pd.DataFrame({ID: ids, "imputed": np.asarray(fn(ids, Q), dtype=np.float64)})


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
    r: DataFrame,
    incomplete: DataFrame,
    F: Sequence[str],
    A_x: str,
    *,
    k: int = 10,
    l: int | None = None,
    h: int | None = None,
    l_max: int | None = None,
    alpha: float = linalg.DEFAULT_ALPHA,
    weighting: str = "vote",
) -> pd.DataFrame:
    """One-shot IIM: learn (fixed-l or adaptive) then impute.

    ``l`` set -> fixed-l Algorithm 1; otherwise adaptive Algorithm 3
    (the paper's recommended mode) with stepping ``h`` (auto if None).

    Learning is demand-driven: r is collected and broadcast once, the
    driver finds the incomplete tuples' k nearest complete tuples (and,
    for adaptive l, every complete tuple's validation neighbors), and the
    candidate sweep runs on executors only for the union of the former —
    the only models Algorithm 2 reads. Their l* and
    phi are those of full learning, so the imputations are too. To learn
    every model once and impute many query batches, call
    :func:`learn_models` or :func:`repro.core.adaptive.adaptive_learn`
    and then :func:`impute`.
    """
    def learn_and_vote(_, Q: np.ndarray) -> np.ndarray:
        rel, models, nn = adaptive_models(
            spark, r, F, A_x, Q, k=k, h=h, l_max=l_max, alpha=alpha, l=l
        )
        mp = models.toPandas()
        Phi = np.full((rel.n, len(F) + 1), np.nan)  # rows no query reads stay NaN
        Phi[np.searchsorted(rel.ids, mp[ID].to_numpy(np.int64))] = np.array(
            mp["phi"].tolist(), dtype=np.float64
        ).reshape(len(mp), len(F) + 1)
        return _vote(Q, Phi, nn, weighting)

    return impute_on_driver(incomplete, F, learn_and_vote)
