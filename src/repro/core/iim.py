"""IIM — Imputation via Individual Models (Algorithms 1 and 2).

Learning phase (:func:`learn_models`): for each complete tuple t_i in r,
take its l nearest neighbors on the complete attributes F (the tuple
itself included, as in the paper's Example 2) and fit an individual
ridge regression F -> A_x (Formula 5); l=1 uses the single-neighbor
rule.

Imputation phase (:func:`impute`): for each incomplete tuple t_x, take
its k nearest complete neighbors, let each neighbor's individual model
predict a candidate (Formula 9), and combine candidates with the
vote weights of Formulas 10-12 (candidates close to the other
candidates get more weight; the all-equal case degenerates to uniform
weights, which keeps Propositions 1-2 exact).

Both phases come in two engines:

* ``engine="sql"`` — nearest-neighbor lookup via a Catalyst crossJoin +
  window plan and per-group applyInPandas; test-scale, oracle-friendly.
* ``engine="broadcast"`` — the complete relation is broadcast as numpy
  and each partition does vectorized work via mapInPandas; this is the
  scalable path used by the experiment harness.
"""
from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F_
from pyspark.sql.types import ArrayType, DoubleType, LongType, StructField, StructType

from . import linalg
from .nn import ID, Relation, collect_relation, knn_join, knn_numpy

MODEL_SCHEMA = StructType(
    [
        StructField(ID, LongType(), False),
        StructField("phi", ArrayType(DoubleType(), False), False),
    ]
)

IMPUTED_SCHEMA = StructType(
    [
        StructField(ID, LongType(), False),
        StructField("imputed", DoubleType(), False),
    ]
)


def _fit_sorted(X_nn: np.ndarray, y_nn: np.ndarray, alpha: float) -> np.ndarray:
    """Fit the individual model over already-selected neighbors."""
    if len(y_nn) == 1:
        return linalg.single_neighbor_phi(y_nn[0], X_nn.shape[1] + 1)
    return linalg.ridge_fit(X_nn, y_nn, alpha)


# ---------------------------------------------------------------- learning


def learn_models(
    spark: SparkSession,
    r: DataFrame,
    F: Sequence[str],
    A_x: str,
    l: int,
    *,
    alpha: float = linalg.DEFAULT_ALPHA,
    engine: str = "broadcast",
) -> DataFrame:
    """Algorithm 1: individual model per complete tuple, fixed l.

    Returns a DataFrame ``(row_id, phi)`` where ``phi`` is the
    (1+|F|)-vector [intercept, slopes...] of t_i's individual model.
    """
    if engine == "sql":
        return _learn_sql(spark, r, F, A_x, l, alpha)
    return _learn_broadcast(spark, r, F, A_x, l, alpha)


def _learn_sql(spark, r, F, A_x, l, alpha):
    nn = knn_join(r, r, F, l, exclude_self=False)
    feats = r.select(
        F_.col(ID).alias("n_id"), *[F_.col(a) for a in F], F_.col(A_x).alias("_y")
    )
    joined = nn.join(feats, "n_id")
    cols = list(F)

    def fit(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values("rank")
        phi = _fit_sorted(
            pdf[cols].to_numpy(np.float64), pdf["_y"].to_numpy(np.float64), alpha
        )
        return pd.DataFrame({ID: [pdf["q_id"].iloc[0]], "phi": [phi.tolist()]})

    return joined.groupBy("q_id").applyInPandas(fit, MODEL_SCHEMA)


def _learn_broadcast(spark, r, F, A_x, l, alpha):
    rel = collect_relation(r, F, A_x)
    b = spark.sparkContext.broadcast(rel)
    cols = list(F)

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        rv: Relation = b.value
        ll = min(l, rv.n)
        for pdf in batches:
            Q = pdf[cols].to_numpy(np.float64)
            idx, _ = knn_numpy(Q, rv.X, ll, r_ids=rv.ids)
            phis = []
            for qi in range(len(pdf)):
                nn_i = idx[qi]
                phis.append(
                    _fit_sorted(rv.X[nn_i], rv.y[nn_i], alpha).tolist()
                )
            yield pd.DataFrame({ID: pdf[ID].to_numpy(np.int64), "phi": phis})

    src = r.select(ID, *cols).repartition(spark.sparkContext.defaultParallelism)
    return src.mapInPandas(run, MODEL_SCHEMA)


# --------------------------------------------------------------- combining


def combine_candidates(C: np.ndarray, *, weighting: str = "vote", tol: float = 1e-12) -> np.ndarray:
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
    degenerate = c.max(axis=1) <= tol
    out[degenerate] = C[degenerate].mean(axis=1)
    ok = ~degenerate
    if ok.any():
        inv = 1.0 / np.maximum(c[ok], tol)
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
    engine: str = "broadcast",
) -> DataFrame:
    """Algorithm 2: impute ``incomplete[A_x]`` from the individual models.

    Returns ``(row_id, imputed)`` with one row per incomplete tuple.
    """
    if engine == "sql":
        return _impute_sql(spark, r, incomplete, models, F, k, weighting)
    return _impute_broadcast(spark, r, incomplete, models, F, A_x, k, weighting)


def _impute_sql(spark, r, incomplete, models, F, k, weighting):
    nn = knn_join(incomplete, r, F, k)
    joined = nn.join(models.withColumnRenamed(ID, "n_id"), "n_id").join(
        incomplete.select(F_.col(ID).alias("q_id"), *[F_.col(a) for a in F]), "q_id"
    )
    cols = list(F)

    def agg(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values("rank")
        x = pdf[cols].to_numpy(np.float64)[0]
        Phi = np.array(pdf["phi"].tolist(), dtype=np.float64)  # (k, m)
        cand = Phi[:, 0] + Phi[:, 1:] @ x  # Formula 9
        val = combine_candidates(cand[None, :], weighting=weighting)[0]
        return pd.DataFrame({ID: [pdf["q_id"].iloc[0]], "imputed": [val]})

    return joined.groupBy("q_id").applyInPandas(agg, IMPUTED_SCHEMA)


def _impute_broadcast(spark, r, incomplete, models, F, A_x, k, weighting):
    rel = collect_relation(r, F, A_x)
    mp = models.select(ID, "phi").toPandas().sort_values(ID)
    if not np.array_equal(mp[ID].to_numpy(np.int64), rel.ids):
        raise ValueError("models must cover exactly the complete relation r")
    Phi = np.array(mp["phi"].tolist(), dtype=np.float64)  # aligned with rel rows
    b = spark.sparkContext.broadcast((rel, Phi))
    cols = list(F)

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        rv, Ph = b.value
        kk = min(k, rv.n)
        for pdf in batches:
            if len(pdf) == 0:
                continue
            Q = pdf[cols].to_numpy(np.float64)
            idx, _ = knn_numpy(Q, rv.X, kk, r_ids=rv.ids)
            vals = _vote(Ph, idx, Q, weighting)
            yield pd.DataFrame({ID: pdf[ID].to_numpy(np.int64), "imputed": vals})

    src = incomplete.select(ID, *cols).repartition(
        spark.sparkContext.defaultParallelism
    )
    return src.mapInPandas(run, IMPUTED_SCHEMA)


def _vote(Phi: np.ndarray, nn: np.ndarray, Q: np.ndarray, weighting: str) -> np.ndarray:
    """Formulas 9-12: the model ``Phi[nn[x, i]]`` of each of t_x's
    neighbors predicts a candidate from ``Q[x]``; the vote combines them.
    ``Q`` is made C-contiguous because einsum's rounding follows the memory
    layout: pandas hands out F-ordered matrices, except for a single row,
    and a row must impute the same whatever path or batch supplied it."""
    P = Phi[nn]  # (q, k, m)
    cand = P[:, :, 0] + np.einsum("qkm,qm->qk", P[:, :, 1:], np.ascontiguousarray(Q))
    return combine_candidates(cand, weighting=weighting)


def _impute_adaptive(spark, r, incomplete, F, A_x, k, h, l_max, alpha, weighting):
    """Algorithms 3 and 2 in one run: learn only the models of the
    incomplete tuples' k nearest complete neighbors, then vote."""
    from .adaptive import adaptive_models  # local import: avoid cycle

    qp = incomplete.select(ID, *F).toPandas().sort_values(ID)
    Q = qp[list(F)].to_numpy(np.float64)
    rel, models, nn = adaptive_models(
        spark, r, F, A_x, Q, k=k, h=h, l_max=l_max, alpha=alpha
    )
    mp = models.toPandas()
    Phi = np.full((rel.n, len(F) + 1), np.nan)  # rows no query reads stay NaN
    Phi[np.searchsorted(rel.ids, mp[ID].to_numpy(np.int64))] = np.array(
        mp["phi"].tolist(), dtype=np.float64
    ).reshape(len(mp), len(F) + 1)
    vals = _vote(Phi, nn, Q, weighting)
    return spark.createDataFrame(
        pd.DataFrame({ID: qp[ID].to_numpy(np.int64), "imputed": vals}), IMPUTED_SCHEMA
    )


def iim_impute(
    spark: SparkSession,
    r: DataFrame,
    incomplete: DataFrame,
    F: Sequence[str],
    A_x: str,
    *,
    k: int = 10,
    l: int | None = None,
    adaptive: bool = True,
    h: int | None = None,
    l_max: int | None = None,
    alpha: float = linalg.DEFAULT_ALPHA,
    weighting: str = "vote",
    engine: str = "broadcast",
) -> DataFrame:
    """One-shot IIM: learn (fixed-l or adaptive) then impute.

    ``l`` set -> fixed-l Algorithm 1; otherwise adaptive Algorithm 3
    (the paper's recommended mode) with stepping ``h`` (auto if None).

    Adaptive mode on the broadcast engine is demand-driven: r is
    collected and broadcast once, the driver finds every complete tuple's
    validation neighbors and every incomplete tuple's k nearest complete
    tuples, and the candidate sweep runs on executors only for the union
    of the latter — the only models Algorithm 2 reads. Their l* and phi are
    those of full learning, so the imputations are too. To learn every
    model once and impute many query batches, call
    :func:`repro.core.adaptive.adaptive_learn` and then :func:`impute`.
    """
    if l is not None:
        models = learn_models(spark, r, F, A_x, l, alpha=alpha, engine=engine)
    elif not adaptive:
        raise ValueError("either fix l or enable adaptive learning")
    elif engine != "sql":
        return _impute_adaptive(
            spark, r, incomplete, F, A_x, k, h, l_max, alpha, weighting
        )
    else:
        from .adaptive import adaptive_learn  # local import: avoid cycle

        models = adaptive_learn(
            spark, r, F, A_x, k=k, h=h, l_max=l_max, alpha=alpha
        )
    return impute(
        spark, r, incomplete, models, F, A_x, k, weighting=weighting, engine=engine
    )
