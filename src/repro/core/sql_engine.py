"""The Catalyst reference engine: kNN and IIM as Spark SQL plans.

Test-only: nothing in the library imports this module. The tests hold the
driver-side code (:mod:`repro.core.nn`, :mod:`repro.core.iim`,
:func:`repro.baselines.knn_impute`) to it, and it to DuckDB
(:mod:`repro.oracle`). Nearest neighbors are found "via joins": a
crossJoin of queries and r, Formula 1 as a column expression and a
``row_number()`` window per query ordered by (distance, neighbor row_id);
the per-tuple fits and votes run in applyInPandas.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F_
from pyspark.sql.types import ArrayType, DoubleType, LongType, StructField, StructType

from . import linalg
from .iim import IMPUTED_SCHEMA, combine_candidates
from .nn import ID

MODEL_SCHEMA = StructType(
    [
        StructField(ID, LongType(), False),
        StructField("phi", ArrayType(DoubleType(), False), False),
    ]
)


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
) -> DataFrame:
    """k nearest neighbors of every query tuple from r, as a DataFrame.

    Returns columns ``q_id, n_id, rank, dist`` (rank 1 = closest).
    ``exclude_self`` drops pairs with equal ids — used when the queries
    are themselves members of r (validation in adaptive learning).
    """
    q = queries.select(
        F_.col(ID).alias("q_id"), *[F_.col(a).alias(f"q_{a}") for a in F]
    )
    n = r.select(
        F_.col(ID).alias("n_id"), *[F_.col(a).alias(f"n_{a}") for a in F]
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


def learn_models(
    spark: SparkSession,
    r: DataFrame,
    F: Sequence[str],
    A_x: str,
    l: int,
    *,
    alpha: float = linalg.DEFAULT_ALPHA,
) -> DataFrame:
    """Algorithm 1 at fixed l, as :func:`repro.core.iim.learn_models`
    returns it: a DataFrame ``(row_id, phi)``."""
    # t_i is its own nearest neighbor (rank 0), ahead of any duplicate
    own = r.select(F_.col(ID).alias("q_id"), F_.col(ID).alias("n_id"), F_.lit(0).alias("rank"))
    nn = own.union(knn_join(r, r, F, l - 1, exclude_self=True).drop("dist"))
    feats = r.select(
        F_.col(ID).alias("n_id"), *[F_.col(a) for a in F], F_.col(A_x).alias("_y")
    )
    joined = nn.join(feats, "n_id")
    cols = list(F)

    def fit(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values("rank")
        phi = linalg.prefix_params(
            pdf[cols].to_numpy(np.float64), pdf["_y"].to_numpy(np.float64), [len(pdf)], alpha
        )[0]
        return pd.DataFrame({ID: [pdf["q_id"].iloc[0]], "phi": [phi.tolist()]})

    return joined.groupBy("q_id").applyInPandas(fit, MODEL_SCHEMA)


def impute(
    r: DataFrame,
    incomplete: DataFrame,
    models: DataFrame,
    F: Sequence[str],
    k: int,
    *,
    weighting: str = "vote",
) -> DataFrame:
    """Algorithm 2 from the model table ``models`` ``(row_id, phi)``, as
    :func:`repro.core.iim.impute` returns it: a DataFrame ``(row_id, imputed)``."""
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


def knn_impute(
    r: DataFrame, incomplete: DataFrame, F: Sequence[str], A_x: str, *, k: int = 10
) -> pd.DataFrame:
    """Arithmetic mean of the k nearest complete neighbors (Formula 2), as
    :func:`repro.baselines.knn_impute` returns it."""
    nn = knn_join(incomplete, r, F, k)
    vals = r.select(F_.col(ID).alias("n_id"), F_.col(A_x).alias("_y"))
    return collect_imputed(
        nn.join(vals, "n_id")
        .groupBy("q_id")
        .agg(F_.avg("_y").alias("imputed"))
        .withColumnRenamed("q_id", ID)
    )


def collect_imputed(df: DataFrame) -> pd.DataFrame:
    """A Spark ``(row_id, imputed)`` result as the methods' pandas frame, in id order."""
    return df.select(ID, "imputed").toPandas().sort_values(ID, ignore_index=True)
