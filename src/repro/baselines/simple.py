"""Tuple-model baselines: Mean [14], kNN [2][5], kNNE [13].

Mean and kNN also ship pure-Catalyst (SQL) variants, checked against the
DuckDB oracle, that end in one ``toPandas()``; the default engine is the
broadcast numpy path used by the experiment harness.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F_

from ..core.iim import collect_imputed, impute_on_driver
from ..core.nn import ID, Relation, collect_relation, knn_blocked, knn_join


def mean_impute(
    spark: SparkSession,
    r: DataFrame,
    incomplete: DataFrame,
    F: Sequence[str],
    A_x: str,
) -> pd.DataFrame:
    """Global column average of A_x over all complete tuples — a pure
    Catalyst plan (aggregate + crossJoin of the scalar)."""
    mean_df = r.agg(F_.avg(A_x).alias("imputed"))
    return collect_imputed(incomplete.select(ID).crossJoin(mean_df))


def knn_impute(
    spark: SparkSession,
    r: DataFrame,
    incomplete: DataFrame,
    F: Sequence[str],
    A_x: str,
    *,
    k: int = 10,
    engine: str = "broadcast",
) -> pd.DataFrame:
    """Arithmetic mean of the k nearest complete neighbors (Formula 2)."""
    if engine == "sql":
        nn = knn_join(incomplete, r, F, k)
        vals = r.select(F_.col(ID).alias("n_id"), F_.col(A_x).alias("_y"))
        return collect_imputed(
            nn.join(vals, "n_id")
            .groupBy("q_id")
            .agg(F_.avg("_y").alias("imputed"))
            .withColumnRenamed("q_id", ID)
        )
    rel = collect_relation(r, F, A_x)
    return impute_on_driver(
        incomplete, F, lambda _, Q: rel.y[knn_blocked(rel, Q, k)[0]].mean(axis=1)
    )


def knne_impute(
    spark: SparkSession,
    r: DataFrame,
    incomplete: DataFrame,
    F: Sequence[str],
    A_x: str,
    *,
    k: int = 10,
) -> pd.DataFrame:
    """kNN Ensemble: kNN imputations computed on several feature subsets
    (F itself plus every leave-one-out subset), averaged.

    With a single complete attribute there is only one subset and kNNE
    degenerates to kNN, as in the paper's SN column.
    """
    rel = collect_relation(r, F, A_x)
    p = rel.X.shape[1]
    subsets = [list(range(p))]
    if p > 1:
        subsets += [[j for j in range(p) if j != drop] for drop in range(p)]

    def predict(_, Q: np.ndarray) -> np.ndarray:
        preds = []
        for cols in subsets:
            sub = Relation(rel.ids, rel.X[:, cols], rel.y)
            preds.append(rel.y[knn_blocked(sub, Q[:, cols], k)[0]].mean(axis=1))
        return np.mean(preds, axis=0)

    return impute_on_driver(incomplete, F, predict)
