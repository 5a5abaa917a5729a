"""Tuple-model baselines: Mean [14], kNN [2][5], kNNE [13].

Mean and kNN are checked against the DuckDB oracle, kNN also against
:func:`repro.core.sql_engine.knn_impute`.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..core.iim import impute_on_driver
from ..core.nn import Relation, collect_relation, knn_blocked


def mean_impute(
    spark: SparkSession,
    r: DataFrame,
    incomplete: DataFrame,
    F: Sequence[str],
    A_x: str,
) -> pd.DataFrame:
    """Global column average of A_x over all complete tuples."""
    mean = collect_relation(r, F, A_x).y.mean()
    return impute_on_driver(incomplete, F, lambda _, Q: np.full(len(Q), mean))


def knn_impute(
    spark: SparkSession,
    r: DataFrame,
    incomplete: DataFrame,
    F: Sequence[str],
    A_x: str,
    *,
    k: int = 10,
) -> pd.DataFrame:
    """Arithmetic mean of the k nearest complete neighbors (Formula 2)."""
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
