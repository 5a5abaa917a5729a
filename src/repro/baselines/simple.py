"""Tuple-model baselines: Mean [14], kNN [2][5], kNNE [13].

Mean and kNN are checked against the DuckDB oracle, kNN also against
:func:`repro.core.sql_engine.knn_impute`.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from ..core.nn import Relation, knn_blocked


def mean_impute(spark: SparkSession, rel: Relation, ids: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Global column average of A_x over all complete tuples."""
    return np.full(len(Q), rel.y.mean())


def knn_impute(
    spark: SparkSession, rel: Relation, ids: np.ndarray, Q: np.ndarray, *, k: int = 10
) -> np.ndarray:
    """Arithmetic mean of the k nearest complete neighbors (Formula 2)."""
    return rel.y[knn_blocked(rel, Q, k)[0]].mean(axis=1)


def knne_impute(
    spark: SparkSession, rel: Relation, ids: np.ndarray, Q: np.ndarray, *, k: int = 10
) -> np.ndarray:
    """kNN Ensemble: kNN imputations computed on several feature subsets
    (F itself plus every leave-one-out subset), averaged.

    With a single complete attribute there is only one subset and kNNE
    degenerates to kNN, as in the paper's SN column.
    """
    p = rel.X.shape[1]
    subsets = [list(range(p))]
    if p > 1:
        subsets += [[j for j in range(p) if j != drop] for drop in range(p)]
    preds = []
    for cols in subsets:
        sub = Relation(rel.ids, rel.X[:, cols], rel.y)
        preds.append(rel.y[knn_blocked(sub, Q[:, cols], k)[0]].mean(axis=1))
    return np.mean(preds, axis=0)
