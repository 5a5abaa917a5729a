"""Cluster-average baselines: IFC [27] (fuzzy k-means) and GMM [40].

Both cluster the complete relation on the complete attributes F, then
impute A_x as the membership/responsibility-weighted average of the
per-cluster A_x means ("cluster average" per Table II). Fit and
prediction run on the driver over the collected (small) relation. The
weighted average is summed row by row, not as a matrix-vector product,
whose rounding of a row depends on how many rows it gets (a query
imputed alone would differ in the last bit from the same query in a batch).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from ..core.nn import Relation
from ..ml.fuzzy import FuzzyCMeans
from ..ml.gmm import GaussianMixture


def ifc_impute(
    spark: SparkSession,
    rel: Relation,
    ids: np.ndarray,
    Q: np.ndarray,
    *,
    c: int = 5,
    fuzz: float = 2.0,
    seed: int = 0,
) -> np.ndarray:
    """Iterative fuzzy clustering: impute with fuzzy-membership-weighted
    cluster means of A_x."""
    fcm = FuzzyCMeans(min(c, rel.n), fuzz=fuzz, seed=seed).fit(rel.X)
    U = fcm.memberships(rel.X) ** fuzz  # (n, c)
    cluster_y = (U.T @ rel.y) / np.maximum(U.sum(axis=0), 1e-12)
    return (fcm.memberships(Q) * cluster_y).sum(axis=1)


def gmm_impute(
    spark: SparkSession,
    rel: Relation,
    ids: np.ndarray,
    Q: np.ndarray,
    *,
    c: int = 5,
    seed: int = 0,
) -> np.ndarray:
    """Gaussian-mixture cluster average: responsibilities on F weight the
    per-component means of A_x (component means of A_x are computed with
    the same responsibilities over r)."""
    gm = GaussianMixture(min(c, rel.n), seed=seed).fit(rel.X)
    R = gm.responsibilities(rel.X)
    comp_y = (R.T @ rel.y) / np.maximum(R.sum(axis=0), 1e-12)
    return (gm.responsibilities(Q) * comp_y).sum(axis=1)
