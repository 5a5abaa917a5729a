"""Cluster-average baselines: IFC [27] (fuzzy k-means) and GMM [40].

Both cluster the complete relation on the complete attributes F, then
impute A_x as the membership/responsibility-weighted average of the
per-cluster A_x means ("cluster average" per Table II). Fit and
prediction run on the driver over the collected (small) relation.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..core.iim import impute_on_driver
from ..core.nn import collect_relation
from ..ml.fuzzy import FuzzyCMeans
from ..ml.gmm import GaussianMixture


def ifc_impute(
    spark: SparkSession,
    r: DataFrame,
    incomplete: DataFrame,
    F: Sequence[str],
    A_x: str,
    *,
    c: int = 5,
    fuzz: float = 2.0,
    seed: int = 0,
) -> pd.DataFrame:
    """Iterative fuzzy clustering: impute with fuzzy-membership-weighted
    cluster means of A_x."""
    rel = collect_relation(r, F, A_x)
    fcm = FuzzyCMeans(min(c, rel.n), fuzz=fuzz, seed=seed).fit(rel.X)
    U = fcm.memberships(rel.X) ** fuzz  # (n, c)
    cluster_y = (U.T @ rel.y) / np.maximum(U.sum(axis=0), 1e-12)
    return impute_on_driver(incomplete, F, lambda _, Q: fcm.memberships(Q) @ cluster_y)


def gmm_impute(
    spark: SparkSession,
    r: DataFrame,
    incomplete: DataFrame,
    F: Sequence[str],
    A_x: str,
    *,
    c: int = 5,
    seed: int = 0,
) -> pd.DataFrame:
    """Gaussian-mixture cluster average: responsibilities on F weight the
    per-component means of A_x (component means of A_x are computed with
    the same responsibilities over r)."""
    rel = collect_relation(r, F, A_x)
    gm = GaussianMixture(min(c, rel.n), seed=seed).fit(rel.X)
    R = gm.responsibilities(rel.X)
    comp_y = (R.T @ rel.y) / np.maximum(R.sum(axis=0), 1e-12)
    return impute_on_driver(incomplete, F, lambda _, Q: gm.responsibilities(Q) @ comp_y)
