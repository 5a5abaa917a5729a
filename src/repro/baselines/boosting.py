"""XGB baseline: gradient-boosted regression trees F -> A_x.

Substrate for the R `xgboost` package used by the paper (see
``repro.ml.gbt``). Fit on the driver over the collected complete
relation, as is prediction. Reported "-" on the 2-attribute SN dataset,
as in the paper.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from ..core.nn import Relation
from ..ml.gbt import GBTRegressor


def xgb_impute(
    spark: SparkSession,
    rel: Relation,
    ids: np.ndarray,
    Q: np.ndarray,
    *,
    n_estimators: int = 60,
    max_depth: int = 3,
    learning_rate: float = 0.3,
    seed: int = 0,
) -> np.ndarray:
    return GBTRegressor(
        n_estimators=n_estimators,
        max_depth=max_depth,
        learning_rate=learning_rate,
        seed=seed,
    ).fit(rel.X, rel.y).predict(Q)
