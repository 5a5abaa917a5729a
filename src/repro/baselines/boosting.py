"""XGB baseline: gradient-boosted regression trees F -> A_x.

Substrate for the R `xgboost` package used by the paper (see
``repro.ml.gbt``). Fit on the driver over the collected complete
relation, as is prediction. Reported "-" on the 2-attribute SN dataset,
as in the paper.
"""
from __future__ import annotations

from typing import Sequence

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..core.iim import impute_on_driver
from ..core.nn import collect_relation
from ..ml.gbt import GBTRegressor


def xgb_impute(
    spark: SparkSession,
    r: DataFrame,
    incomplete: DataFrame,
    F: Sequence[str],
    A_x: str,
    *,
    n_estimators: int = 60,
    max_depth: int = 3,
    learning_rate: float = 0.3,
    seed: int = 0,
) -> pd.DataFrame:
    rel = collect_relation(r, F, A_x)
    model = GBTRegressor(
        n_estimators=n_estimators,
        max_depth=max_depth,
        learning_rate=learning_rate,
        seed=seed,
    ).fit(rel.X, rel.y)
    return impute_on_driver(incomplete, F, lambda _, Q: model.predict(Q))
