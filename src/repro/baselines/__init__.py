"""Baseline imputation methods (Table II) and the method registry.

``METHODS`` is the ordered registry the Table V/VI/VII harnesses iterate
over (IIM first, like the paper's column order); ``requires_multivariate``
marks methods the paper reports as "-" on the 2-attribute SN dataset, and
``k`` is the default neighbor count of the methods that take one.

Calling a registry entry, ``METHODS[m](spark, r, incomplete, F, A_x,
**params)``, is the one place where Spark (or pandas) data becomes arrays:
it collects r and the incomplete tuples in id order and hands them to the
method function, ``fn(spark, rel, ids, Q, **params) -> imputations``,
which fits on r and imputes each incomplete tuple on its own, on the
driver. The call returns a pandas frame of exactly the columns
``row_id, imputed``, one row per incomplete tuple in ascending id order,
so a result does not depend on partitioning and needs no Spark job back.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..core.iim import iim_impute
from ..core.nn import ID, collect_queries, collect_relation
from .boosting import xgb_impute
from .cluster import gmm_impute, ifc_impute
from .matrix import ills_impute, svd_impute
from .regression import (
    blr_impute,
    eracer_impute,
    glr_impute,
    loess_impute,
    pmm_impute,
)
from .simple import knn_impute, knne_impute, mean_impute

#: Default neighbor count of IIM, kNN, kNNE and ERACER in every table run;
#: IIM's other defaults (adaptive l, vote weighting) live in iim_impute.
DEFAULT_K = 10


@dataclass(frozen=True)
class Method:
    name: str
    fn: Callable
    requires_multivariate: bool = False  # "-" on 2-attribute datasets
    k: int | None = None  # default neighbor count, for methods taking one

    def __call__(
        self,
        spark: SparkSession,
        r: DataFrame | pd.DataFrame,
        incomplete: DataFrame | pd.DataFrame,
        F: Sequence[str],
        A_x: str,
        **params,
    ) -> pd.DataFrame:
        """Impute ``incomplete[A_x]`` from the complete relation r: the
        ``(row_id, imputed)`` frame in ascending id order. Raises ValueError
        on NaN/inf values or repeated ids in r or the incomplete tuples."""
        rel = collect_relation(r, F, A_x)
        ids, Q = collect_queries(incomplete, F)
        imputed = self.fn(spark, rel, ids, Q, **params)
        return pd.DataFrame({ID: ids, "imputed": np.asarray(imputed, dtype=np.float64)})

    def params(self, overrides: dict | None = None) -> dict:
        """Keyword arguments of one run: the defaults under ``overrides``."""
        defaults = {} if self.k is None else {"k": self.k}
        return {**defaults, **(overrides or {})}


METHODS: dict[str, Method] = {
    m.name: m
    for m in [
        Method("IIM", iim_impute, k=DEFAULT_K),
        Method("Mean", mean_impute),
        Method("kNN", knn_impute, k=DEFAULT_K),
        Method("kNNE", knne_impute, k=DEFAULT_K),
        Method("IFC", ifc_impute),
        Method("GMM", gmm_impute),
        Method("SVD", svd_impute, requires_multivariate=True),
        Method("ILLS", ills_impute, requires_multivariate=True),
        Method("GLR", glr_impute),
        Method("LOESS", loess_impute),
        Method("BLR", blr_impute),
        Method("ERACER", eracer_impute, k=DEFAULT_K),
        Method("PMM", pmm_impute),
        Method("XGB", xgb_impute, requires_multivariate=True),
    ]
}

__all__ = [
    "DEFAULT_K",
    "METHODS",
    "Method",
    "blr_impute",
    "eracer_impute",
    "glr_impute",
    "gmm_impute",
    "ifc_impute",
    "iim_impute",
    "ills_impute",
    "knn_impute",
    "knne_impute",
    "loess_impute",
    "mean_impute",
    "pmm_impute",
    "svd_impute",
    "xgb_impute",
]
