"""Baseline imputation methods (Table II) and the method registry.

Every method maps ``(spark, r, incomplete, F, A_x, **params)`` to a
DataFrame ``(row_id, imputed)``. ``METHODS`` is the ordered registry
the Table V/VI/VII harnesses iterate over (IIM first, like the paper's
column order); ``requires_multivariate`` marks methods the paper
reports as "-" on the 2-attribute SN dataset, and ``k`` is the default
neighbor count of the methods that take one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.iim import iim_impute
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
