"""Experiment harness driving Tables V and VI.

``prepare_experiment`` generates a synthetic paper dataset, injects
missing values per the paper's protocol, and splits it into the
complete relation r (Spark DataFrame) and per-missing-attribute groups
of incomplete tuples. ``impute_with`` runs a registered method over
every group; ``dataset_row`` assembles one table row (RMS per method
plus the dataset's measured R^2_S / R^2_H).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..baselines import DEFAULT_K, METHODS
from ..datasets import attributes, generate, inject_missing
from ..datasets.generators import ID
from . import metrics

#: Paper sizes (Table IV), except SN which is capped at 20k for the
#: O(n^2) neighbor passes — same spirit as the paper's Fig. 12 subsampling.
SCALES: dict[str, dict[str, int]] = {
    "tiny": {
        "ASF": 200, "CCS": 200, "CCPP": 240, "SN": 300,
        "PHASE": 240, "CA": 240, "DA": 240, "MAM": 200, "HEP": 120,
    },
    "small": {
        "ASF": 600, "CCS": 500, "CCPP": 1000, "SN": 2000,
        "PHASE": 1000, "CA": 1500, "DA": 1000, "MAM": 600, "HEP": 200,
    },
    "full": {
        "ASF": 1500, "CCS": 1000, "CCPP": 10000, "SN": 20000,
        "PHASE": 10000, "CA": 20000, "DA": 7000, "MAM": 1000, "HEP": 200,
    },
}

TABLE_V_DATASETS = ["ASF", "CA", "CCPP", "CCS", "DA", "PHASE", "SN"]


@dataclass
class Group:
    """Incomplete tuples sharing the same missing attribute."""

    A_x: str
    F: list[str]
    incomplete: DataFrame


@dataclass
class Experiment:
    name: str
    attrs: list[str]
    complete: DataFrame
    groups: list[Group]
    truth: pd.DataFrame  # (row_id, attr, truth)
    mean_by_attr: dict[str, float] = field(default_factory=dict)


def prepare_experiment(
    spark: SparkSession,
    name: str,
    *,
    n: int | None = None,
    frac: float | None = 0.05,
    count: int | None = None,
    fixed_attr: str | None = None,
    seed: int = 0,
) -> Experiment:
    """Generate + mask a dataset and split into Spark relations."""
    attrs = attributes(name)
    pdf = generate(name, n=n)
    masked, truth = inject_missing(
        pdf, frac=frac, count=count, fixed_attr=fixed_attr, seed=seed, attrs=attrs
    )
    complete_pdf = masked[~masked[ID].isin(truth[ID])].reset_index(drop=True)
    complete = spark.createDataFrame(complete_pdf[[ID] + attrs]).cache()
    complete.count()  # materialize once; reused by every method
    groups = []
    for a in sorted(truth["attr"].unique()):
        ids = truth.loc[truth["attr"] == a, ID]
        inc_pdf = masked[masked[ID].isin(ids)].reset_index(drop=True)
        F = [c for c in attrs if c != a]
        groups.append(
            Group(A_x=a, F=F, incomplete=spark.createDataFrame(inc_pdf[[ID] + F]))
        )
    means = {a: float(complete_pdf[a].mean()) for a in attrs}
    return Experiment(name, attrs, complete, groups, truth, means)


def impute_with(
    spark: SparkSession, exp: Experiment, method: str, **params
) -> pd.DataFrame | None:
    """Run one registered method over every missing-attribute group.

    Returns (row_id, attr, imputed), or None when the method is
    unavailable on this dataset (SVD/ILLS/XGB on 2-attribute data — the
    paper's "-" entries).
    """
    spec = METHODS[method]
    frames = []
    for g in exp.groups:
        if spec.requires_multivariate and len(g.F) < 2:
            return None
        out = spec.fn(spark, exp.complete, g.incomplete, g.F, g.A_x, **params)
        pdf = out.toPandas()
        pdf["attr"] = g.A_x
        frames.append(pdf[[ID, "attr", "imputed"]])
    return pd.concat(frames, ignore_index=True)


def score(exp: Experiment, imputed: pd.DataFrame) -> float:
    """RMS error of an imputation result against the masked truth."""
    j = exp.truth.merge(imputed, on=[ID, "attr"], how="left")
    if j["imputed"].isna().any():
        missing = j[j["imputed"].isna()]
        raise AssertionError(f"{len(missing)} masked cells were not imputed")
    return metrics.rms(j["truth"].to_numpy(), j["imputed"].to_numpy())


def _r2(exp: Experiment, imputed: pd.DataFrame) -> float:
    j = exp.truth.merge(imputed, on=[ID, "attr"], how="left")
    base = j["attr"].map(exp.mean_by_attr).to_numpy(np.float64)
    return metrics.r2_against_mean(
        j["truth"].to_numpy(), j["imputed"].to_numpy(), base
    )


def dataset_row(
    spark: SparkSession,
    name: str,
    *,
    methods: Sequence[str] | None = None,
    method_params: dict | None = None,
    **prep_kw,
) -> dict[str, float | str]:
    """One Table-V row: R^2_S, R^2_H and the RMS of every method."""
    methods = list(methods or METHODS)
    exp = prepare_experiment(spark, name, **prep_kw)
    row: dict[str, float | str] = {"Dataset": name}
    results: dict[str, pd.DataFrame | None] = {}
    try:
        for m in methods:
            params = METHODS[m].params((method_params or {}).get(m))
            results[m] = impute_with(spark, exp, m, **params)
        # R^2_S from kNN imputations, R^2_H from GLR imputations (VI-A2)
        knn_res = results.get("kNN")
        if knn_res is None:
            knn_res = impute_with(spark, exp, "kNN", k=DEFAULT_K)
        glr_res = results.get("GLR")
        if glr_res is None:
            glr_res = impute_with(spark, exp, "GLR")
        row["R2_S"] = round(_r2(exp, knn_res), 2)
        row["R2_H"] = round(_r2(exp, glr_res), 2)
        for m in methods:
            row[m] = round(score(exp, results[m]), 4) if results[m] is not None else "-"
    finally:
        exp.complete.unpersist()
    return row


def table_v(
    spark: SparkSession,
    *,
    scale: str = "full",
    datasets: Sequence[str] | None = None,
    methods: Sequence[str] | None = None,
    frac: float = 0.05,
    seed: int = 0,
) -> pd.DataFrame:
    """Imputation RMS of all methods over the Table-V datasets."""
    sizes = SCALES[scale]
    rows = []
    for name in datasets or TABLE_V_DATASETS:
        rows.append(
            dataset_row(
                spark, name, methods=methods, n=sizes[name], frac=frac, seed=seed
            )
        )
    return pd.DataFrame(rows)


def table_vi(
    spark: SparkSession,
    *,
    scale: str = "full",
    count: int = 100,
    methods: Sequence[str] | None = None,
    seed: int = 0,
) -> pd.DataFrame:
    """Per-missing-attribute RMS over ASF (Table VI)."""
    n = SCALES[scale]["ASF"]
    count = min(count, max(2, n // 5))
    rows = []
    for a in attributes("ASF"):
        row = dataset_row(
            spark,
            "ASF",
            methods=methods,
            n=n,
            frac=None,
            count=count,
            fixed_attr=a,
            seed=seed,
        )
        row["Dataset"] = a
        rows.append(row)
    return pd.DataFrame(rows).rename(columns={"Dataset": "A_x"})
