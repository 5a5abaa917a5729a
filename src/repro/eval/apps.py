"""Applications with imputation (Table VII).

Clustering: k-means labels on the original complete data serve as
truth; after masking, each imputation method fills the holes and
k-means is re-run — purity against the truth labels. The "Missing"
column discards incomplete tuples and clusters the rest (the paper's
discard baseline).

Classification: MAM / HEP carry real (MCAR) missing values with no
ground truth; 5-fold cross-validated ibk (kNN classifier with
Weka-style missing-value distances) measures weighted F1 with and
without imputation.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..baselines import METHODS
from ..datasets import attributes, generate, inject_missing
from ..datasets.generators import ID
from ..ml.kmeans import KMeans
from ..ml.knn_classifier import IBk
from . import metrics


def fill_masked(
    spark: SparkSession,
    masked: pd.DataFrame,
    attrs: Sequence[str],
    method: str,
    **params,
) -> pd.DataFrame | None:
    """Impute every NaN cell of ``masked[attrs]`` with ``method``.

    Missing attributes are handled one by one (Section II): for each
    incomplete attribute A_x the fully-complete rows form r; query rows
    missing A_x have any *other* missing F values temporarily prefilled
    with the complete-relation column mean (multi-missing tuples).
    Returns the filled frame, or None if the method is unavailable
    (needs >=2 complete attributes).
    """
    spec = METHODS[method]
    attrs = list(attrs)
    filled = masked.copy()
    complete_pdf = masked[~masked[attrs].isna().any(axis=1)]
    if complete_pdf.empty:
        raise ValueError("no complete tuples to learn from")
    means = complete_pdf[attrs].mean()
    r_df = spark.createDataFrame(complete_pdf[[ID] + attrs]).cache()
    try:
        for a in attrs:
            miss = masked[masked[a].isna()]
            if miss.empty:
                continue
            F = [c for c in attrs if c != a]
            if spec.requires_multivariate and len(F) < 2:
                return None
            queries = miss[[ID] + F].fillna(means[F].to_dict())
            out = spec.fn(
                spark, r_df, spark.createDataFrame(queries), F, a, **params
            ).toPandas()
            vals = dict(zip(out[ID], out["imputed"]))
            idx = filled[ID].isin(vals)
            filled.loc[idx, a] = filled.loc[idx, ID].map(vals)
    finally:
        r_df.unpersist()
    return filled


def _standardize(X: np.ndarray, ref: np.ndarray | None = None) -> np.ndarray:
    ref = X if ref is None else ref
    mu, sd = ref.mean(axis=0), ref.std(axis=0)
    sd[sd == 0] = 1.0
    return (X - mu) / sd


def clustering_app(
    spark: SparkSession,
    name: str,
    *,
    methods: Sequence[str] | None = None,
    n: int | None = None,
    n_clusters: int = 4,
    frac: float = 0.3,
    seed: int = 0,
    method_params: dict | None = None,
) -> dict[str, float | str]:
    """One clustering row of Table VII: purity per method + Missing."""
    attrs = attributes(name)
    pdf = generate(name, n=n)
    X = pdf[attrs].to_numpy(np.float64)
    Xs = _standardize(X)
    truth_labels = KMeans(n_clusters, seed=seed).fit_predict(Xs)
    masked, _cells = inject_missing(pdf, frac=frac, seed=seed, attrs=attrs)

    row: dict[str, float | str] = {"Dataset": name}
    keep = (~masked[attrs].isna().any(axis=1)).to_numpy()
    lab = KMeans(n_clusters, seed=seed).fit_predict(_standardize(X[keep]))
    row["Missing"] = round(metrics.purity(truth_labels[keep], lab), 3)

    for m in methods or list(METHODS):
        params = METHODS[m].params((method_params or {}).get(m))
        filled = fill_masked(spark, masked, attrs, m, **params)
        if filled is None:
            row[m] = "-"
            continue
        # scale with the original data's moments so geometry matches the
        # truth clustering run
        Xf = _standardize(filled[attrs].to_numpy(np.float64), ref=X)
        lab = KMeans(n_clusters, seed=seed).fit_predict(Xf)
        row[m] = round(metrics.purity(truth_labels, lab), 3)
    return row


def _cv_f1(pdf: pd.DataFrame, attrs: Sequence[str], *, k: int = 5, folds: int = 5, seed: int = 0) -> float:
    """5-fold cross-validated weighted F1 of the ibk classifier."""
    X = pdf[list(attrs)].to_numpy(np.float64)
    y = pdf["label"].to_numpy()
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(y))
    scores = []
    for f in range(folds):
        test = order[f::folds]
        train = np.setdiff1d(order, test)
        clf = IBk(k=k).fit(X[train], y[train])
        scores.append(metrics.f1_weighted(y[test], clf.predict(X[test])))
    return float(np.mean(scores))


def classification_app(
    spark: SparkSession,
    name: str,
    *,
    methods: Sequence[str] | None = None,
    n: int | None = None,
    seed: int = 0,
    method_params: dict | None = None,
) -> dict[str, float | str]:
    """One classification row of Table VII: weighted F1 per method."""
    attrs = attributes(name)
    pdf = generate(name, n=n)
    row: dict[str, float | str] = {"Dataset": name}
    row["Missing"] = round(_cv_f1(pdf, attrs, seed=seed), 3)
    for m in methods or list(METHODS):
        params = METHODS[m].params((method_params or {}).get(m))
        filled = fill_masked(spark, pdf, attrs, m, **params)
        if filled is None:
            row[m] = "-"
            continue
        row[m] = round(_cv_f1(filled, attrs, seed=seed), 3)
    return row


def table_vii(
    spark: SparkSession,
    *,
    scale_sizes: dict[str, int],
    methods: Sequence[str] | None = None,
    seed: int = 0,
) -> pd.DataFrame:
    """Assemble Table VII: clustering purity (ASF, CA) then F1 (MAM, HEP)."""
    rows = [
        clustering_app(
            spark, "ASF", methods=methods, n=scale_sizes["ASF"], seed=seed
        ),
        clustering_app(spark, "CA", methods=methods, n=scale_sizes["CA"], seed=seed),
        classification_app(
            spark, "MAM", methods=methods, n=scale_sizes["MAM"], seed=seed
        ),
        classification_app(
            spark, "HEP", methods=methods, n=scale_sizes["HEP"], seed=seed
        ),
    ]
    return pd.DataFrame(rows)
