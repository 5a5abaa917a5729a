"""Matrix-factorization / tuple-regression baselines: SVD [38], ILLS [8].

Both need at least 2 complete attributes to be meaningful; the harness
reports them as unavailable ("-") on the 2-attribute SN dataset exactly
as the paper does.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from ..core.nn import Relation, knn_blocked
from ..ml.svd_impute import SVDImputer


def svd_impute(
    spark: SparkSession,
    rel: Relation,
    ids: np.ndarray,
    Q: np.ndarray,
    *,
    q: int | None = None,
) -> np.ndarray:
    """SVDimpute: project onto the q most significant eigengenes of the
    complete relation and reconstruct the missing coordinate."""
    p = rel.X.shape[1]
    M = np.hstack([rel.X, rel.y[:, None]])  # attribute order: F..., A_x
    return SVDImputer(q).fit(M).impute(Q, np.arange(p), p)


def ills_impute(
    spark: SparkSession,
    rel: Relation,
    ids: np.ndarray,
    Q: np.ndarray,
    *,
    k: int = 10,
    iterations: int = 3,
) -> np.ndarray:
    """Iterated Local Least Squares: express t_x[F] as a least-squares
    combination of its k neighbors' F-vectors and apply the same
    combination to their A_x values; iterate with distances refined over
    the full schema using the current imputations.
    """
    full = Relation(rel.ids, np.hstack([rel.X, rel.y[:, None]]), rel.y)
    est = None
    for _ in range(max(1, iterations)):
        if est is None:
            idx, _ = knn_blocked(rel, Q, k)
        else:  # refine neighbors using the imputed full tuples
            idx, _ = knn_blocked(full, np.hstack([Q, est[:, None]]), k)
        est = np.empty(len(Q))
        for qi in range(len(Q)):
            N = rel.X[idx[qi]]  # (k, |F|)
            w, *_ = np.linalg.lstsq(N.T, Q[qi], rcond=None)
            est[qi] = float(w @ rel.y[idx[qi]])
    return est
