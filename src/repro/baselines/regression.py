"""Attribute-model baselines: GLR [23], LOESS [10], BLR [29] (mice.norm),
ERACER [25], PMM [19] (mice.pmm).

Each fits on the collected r and imputes the queries on the driver. GLR
is one ridge fit over all of r (Formula 4, the l = n case of
Proposition 2) and predicts (1, t_x[F]) phi.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from ..core import linalg
from ..core.nn import KNN_BLOCK, Relation, argsort_rows, knn_blocked, self_knn


def glr_impute(
    spark: SparkSession,
    rel: Relation,
    ids: np.ndarray,
    Q: np.ndarray,
    *,
    alpha: float = linalg.DEFAULT_ALPHA,
) -> np.ndarray:
    """Global linear (ridge) regression imputation (Formula 4)."""
    return linalg.design(Q) @ linalg.ridge_fit(rel.X, rel.y, alpha)


def loess_impute(
    spark: SparkSession,
    rel: Relation,
    ids: np.ndarray,
    Q: np.ndarray,
    *,
    span: float = 0.3,
    alpha: float = linalg.DEFAULT_ALPHA,
) -> np.ndarray:
    """Local regression: tricube-weighted linear fit over the span*n
    nearest neighbors of each incomplete tuple, evaluated at t_x."""
    n_loc = min(rel.n, max(rel.X.shape[1] + 2, int(np.ceil(span * rel.n))))
    out = np.empty(len(Q))
    for qi, (nb, d) in enumerate(zip(*knn_blocked(rel, Q, n_loc))):
        dmax = d[-1] if d[-1] > 0 else 1.0
        w = (1.0 - np.minimum(d / dmax, 1.0) ** 3) ** 3
        w = np.maximum(w, 1e-9)
        Xd = linalg.design(rel.X[nb])
        W = w[:, None]
        U = Xd.T @ (W * Xd)
        V = Xd.T @ (w * rel.y[nb])
        phi = linalg.ridge_solve(U, V, alpha)
        out[qi] = (linalg.design(Q[qi : qi + 1]) @ phi)[0]
    return out


def _bayes_draw(rel, alpha: float, seed: int) -> tuple[np.ndarray, float]:
    """Posterior draw (beta*, sigma*) a la mice.norm's .norm.draw."""
    Xd = linalg.design(rel.X)
    n, m = Xd.shape
    U = Xd.T @ Xd + alpha * np.eye(m)
    beta_hat = np.linalg.solve(U, Xd.T @ rel.y)
    resid = rel.y - Xd @ beta_hat
    dof = max(n - m, 1)
    rng = np.random.default_rng(seed)
    sigma2 = float(resid @ resid) / float(rng.chisquare(dof))
    cov = np.linalg.inv(U) * sigma2
    Lc = np.linalg.cholesky(cov + 1e-12 * np.eye(m))
    beta_star = beta_hat + Lc @ rng.standard_normal(m)
    return beta_star, float(np.sqrt(sigma2))


def blr_impute(
    spark: SparkSession,
    rel: Relation,
    ids: np.ndarray,
    Q: np.ndarray,
    *,
    alpha: float = linalg.DEFAULT_ALPHA,
    seed: int = 0,
) -> np.ndarray:
    """Bayesian linear regression (mice.norm): posterior-draw parameters,
    predict, add a residual-scale noise draw per imputed value.

    The per-value noise is seeded by row id so the result is
    deterministic under any partitioning.
    """
    beta_star, sigma = _bayes_draw(rel, alpha, seed)
    noise = np.array([np.random.default_rng(seed + 7919 * int(i)).standard_normal() for i in ids])
    return linalg.design(Q) @ beta_star + sigma * noise


def pmm_impute(
    spark: SparkSession,
    rel: Relation,
    ids: np.ndarray,
    Q: np.ndarray,
    *,
    donors: int = 5,
    alpha: float = linalg.DEFAULT_ALPHA,
    seed: int = 0,
) -> np.ndarray:
    """Predictive mean matching (mice.pmm): predict y-hat for queries with
    a posterior-draw regression and for the complete tuples with the OLS
    fit; impute a randomly chosen *observed* value among the ``donors``
    complete tuples whose predictions are closest to the query's.

    Each draw is seeded by row id, so the result is deterministic under
    any partitioning. The donors are ranked by (gap, position), KNN_BLOCK
    queries at a time."""
    beta_star, _ = _bayes_draw(rel, alpha, seed)
    Xd = linalg.design(rel.X)
    U = Xd.T @ Xd + alpha * np.eye(Xd.shape[1])
    beta_hat = np.linalg.solve(U, Xd.T @ rel.y)
    yhat_obs = Xd @ beta_hat
    yq = linalg.design(Q) @ beta_star
    out = np.empty(len(Q))
    for s in range(0, len(Q), KNN_BLOCK):
        cand = argsort_rows(np.abs(yhat_obs - yq[s:s + KNN_BLOCK, None]), upto=donors)
        for qi, c in zip(range(s, len(Q)), cand):
            rng = np.random.default_rng(seed + 104729 * int(ids[qi]))
            out[qi] = rel.y[int(rng.choice(c))]
    return out


def eracer_impute(
    spark: SparkSession,
    rel: Relation,
    ids: np.ndarray,
    Q: np.ndarray,
    *,
    k: int = 10,
    alpha: float = linalg.DEFAULT_ALPHA,
) -> np.ndarray:
    """ERACER-style relational regression: A_x modeled linearly from the
    tuple's own F *and* its neighbors' aggregated attributes (means of
    F and of A_x over the k nearest complete neighbors) — the g+h
    combination of Figure 2. Simplification of the full ERACER graphical
    model documented in DESIGN.md."""
    if rel.n < 2:
        raise ValueError(f"ERACER needs at least 2 complete tuples, r has {rel.n}")
    # training features: neighbors exclude self so y never leaks directly
    idx = self_knn(rel, k)
    nb_F = rel.X[idx].mean(axis=1)
    nb_y = rel.y[idx].mean(axis=1)
    feats = np.hstack([rel.X, nb_F, nb_y[:, None]])
    phi = linalg.ridge_fit(feats, rel.y, alpha)
    qidx = knn_blocked(rel, Q, idx.shape[1])[0]
    qf = np.hstack([Q, rel.X[qidx].mean(axis=1), rel.y[qidx].mean(axis=1)[:, None]])
    return linalg.design(qf) @ phi
