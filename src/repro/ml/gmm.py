"""Gaussian mixture model fitted with EM (substrate for GMM [40]).

Full-covariance mixture; covariances are regularized by ``reg_covar``
on the diagonal for numerical stability. Responsibilities of new points
drive the GMM baseline's cluster-average imputation. Deterministic in
``seed`` (k-means initialization).
"""
from __future__ import annotations

import numpy as np

from .kmeans import KMeans


class GaussianMixture:
    def __init__(
        self,
        c: int,
        *,
        max_iter: int = 100,
        tol: float = 1e-6,
        reg_covar: float = 1e-6,
        seed: int = 0,
    ):
        self.c = c
        self.max_iter = max_iter
        self.tol = tol
        self.reg_covar = reg_covar
        self.seed = seed
        self.weights_: np.ndarray | None = None
        self.means_: np.ndarray | None = None
        self.covs_: np.ndarray | None = None

    def _log_prob(self, X: np.ndarray) -> np.ndarray:
        """(n, c) log N(x | mu_c, Sigma_c) + log w_c."""
        n, p = X.shape
        out = np.empty((n, self.c))
        for ci in range(self.c):
            L = np.linalg.cholesky(self.covs_[ci])
            diff = X - self.means_[ci]
            sol = np.linalg.solve(L, diff.T)
            maha = (sol**2).sum(axis=0)
            logdet = 2.0 * np.log(np.diag(L)).sum()
            out[:, ci] = (
                -0.5 * (p * np.log(2 * np.pi) + logdet + maha)
                + np.log(self.weights_[ci])
            )
        return out

    def fit(self, X: np.ndarray) -> "GaussianMixture":
        X = np.asarray(X, dtype=np.float64)
        n, p = X.shape
        self.c = min(self.c, n)
        lab = KMeans(self.c, seed=self.seed).fit_predict(X)
        self.weights_ = np.full(self.c, 1.0 / self.c)
        self.means_ = np.stack(
            [X[lab == ci].mean(0) if (lab == ci).any() else X.mean(0) for ci in range(self.c)]
        )
        base = np.cov(X.T).reshape(p, p) if n > 1 else np.zeros((p, p))  # np.cov(1 row) is NaN
        self.covs_ = np.stack([base + self.reg_covar * np.eye(p) for _ in range(self.c)])
        prev_ll = -np.inf
        for _ in range(self.max_iter):
            lp = self._log_prob(X)
            mx = lp.max(axis=1, keepdims=True)
            lse = mx[:, 0] + np.log(np.exp(lp - mx).sum(axis=1))
            ll = lse.mean()
            R = np.exp(lp - lse[:, None])  # responsibilities
            nk = R.sum(axis=0) + 1e-12
            self.weights_ = nk / n
            self.means_ = (R.T @ X) / nk[:, None]
            for ci in range(self.c):
                diff = X - self.means_[ci]
                self.covs_[ci] = (
                    (R[:, ci][:, None] * diff).T @ diff
                ) / nk[ci] + self.reg_covar * np.eye(p)
            if abs(ll - prev_ll) < self.tol:
                break
            prev_ll = ll
        self.loglik_ = prev_ll
        return self

    def responsibilities(self, X: np.ndarray) -> np.ndarray:
        """(n, c) posterior cluster probabilities for new points."""
        lp = self._log_prob(np.atleast_2d(np.asarray(X, dtype=np.float64)))
        mx = lp.max(axis=1, keepdims=True)
        e = np.exp(lp - mx)
        return e / e.sum(axis=1, keepdims=True)
