"""Ridge-regression linear algebra for IIM.

Implements the paper's Formulas 5-7 (ridge over a neighbor set), the
single-neighbor rule of Section III-A2, and the incremental U/V
computation of Proposition 3 (Formulas 15-21), which turns the cost of
learning the model at neighbor count ``l+h`` from O(m^2 (l+h)) into
O(m^2 h) given the model state at ``l``. :func:`prefix_grams` runs
that computation for a block of tuples at once and
:func:`candidate_params` solves their models (the adaptive sweep's
kernel); :func:`prefix_params` is its one-tuple form.

All functions are pure numpy so they can run inside Spark python
workers (the adaptive sweep's RDD map) as well as on the driver.
"""
from __future__ import annotations

import numpy as np

#: Default ridge regularizer. Example 2/6 in the paper print parameters
#: that match plain OLS to two decimals, so alpha is effectively ~0; a
#: tiny positive value keeps U + alpha*E invertible when neighbors are
#: collinear (e.g. duplicated tuples).
DEFAULT_ALPHA = 1e-6


def design(X: np.ndarray) -> np.ndarray:
    """Prepend the intercept column of ones (Formula 7's X matrix)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    return np.hstack([np.ones((X.shape[0], 1)), X])


def ridge_solve(U: np.ndarray, V: np.ndarray, alpha: float = DEFAULT_ALPHA) -> np.ndarray:
    """phi = (U + alpha*E)^-1 V  (Formula 19). U = X^T X, V = X^T Y."""
    m = U.shape[0]
    return np.linalg.solve(U + alpha * np.eye(m), V)


def ridge_fit(X: np.ndarray, y: np.ndarray, alpha: float = DEFAULT_ALPHA) -> np.ndarray:
    """Fit ridge regression y ~ (1, X) phi (Formula 5). Returns phi (m,)."""
    Xd = design(X)
    return ridge_solve(Xd.T @ Xd, Xd.T @ np.asarray(y, dtype=np.float64), alpha)


def single_neighbor_phi(y_self: float, m: int) -> np.ndarray:
    """The l=1 rule (Section III-A2): phi[C] = t_i[A_m], slopes = 0."""
    phi = np.zeros(m, dtype=np.float64)
    phi[0] = float(y_self)
    return phi


def make_grid(n: int, h: int = 1, l_max: int | None = None) -> np.ndarray:
    """Candidate neighbor counts {1, 1+h, 1+2h, ...} <= min(n, l_max).

    Stepping h trades accuracy for speed (Section V-A2). The grid always
    contains 1 and the cap, so the kNN-like and most-global candidates
    are both available to the adaptive selector.
    """
    if n < 1:
        raise ValueError("need at least one tuple")
    cap = n if l_max is None else min(n, l_max)
    if h < 1:
        raise ValueError("stepping h must be >= 1")
    grid = np.arange(1, cap + 1, h)
    if grid[-1] != cap:
        grid = np.append(grid, cap)
    return grid.astype(np.int64)


def augment(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rows ``[1, x, y]``: the design row of Formula 7 with its target, so
    one Gram matrix Z^T Z holds both U = X^T X and V = X^T Y."""
    return np.concatenate([np.ones(y.shape + (1,)), X, y[..., None]], axis=-1)


def prefix_grams(Z: np.ndarray, order: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Gram matrices Z^T Z of every tuple's first l neighbors, l in
    ``grid``, for a block of tuples at once: a (B, |grid|, m+1, m+1)
    array whose [:m, :m] block is U and [:m, m] column is V (Formulas
    15-16).

    ``Z`` holds :func:`augment` rows; ``order[b]`` lists the rows of Z
    that are tuple b's neighbors, nearest (itself) first. The neighbors
    between consecutive grid points form a segment; one batched matmul
    gives every segment's Gram matrix, and a cumulative sum over segments
    adds each increment to the previous U and V (Proposition 3, Formulas
    20-21: each costs O(m^2 h), constant in l). Segments are zero-padded
    to equal length, which adds exact zeros, and gathered with one
    ``np.take`` (the same array as fancy indexing, about 3x faster).
    Every step is per tuple, so a tuple's Grams do not depend on the rest
    of its block.
    """
    grid = np.asarray(grid, dtype=np.int64)
    bounds = np.concatenate([[0], grid])
    seg = bounds[:-1, None] + np.arange(np.diff(bounds).max())  # (S, L)
    seg[seg >= bounds[1:, None]] = grid[-1]  # padding -> the zero row below
    padded = np.concatenate([order[:, : grid[-1]], np.full((len(order), 1), len(Z))], axis=1)
    Zs = np.take(np.concatenate([Z, np.zeros((1, Z.shape[1]))]), padded[:, seg], axis=0)  # (B, S, L, m+1)
    return np.cumsum(Zs.swapaxes(-1, -2) @ Zs, axis=1)


def candidate_params(
    Z: np.ndarray, order: np.ndarray, grid: np.ndarray, alpha: float = DEFAULT_ALPHA
) -> np.ndarray:
    """Candidate models phi^(l), l in ``grid``, of a block of tuples at once:
    U and V at every grid point from :func:`prefix_grams`, then one
    batched solve (Formula 19). Returns a (B, |grid|, m) array; grid
    point l=1 uses the single-neighbor rule.
    """
    m = Z.shape[1] - 1
    G = prefix_grams(Z, order, grid)
    phis = np.linalg.solve(G[..., :m, :m] + alpha * np.eye(m), G[..., :m, m:])[..., 0]
    if grid[0] == 1:
        phis[:, 0] = 0.0
        phis[:, 0, 0] = Z[order[:, 0], m]
    return phis


def prefix_params(
    X_sorted: np.ndarray,
    y_sorted: np.ndarray,
    grid: np.ndarray,
    alpha: float = DEFAULT_ALPHA,
) -> np.ndarray:
    """Candidate models phi^(l) for every l in ``grid`` — incremental.

    ``X_sorted``/``y_sorted`` are a tuple's neighbors ordered by
    ascending distance (self first), optionally with a leading block
    axis of tuples: (B, n, p) and (B, n). U/V at a grid point are those
    of the previous point plus the delta rows (Proposition 3), computed
    by :func:`candidate_params`, so the whole sweep costs
    O(m^2 n + |grid| m^3) instead of O(sum_l m^2 l). Returns a
    (|grid|, m) parameter matrix, or (B, |grid|, m) for a block.
    """
    X = np.asarray(X_sorted, dtype=np.float64)
    y = np.asarray(y_sorted, dtype=np.float64)
    if X.ndim == y.ndim:  # one feature
        X = X[..., None]
    grid = np.asarray(grid, dtype=np.int64)
    n = y.shape[-1]
    if grid[-1] > n:
        raise ValueError(f"grid max {grid[-1]} exceeds n={n}")
    cap = int(grid[-1])
    Z = augment(X[..., :cap, :], y[..., :cap]).reshape(-1, X.shape[-1] + 2)
    phis = candidate_params(Z, np.arange(len(Z)).reshape(-1, cap), grid, alpha)
    return phis if y.ndim == 2 else phis[0]


def prefix_params_scratch(
    X_sorted: np.ndarray,
    y_sorted: np.ndarray,
    grid: np.ndarray,
    alpha: float = DEFAULT_ALPHA,
) -> np.ndarray:
    """Same as :func:`prefix_params` but recomputing U/V from scratch at
    every grid point (the straightforward Algorithm 1 loop). Kept as the
    baseline for Table III's from-scratch column and as a correctness
    cross-check for the incremental path.
    """
    X_sorted = np.asarray(X_sorted, dtype=np.float64)
    if X_sorted.ndim == 1:
        X_sorted = X_sorted[:, None]
    y_sorted = np.asarray(y_sorted, dtype=np.float64)
    m = X_sorted.shape[1] + 1
    out = np.empty((len(grid), m))
    for g, l in enumerate(np.asarray(grid, dtype=np.int64)):
        if l == 1:
            out[g] = single_neighbor_phi(y_sorted[0], m)
        else:
            out[g] = ridge_fit(X_sorted[:l], y_sorted[:l], alpha)
    return out
