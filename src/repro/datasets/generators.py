"""Synthetic equivalents of the paper's 9 evaluation datasets.

The real datasets (UCI / KEEL / Siemens) are not downloadable offline;
each generator reproduces the published shape (|r| x |R|, Table IV) and
— the property that decides which imputation family wins — the
sparsity/heterogeneity regime (R^2_S / R^2_H, Table V):

* ASF  — heterogeneous: 4 latent clusters with *different* linear maps,
         attribute scales spread widely (matches Table VI's per-attribute
         RMS spread).
* CCS  — moderate nonlinearity + interactions, medium noise.
* CCPP — dense, near-linear, low noise (both kNN and regression good).
* SN   — 2 attributes, dense, strongly nonlinear: kNN good, GLR useless.
* PHASE— one clear global linear model, tiny noise.
* CA   — 9 attributes, strong global linear signal over widely spread
         features: neighbors are far (sparse) yet regression fits.
* DA   — two mixed linear regimes, medium noise.
* MAM  — 2-class labelled, class-shifted features, real (MCAR) missing.
* HEP  — 2-class labelled, 19 attributes, 200 rows, real missing.

All generators are deterministic in ``seed``; ``n`` overrides the paper
row count for scaled-down tests/benchmarks.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd

ID = "row_id"


def _attrs(m: int) -> list[str]:
    return [f"A{j}" for j in range(1, m + 1)]


def _frame(A: np.ndarray) -> pd.DataFrame:
    pdf = pd.DataFrame(A, columns=_attrs(A.shape[1]))
    pdf.insert(0, ID, np.arange(len(pdf), dtype=np.int64))
    return pdf


def asf(n: int = 1500, seed: int = 11) -> pd.DataFrame:
    """Airfoil-self-noise-like: 4 clusters whose linear maps share a base
    (so a global regression partially works, R^2_H ~ .7) plus
    cluster-specific deviations (so it is still heterogeneous)."""
    rng = np.random.default_rng(seed)
    n_clusters, d = 4, 2
    c = rng.integers(0, n_clusters, n)
    centers = rng.normal(scale=1.8, size=(n_clusters, d))
    z = centers[c] + rng.normal(scale=0.8, size=(n, d))
    W_base = rng.normal(scale=1.0, size=(d, 6))
    W = W_base[None] + rng.normal(scale=0.8, size=(n_clusters, d, 6))
    b = rng.normal(scale=0.6, size=(n_clusters, 6))
    A = np.einsum("nd,ndm->nm", z, W[c]) + b[c]
    A += rng.normal(scale=0.06, size=A.shape)
    scales = np.array([250.0, 25.0, 5.0, 18.0, 70.0, 4.0])
    offs = np.array([1200.0, 40.0, 10.0, 30.0, 120.0, 12.0])
    return _frame(A * scales + offs)


def ccs(n: int = 1000, seed: int = 13) -> pd.DataFrame:
    """Concrete-strength-like: nonlinear + interactions, medium noise."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 3))
    A = np.empty((n, 6))
    A[:, 0] = 40 + 12 * z[:, 0] + 2 * z[:, 1] ** 2
    A[:, 1] = 20 + 8 * z[:, 1] - 3 * z[:, 0] * z[:, 1]
    A[:, 2] = 60 + 10 * z[:, 2] + 4 * np.tanh(z[:, 0])
    A[:, 3] = 35 + 6 * z[:, 0] + 6 * z[:, 2] + z[:, 1] ** 2
    A[:, 4] = 50 + 9 * (z[:, 1] + 0.5 * z[:, 2]) ** 2 / 2
    A[:, 5] = 30 + 7 * z[:, 0] - 5 * z[:, 2] + 2 * np.sin(2 * z[:, 1])
    A += rng.normal(scale=3.0, size=A.shape)
    return _frame(A)


def ccpp(n: int = 10000, seed: int = 17) -> pd.DataFrame:
    """Power-plant-like: dense near-linear, low noise."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 2))
    W = np.random.default_rng(1717).normal(size=(2, 5))
    A = z @ W * 12 + np.array([20.0, 55.0, 1013.0, 70.0, 450.0])
    # mild curvature on every attribute: the global regression is good
    # but a hair worse than dense nearest neighbors (paper: 4.58 vs 3.98)
    curv = np.random.default_rng(1718).normal(scale=9.0, size=5)
    A += curv * (z[:, [0]] * z[:, [1]])
    A += rng.normal(scale=0.5, size=A.shape)
    return _frame(A)


def sn(n: int = 100000, seed: int = 19) -> pd.DataFrame:
    """2-attribute dense nonlinear: kNN great, global regression useless."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3, 3, n)
    # V-shaped relation: linear correlation ~ 0 so the global regression
    # explains nothing (R^2_H ~ 0); dense neighbors track it perfectly in
    # the x->y direction, and y's variance dominates the pooled R^2_S.
    y = 4.0 * np.abs(x) + 0.3 * np.sin(2.0 * x) + rng.normal(scale=0.05, size=n)
    return _frame(np.column_stack([x, y]))


def phase(n: int = 10000, seed: int = 23) -> pd.DataFrame:
    """Siemens-3-phase-power-like: one clear global linear model."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 3))
    W = np.random.default_rng(2323).normal(size=(3, 4))
    A = z @ W * 30 + np.array([230.0, 231.0, 229.0, 690.0])
    A += rng.normal(scale=1.6, size=A.shape)
    return _frame(A)


def ca(n: int = 20000, seed: int = 29) -> pd.DataFrame:
    """High-dimensional sparse: 9 widely-spread attributes, strong global
    linear structure (latent rank 8) — neighbors far apart, GLR fits."""
    rng = np.random.default_rng(seed)
    # Eight mutually independent heavy-tailed attributes: at 20k rows in
    # 8 dimensions nearest neighbors sit a substantial fraction of the
    # data scale apart (curse of dimensionality), and the heavy tails
    # put most of the pooled sum-of-squares on tail tuples whose
    # neighbors all lie toward the bulk — so neighbor-value imputation
    # degrades badly (low R^2_S). The 9th attribute is an exact linear
    # combination, so the global regression extrapolates fine
    # (R^2_H ~ .9+). See EXPERIMENTS.md for the residual gap to the
    # paper's extreme R^2_S = 0.03.
    base = rng.standard_t(df=3.0, size=(n, 8)) * 1.2
    coef = np.random.default_rng(2929).uniform(0.4, 1.0, 8) * np.sign(
        np.random.default_rng(2930).normal(size=8)
    )
    y = base @ coef + rng.normal(scale=0.35, size=n)
    A = np.hstack([base, y[:, None]])
    return _frame(A + np.linspace(5, 45, 9))


def da(n: int = 7000, seed: int = 31) -> pd.DataFrame:
    """Three mixed linear regimes, medium noise. (Three clusters: with
    only two, a single 6-parameter global map can emulate both local
    affine maps and the heterogeneity would not bite.)"""
    rng = np.random.default_rng(seed)
    n_clusters = 3
    c = rng.integers(0, n_clusters, n)
    centers = np.array([[-1.6, -1.0], [1.6, 1.2], [0.2, 2.2]])
    z = centers[c] + rng.normal(scale=0.9, size=(n, 2))
    g = np.random.default_rng(3131)
    W_base = g.normal(size=(2, 6))
    W = W_base[None] + g.normal(scale=0.9, size=(n_clusters, 2, 6))
    b = np.random.default_rng(3132).normal(scale=0.5, size=(n_clusters, 6))
    A = np.einsum("nd,ndm->nm", z, W[c]) + b[c]
    A += rng.normal(scale=0.4, size=A.shape)
    return _frame(A * 14 + 60)


def _classed(
    n: int, m: int, seed: int, *, shift: float, miss_rate: float, noise: float
) -> pd.DataFrame:
    """Labelled 2-class data with MCAR missing cells (no truth kept)."""
    rng = np.random.default_rng(seed)
    label = rng.integers(0, 2, n)
    d = min(3, m)
    z = rng.normal(size=(n, d)) + shift * (label[:, None] - 0.5) * np.ones(d)
    W = np.random.default_rng(seed * 7 + 1).normal(size=(d, m))
    A = z @ W * 10 + 50 + rng.normal(scale=noise, size=(n, m))
    mask = rng.random((n, m)) < miss_rate
    # never blank out a full tuple
    full = mask.all(axis=1)
    mask[full, 0] = False
    A[mask] = np.nan
    pdf = _frame(A)
    pdf["label"] = label
    return pdf


def mam(n: int = 1000, seed: int = 37) -> pd.DataFrame:
    """Mammographic-mass-like: 1k x 5, 2 classes, real missing values."""
    return _classed(n, 5, seed, shift=1.6, miss_rate=0.10, noise=4.0)


def hep(n: int = 200, seed: int = 41) -> pd.DataFrame:
    """Hepatitis-like: 200 x 19, 2 classes, real missing values."""
    return _classed(n, 19, seed, shift=1.8, miss_rate=0.06, noise=5.0)


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    n: int
    m: int
    fn: Callable[..., pd.DataFrame]
    labelled: bool = False


DATASETS: dict[str, DatasetSpec] = {
    s.name: s
    for s in [
        DatasetSpec("ASF", 1500, 6, asf),
        DatasetSpec("CCS", 1000, 6, ccs),
        DatasetSpec("CCPP", 10000, 5, ccpp),
        DatasetSpec("SN", 100000, 2, sn),
        DatasetSpec("PHASE", 10000, 4, phase),
        DatasetSpec("CA", 20000, 9, ca),
        DatasetSpec("DA", 7000, 6, da),
        DatasetSpec("MAM", 1000, 5, mam, labelled=True),
        DatasetSpec("HEP", 200, 19, hep, labelled=True),
    ]
}


def generate(name: str, *, n: int | None = None, seed: int | None = None) -> pd.DataFrame:
    """Generate a dataset by name at its paper size (or ``n`` rows)."""
    spec = DATASETS[name]
    kwargs: dict = {}
    if n is not None:
        kwargs["n"] = n
    if seed is not None:
        kwargs["seed"] = seed
    return spec.fn(**kwargs)


def attributes(name: str) -> list[str]:
    return _attrs(DATASETS[name].m)

