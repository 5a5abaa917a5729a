"""Propositions 1 and 2: IIM subsumes kNN (l=1, uniform weights) and
GLR (l=n) exactly."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines import METHODS
from repro.core import sql_engine


def _data(spark, n, p, seed, nq=8):
    rng = np.random.default_rng(seed)
    cols = [f"A{j}" for j in range(1, p + 2)]
    pdf = pd.DataFrame(
        rng.normal(size=(n, p + 1)) * rng.uniform(0.5, 3.0, p + 1), columns=cols
    )
    pdf.insert(0, "row_id", np.arange(n, dtype=np.int64))
    q = pd.DataFrame(rng.normal(size=(nq, p)), columns=cols[:-1])
    q.insert(0, "row_id", np.arange(1000, 1000 + nq, dtype=np.int64))
    return (
        spark.createDataFrame(pdf),
        spark.createDataFrame(q),
        cols[:-1],
        cols[-1],
    )


@pytest.mark.parametrize("seed,n,p,k", [(0, 25, 2, 3), (1, 40, 3, 5), (2, 15, 1, 4)])
def test_proposition1_subsumes_knn(spark, seed, n, p, k):
    """l=1 + uniform candidate weights == kNN imputation (Formula 2)."""
    r, q, F, A_x = _data(spark, n, p, seed)
    got = METHODS["IIM"](spark, r, q, F, A_x, k=k, l=1, weighting="uniform")
    ref = METHODS["kNN"](spark, r, q, F, A_x, k=k)
    np.testing.assert_allclose(
        got["imputed"].to_numpy(), ref["imputed"].to_numpy(), atol=1e-9
    )


@pytest.mark.parametrize("engine", ["sql", "broadcast"])
def test_proposition1_with_duplicate_tuples(spark, engine):
    """Duplicate tuples with differing A_x: each is its own 1-NN, so its
    l=1 model is its own value and Prop. 1 still holds exactly."""
    rng = np.random.default_rng(8)
    X = rng.integers(0, 3, size=(12, 2)).astype(np.float64)
    X = np.vstack([X, X[[0, 3, 3, 7]]])
    pdf = pd.DataFrame(X, columns=["A1", "A2"]).assign(A3=rng.normal(size=len(X)))
    pdf.insert(0, "row_id", np.arange(len(X), dtype=np.int64)[::-1])
    q = pd.DataFrame(rng.integers(0, 3, size=(6, 2)).astype(np.float64), columns=["A1", "A2"])
    q.insert(0, "row_id", np.arange(100, 106, dtype=np.int64))
    r, q = spark.createDataFrame(pdf), spark.createDataFrame(q)
    F = ["A1", "A2"]
    if engine == "sql":
        models = sql_engine.learn_models(spark, r, F, "A3", 1)
        got = sql_engine.collect_imputed(sql_engine.impute(r, q, models, F, 4, weighting="uniform"))
    else:
        got = METHODS["IIM"](spark, r, q, F, "A3", k=4, l=1, weighting="uniform")
    ref = METHODS["kNN"](spark, r, q, F, "A3", k=4)
    np.testing.assert_allclose(
        got["imputed"].to_numpy(), ref["imputed"].to_numpy(), atol=1e-9
    )


@pytest.mark.parametrize("seed,n,p,k", [(3, 25, 2, 3), (4, 30, 3, 7), (5, 12, 1, 2)])
def test_proposition2_subsumes_glr(spark, seed, n, p, k):
    """l=n: every individual model equals the global regression, all
    candidates coincide (c=0 -> uniform), so IIM == GLR (Formula 4)."""
    r, q, F, A_x = _data(spark, n, p, seed)
    n_rows = r.count()
    got = METHODS["IIM"](spark, r, q, F, A_x, k=k, l=n_rows)
    ref = METHODS["GLR"](spark, r, q, F, A_x)
    np.testing.assert_allclose(
        got["imputed"].to_numpy(), ref["imputed"].to_numpy(), rtol=1e-6, atol=1e-8
    )


def test_proposition2_holds_with_vote_weighting(spark):
    """The degenerate all-equal-candidates case must use uniform weights
    (Section III-B3 / our c=0 handling), keeping Prop. 2 exact even with
    the default vote weighting."""
    r, q, F, A_x = _data(spark, 20, 2, 6)
    got = METHODS["IIM"](spark, r, q, F, A_x, k=5, l=20, weighting="vote")
    ref = METHODS["GLR"](spark, r, q, F, A_x)
    j = got.merge(ref, on="row_id", suffixes=("_iim", "_glr"))
    np.testing.assert_allclose(
        j["imputed_iim"].to_numpy(), j["imputed_glr"].to_numpy(), rtol=1e-6
    )


def test_intermediate_l_differs_from_both(spark):
    """Sanity: with 1 < l < n on heterogeneous data IIM is not just kNN
    or GLR in disguise."""
    rng = np.random.default_rng(7)
    n = 60
    x = rng.uniform(-3, 3, n)
    y = np.sign(x) * x**2 + rng.normal(0, 0.01, n)
    pdf = pd.DataFrame({"row_id": np.arange(n, dtype=np.int64), "A1": x, "A2": y})
    r = spark.createDataFrame(pdf)
    q = spark.createDataFrame(pd.DataFrame({"row_id": [99], "A1": [1.5]}))
    got = METHODS["IIM"](spark, r, q, ["A1"], "A2", k=4, l=6)
    knn = METHODS["kNN"](spark, r, q, ["A1"], "A2", k=4)
    glr = METHODS["GLR"](spark, r, q, ["A1"], "A2")
    assert abs(got["imputed"][0] - knn["imputed"][0]) > 1e-6
    assert abs(got["imputed"][0] - glr["imputed"][0]) > 1e-6
