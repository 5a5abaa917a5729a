"""Baseline imputation methods (Table II): structural sanity per method,
determinism, and DuckDB-oracle checks for the SQL-expressible ones."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines import DEFAULT_K, METHODS
from repro.core import nn, sql_engine
from repro.oracle import assert_equivalent

ATTRS = ["A1", "A2", "A3"]


@pytest.fixture(scope="module")
def linear_data(spark):
    """Noiseless-ish linear relation A3 = 2 + 3*A1 - A2."""
    rng = np.random.default_rng(0)
    n = 80
    pdf = pd.DataFrame(
        {
            "row_id": np.arange(n, dtype=np.int64),
            "A1": rng.normal(size=n),
            "A2": rng.normal(size=n),
        }
    )
    pdf["A3"] = 2 + 3 * pdf["A1"] - pdf["A2"] + rng.normal(0, 0.01, n)
    q = pd.DataFrame(
        {
            "row_id": np.arange(500, 510, dtype=np.int64),
            "A1": rng.normal(size=10),
            "A2": rng.normal(size=10),
        }
    )
    q_truth = 2 + 3 * q["A1"] - q["A2"]
    return pdf, spark.createDataFrame(pdf), q, spark.createDataFrame(q), q_truth


def _run(spark, name, data, **params):
    pdf, r, q_pdf, q, _ = data
    return METHODS[name](spark, r, q, ["A1", "A2"], "A3", **params)["imputed"].to_numpy()


ALL = list(METHODS)


@pytest.mark.parametrize("name", ALL)
def test_every_method_returns_one_value_per_query(spark, linear_data, name):
    got = _run(spark, name, linear_data)
    assert got.shape == (10,)
    assert np.all(np.isfinite(got))


@pytest.mark.parametrize("name", ALL)
def test_every_method_is_deterministic(spark, linear_data, name):
    a = _run(spark, name, linear_data)
    b = _run(spark, name, linear_data)
    np.testing.assert_allclose(a, b, atol=1e-9)


@pytest.mark.parametrize("name", ALL)
def test_every_method_is_invariant_to_partitioning(spark, linear_data, name):
    """A method's output is a function of its inputs and seed only: r and
    the queries in one partition, or in seven with the query rows
    reversed, or the queries split over two calls (odd and even ids), or
    the first query alone, impute the same values, bit for bit. The result
    is a pandas frame of exactly (row_id, imputed), one row per query in
    ascending id order."""
    pdf, _, q_pdf, _, _ = linear_data

    def run(parts, queries):
        r = spark.createDataFrame(pdf).repartition(parts)
        q = spark.createDataFrame(queries).repartition(parts)
        out = METHODS[name](spark, r, q, ["A1", "A2"], "A3", **METHODS[name].params())
        assert isinstance(out, pd.DataFrame)
        assert list(out.columns) == ["row_id", "imputed"]
        np.testing.assert_array_equal(out["row_id"], np.sort(queries["row_id"]))
        return out

    one, seven = run(1, q_pdf), run(7, q_pdf.iloc[::-1])
    np.testing.assert_array_equal(seven["imputed"], one["imputed"])
    split = pd.concat([run(1, q_pdf[q_pdf["row_id"] % 2 == b]) for b in (0, 1)])
    np.testing.assert_array_equal(split.sort_values("row_id")["imputed"], one["imputed"])
    np.testing.assert_array_equal(run(1, q_pdf[:1])["imputed"], one["imputed"][:1])


@pytest.mark.parametrize("name", ALL)
def test_driver_tail_rejects_bad_queries(spark, linear_data, name):
    """A NaN or infinite F value, or a repeated row_id, among the incomplete
    tuples fails loudly instead of imputing garbage (a NaN query used to
    get the first tuples of r as its neighbors)."""
    _, r, q_pdf, _, _ = linear_data
    bad = [
        ("NaN or infinite", q_pdf.assign(A1=q_pdf["A1"].where(q_pdf.index != 3, np.nan))),
        ("NaN or infinite", q_pdf.assign(A2=q_pdf["A2"].where(q_pdf.index != 0, -np.inf))),
        ("duplicate row_id", q_pdf.assign(row_id=q_pdf["row_id"].where(q_pdf.index != 1, 500))),
    ]
    for match, q in bad:
        with pytest.raises(ValueError, match=match):
            METHODS[name](
                spark, r, spark.createDataFrame(q), ["A1", "A2"], "A3", **METHODS[name].params()
            )


#: Degenerate complete relations, cut from the linear data.
DEGENERATE = {
    "n=1": lambda pdf: pdf[:1],
    "n=2": lambda pdf: pdf[:2],
    "constant column": lambda pdf: pdf.assign(A1=1.0),
    "duplicate tuples": lambda pdf: pdf.iloc[[0] * 12].assign(row_id=np.arange(12, dtype=np.int64)),
}


@pytest.mark.parametrize("case", list(DEGENERATE))
@pytest.mark.parametrize("name", ALL)
def test_degenerate_relation_imputes_finite_values_or_fails(spark, linear_data, name, case):
    """Every method on a degenerate r returns finite imputations or raises
    ValueError: never a silent NaN."""
    pdf, _, q_pdf, q, _ = linear_data
    r = spark.createDataFrame(DEGENERATE[case](pdf))
    try:
        out = METHODS[name](spark, r, q, ["A1", "A2"], "A3", **METHODS[name].params())
    except ValueError:
        return
    assert len(out) == len(q_pdf)
    assert np.isfinite(out["imputed"]).all()


def test_gmm_on_one_tuple_imputes_its_value(spark, linear_data):
    pdf, _, _, q, _ = linear_data
    got = METHODS["GMM"](spark, spark.createDataFrame(pdf[:1]), q, ["A1", "A2"], "A3")
    np.testing.assert_allclose(got["imputed"], pdf["A3"].iloc[0])


@pytest.mark.parametrize(
    "name",
    ["IIM", "kNN", "kNNE", "GLR", "LOESS", "ERACER", "ILLS", "XGB", "SVD"],
)
def test_regression_capable_methods_fit_linear_data(spark, linear_data, name):
    """On a clean linear relation every regression-family method (and the
    neighbor methods, approximately) should land near the truth."""
    *_, q_truth = linear_data
    got = _run(spark, name, linear_data)
    rms = np.sqrt(((got - q_truth.to_numpy()) ** 2).mean())
    tol = {"kNN": 2.2, "kNNE": 2.4, "XGB": 1.2, "ILLS": 1.0, "SVD": 1.5}.get(name, 0.15)
    assert rms < tol


class TestMean:
    def test_oracle(self, spark, linear_data):
        pdf, r, q_pdf, q, _ = linear_data
        out = METHODS["Mean"](spark, r, q, ["A1", "A2"], "A3")
        assert_equivalent(
            out,
            "SELECT q.row_id AS row_id, (SELECT AVG(A3) FROM r) AS imputed FROM q",
            r=pdf,
            q=q_pdf,
        )

    def test_value_is_column_mean(self, spark, linear_data):
        pdf, *_ = linear_data
        got = _run(spark, "Mean", linear_data)
        np.testing.assert_allclose(got, pdf["A3"].mean(), atol=1e-9)


class TestKNN:
    @pytest.mark.parametrize("k", [1, 4])
    def test_sql_engine_matches_broadcast(self, spark, linear_data, k):
        _, r, _, q, _ = linear_data
        a = sql_engine.knn_impute(r, q, ["A1", "A2"], "A3", k=k)["imputed"].to_numpy()
        b = _run(spark, "kNN", linear_data, k=k)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_oracle(self, spark, linear_data):
        pdf, r, q_pdf, q, _ = linear_data
        out = sql_engine.knn_impute(r, q, ["A1", "A2"], "A3", k=3)
        sql = """
            SELECT q_id AS row_id, AVG(A3) AS imputed FROM (
              SELECT q.row_id AS q_id, r.A3,
                     ROW_NUMBER() OVER (
                       PARTITION BY q.row_id
                       ORDER BY sqrt(((q.A1-r.A1)^2 + (q.A2-r.A2)^2)/2.0),
                                r.row_id) AS rk
              FROM q CROSS JOIN r)
            WHERE rk <= 3 GROUP BY q_id
        """
        assert_equivalent(out, sql, r=pdf, q=q_pdf)

    def test_k1_returns_nearest_value(self, spark, linear_data):
        pdf, r, q_pdf, q, _ = linear_data
        got = _run(spark, "kNN", linear_data, k=1)
        from repro.core.nn import knn_numpy

        idx, _ = knn_numpy(
            q_pdf[["A1", "A2"]].to_numpy(), pdf[["A1", "A2"]].to_numpy(), 1
        )
        np.testing.assert_allclose(got, pdf["A3"].to_numpy()[idx[:, 0]])


class TestKNNE:
    def test_single_attribute_degenerates_to_knn(self, spark):
        rng = np.random.default_rng(5)
        pdf = pd.DataFrame(
            {
                "row_id": np.arange(30, dtype=np.int64),
                "A1": rng.normal(size=30),
                "A2": rng.normal(size=30),
            }
        )
        r = spark.createDataFrame(pdf)
        q = spark.createDataFrame(
            pd.DataFrame({"row_id": [99, 100], "A1": [0.3, -0.7]})
        )
        a = METHODS["kNNE"](spark, r, q, ["A1"], "A2", k=4)
        b = METHODS["kNN"](spark, r, q, ["A1"], "A2", k=4)
        j = a.merge(b, on="row_id", suffixes=("_e", "_k"))
        np.testing.assert_allclose(j["imputed_e"], j["imputed_k"], atol=1e-9)


class TestGLR:
    def test_oracle_1d_regression(self, spark):
        """DuckDB's regr_slope/intercept agree with GLR on a single
        complete attribute."""
        rng = np.random.default_rng(6)
        pdf = pd.DataFrame(
            {
                "row_id": np.arange(60, dtype=np.int64),
                "A1": rng.normal(size=60),
            }
        )
        pdf["A2"] = 1.5 * pdf["A1"] - 0.5 + rng.normal(0, 0.1, 60)
        q_pdf = pd.DataFrame({"row_id": [7, 8], "A1": [0.25, -1.0]})
        r = spark.createDataFrame(pdf)
        q = spark.createDataFrame(q_pdf)
        out = METHODS["GLR"](spark, r, q, ["A1"], "A2", alpha=1e-9)
        sql = """
            SELECT q.row_id AS row_id,
                   (SELECT regr_intercept(A2, A1) FROM r)
                 + (SELECT regr_slope(A2, A1) FROM r) * q.A1 AS imputed
            FROM q
        """
        assert_equivalent(out, sql, r=pdf, q=q_pdf)

    def test_recovers_exact_coefficients(self, spark, linear_data):
        *_, q_truth = linear_data
        got = _run(spark, "GLR", linear_data)
        np.testing.assert_allclose(got, q_truth, atol=0.05)


class TestClusterMethods:
    @pytest.fixture(scope="class")
    def clustered(self, spark):
        rng = np.random.default_rng(7)
        n = 60
        c = rng.integers(0, 2, n)
        pdf = pd.DataFrame(
            {
                "row_id": np.arange(n, dtype=np.int64),
                "A1": rng.normal(size=n) + 10 * c,
                "A2": rng.normal(size=n) - 10 * c,
            }
        )
        pdf["A3"] = np.where(c == 0, 5.0, 50.0) + rng.normal(0, 0.2, n)
        q_pdf = pd.DataFrame(
            {"row_id": [900, 901], "A1": [0.0, 10.0], "A2": [0.0, -10.0]}
        )
        return pdf, spark.createDataFrame(pdf), q_pdf, spark.createDataFrame(q_pdf)

    @pytest.mark.parametrize("name", ["IFC", "GMM"])
    def test_imputes_cluster_average(self, spark, clustered, name):
        pdf, r, q_pdf, q = clustered
        out = METHODS[name](spark, r, q, ["A1", "A2"], "A3", c=2)
        np.testing.assert_allclose(
            out["imputed"].to_numpy(), [5.0, 50.0], atol=1.5
        )


class TestPMM:
    def test_returns_observed_values(self, spark, linear_data):
        pdf, *_ = linear_data
        got = _run(spark, "PMM", linear_data)
        observed = set(np.round(pdf["A3"].to_numpy(), 9))
        assert all(np.round(v, 9) in observed for v in got)


class TestBLR:
    def test_close_to_glr_on_clean_data(self, spark, linear_data):
        *_, q_truth = linear_data
        got = _run(spark, "BLR", linear_data)
        rms = np.sqrt(((got - q_truth.to_numpy()) ** 2).mean())
        assert rms < 0.3  # posterior noise is tiny when residuals are tiny

    def test_seed_changes_draw(self, spark, linear_data):
        a = _run(spark, "BLR", linear_data, seed=0)
        b = _run(spark, "BLR", linear_data, seed=1)
        assert not np.allclose(a, b)


class TestERACER:
    @pytest.mark.parametrize("lattice", [False, True])
    def test_blocked_self_knn_leaves_output_unchanged(self, spark, linear_data, monkeypatch, lattice):
        """The training-side self-kNN runs in KNN_BLOCK-row blocks; 7-row
        blocks (cutting through exact ties on a lattice) impute exactly
        what one block over all rows does."""
        if lattice:
            pdf, _, q_pdf, q, truth = linear_data
            pdf = pdf.assign(A1=np.round(pdf["A1"]), A2=np.round(pdf["A2"]))
            linear_data = (pdf, spark.createDataFrame(pdf), q_pdf, q, truth)
        monkeypatch.setattr(nn, "KNN_BLOCK", len(linear_data[0]))
        whole = _run(spark, "ERACER", linear_data)
        monkeypatch.setattr(nn, "KNN_BLOCK", 7)
        np.testing.assert_array_equal(_run(spark, "ERACER", linear_data), whole)

    def test_one_tuple_relation_is_rejected(self, spark, linear_data):
        """A one-tuple r has no neighbor to aggregate: fail, do not use the
        tuple as its own neighbor."""
        pdf, _, q_pdf, q, truth = linear_data
        one = (pdf[:1], spark.createDataFrame(pdf[:1]), q_pdf, q, truth)
        with pytest.raises(ValueError, match="r has 1"):
            _run(spark, "ERACER", one)


class TestRegistry:
    def test_fourteen_methods(self):
        assert len(METHODS) == 14
        assert list(METHODS)[0] == "IIM"

    def test_multivariate_flags_match_paper(self):
        dashes = {m.name for m in METHODS.values() if m.requires_multivariate}
        assert dashes == {"SVD", "ILLS", "XGB"}

    def test_default_k_for_neighbor_methods(self):
        with_k = {m.name for m in METHODS.values() if "k" in m.params()}
        assert with_k == {"IIM", "kNN", "kNNE", "ERACER"}
        assert METHODS["kNN"].params() == {"k": DEFAULT_K}
        assert METHODS["kNN"].params({"k": 3}) == {"k": 3}
        assert METHODS["GLR"].params({"alpha": 1.0}) == {"alpha": 1.0}
