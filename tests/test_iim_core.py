"""IIM learning and imputation phases (Algorithms 1 and 2), including
the paper's worked Examples 2 and 3 and cross-engine agreement."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines import METHODS
from repro.core import iim, sql_engine
from repro.core.iim import combine_candidates

#: Algorithm 1 at fixed l: the library's pipeline and the Catalyst reference.
LEARN = {"sql": sql_engine.learn_models, "broadcast": iim.learn_models}


def _df(spark, rows, cols):
    pdf = pd.DataFrame(rows, columns=cols)
    pdf["row_id"] = pdf["row_id"].astype(np.int64)
    return spark.createDataFrame(pdf)


@pytest.fixture(scope="module")
def fig1_r(spark):
    """The four left-street tuples of Figure 1 (Example 6 coordinates)."""
    rows = [(1, 0.0, 5.8), (2, 0.8, 4.6), (3, 1.9, 3.8), (4, 2.9, 3.2)]
    return _df(spark, rows, ["row_id", "A1", "A2"])


@pytest.fixture(scope="module")
def rand_r(spark):
    rng = np.random.default_rng(3)
    pdf = pd.DataFrame(
        {
            "row_id": np.arange(40, dtype=np.int64),
            "A1": rng.normal(size=40),
            "A2": rng.normal(size=40),
            "A3": rng.normal(size=40),
        }
    )
    return pdf, spark.createDataFrame(pdf)


class TestCombineCandidates:
    def test_example3_weights(self):
        """Candidates 1.19, 1.21, 1.19 -> weights 50/125, 25/125, 50/125
        -> imputation 1.194 (paper Example 3)."""
        out = combine_candidates(np.array([[1.19, 1.21, 1.19]]))
        np.testing.assert_allclose(out, [1.194], atol=1e-9)

    def test_all_equal_falls_back_to_uniform(self):
        out = combine_candidates(np.array([[2.0, 2.0, 2.0]]))
        np.testing.assert_allclose(out, [2.0])

    def test_single_candidate(self):
        np.testing.assert_allclose(combine_candidates(np.array([[5.0]])), [5.0])

    def test_uniform_weighting_is_mean(self):
        C = np.array([[1.0, 2.0, 6.0]])
        np.testing.assert_allclose(
            combine_candidates(C, weighting="uniform"), [3.0]
        )

    def test_outlier_gets_low_weight(self):
        """The vote weighting pulls the result toward agreeing candidates."""
        C = np.array([[1.0, 1.01, 50.0]])
        vote = combine_candidates(C)[0]
        mean = C.mean()
        assert abs(vote - 1.0) < abs(mean - 1.0)

    def test_batch_rows_independent(self):
        C = np.array([[1.19, 1.21, 1.19], [2.0, 2.0, 2.0]])
        out = combine_candidates(C)
        np.testing.assert_allclose(out, [1.194, 2.0], atol=1e-9)

    def test_weights_formula_by_hand(self):
        C = np.array([[0.0, 1.0, 3.0]])
        c = np.array([1 + 3.0, 1 + 2.0, 3 + 2.0])  # pairwise |ci - cj| sums
        w = (1 / c) / (1 / c).sum()
        np.testing.assert_allclose(combine_candidates(C), [(C[0] * w).sum()])

    def test_unknown_weighting_raises(self):
        with pytest.raises(ValueError):
            combine_candidates(np.array([[1.0, 2.0]]), weighting="median")


@pytest.mark.parametrize("engine", ["sql", "broadcast"])
class TestLearning:
    def test_example2_parameters(self, spark, fig1_r, engine):
        """l=4 over t1..t4: every tuple's neighbors are all four tuples,
        so every phi equals (5.56, -0.87) (paper Example 2 / Figure 1
        left street)."""
        models = LEARN[engine](spark, fig1_r, ["A1"], "A2", 4)
        got = models.toPandas().sort_values("row_id")
        assert len(got) == 4
        for phi in got["phi"]:
            np.testing.assert_allclose(phi, [5.56, -0.87], atol=0.005)

    def test_l1_constant_models(self, spark, fig1_r, engine):
        """l=1: every tuple's model is its own value (Section III-A2), also
        for tuples 2 and 5, whose duplicates 1 and 4 have lower ids."""
        dups = _df(
            spark, [(1, 0.0, 5.0), (2, 0.0, 7.0), (3, 1.0, 1.0), (4, 2.0, 3.0), (5, 2.0, 9.0)],
            ["row_id", "A1", "A2"],
        )
        for r, y in [
            (fig1_r, {1: 5.8, 2: 4.6, 3: 3.8, 4: 3.2}),
            (dups, {1: 5.0, 2: 7.0, 3: 1.0, 4: 3.0, 5: 9.0}),
        ]:
            models = LEARN[engine](spark, r, ["A1"], "A2", 1)
            got = models.toPandas().sort_values("row_id")
            assert got["row_id"].tolist() == sorted(y)
            for _, row in got.iterrows():
                np.testing.assert_allclose(row["phi"], [y[row["row_id"]], 0.0])

    def test_example6_l3_for_t1(self, spark, fig1_r, engine):
        """t1's 3 nearest neighbors are t1,t2,t3 -> phi = (5.66, -1.03)."""
        models = LEARN[engine](spark, fig1_r, ["A1"], "A2", 3)
        got = models.toPandas().set_index("row_id")
        np.testing.assert_allclose(got.loc[1, "phi"], [5.66, -1.03], atol=0.005)


class TestEngineAgreement:
    @pytest.mark.parametrize("l", [1, 3, 10])
    def test_learning_engines_agree(self, spark, rand_r, l):
        pdf, df = rand_r
        F = ["A1", "A2"]
        a = (
            sql_engine.learn_models(spark, df, F, "A3", l)
            .toPandas().sort_values("row_id").reset_index(drop=True)
        )
        b = (
            iim.learn_models(spark, df, F, "A3", l)
            .toPandas().sort_values("row_id").reset_index(drop=True)
        )
        assert a["row_id"].tolist() == b["row_id"].tolist()
        np.testing.assert_allclose(
            np.array(a["phi"].tolist()), np.array(b["phi"].tolist()), atol=1e-7
        )

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_imputation_engines_agree(self, spark, rand_r, k):
        pdf, df = rand_r
        F = ["A1", "A2"]
        models = iim.learn_models(spark, df, F, "A3", 5)
        rng = np.random.default_rng(9)
        q = spark.createDataFrame(
            pd.DataFrame(
                {
                    "row_id": np.arange(100, 106, dtype=np.int64),
                    "A1": rng.normal(size=6),
                    "A2": rng.normal(size=6),
                }
            )
        )
        a = (
            sql_engine.impute(df, q, models, F, k)
            .toPandas().sort_values("row_id").reset_index(drop=True)
        )
        b = (
            iim.impute(spark, df, q, models, F, "A3", k)
            .toPandas().sort_values("row_id").reset_index(drop=True)
        )
        np.testing.assert_allclose(
            a["imputed"].to_numpy(), b["imputed"].to_numpy(), atol=1e-7
        )


class TestEndToEnd:
    def test_fig1_iim_imputation_close_to_truth(self, spark):
        """Two-street Figure-1-style data: IIM recovers t_x[A2] ~ 1.8
        while kNN-style averaging of the neighbors' values cannot."""
        # left street: descending line; right street: ascending line
        rows = [
            (1, 0.0, 5.8), (2, 0.8, 4.6), (3, 1.9, 3.8), (4, 2.9, 3.2),
            (5, 4.5, 0.64), (6, 5.5, 1.75), (7, 6.5, 2.86), (8, 7.5, 3.97),
        ]
        r = _df(spark, rows, ["row_id", "A1", "A2"])
        q = _df(spark, [(99, 5.0)], ["row_id", "A1"])
        out = METHODS["IIM"](spark, r, q, ["A1"], "A2", k=3, l=4)
        # right-street regression predicts 0.64 + 1.11*(5-4.5) ~ 1.19-1.21
        assert abs(out["imputed"].iloc[0] - 1.3) < 0.4

    def test_iim_beats_knn_on_heterogeneous(self, spark):
        """The paper's core claim at micro scale: on two-regime data IIM's
        individual models beat direct kNN value averaging."""
        rng = np.random.default_rng(0)
        n = 120
        c = rng.integers(0, 2, n)
        x = rng.uniform(0, 4, n) + 5 * c
        y = np.where(c == 0, 5 - x, -9 + 1.2 * x) + rng.normal(0, 0.05, n)
        pdf = pd.DataFrame({"row_id": np.arange(n, dtype=np.int64), "A1": x, "A2": y})
        mask = pdf.sample(20, random_state=1).index
        truth = pdf.loc[mask]
        r = spark.createDataFrame(pdf.drop(mask))
        q = spark.createDataFrame(truth[["row_id", "A1"]])
        got = METHODS["IIM"](spark, r, q, ["A1"], "A2", k=5, l=8).set_index("row_id")
        iim_rms = np.sqrt(
            ((got.loc[truth["row_id"], "imputed"].to_numpy() - truth["A2"].to_numpy()) ** 2).mean()
        )
        knn = METHODS["kNN"](spark, r, q, ["A1"], "A2", k=5).set_index("row_id")
        knn_rms = np.sqrt(
            ((knn.loc[truth["row_id"], "imputed"].to_numpy() - truth["A2"].to_numpy()) ** 2).mean()
        )
        assert iim_rms < knn_rms

    def test_models_must_cover_r(self, spark, rand_r):
        pdf, df = rand_r
        F = ["A1", "A2"]
        models = iim.learn_models(spark, df.limit(10), F, "A3", 3)
        q = spark.createDataFrame(
            pd.DataFrame({"row_id": [500], "A1": [0.0], "A2": [0.0]})
        )
        with pytest.raises(Exception):
            iim.impute(spark, df, q, models, F, "A3", 3).collect()
