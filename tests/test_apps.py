"""Application-level evaluations (Table VII): clustering purity and
classification F1 with/without imputation, at tiny scale."""
import numpy as np
import pytest

from repro.datasets import attributes, generate
from repro.eval import apps

FAST = ["Mean", "kNN", "GLR"]


class TestFillMasked:
    def test_fills_every_hole(self, spark):
        pdf = generate("MAM", n=120)
        attrs = attributes("MAM")
        filled = apps.fill_masked(spark, pdf, attrs, "Mean")
        assert not filled[attrs].isna().any().any()
        # observed cells untouched
        obs = ~pdf[attrs].isna()
        np.testing.assert_allclose(
            filled[attrs].to_numpy()[obs.to_numpy()],
            pdf[attrs].to_numpy()[obs.to_numpy()],
        )

    def test_label_column_preserved(self, spark):
        pdf = generate("MAM", n=120)
        filled = apps.fill_masked(spark, pdf, attributes("MAM"), "kNN", k=3)
        assert filled["label"].equals(pdf["label"])

    def test_knn_fill_runs_no_spark_job(self, spark):
        """The masked pandas frame reaches the method as it is: filling
        every hole with kNN runs no Spark job."""
        pdf = generate("MAM", n=120)
        attrs = attributes("MAM")
        sc = spark.sparkContext
        sc.setJobGroup("fill-traffic", "fill_masked with kNN")
        try:
            filled = apps.fill_masked(spark, pdf, attrs, "kNN", k=3)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert not filled[attrs].isna().any().any()
        assert sc.statusTracker().getJobIdsForGroup("fill-traffic") == []

    def test_multivariate_method_unavailable_on_2attrs(self, spark):
        pdf = generate("SN", n=80)
        pdf.loc[pdf.index[:5], "A2"] = np.nan
        assert apps.fill_masked(spark, pdf, ["A1", "A2"], "SVD") is None

    def test_noop_when_nothing_missing(self, spark):
        pdf = generate("CCS", n=60)
        filled = apps.fill_masked(spark, pdf, attributes("CCS"), "Mean")
        assert filled[attributes("CCS")].equals(pdf[attributes("CCS")])


class TestClusteringApp:
    def test_row_shape_and_imputed_beats_discard(self, spark):
        row = apps.clustering_app(
            spark, "ASF", methods=FAST, n=220, n_clusters=4, frac=0.3, seed=0
        )
        assert row["Dataset"] == "ASF"
        assert 0 <= row["Missing"] <= 1
        for m in FAST:
            assert 0 <= row[m] <= 1
        # imputation should recover clustering at least as well as
        # discarding 30% of the tuples (Table VII's story)
        assert max(row[m] for m in FAST) >= row["Missing"] - 0.02


class TestClassificationApp:
    def test_row_shape(self, spark):
        row = apps.classification_app(spark, "MAM", methods=FAST, n=150, seed=0)
        assert row["Dataset"] == "MAM"
        for key in ["Missing"] + FAST:
            assert 0 <= row[key] <= 1

    def test_hep_small_n(self, spark):
        row = apps.classification_app(spark, "HEP", methods=["Mean"], n=120, seed=0)
        assert 0 <= row["Mean"] <= 1


def test_table_vii_assembles(spark):
    sizes = {"ASF": 150, "CA": 150, "MAM": 120, "HEP": 100}
    t = apps.table_vii(spark, scale_sizes=sizes, methods=["Mean", "kNN"], seed=0)
    assert list(t["Dataset"]) == ["ASF", "CA", "MAM", "HEP"]
    assert {"Missing", "Mean", "kNN"} <= set(t.columns)
