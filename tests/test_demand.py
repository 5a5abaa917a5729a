"""Demand-driven adaptive IIM: ``iim_impute`` learns only the models its
incomplete tuples read, with r collected once, and must impute
exactly what learning every model with ``adaptive_learn`` and then
``impute`` does."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from pyspark.accumulators import AccumulatorParam

from repro.core import adaptive, iim
from repro.core.adaptive import adaptive_learn
from repro.core.nn import ID, collect_relation, knn_numpy
from repro.eval.harness import SCALES, TABLE_V_DATASETS, prepare_experiment

K = 10


def _sorted(df) -> pd.DataFrame:
    return df.toPandas().sort_values(ID).reset_index(drop=True)


def _learn_then_impute(spark, r, q, F, A_x, k, **kw):
    models = adaptive_learn(spark, r, F, A_x, k=k, **kw)
    return _sorted(iim.impute(spark, r, q, models, F, A_x, k))


def _assert_same(got: pd.DataFrame, want: pd.DataFrame):
    assert got[ID].tolist() == want[ID].tolist()
    np.testing.assert_array_equal(got["imputed"], want["imputed"])


@pytest.mark.parametrize("name", TABLE_V_DATASETS)
def test_demand_driven_equals_full_learning(spark, name):
    """Every missing-attribute group of a tiny Table V row: the one-shot
    demand-driven run equals learn-all-then-impute, value for value."""
    exp = prepare_experiment(spark, name, n=SCALES["tiny"][name], frac=0.05, seed=0)
    try:
        for g in exp.groups:
            got = _sorted(iim.iim_impute(spark, exp.complete, g.incomplete, g.F, g.A_x, k=K))
            want = _learn_then_impute(spark, exp.complete, g.incomplete, g.F, g.A_x, K)
            _assert_same(got, want)
    finally:
        exp.complete.unpersist()


@st.composite
def _relations(draw):
    """Small relations on an integer grid: exact distance ties, duplicate
    tuples, and k anywhere up to past |r|."""
    n = draw(st.integers(2, 9))
    p = draw(st.integers(1, 3))
    cells = st.integers(-2, 2).map(float)
    X = draw(st.lists(st.lists(cells, min_size=p, max_size=p), min_size=n, max_size=n))
    dup = draw(st.lists(st.integers(0, n - 1), max_size=3))
    X = X + [X[i] for i in dup]
    y = draw(st.lists(st.integers(-9, 9).map(float), min_size=len(X), max_size=len(X)))
    Q = draw(st.lists(st.lists(cells, min_size=p, max_size=p), min_size=1, max_size=4))
    k = draw(st.integers(1, len(X) + 2))
    return np.array(X), np.array(y), np.array(Q), k


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_relations())
def test_demand_driven_equals_full_learning_property(spark, data):
    X, y, Q, k = data
    F = [f"A{j}" for j in range(1, X.shape[1] + 1)]
    rpdf = pd.DataFrame(X, columns=F).assign(A_y=y)
    rpdf.insert(0, ID, np.arange(len(X), dtype=np.int64))
    qpdf = pd.DataFrame(Q, columns=F)
    qpdf.insert(0, ID, np.arange(100, 100 + len(Q), dtype=np.int64))
    r, q = spark.createDataFrame(rpdf), spark.createDataFrame(qpdf)
    got = _sorted(iim.iim_impute(spark, r, q, F, "A_y", k=k, h=1))
    _assert_same(got, _learn_then_impute(spark, r, q, F, "A_y", k, h=1))


@pytest.fixture(scope="module")
def tied(spark):
    """Points on a coarse integer lattice, several of them duplicated, so
    many neighbor distances tie exactly and the id rule decides."""
    rng = np.random.default_rng(11)
    X = rng.integers(0, 3, size=(40, 2)).astype(np.float64)
    pdf = pd.DataFrame(X, columns=["A1", "A2"]).assign(A_y=rng.normal(size=40))
    pdf.insert(0, ID, rng.permutation(40).astype(np.int64) * 3)
    qpdf = pd.DataFrame(rng.integers(0, 3, size=(12, 2)).astype(np.float64), columns=["A1", "A2"])
    qpdf.insert(0, ID, np.arange(1000, 1012, dtype=np.int64))
    return spark.createDataFrame(pdf), spark.createDataFrame(qpdf), ["A1", "A2"]


@pytest.mark.parametrize("k", [1, 4, 60])
def test_blocked_knn_matches_knn_numpy(spark, tied, monkeypatch, k):
    """Distance blocks cut through exact ties without moving a neighbor."""
    r, q, F = tied
    rel = collect_relation(r, F, "A_y")
    Q = q.toPandas()[F].to_numpy()
    monkeypatch.setattr(adaptive, "KNN_BLOCK", 7)
    want_self, _ = knn_numpy(
        rel.X, rel.X, min(k, rel.n - 1), r_ids=rel.ids, exclude_ids=rel.ids, q_ids=rel.ids
    )
    np.testing.assert_array_equal(adaptive._self_knn(rel, k), want_self)
    want_q, _ = knn_numpy(Q, rel.X, k, r_ids=rel.ids)
    np.testing.assert_array_equal(adaptive._knn(rel, Q, k), want_q)


def test_output_independent_of_partitioning(spark, tied):
    r, q, F = tied
    outs = [
        _sorted(iim.iim_impute(spark, r.repartition(p), q.repartition(p), F, "A_y", k=4))
        for p in (1, 7)
    ]
    pd.testing.assert_frame_equal(outs[0], outs[1])


class _ListParam(AccumulatorParam):
    def zero(self, value):
        return []

    def addInPlace(self, a, b):
        return a + b


def test_one_collect_and_sweep_of_the_neighbor_union(spark, tied, monkeypatch):
    r, q, F = tied
    collects = []
    real_collect = adaptive.collect_relation

    def counting_collect(*a, **kw):
        collects.append(1)
        return real_collect(*a, **kw)

    monkeypatch.setattr(adaptive, "collect_relation", counting_collect)
    monkeypatch.setattr(iim, "collect_relation", counting_collect)

    swept = spark.sparkContext.accumulator([], _ListParam())
    real_pick = adaptive._pick

    def recording_pick(rel, pos, *a, **kw):
        swept.add([int(pos)])
        return real_pick(rel, pos, *a, **kw)

    monkeypatch.setattr(adaptive, "_pick", recording_pick)
    iim.iim_impute(spark, r, q, F, "A_y", k=4).toPandas()

    assert len(collects) == 1
    rel = real_collect(r, F, "A_y")
    Q = q.toPandas().sort_values(ID)[F].to_numpy()
    union = np.unique(knn_numpy(Q, rel.X, 4, r_ids=rel.ids)[0]).tolist()
    assert sorted(swept.value) == union  # each neighbor swept once, nothing else
    assert len(union) < rel.n
