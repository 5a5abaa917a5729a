"""Nearest-neighbor search: the driver's numpy kNN vs the Catalyst
reference kNN join, plus DuckDB-oracle checks of the distance computation."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import nn, sql_engine
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def small_rel(spark):
    rng = np.random.default_rng(7)
    pdf = pd.DataFrame(
        {
            "row_id": np.arange(30, dtype=np.int64),
            "A1": rng.normal(size=30),
            "A2": rng.normal(size=30),
            "A3": rng.normal(size=30),
        }
    )
    return pdf, spark.createDataFrame(pdf)


@pytest.fixture(scope="module")
def queries(spark):
    rng = np.random.default_rng(8)
    pdf = pd.DataFrame(
        {
            "row_id": np.arange(100, 108, dtype=np.int64),
            "A1": rng.normal(size=8),
            "A2": rng.normal(size=8),
            "A3": rng.normal(size=8),
        }
    )
    return pdf, spark.createDataFrame(pdf)


class TestPairwiseDist:
    def test_formula1_normalization(self):
        # Formula 1 divides squared diffs by |F| before the sqrt
        Q = np.array([[0.0, 0.0]])
        R = np.array([[3.0, 4.0]])
        d = nn.pairwise_dist(Q, R)
        np.testing.assert_allclose(d, [[np.sqrt(25 / 2)]])

    def test_zero_self_distance(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        d = nn.pairwise_dist(X, X)
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-7)

    def test_symmetry(self):
        X = np.random.default_rng(1).normal(size=(6, 2))
        d = nn.pairwise_dist(X, X)
        np.testing.assert_allclose(d, d.T, atol=1e-12)

    def test_matches_naive(self):
        rng = np.random.default_rng(2)
        Q, R = rng.normal(size=(4, 3)), rng.normal(size=(9, 3))
        d = nn.pairwise_dist(Q, R)
        naive = np.sqrt(((Q[:, None, :] - R[None, :, :]) ** 2).mean(-1))
        np.testing.assert_allclose(d, naive, atol=1e-9)


class TestKnnNumpy:
    def test_orders_by_distance(self):
        R = np.array([[0.0], [1.0], [2.0], [5.0]])
        idx, dist = nn.knn_numpy(np.array([[0.9]]), R, 3)
        assert idx[0].tolist() == [1, 0, 2]
        assert np.all(np.diff(dist[0]) >= 0)

    def test_tie_break_by_id(self):
        R = np.array([[1.0], [1.0], [1.0]])
        ids = np.array([30, 10, 20])
        idx, _ = nn.knn_numpy(np.array([[1.0]]), R, 3, r_ids=ids)
        assert ids[idx[0]].tolist() == [10, 20, 30]

    def test_exclude_self(self):
        R = np.array([[0.0], [1.0], [2.0]])
        ids = np.array([0, 1, 2])
        idx, _ = nn.knn_numpy(
            R, R, 1, r_ids=ids, exclude_ids=ids, q_ids=ids
        )
        assert not np.any(ids[idx[:, 0]] == ids)

    def test_k_clamped_to_n(self):
        R = np.array([[0.0], [1.0]])
        idx, _ = nn.knn_numpy(np.array([[0.5]]), R, 10)
        assert idx.shape == (1, 2)


def test_self_knn_never_lists_a_tuple_as_its_own_neighbor():
    """k >= n is clamped to n - 1; a one-tuple r has no neighbor at all."""
    one = nn.Relation(ids=np.array([5]), X=np.zeros((1, 2)), y=np.zeros(1))
    assert nn.self_knn(one, 10).shape == (1, 0)
    rel = nn.Relation(ids=np.array([2, 4, 6]), X=np.zeros((3, 2)), y=np.zeros(3))
    got = nn.self_knn(rel, 10)
    assert got.tolist() == [[1, 2], [0, 2], [0, 1]]


@pytest.mark.parametrize("k", [1, 3, 7])
def test_sql_join_matches_numpy(spark, small_rel, queries, k):
    """Both engines return identical neighbor ids in identical order."""
    rel_pdf, rel_df = small_rel
    q_pdf, q_df = queries
    F = ["A1", "A2", "A3"]
    got = (
        sql_engine.knn_join(q_df, rel_df, F, k)
        .toPandas()
        .sort_values(["q_id", "rank"])
        .reset_index(drop=True)
    )
    idx, dist = nn.knn_numpy(
        q_pdf[F].to_numpy(), rel_pdf[F].to_numpy(), k,
        r_ids=rel_pdf["row_id"].to_numpy(),
    )
    exp_nid = rel_pdf["row_id"].to_numpy()[idx].ravel()
    assert got["n_id"].to_numpy().tolist() == exp_nid.tolist()
    np.testing.assert_allclose(got["dist"].to_numpy(), dist.ravel(), atol=1e-9)


def test_sql_join_exclude_self(spark, small_rel):
    rel_pdf, rel_df = small_rel
    F = ["A1", "A2", "A3"]
    got = sql_engine.knn_join(rel_df, rel_df, F, 1, exclude_self=True).toPandas()
    assert not np.any(got["q_id"].to_numpy() == got["n_id"].to_numpy())
    got2 = sql_engine.knn_join(rel_df, rel_df, F, 1, exclude_self=False).toPandas()
    assert np.all(got2["q_id"].to_numpy() == got2["n_id"].to_numpy())


def test_knn_distance_oracle(spark, small_rel, queries):
    """DuckDB recomputes Formula 1 and the rank-k filter; results match."""
    rel_pdf, rel_df = small_rel
    q_pdf, q_df = queries
    F = ["A1", "A2", "A3"]
    got = sql_engine.knn_join(q_df, rel_df, F, 3).select("q_id", "n_id", "rank")
    sql = """
        SELECT q_id, n_id, rank FROM (
          SELECT q.row_id AS q_id, r.row_id AS n_id,
                 ROW_NUMBER() OVER (
                   PARTITION BY q.row_id
                   ORDER BY sqrt(((q.A1-r.A1)^2 + (q.A2-r.A2)^2
                                  + (q.A3-r.A3)^2)/3.0), r.row_id
                 ) AS rank
          FROM q CROSS JOIN r)
        WHERE rank <= 3
    """
    assert_equivalent(got, sql, q=q_pdf, r=rel_pdf)


def test_collect_relation_sorted(spark, small_rel):
    rel_pdf, rel_df = small_rel
    rel = nn.collect_relation(rel_df.orderBy("A2"), ["A1", "A2"], "A3")
    assert np.all(np.diff(rel.ids) > 0)
    assert rel.n == len(rel_pdf)
    row = rel_pdf.set_index("row_id")
    np.testing.assert_allclose(rel.y, row.loc[rel.ids, "A3"].to_numpy())


def test_self_knn_matches_join(spark, small_rel):
    """The driver's exclude-self kNN (Algorithm 3's validation
    assignments) equals the SQL join with exclude_self."""
    rel_pdf, rel_df = small_rel
    F = ["A1", "A2"]
    rel = nn.collect_relation(rel_df, F, "A3")
    got = rel.ids[nn.self_knn(rel, 4)].ravel()
    sql_pairs = (
        sql_engine.knn_join(rel_df, rel_df, F, 4, exclude_self=True)
        .toPandas()
        .sort_values(["q_id", "rank"])
    )
    assert got.tolist() == sql_pairs["n_id"].tolist()


@pytest.mark.parametrize(
    "bad",
    [
        lambda pdf: pdf.assign(A1=pdf["A1"].where(pdf.index != 3)),  # NaN in F
        lambda pdf: pdf.assign(A3=pdf["A3"].where(pdf.index != 5, np.inf)),  # inf in A_x
        lambda pdf: pdf.assign(row_id=pdf["row_id"].where(pdf.index != 7, 2)),  # duplicate id
    ],
    ids=["nan_in_F", "inf_in_A_x", "duplicate_row_id"],
)
def test_collect_relation_rejects_bad_input(spark, small_rel, bad):
    rel_pdf, _ = small_rel
    with pytest.raises(ValueError, match="NaN or infinite|duplicate row_id"):
        nn.collect_relation(spark.createDataFrame(bad(rel_pdf)), ["A1", "A2"], "A3")


def _knn_rowwise(Q, R, k, r_ids, exclude_ids):
    """Reference: full (distance, id) lexsort of every row on its own."""
    d = nn.pairwise_dist(Q, R)
    if exclude_ids is not None:
        for qi, ex in enumerate(exclude_ids):
            d[qi, r_ids == ex] = np.inf
    order = np.array([np.lexsort((r_ids, row))[:k] for row in d])
    return order, np.take_along_axis(d, order, axis=1)


@st.composite
def _lattice_knn(draw):
    """Points on a small integer lattice (many exact ties, also at the
    k-th slot), unsorted unique ids and optional own-id exclusions."""
    n = draw(st.integers(1, 40))
    p = draw(st.integers(1, 3))
    cells = st.lists(st.integers(-2, 2), min_size=p, max_size=p)
    R = np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=np.float64)
    Q = np.array(draw(st.lists(cells, min_size=1, max_size=8)), dtype=np.float64)
    r_ids = np.array(draw(st.permutations(range(0, 3 * n, 3))), dtype=np.int64)
    exclude = draw(st.none() | st.lists(st.integers(0, 3 * n), min_size=len(Q), max_size=len(Q)))
    return Q, R, draw(st.integers(1, n + 1)), r_ids, None if exclude is None else np.array(exclude)


@settings(max_examples=200, deadline=None)
@given(data=_lattice_knn())
def test_knn_numpy_matches_rowwise_lexsort(data):
    Q, R, k, r_ids, exclude = data
    got = nn.knn_numpy(Q, R, k, r_ids=r_ids, exclude_ids=exclude, q_ids=exclude)
    want = _knn_rowwise(Q, R, min(k, len(R)), r_ids, exclude)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 9), st.integers(1, 40), st.integers(1, 9)),
    offset=st.sampled_from([0.0, 1.0, 1e3, -1e6]),
)
def test_pairwise_dist_is_the_literal_expansion(seed, shape, offset):
    """The in-place arithmetic rounds exactly as the textbook expression,
    also for duplicate tuples far from the origin."""
    nq, nr, m = shape
    rng = np.random.default_rng(seed)
    R = offset + rng.normal(size=(nr, m))
    R[rng.integers(0, nr, nr // 2)] = R[0]
    Q = np.vstack([R[:1], offset + rng.normal(size=(nq, m))])
    a, b, G = (Q**2).sum(1)[:, None], (R**2).sum(1)[None, :], Q @ R.T
    want = np.sqrt(np.maximum(a + b - 2.0 * G, 0) / m)
    np.testing.assert_array_equal(nn.pairwise_dist(Q, R), want)


@st.composite
def _bound_knn(draw):
    """Relations that probe knn_numpy's sampled bound: n at and around 8k,
    unsorted ids and excluded ids inside the stride sample. Most rows lie
    along one direction v at 0 or 1 ulp of a length whose two squared
    distances from the origin query differ but round to one Formula-1
    distance, so the k-th distance ties across the bound t; some rows
    sit on a lattice, and some rows off the sample at squared distance
    tau +- a few ulps."""
    k = draw(st.integers(1, 5))
    n = draw(st.sampled_from([8 * k - 1, 8 * k, 8 * k + 1, 8 * k + 2])
             | st.integers(8 * k + 1, 12 * k) | st.integers(2, 8 * k))
    p = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.uniform(0.5, 2.0, p)
    S = ((v * (1.0 + np.arange(64)[:, None] * 2.0**-52)) ** 2).sum(1)
    D = np.sqrt(S / p)
    merged = np.flatnonzero((D[:-1] == D[1:]) & (S[:-1] != S[1:]))
    j0 = rng.choice(merged) if len(merged) else 0
    R = v * (1.0 + (j0 + (rng.random(n) < 0.25))[:, None] * 2.0**-52)
    R[rng.integers(0, n, draw(st.integers(0, n // 4)))] = rng.integers(-2, 3, p)
    S0 = (R**2).sum(1)
    if draw(st.booleans()) and len(S0[::8]) > k:  # straddle tau of the origin query
        t = np.partition(S0[::8], k - 1)[k - 1]
        root = np.sqrt(max(t, 0.0) * (1.0 + 2.0**-20) + 2.0**-1000)
        off = rng.choice([i for i in range(n) if i % 8], min(4, n - len(S0[::8])), replace=False)
        R[off] = 0.0
        R[off, 0] = root * (1.0 + rng.integers(-3, 4, len(off)) * 2.0**-52)
    Q = np.vstack([np.zeros(p), v * rng.choice([-1.0, 0.5, 2.0]), rng.integers(-2, 3, (2, p))])
    r_ids = np.array(draw(st.permutations(range(0, 3 * n, 3))), dtype=np.int64)
    exclude = draw(st.none() | st.lists(
        st.sampled_from(r_ids[::8].tolist()) | st.sampled_from(r_ids.tolist()) | st.just(-1),
        min_size=len(Q), max_size=len(Q)))
    return Q, R, k, r_ids, None if exclude is None else np.array(exclude)


@settings(max_examples=300, deadline=None)
@given(data=_bound_knn())
def test_knn_numpy_bound_keeps_near_ties(data):
    """Entries the sampled bound could wrongly cut (squared distances
    that round to the k-th distance, or sit at tau) are ranked as the
    row-wise full lexsort ranks them, bit for bit."""
    Q, R, k, r_ids, exclude = data
    got = nn.knn_numpy(Q, R, k, r_ids=r_ids, exclude_ids=exclude, q_ids=exclude)
    want = _knn_rowwise(Q, R, min(k, len(R)), r_ids, exclude)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


@st.composite
def _tied_rows(draw):
    """Rows with long runs of exact ties (a few lattice levels), -inf/+inf
    padding, -0.0 beside 0.0 and some distinct values; no tie key, one
    shared or one per row, unsorted; ``upto`` from 1 to the row width."""
    w = draw(st.integers(1, 40))
    level = st.sampled_from([-np.inf, -0.0, 0.0, 1.0, 2.0, 3.0, np.inf])
    cell = level | st.floats(-5, 5, allow_nan=False)
    D = np.array(draw(st.lists(st.lists(cell, min_size=w, max_size=w), min_size=1, max_size=6)))
    perm = st.permutations(range(0, 3 * w, 3))
    tie = draw(st.sampled_from(["none", "shared", "rows"]))
    if tie == "shared":
        tie = np.array(draw(perm), dtype=np.int64)
    elif tie == "rows":
        tie = np.array([draw(perm) for _ in D], dtype=np.int64)
    else:
        tie = None
    return D, tie, draw(st.none() | st.integers(1, w))


@settings(max_examples=300, deadline=None)
@given(data=_tied_rows())
def test_argsort_rows_matches_lexsort(data):
    D, tie, upto = data
    keys = np.broadcast_to(np.arange(D.shape[1]) if tie is None else tie, D.shape)
    want = np.array([np.lexsort((t, row))[:upto] for t, row in zip(keys, D)])
    np.testing.assert_array_equal(nn.argsort_rows(D, tie, upto), want)


@settings(max_examples=40, deadline=None)
@given(
    m=st.sampled_from([4, 8, 13]),
    seed=st.integers(0, 2**32 - 1),
    nq=st.integers(1, 150),
    k=st.sampled_from([1, 10]),
    cuts=st.lists(st.integers(1, 70), min_size=1, max_size=6),
    data=st.data(),
)
def test_knn_blocked_is_bitwise_independent_of_query_batching(m, seed, nq, k, cuts, data):
    """A query's neighbors and distances do not depend on which other
    queries share its call: the queries split into calls of any sizes, in
    any order, get the bits of one call over all of them (in pandas'
    column-major layout)."""
    rng = np.random.default_rng(seed)
    rel = nn.Relation(np.arange(300, dtype=np.int64), rng.normal(size=(300, m)) * 3.0, np.zeros(300))
    Q = rng.normal(size=(nq, m)) * 3.0
    whole = nn.knn_blocked(rel, np.asfortranarray(Q), k)
    perm = np.array(data.draw(st.permutations(range(nq))))
    pos, dist, s, i = np.empty_like(whole[0]), np.empty_like(whole[1]), 0, 0
    while s < nq:
        part = perm[s:s + cuts[i % len(cuts)]]
        pos[part], dist[part] = nn.knn_blocked(rel, Q[part], k)
        s, i = s + len(part), i + 1
    np.testing.assert_array_equal(pos, whole[0])
    np.testing.assert_array_equal(dist, whole[1])
