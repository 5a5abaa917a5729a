"""Adaptive learning (Algorithm 3): distributed implementation vs the
literal reference, incremental vs from-scratch equality, stepping, and
the does-adaptive-actually-help property."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import METHODS
from repro.core import adaptive, linalg
from repro.core.adaptive import adaptive_learn, adaptive_reference
from repro.core.nn import Relation, collect_relation, self_knn


def _rel_df(spark, n=30, p=2, seed=0, heterogeneous=False):
    rng = np.random.default_rng(seed)
    if heterogeneous:
        c = rng.integers(0, 2, n)
        x = rng.uniform(0, 3, (n, p)) + 4 * c[:, None]
        w = np.where(c[:, None], [1.5] * p, [-1.0] * p)
        y = (x * w).sum(axis=1) + rng.normal(0, 0.05, n)
    else:
        x = rng.normal(size=(n, p))
        y = x.sum(axis=1) + rng.normal(0, 0.1, n)
    cols = [f"A{j}" for j in range(1, p + 1)]
    pdf = pd.DataFrame(x, columns=cols)
    pdf["A_y"] = y
    pdf.insert(0, "row_id", np.arange(n, dtype=np.int64))
    return pdf, spark.createDataFrame(pdf), cols


@pytest.mark.parametrize("k,h", [(3, 1), (5, 2), (2, 7)])
def test_distributed_matches_reference(spark, k, h):
    """adaptive_learn (Spark, incremental) == adaptive_reference (literal
    driver-side Algorithm 3, from scratch) — same l*, same phi."""
    pdf, df, F = _rel_df(spark, n=24, seed=1)
    got = (
        adaptive_learn(spark, df, F, "A_y", k=k, h=h, l_max=None)
        .toPandas().sort_values("row_id").reset_index(drop=True)
    )
    rel = collect_relation(df, F, "A_y")
    ref = adaptive_reference(rel, k=k, h=h).sort_values("row_id").reset_index(drop=True)
    assert got["l_star"].tolist() == ref["l_star"].tolist()
    np.testing.assert_allclose(
        np.array(got["phi"].tolist()), np.array(ref["phi"].tolist()), atol=1e-7
    )


@pytest.mark.parametrize("h", [1, 3])
def test_incremental_equals_scratch(spark, h):
    """Section VI-C4: 'exactly same imputation errors of straightforward
    and incremental' — the learned models are bitwise-equal up to fp."""
    pdf, df, F = _rel_df(spark, n=20, seed=2)
    inc = (
        adaptive_learn(spark, df, F, "A_y", k=4, h=h, l_max=None, incremental=True)
        .toPandas().sort_values("row_id")
    )
    scr = (
        adaptive_learn(spark, df, F, "A_y", k=4, h=h, l_max=None, incremental=False)
        .toPandas().sort_values("row_id")
    )
    assert inc["l_star"].tolist() == scr["l_star"].tolist()
    np.testing.assert_allclose(
        np.array(inc["phi"].tolist()), np.array(scr["phi"].tolist()), atol=1e-8
    )


def test_l_star_within_grid(spark):
    pdf, df, F = _rel_df(spark, n=25, seed=3)
    got = adaptive_learn(spark, df, F, "A_y", k=3, h=4, l_max=None).toPandas()
    allowed = {1, 5, 9, 13, 17, 21, 25}
    assert set(got["l_star"]).issubset(allowed)


def test_l_max_caps_l_star(spark):
    pdf, df, F = _rel_df(spark, n=40, seed=4)
    got = adaptive_learn(spark, df, F, "A_y", k=3, h=1, l_max=10).toPandas()
    assert got["l_star"].max() <= 10


def test_homogeneous_data_prefers_large_l(spark):
    """On globally-linear data, under-fitting is impossible: validation
    should push most tuples to large neighbor counts."""
    pdf, df, F = _rel_df(spark, n=30, seed=5, heterogeneous=False)
    got = adaptive_learn(spark, df, F, "A_y", k=5, h=1, l_max=None).toPandas()
    assert got["l_star"].median() >= 6  # well above the overfitting regime


def test_heterogeneous_data_prefers_small_l(spark):
    """Two-regime data: models learned across the regime boundary impute
    badly, so the validation step should keep l below the regime size."""
    pdf, df, F = _rel_df(spark, n=40, seed=6, heterogeneous=True)
    got = adaptive_learn(spark, df, F, "A_y", k=5, h=1, l_max=None).toPandas()
    assert got["l_star"].median() <= 25


def test_adaptive_beats_bad_fixed_l(spark):
    """Figure 11's claim: adaptive is at least as good as poor fixed
    choices of l (l=2 overfit, l=n underfit) on heterogeneous data."""
    rng = np.random.default_rng(8)
    n = 80
    c = rng.integers(0, 2, n)
    x = rng.uniform(0, 3, n) + 4 * c
    y = np.where(c == 0, 2 * x, 10 - x) + rng.normal(0, 0.3, n)
    pdf = pd.DataFrame({"row_id": np.arange(n, dtype=np.int64), "A1": x, "A_y": y})
    mask = pdf.sample(16, random_state=0).index
    truth = pdf.loc[mask]
    r = spark.createDataFrame(pdf.drop(mask))
    q = spark.createDataFrame(truth[["row_id", "A1"]])

    def rms_for(**kw):
        got = METHODS["IIM"](spark, r, q, ["A1"], "A_y", k=5, **kw).set_index("row_id")
        e = got.loc[truth["row_id"], "imputed"].to_numpy() - truth["A_y"].to_numpy()
        return float(np.sqrt((e**2).mean()))

    adaptive = rms_for(l=None, h=1, l_max=None)
    overfit = rms_for(l=2)
    underfit = rms_for(l=64)
    assert adaptive <= overfit * 1.05
    assert adaptive <= underfit * 1.05


def test_reference_fallback_for_unpicked_tuples():
    """A far-away outlier is nobody's kNN; it must still get a model via
    the own-kNN validation fallback (not silently default to l=1)."""
    x = np.concatenate([np.linspace(0, 1, 10), [100.0]])
    y = 2 * x + 1
    rel = Relation(
        ids=np.arange(11, dtype=np.int64), X=x[:, None], y=y
    )
    ref = adaptive_reference(rel, k=2, h=1)
    assert len(ref) == 11
    out_phi = np.array(ref.set_index("row_id").loc[10, "phi"])
    pred = out_phi[0] + out_phi[1] * 100.0
    assert abs(pred - 201.0) < 1.0


def test_single_attribute_relation(spark):
    pdf, df, F = _rel_df(spark, n=15, p=1, seed=9)
    got = adaptive_learn(spark, df, F, "A_y", k=3, h=1, l_max=None).toPandas()
    assert len(got) == 15
    assert all(len(p) == 2 for p in got["phi"])


def test_one_tuple_relation_learns_its_own_value(spark):
    """n = 1: no neighbor to validate on, so l* = 1, the only grid point,
    and the model is the tuple's own value (Section III-A2)."""
    pdf, df, F = _rel_df(spark, n=1, p=2, seed=4)
    got = adaptive_learn(spark, df, F, "A_y", k=10).toPandas()
    assert got["l_star"].tolist() == [1]
    assert list(got["phi"][0]) == [pdf["A_y"][0], 0.0, 0.0]


@st.composite
def _lattice_sweeps(draw):
    """Integer-lattice relations with duplicate tuples, so neighbor
    distances tie exactly, also at segment boundaries; a stepped, maybe
    capped grid; and a random cut of the tuples into kernel blocks."""
    n = draw(st.integers(1, 30))
    p = draw(st.integers(1, 3))
    cells = st.lists(st.integers(-2, 2), min_size=p, max_size=p)
    X = draw(st.lists(cells, min_size=n, max_size=n))
    X += [X[i] for i in draw(st.lists(st.integers(0, n - 1), max_size=5))]
    n = len(X)
    y = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    ids = np.sort(draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True)))
    rel = Relation(ids=np.array(ids, np.int64), X=np.array(X, float), y=np.array(y, float))
    grid = linalg.make_grid(n, draw(st.integers(1, 6)), draw(st.none() | st.integers(1, n)))
    k = draw(st.integers(1, n + 1))
    sizes = draw(st.lists(st.integers(1, adaptive.SWEEP_BLOCK), min_size=1, max_size=6))
    return rel, grid, k, draw(st.permutations(range(n))), sizes


def _sweep_in_blocks(rel, grid, val, positions, sizes, incremental=True):
    phi, l_star, s = {}, {}, 0
    while s < len(positions):
        pos = np.array(positions[s:s + sizes[len(phi) % len(sizes)]], dtype=np.int64)
        s += len(pos)
        ph, ls = adaptive._sweep_block(rel, pos, grid, val, linalg.DEFAULT_ALPHA, incremental)
        for i, p in enumerate(pos):
            phi[int(p)], l_star[int(p)] = ph[i], int(ls[i])
    return phi, l_star


@settings(max_examples=60, deadline=None)
@given(data=_lattice_sweeps())
def test_block_kernel_matches_per_tuple_reference(data):
    """The block kernel equals the per-tuple path (ordering, from-scratch
    models, validation scoring), and a tuple's output is bitwise the same
    whether it is swept alone or in any block. The reference sums each
    prediction in the kernel's order: on a lattice several candidates can
    fit exactly, and their costs then tie up to the last bit."""
    rel, grid, k, positions, sizes = data
    val = adaptive._reverse_validation(self_knn(rel, k))
    phi, l_star = _sweep_in_blocks(rel, grid, val, positions, sizes)
    alone = _sweep_in_blocks(rel, grid, val, positions, [1])
    scratch = _sweep_in_blocks(rel, grid, val, positions, sizes, incremental=False)
    ptr, idx = val
    for i in range(rel.n):
        order = adaptive._sorted_neighbor_order(rel, i)
        phis = linalg.prefix_params_scratch(rel.X[order], rel.y[order], grid)
        v = idx[ptr[i]:ptr[i + 1]]
        pred = (linalg.design(rel.X[v])[:, None, :] * phis).sum(axis=-1)
        g = int(np.argmin(((pred - rel.y[v][:, None]) ** 2).sum(axis=0)))
        assert l_star[i] == grid[g] == scratch[1][i]
        np.testing.assert_allclose(phi[i], phis[g], rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(scratch[0][i], phis[g], rtol=1e-9, atol=1e-9)
        np.testing.assert_array_equal(phi[i], alone[0][i])
        assert l_star[i] == alone[1][i]


def test_block_kernel_bitwise_independent_of_block_on_inexact_ties():
    """A lattice scaled by 0.1 and shifted: its ties become near-ties whose
    order follows the distance rounding, and a GEMM rounds differently
    for different row counts. The kernel pads every block to one row
    count, so each tuple still gets the same bits in any block."""
    rng = np.random.default_rng(3)
    n = 150
    X = rng.integers(-2, 3, size=(n, 3)) * 0.1 + 7.3
    rel = Relation(ids=np.arange(n, dtype=np.int64), X=X, y=X @ [1.0, -2.0, 0.5] + rng.normal(size=n))
    grid = linalg.make_grid(n, 7, None)
    val = adaptive._reverse_validation(self_knn(rel, 10))
    positions = rng.permutation(n).tolist()
    blocks = _sweep_in_blocks(rel, grid, val, positions, [adaptive.SWEEP_BLOCK, 3, 11, 1])
    alone = _sweep_in_blocks(rel, grid, val, positions, [1])
    for i in range(n):
        np.testing.assert_array_equal(blocks[0][i], alone[0][i])
        assert blocks[1][i] == alone[1][i]
