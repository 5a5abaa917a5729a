"""Unit tests for repro.core.linalg — ridge regression, the incremental
U/V computation of Proposition 3, and the candidate-grid sweeps."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import linalg


def _rand_xy(n, p, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, p)), rng.normal(size=n)


class TestDesign:
    def test_adds_intercept_column(self):
        X = np.arange(6.0).reshape(3, 2)
        D = linalg.design(X)
        assert D.shape == (3, 3)
        assert np.all(D[:, 0] == 1.0)
        assert np.array_equal(D[:, 1:], X)

    def test_promotes_1d(self):
        D = linalg.design(np.array([1.0, 2.0]))
        assert D.shape == (2, 2)

    @pytest.mark.parametrize("n,p", [(1, 1), (5, 3), (10, 1), (2, 7)])
    def test_shapes(self, n, p):
        X, _ = _rand_xy(n, p, 0)
        assert linalg.design(X).shape == (n, p + 1)


class TestRidgeFit:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_lstsq_at_tiny_alpha(self, seed):
        X, y = _rand_xy(50, 3, seed)
        phi = linalg.ridge_fit(X, y, alpha=1e-10)
        ref, *_ = np.linalg.lstsq(linalg.design(X), y, rcond=None)
        np.testing.assert_allclose(phi, ref, rtol=1e-6, atol=1e-8)

    def test_exact_on_noiseless_linear(self):
        X, _ = _rand_xy(30, 2, 1)
        y = 3.0 + 2.0 * X[:, 0] - 1.5 * X[:, 1]
        phi = linalg.ridge_fit(X, y)
        np.testing.assert_allclose(phi, [3.0, 2.0, -1.5], atol=1e-4)

    def test_alpha_shrinks_coefficients(self):
        X, y = _rand_xy(40, 2, 2)
        small = linalg.ridge_fit(X, y, alpha=1e-8)
        big = linalg.ridge_fit(X, y, alpha=1e3)
        assert np.linalg.norm(big) < np.linalg.norm(small)

    def test_collinear_features_survive(self):
        X, _ = _rand_xy(20, 1, 3)
        X = np.hstack([X, X])  # duplicated column
        y = X[:, 0] * 2
        phi = linalg.ridge_fit(X, y, alpha=1e-6)
        pred = linalg.design(X) @ phi
        np.testing.assert_allclose(pred, y, atol=1e-3)


class TestSingleNeighbor:
    def test_constant_model(self):
        phi = linalg.single_neighbor_phi(7.5, 4)
        assert phi[0] == 7.5
        assert np.all(phi[1:] == 0.0)

    def test_predicts_constant(self):
        phi = linalg.single_neighbor_phi(-2.0, 3)
        pred = linalg.design(np.random.default_rng(0).normal(size=(5, 2))) @ phi
        np.testing.assert_allclose(pred, -2.0)


def _grams(X, y, grid):
    """prefix_grams of one tuple whose neighbors are X's rows in order."""
    Z = linalg.augment(np.asarray(X, dtype=np.float64).reshape(len(y), -1), y)
    return linalg.prefix_grams(Z, np.arange(len(Z))[None], np.asarray(grid))[0]


class TestIncrementalRidge:
    """Proposition 3's incremental U/V, as the sweep computes them."""

    @pytest.mark.parametrize("splits", [[10], [3, 7], [1, 1, 8], [5, 2, 2, 1]])
    def test_batched_adds_equal_single_fit(self, splits):
        X, y = _rand_xy(sum(splits), 3, 5)
        phis = linalg.prefix_params(X, y, np.cumsum(splits))
        np.testing.assert_allclose(phis[-1], linalg.ridge_fit(X, y), rtol=1e-8)

    def test_u_v_are_sufficient_statistics(self):
        X, y = _rand_xy(12, 2, 6)
        G = _grams(X, y, [12])[0]
        D = linalg.design(X)
        np.testing.assert_allclose(G[:3, :3], D.T @ D)
        np.testing.assert_allclose(G[:3, 3], D.T @ y)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(4, 40),
        p=st.integers(1, 4),
        cut=st.floats(0.1, 0.9),
        seed=st.integers(0, 10_000),
    )
    def test_proposition3_any_split(self, n, p, cut, seed):
        """Formulas 20-21: U/V folded in any two batches equal scratch."""
        X, y = _rand_xy(n, p, seed)
        c = max(1, min(n - 1, int(n * cut)))
        G = _grams(X, y, [c, n])[1]
        D = linalg.design(X)
        np.testing.assert_allclose(G[: p + 1, : p + 1], D.T @ D, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(G[: p + 1, p + 1], D.T @ y, rtol=1e-9, atol=1e-9)


class TestMakeGrid:
    def test_h1_is_full_range(self):
        assert linalg.make_grid(5, 1).tolist() == [1, 2, 3, 4, 5]

    def test_stepping_keeps_cap(self):
        g = linalg.make_grid(10, 4)
        assert g.tolist() == [1, 5, 9, 10]

    def test_example5_grid(self):
        # paper Example 5: n=8, h=3 considers l in {1, 4, 7} (+ cap 8)
        g = linalg.make_grid(8, 3)
        assert g.tolist() == [1, 4, 7, 8]

    def test_l_max_caps(self):
        g = linalg.make_grid(100, 10, l_max=25)
        assert g[-1] == 25 and g[0] == 1

    @pytest.mark.parametrize("n,h", [(1, 1), (2, 5), (7, 7), (100, 33)])
    def test_always_contains_1_and_cap(self, n, h):
        g = linalg.make_grid(n, h)
        assert g[0] == 1 and g[-1] == n
        assert np.all(np.diff(g) > 0)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            linalg.make_grid(0, 1)
        with pytest.raises(ValueError):
            linalg.make_grid(5, 0)


class TestPrefixParams:
    @pytest.mark.parametrize("h", [1, 2, 3, 7])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_incremental_equals_scratch(self, h, seed):
        X, y = _rand_xy(20, 3, seed)
        grid = linalg.make_grid(20, h)
        inc = linalg.prefix_params(X, y, grid)
        scr = linalg.prefix_params_scratch(X, y, grid)
        np.testing.assert_allclose(inc, scr, rtol=1e-7, atol=1e-9)

    def test_l1_uses_single_neighbor_rule(self):
        X, y = _rand_xy(5, 2, 3)
        phis = linalg.prefix_params(X, y, np.array([1, 3, 5]))
        np.testing.assert_allclose(phis[0], [y[0], 0.0, 0.0])

    def test_grid_beyond_n_raises(self):
        X, y = _rand_xy(4, 2, 0)
        with pytest.raises(ValueError):
            linalg.prefix_params(X, y, np.array([1, 6]))

    def test_last_grid_point_is_full_fit(self):
        X, y = _rand_xy(15, 2, 8)
        phis = linalg.prefix_params(X, y, np.array([1, 15]))
        np.testing.assert_allclose(phis[-1], linalg.ridge_fit(X, y), rtol=1e-8)

    def test_1d_feature_input(self):
        X = np.array([0.0, 0.8, 1.9, 2.9])
        y = np.array([5.8, 4.6, 3.8, 3.2])
        phis = linalg.prefix_params(X, y, np.array([3, 4]))
        assert phis.shape == (2, 2)


class TestPaperExamples:
    """Examples 2 and 6: t1..t4 of Figure 1 with l=3 and l=4."""

    X = np.array([[0.0], [0.8], [1.9], [2.9]])
    y = np.array([5.8, 4.6, 3.8, 3.2])

    def test_example6_phi_l3(self):
        phi = linalg.ridge_fit(self.X[:3], self.y[:3])
        np.testing.assert_allclose(phi, [5.66, -1.03], atol=0.005)

    def test_example6_phi_l4(self):
        phi = linalg.ridge_fit(self.X, self.y)
        np.testing.assert_allclose(phi, [5.56, -0.87], atol=0.005)

    def test_example6_incremental_step(self):
        """U^(4), V^(4) from U^(3), V^(3) plus the t4 increment."""
        G3, G4 = _grams(self.X, self.y, [3, 4])
        U3, V3 = G3[:2, :2], G3[:2, 2]
        np.testing.assert_allclose(
            U3, [[3.0, 2.7], [2.7, 4.25]], atol=1e-12
        )
        np.testing.assert_allclose(G4[:2, :2] - U3, [[1.0, 2.9], [2.9, 8.41]])
        np.testing.assert_allclose(G4[:2, 2] - V3, [3.2, 9.28])
        phi4 = linalg.prefix_params(self.X, self.y, np.array([3, 4]))[-1]
        np.testing.assert_allclose(phi4, [5.56, -0.87], atol=0.005)
