"""GP regression tests against a dense direct-solve oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congames import gp as gp_mod
from congames.gp import PENDING, ConfidenceParams, FactorizationError, GpModel, beta
from congames.kernels import (
    Matern,
    Polynomial,
    Product,
    SquaredExponential,
    cross,
    evaluate,
    gram,
)
from congames.strategy import Player, PlayerConfig

ORACLE_KERNELS = [
    SquaredExponential(lengthscale=1.0),
    SquaredExponential(lengthscale=2.0),
    Matern(lengthscale=1.0, nu=0.5),
    Matern(lengthscale=0.8, nu=1.5),
    Matern(lengthscale=1.2, nu=2.5),
    Polynomial(bias=1.0, lengthscale=2.0, degree=2),
    Product(
        left=SquaredExponential(lengthscale=2.0),
        right=SquaredExponential(lengthscale=0.5),
        split_index=2,
    ),
]


def dense_posterior(kernel, noise_variance, X, y, queries):
    """Direct matrix-solve oracle for the posterior mean and std.

    Uses ``solve`` rather than an explicit inverse: with many repeats and
    little noise K is ill-conditioned, and k' K^-1 k through an inverse then
    loses about cond(K) * eps, while a backward-stable solve keeps the
    variance, which is well-conditioned in K, accurate.
    """
    K = gram(kernel, X) + noise_variance * np.eye(len(X))
    alpha = np.linalg.solve(K, y)
    means, stds = [], []
    for q in queries:
        kvec = np.array([evaluate(kernel, x, q) for x in X])
        means.append(kvec @ alpha)
        var = evaluate(kernel, q, q) - kvec @ np.linalg.solve(K, kvec)
        stds.append(math.sqrt(max(var, 0.0)))
    return np.array(means), np.array(stds)


def dense_info_gain(kernel, noise_variance, X):
    K = gram(kernel, X)
    sign, logdet = np.linalg.slogdet(np.eye(len(X)) + K / noise_variance)
    assert sign > 0
    return 0.5 * logdet


def grouped_oracle(kernel, noise_variance, X, y, queries):
    """``dense_posterior`` and ``dense_info_gain`` from sufficient statistics.

    n observations at one input with mean ybar are one observation of ybar
    with noise variance s2 / n, and by Sylvester's determinant identity
    logdet(I + K_XX / s2) = logdet(I + N^1/2 K_UU N^1/2 / s2) for the
    counts N, so a direct solve over the distinct inputs U gives the dense
    answer over all observations at O(|U|^3) cost.
    """
    U, inverse, counts = np.unique(X, axis=0, return_inverse=True, return_counts=True)
    ybar = np.bincount(inverse.ravel(), weights=y) / counts
    K = gram(kernel, U)
    A = K + np.diag(noise_variance / counts)
    kq = cross(kernel, U, queries)
    means = kq.T @ np.linalg.solve(A, ybar)
    var = np.array([evaluate(kernel, q, q) for q in queries])
    var -= np.einsum("ij,ij->j", kq, np.linalg.solve(A, kq))
    root = np.sqrt(counts)
    sign, logdet = np.linalg.slogdet(
        np.eye(len(U)) + root[:, None] * K * root[None, :] / noise_variance
    )
    assert sign > 0
    return means, np.sqrt(np.maximum(var, 0.0)), 0.5 * logdet


class TestPosteriorOracle:
    def test_empty_model_is_prior(self):
        model = GpModel(SquaredExponential(lengthscale=1.0), 1.0)
        (mean,), (std,) = model.posterior_batch(np.array([[0.3]]))
        assert mean == 0.0
        assert std == pytest.approx(1.0)

    def test_single_observation_hand_value(self):
        # mu = y*k/(k+s2) = 0.5, var = 1 - 1/(1+1) = 0.5
        model = GpModel(SquaredExponential(lengthscale=1.0), 1.0)
        x = np.array([0.7])
        model.add_observation(x, 1.0)
        (mean,), (std,) = model.posterior_batch(x[None, :])
        assert mean == pytest.approx(0.5, rel=1e-8)
        assert std == pytest.approx(math.sqrt(0.5), rel=1e-8)

    def test_sequential_adds_match_dense_fit(self):
        rng = np.random.default_rng(7)
        kernel = SquaredExponential(lengthscale=1.0)
        model = GpModel(kernel, 0.5)
        X = rng.normal(size=(10, 2))
        y = rng.normal(size=10)
        for xi, yi in zip(X, y):
            model.add_observation(xi, yi)
        queries = rng.normal(size=(20, 2))
        means, stds = model.posterior_batch(queries)
        om, os = dense_posterior(kernel, 0.5, X, y, queries)
        np.testing.assert_allclose(means, om, atol=1e-8)
        np.testing.assert_allclose(stds, os, atol=1e-8)

    def test_random_instances_all_kernels(self):
        # mirrors the acceptance sweep at unit scale
        rng = np.random.default_rng(8)
        for kernel in ORACLE_KERNELS:
            dim = kernel.split_index + 1 if isinstance(kernel, Product) else 3
            for _ in range(5):
                t = int(rng.integers(1, 12))
                noise = float(rng.uniform(0.1, 2.0))
                X = rng.normal(size=(t, dim))
                y = rng.normal(size=t)
                model = GpModel(kernel, noise)
                for xi, yi in zip(X, y):
                    model.add_observation(xi, yi)
                queries = rng.normal(size=(8, dim))
                means, stds = model.posterior_batch(queries)
                om, os = dense_posterior(kernel, noise, X, y, queries)
                np.testing.assert_allclose(means, om, atol=1e-8)
                np.testing.assert_allclose(stds, os, atol=1e-8)

    def test_variance_monotone_in_observations(self):
        rng = np.random.default_rng(9)
        model = GpModel(Matern(lengthscale=1.0, nu=1.5), 0.3)
        queries = rng.normal(size=(50, 2))
        _, prev = model.posterior_batch(queries)
        for _ in range(15):
            model.add_observation(rng.normal(size=2), rng.normal())
            _, cur = model.posterior_batch(queries)
            assert np.all(cur <= prev + 1e-9)
            prev = cur

    def test_posterior_batch_matches_scalar(self):
        rng = np.random.default_rng(10)
        model = GpModel(SquaredExponential(lengthscale=1.5), 1.0)
        for _ in range(6):
            model.add_observation(rng.normal(size=2), rng.normal())
        queries = rng.normal(size=(5, 2))
        means, stds = model.posterior_batch(queries)
        for q, m, s in zip(queries, means, stds):
            (sm,), (ss,) = model.posterior_batch(q[None, :])
            assert m == pytest.approx(sm, abs=1e-12)
            assert s == pytest.approx(ss, abs=1e-12)

    @pytest.mark.parametrize("noise", [0.0, -1.0, float("inf"), float("nan")])
    def test_noise_variance_must_be_positive_and_finite(self, noise):
        with pytest.raises(ValueError, match="noise_variance"):
            GpModel(SquaredExponential(lengthscale=1.0), noise)

    def test_nonfinite_observation_rejected(self):
        model = GpModel(SquaredExponential(lengthscale=1.0), 1.0)
        with pytest.raises(ValueError):
            model.add_observation(np.array([0.0]), float("nan"))

    def test_nonfinite_inputs_rejected(self):
        model = GpModel(SquaredExponential(lengthscale=1.0), 1.0)
        model.add_observation(np.array([0.0]), 1.0)
        with pytest.raises(ValueError):
            model.add_observation(np.array([float("inf")]), 1.0)
        with pytest.raises(ValueError):
            model.posterior_batch(np.array([[float("nan")]]))
        assert model.num_observations == 1

    def test_duplicate_points_survive_via_jitter(self):
        # exact duplicates make the noiseless bordered pivot degenerate;
        # observation noise keeps it positive, so this must not raise
        model = GpModel(SquaredExponential(lengthscale=1.0), 1e-6)
        x = np.array([0.5])
        for _ in range(5):
            model.add_observation(x, 1.0)
        (mean,), _ = model.posterior_batch(x[None, :])
        assert mean == pytest.approx(1.0, abs=1e-3)


@st.composite
def repeated_sequences(draw):
    """A kernel, a noise level, and observations drawn from a small grid."""
    kernel = draw(st.sampled_from(ORACLE_KERNELS))
    dim = kernel.split_index + 1 if isinstance(kernel, Product) else 2
    point = st.tuples(*[st.integers(0, 2)] * dim)
    grid = np.array(
        draw(st.lists(point, min_size=1, max_size=4, unique=True)), dtype=float
    )
    picks = draw(st.lists(st.integers(0, len(grid) - 1), min_size=1, max_size=40))
    ys = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(picks), max_size=len(picks)))
    noise = draw(st.floats(1e-3, 2.0))
    return kernel, noise, grid, grid[picks], np.array(ys)


class TestRepeatedInputs:
    @given(repeated_sequences())
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_oracle_over_all_observations(self, case):
        kernel, noise, grid, X, y = case
        model = GpModel(kernel, noise)
        for xi, yi in zip(X, y):
            model.add_observation(xi, yi)
        assert model.num_observations == len(X)
        # the distinct inputs, in order of first observation
        _, first = np.unique(X, axis=0, return_index=True)
        np.testing.assert_array_equal(model.inputs, X[np.sort(first)])
        means, stds = model.posterior_batch(grid)
        om, os = dense_posterior(kernel, noise, X, y, grid)
        np.testing.assert_allclose(means, om, rtol=0, atol=1e-8)
        np.testing.assert_allclose(stds, os, rtol=0, atol=1e-8)
        assert model.running_info_gain == pytest.approx(
            dense_info_gain(kernel, noise, X), rel=0, abs=1e-8
        )

    def test_factor_grows_with_distinct_inputs_only(self):
        # 23 distinct inputs outgrow the initial buffers while repeating
        kernel = SquaredExponential(lengthscale=1.0)
        model = GpModel(kernel, 0.1)
        rng = np.random.default_rng(14)
        X = 0.5 * (np.arange(300) % 23)[:, None]
        y = rng.normal(size=300)
        for xi, yi in zip(X, y):
            model.add_observation(xi, yi)
        assert model.num_distinct == 23
        queries = np.linspace(-1.0, 12.0, 30)[:, None]
        means, stds = model.posterior_batch(queries)
        om, os = dense_posterior(kernel, 0.1, X, y, queries)
        np.testing.assert_allclose(means, om, rtol=0, atol=1e-8)
        np.testing.assert_allclose(stds, os, rtol=0, atol=1e-8)
        assert model.running_info_gain == pytest.approx(
            dense_info_gain(kernel, 0.1, X), rel=0, abs=1e-8
        )


class TestDelayedInverse:
    """P = S + V' diag(c) V against a direct solve over many observations."""

    KERNEL = SquaredExponential(lengthscale=1.0)
    NOISE = 0.1

    def sequence(self, num_obs, num_inputs, seed):
        # a 20 x 15 grid of inputs; early inputs repeat most, as a learner's
        # first feasible actions do, and new ones keep arriving until 80% of
        # the run, so the buffers double with terms pending
        rng = np.random.default_rng(seed)
        grid = 0.5 * np.argwhere(np.ones((20, 15)))[:num_inputs]
        weights = 1.0 / (np.arange(num_inputs) + 5.0)
        picks, seen = [], 0
        for t in range(num_obs):
            if seen < min(num_inputs, 1 + t * num_inputs * 5 // (4 * num_obs)):
                picks.append(seen)
                seen += 1
            else:
                w = weights[:seen]
                picks.append(int(rng.choice(seen, p=w / w.sum())))
        X = grid[picks]
        y = np.sin(X[:, 0]) * np.cos(X[:, 1]) + 0.3 * rng.normal(size=num_obs)
        return grid, X, y

    def check(self, model, grid, X, y):
        means, stds = model.posterior_batch(grid)
        om, os, gain = grouped_oracle(self.KERNEL, self.NOISE, X, y, grid)
        np.testing.assert_allclose(means, om, rtol=0, atol=1e-8)
        np.testing.assert_allclose(stds, os, rtol=0, atol=1e-8)
        assert model.running_info_gain == pytest.approx(gain, rel=0, abs=1e-8)

    def test_grouped_oracle_is_the_dense_oracle(self):
        grid, X, y = self.sequence(400, 60, seed=21)
        om, os, gain = grouped_oracle(self.KERNEL, self.NOISE, X, y, grid)
        dm, ds = dense_posterior(self.KERNEL, self.NOISE, X, y, grid)
        np.testing.assert_allclose(om, dm, rtol=0, atol=1e-10)
        np.testing.assert_allclose(os, ds, rtol=0, atol=1e-10)
        assert gain == pytest.approx(
            dense_info_gain(self.KERNEL, self.NOISE, X), rel=0, abs=1e-10
        )

    def test_matches_dense_oracle_over_5000_observations(self):
        grid, X, y = self.sequence(5200, 300, seed=22)
        model = GpModel(self.KERNEL, self.NOISE)
        states = set()
        for t, (xi, yi) in enumerate(zip(X, y), start=1):
            cap, pending = len(model._alpha), model._pending
            model.add_observation(xi, yi)
            if len(model._alpha) > cap and pending:
                # a doubling with terms pending: query at once
                states.add("grown")
            elif model._pending == 0 and pending == PENDING - 1 and t % 3 == 0:
                states.add("folded")
            elif model._pending == PENDING // 2 and t % 7 == 0:
                states.add("mid-block")
            else:
                continue
            self.check(model, grid, X[:t], y[:t])
        assert states == {"grown", "folded", "mid-block"}
        assert model.num_observations == 5200 and model.num_distinct == 300
        self.check(model, grid, X, y)


class TestInfoGain:
    def test_matches_dense_logdet(self):
        rng = np.random.default_rng(11)
        kernel = SquaredExponential(lengthscale=1.0)
        noise = 0.7
        model = GpModel(kernel, noise)
        X = rng.normal(size=(12, 2))
        for i, xi in enumerate(X):
            model.add_observation(xi, rng.normal())
            expected = dense_info_gain(kernel, noise, X[: i + 1])
            assert model.running_info_gain == pytest.approx(expected, abs=1e-8)

    def test_starts_at_zero_and_grows(self):
        model = GpModel(SquaredExponential(lengthscale=1.0), 1.0)
        assert model.running_info_gain == 0.0
        model.add_observation(np.array([0.0]), 0.1)
        assert model.running_info_gain > 0.0


class TestBeta:
    def test_hand_value(self):
        params = ConfidenceParams(
            rkhs_bound=1.0, noise_scale=1.0, failure_prob=0.5, num_constraints=1
        )
        expected = 1.0 + math.sqrt(2.0 * (1.0 + math.log(8.0)))
        assert beta(params, 0.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(3.48167, abs=5e-5)

    def test_zero_noise_degenerates_to_rkhs_bound(self):
        params = ConfidenceParams(
            rkhs_bound=2.5, noise_scale=0.0, failure_prob=0.1, num_constraints=0
        )
        assert beta(params, 3.0) == pytest.approx(2.5)

    def test_monotone_in_info_gain(self):
        rng = np.random.default_rng(12)
        params = ConfidenceParams(
            rkhs_bound=1.0, noise_scale=1.0, failure_prob=0.1, num_constraints=1
        )
        for _ in range(50):
            g1, g2 = sorted(rng.uniform(0, 20, size=2))
            assert beta(params, g1) <= beta(params, g2)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ConfidenceParams(
                rkhs_bound=-1.0, noise_scale=1.0, failure_prob=0.1, num_constraints=0
            )
        with pytest.raises(ValueError):
            ConfidenceParams(
                rkhs_bound=1.0, noise_scale=1.0, failure_prob=1.5, num_constraints=0
            )


class TestConfidenceBounds:
    def test_ucb_lcb_symmetric_around_mean(self):
        # a learner's bounds on its reward model, at beta_scale times beta
        rng = np.random.default_rng(13)
        confidence = ConfidenceParams(rkhs_bound=1.0, noise_scale=1.0, failure_prob=0.1)
        player = Player(PlayerConfig(
            player_index=0, num_players=2, num_actions=2,
            reward_kernel=SquaredExponential(lengthscale=1.0),
            confidence=confidence, beta_scale=0.5,
        ))
        model = player.reward_gp
        for _ in range(5):
            model.add_observation(rng.normal(size=1), rng.normal())
        b = 0.5 * beta(confidence, model.running_info_gain)
        X = np.vstack([[0.2], rng.normal(size=(4, 1))])
        means, stds = model.posterior_batch(X)
        np.testing.assert_allclose(player._bounds(model, X, 1), means + b * stds)
        np.testing.assert_allclose(player._bounds(model, X, -1), means - b * stds)
        # a batch row agrees with a one-row query
        (mean,), (std,) = model.posterior_batch(X[:1])
        assert player._bounds(model, X, 1)[0] == pytest.approx(mean + b * std)
        assert player._bounds(model, X, -1)[0] == pytest.approx(mean - b * std)


def one_solve_oracle(kernel, noise_variance, X, y, queries):
    """Means and stds from one dense solve over all observations, for
    observation lists too long to factor once per query row."""
    K = gram(kernel, X) + noise_variance * np.eye(len(X))
    kq = cross(kernel, X, queries)
    sol = np.linalg.solve(K, np.column_stack([y, kq]))
    means = kq.T @ sol[:, 0]
    var = np.array([evaluate(kernel, q, q) for q in queries])
    var -= np.einsum("ij,ij->j", kq, sol[:, 1:])
    return means, np.sqrt(np.maximum(var, 0.0))


def count_cross_calls(monkeypatch):
    """Record, for each kernel-column evaluation a GpModel makes, its
    number of columns."""
    calls = []
    real = gp_mod.cross

    def counting(spec, X, Y):
        calls.append(len(np.atleast_2d(Y)))
        return real(spec, X, Y)

    monkeypatch.setattr(gp_mod, "cross", counting)
    return calls


class TestClosedForm:
    """Query rows that are training inputs take the closed form."""

    KERNEL = SquaredExponential(lengthscale=1.0)

    def test_heavily_repeated_inputs_against_dense_solve(self):
        # 2400 observations on 6 inputs: the variance there is about
        # s2 / n, which the dense form gets as a difference of O(1) terms
        rng = np.random.default_rng(31)
        noise = 0.05
        grid = np.array([[0.0], [0.4], [0.9], [1.5], [2.0], [3.1]])
        picks = rng.choice(6, size=2400, p=[0.4, 0.3, 0.15, 0.1, 0.04, 0.01])
        X = grid[picks]
        y = np.sin(X[:, 0]) + 0.2 * rng.normal(size=len(X))
        model = GpModel(self.KERNEL, noise)
        for xi, yi in zip(X, y):
            model.add_observation(xi, yi)
        assert model.num_distinct == 6
        means, stds = model.posterior_batch(grid)
        om, os = one_solve_oracle(self.KERNEL, noise, X, y, grid)
        np.testing.assert_allclose(means, om, rtol=0, atol=1e-9)
        np.testing.assert_allclose(stds, os, rtol=0, atol=1e-9)
        # the dense form of the same model at the same rows: its stds are
        # several times further off; both means sit at the oracle's own
        # rounding level, about 1e-13
        dense = model._dense(grid, {})
        dense_stds = np.sqrt(np.maximum(dense.var, 0.0))
        assert np.abs(stds - os).max() <= np.abs(dense_stds - os).max()
        assert np.abs(means - om).max() <= max(np.abs(dense.means - om).max(), 1e-12)

    def test_mixed_batch_equals_row_by_row(self, monkeypatch):
        rng = np.random.default_rng(32)
        kernel = Matern(lengthscale=0.8, nu=1.5)
        model = GpModel(kernel, 0.2)
        seen = rng.normal(size=(9, 2))
        X = seen[rng.integers(9, size=60)]
        y = rng.normal(size=60)
        for xi, yi in zip(X, y):
            model.add_observation(xi, yi)
        unseen = rng.normal(size=(5, 2))
        batch = np.vstack([seen[3], unseen[0], seen[0], unseen[1:4], seen[7], unseen[4]])
        calls = count_cross_calls(monkeypatch)
        means, stds = model.posterior_batch(batch)
        assert calls == [5]  # one kernel evaluation, for the unseen rows only
        for q, m, s in zip(batch, means, stds):
            (qm,), (qs,) = model.posterior_batch(q[None, :])
            assert m == pytest.approx(qm, rel=0, abs=1e-12)
            assert s == pytest.approx(qs, rel=0, abs=1e-12)
        om, os = dense_posterior(kernel, 0.2, X, y, batch)
        np.testing.assert_allclose(means, om, rtol=0, atol=1e-8)
        np.testing.assert_allclose(stds, os, rtol=0, atol=1e-8)

    def test_first_query_is_the_prior(self):
        kernel = Polynomial(bias=1.0, lengthscale=2.0, degree=2)
        model = GpModel(kernel, 0.5)
        X = np.array([[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]])
        means, stds = model.posterior_batch(X)
        np.testing.assert_array_equal(means, np.zeros(3))
        np.testing.assert_allclose(stds, [math.sqrt(evaluate(kernel, x, x)) for x in X])

    def test_empty_batch(self):
        model = GpModel(self.KERNEL, 0.5)
        model.add_observation([1.0, 2.0], 0.3)
        means, stds = model.posterior_batch(np.zeros((0, 2)))
        assert means.shape == (0,) and stds.shape == (0,)

    def test_negative_zero_is_the_same_input(self):
        model = GpModel(self.KERNEL, 0.5)
        model.add_observation([0.0, 1.0], 1.0)
        model.add_observation([-0.0, 1.0], 0.5)
        assert model.num_distinct == 1 and model.num_observations == 2
        plus, minus = model.posterior_batch(np.array([[0.0, 1.0], [-0.0, 1.0]]))
        assert plus[0] == plus[1] and minus[0] == minus[1]
        X = np.array([[0.0, 1.0], [0.0, 1.0]])
        om, os = dense_posterior(self.KERNEL, 0.5, X, np.array([1.0, 0.5]), X[:1])
        assert plus[0] == pytest.approx(om[0], abs=1e-12)
        assert minus[0] == pytest.approx(os[0], abs=1e-12)


class TestStoredQuery:
    """A new input reuses the products of the query made since the last
    observation, and never those of an older one."""

    KERNEL = SquaredExponential(lengthscale=1.0)
    NOISE = 0.1

    def history(self, pending):
        """Observations on a 1-d grid that leave ``pending`` terms waiting."""
        rng = np.random.default_rng(33)
        X, y = [], []
        model = GpModel(self.KERNEL, self.NOISE)
        while len(X) < 40 or model._pending != pending:
            X.append([0.3 * int(rng.integers(12))])
            y.append(float(rng.normal()))
            model.add_observation(X[-1], y[-1])
        return X, y

    def fitted(self, X, y):
        model = GpModel(self.KERNEL, self.NOISE)
        for xi, yi in zip(X, y):
            model.add_observation(xi, yi)
        return model

    def check(self, model, X, y):
        grid = np.linspace(-1.0, 5.0, 13)[:, None]
        means, stds, gain = grouped_oracle(self.KERNEL, self.NOISE, np.array(X),
                                           np.array(y), grid)
        got_means, got_stds = model.posterior_batch(grid)
        np.testing.assert_allclose(got_means, means, rtol=0, atol=1e-8)
        np.testing.assert_allclose(got_stds, stds, rtol=0, atol=1e-8)
        assert model.running_info_gain == pytest.approx(gain, rel=0, abs=1e-8)

    @pytest.mark.parametrize("pending", [0, 5, PENDING - 1])
    def test_update_after_query_matches_a_model_that_never_queried(
            self, monkeypatch, pending):
        X, y = self.history(pending)
        queried, twin = self.fitted(X, y), self.fitted(X, y)
        batch = np.array([[0.6], [4.1], [0.0], [3.7]])  # 4.1 and 3.7 are new
        queried.posterior_batch(batch)
        calls = count_cross_calls(monkeypatch)
        queried.add_observation(batch[1], 0.8)
        assert calls == []  # the update took the query's kernel column
        twin.add_observation(batch[1], 0.8)
        assert calls == [1]
        grid = np.linspace(-1.0, 5.0, 13)[:, None]
        for got, want in zip(queried.posterior_batch(grid), twin.posterior_batch(grid)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert queried.running_info_gain == pytest.approx(
            twin.running_info_gain, rel=0, abs=1e-12
        )
        self.check(queried, X + [[4.1]], y + [0.8])

    @pytest.mark.parametrize("pending", [0, PENDING - 2, PENDING - 1])
    def test_query_is_dropped_by_any_observation(self, monkeypatch, pending):
        # with PENDING - 1 terms waiting the first update folds them into S;
        # with PENDING - 2 the second one does
        X, y = self.history(pending)
        model = self.fitted(X, y)
        batch = np.array([[4.1], [3.7]])
        model.posterior_batch(batch)
        calls = count_cross_calls(monkeypatch)
        model.add_observation([5.0], -0.2)  # new, but not in the query
        model.add_observation(batch[0], 0.8)
        assert calls == [1, 1]  # each new input evaluated its own column
        self.check(model, X + [[5.0], [4.1]], y + [-0.2, 0.8])

    def test_repeat_drops_the_query(self, monkeypatch):
        X, y = self.history(PENDING - 1)
        model = self.fitted(X, y)
        batch = np.array([[4.1]])
        model.posterior_batch(batch)
        calls = count_cross_calls(monkeypatch)
        model.add_observation(X[0], 0.1)  # a repeat, which folds
        model.add_observation(batch[0], 0.8)
        assert calls == [1]
        self.check(model, X + [X[0], [4.1]], y + [0.1, 0.8])


@st.composite
def target_column_cases(draw):
    """A kernel, a noise level, M targets, a grid of 17 to 40 inputs and a
    seed for the observation order, the targets and the query batches."""
    kernel = draw(st.sampled_from(ORACLE_KERNELS))
    dim = kernel.split_index + 1 if isinstance(kernel, Product) else 2
    point = st.tuples(*[st.integers(0, 6)] * dim)
    grid = 0.5 * np.array(
        draw(st.lists(point, min_size=17, max_size=40, unique=True)), dtype=float
    )
    return (kernel, draw(st.floats(1e-3, 2.0)), draw(st.integers(2, 4)), grid,
            draw(st.integers(0, 2**32 - 1)))


class TestTargetColumns:
    """A model with M target columns gives each target bit for bit what
    a one-target model fed that target alone gives: the same means, the
    same stds and the same information gain, through new inputs,
    repeats, queries kept for the next update, folds and doublings."""

    # bounds are the learner's: beta_scale times beta at the model's gain
    LEARNER = Player(PlayerConfig(
        player_index=0, num_players=2, num_actions=2,
        reward_kernel=SquaredExponential(lengthscale=1.0),
        confidence=ConfidenceParams(rkhs_bound=1.0, noise_scale=1.0, failure_prob=0.1),
        beta_scale=0.5,
    ))

    def play(self, kernel, noise, M, grid, seed, num_obs=120):
        """Feed one M-target model and M one-target models the same
        observations, querying all of them between some; returns the
        shared model, after comparing every query and the final state."""
        rng = np.random.default_rng(seed)
        shared = GpModel(kernel, noise, outputs=(M,))
        singles = [GpModel(kernel, noise) for _ in range(M)]
        for t in range(num_obs):
            if rng.random() < 0.4:
                # seen and unseen grid rows, and an input off the grid
                rows = grid[rng.integers(len(grid), size=rng.integers(1, 7))]
                batch = np.vstack([rows, rows[:1] + 0.25])
                means, stds = shared.posterior_batch(batch)
                assert means.shape == (len(batch), M) and stds.shape == (len(batch),)
                lcbs = self.LEARNER._bounds(shared, batch, -1)
                for m, single in enumerate(singles):
                    m_means, m_stds = single.posterior_batch(batch)
                    np.testing.assert_array_equal(means[:, m], m_means)
                    np.testing.assert_array_equal(stds, m_stds)
                    np.testing.assert_array_equal(lcbs[:, m],
                                                  self.LEARNER._bounds(single, batch, -1))
            # favour inputs seen before, so that repeats are common; the
            # input is sometimes the off-grid row just queried
            x = grid[rng.integers(min(len(grid), 3 + t // 2))]
            if rng.random() < 0.1:
                x = x + 0.25
            y = rng.normal(size=M)
            shared.add_observation(x, y)
            for m, single in enumerate(singles):
                single.add_observation(x, y[m])
        for m, single in enumerate(singles):
            assert shared.running_info_gain == single.running_info_gain
            np.testing.assert_array_equal(shared._S, single._S)
            np.testing.assert_array_equal(shared._alpha[:, m], single._alpha)
            for got, want in zip(shared.posterior_batch(grid), single.posterior_batch(grid)):
                np.testing.assert_array_equal(got if got.ndim == 1 else got[:, m], want)
        return shared

    @given(target_column_cases())
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    def test_bit_equal_to_one_model_per_target(self, case):
        self.play(*case)

    def test_cases_reach_folds_and_doublings(self):
        # one long fixed case: more than 32 distinct inputs (two doublings
        # of the buffers) and six folds
        grid = 0.5 * np.argwhere(np.ones((7, 6)))
        shared = self.play(SquaredExponential(lengthscale=1.0), 0.1, 3, grid, 5,
                           num_obs=200)
        assert shared.num_distinct > 32 and shared.num_observations == 200
        assert shared._S.shape == (64, 64)

    def test_target_shape_is_checked(self):
        model = GpModel(SquaredExponential(lengthscale=1.0), 1.0, outputs=(2,))
        for y in (1.0, [1.0], [1.0, 2.0, 3.0], [1.0, float("nan")]):
            with pytest.raises(ValueError, match="shape"):
                model.add_observation([0.0], y)
        assert model.num_observations == 0
        means, stds = model.posterior_batch([[0.0], [1.0]])
        assert means.shape == (2, 2) and stds.shape == (2,)
        model.add_observation([0.0], [1.0, -1.0])
        assert model.num_observations == 1
