"""The in-place arithmetic of one learner round against its plain form.

The expert rules, ``renormalize``, the GP's closed-form and dense queries
and its updates, the learner's confidence bounds and the kernels compute
in place on arrays each call makes for itself.  Every rewrite keeps the
same ufunc on the same operands: the ``out=`` form, two operands of one
``+`` or ``*`` swapped, a sign moved through a division or a product
(``a - b * c`` as ``a + b * -c``), a method for its ``np.`` wrapper,
Python floats for scalar ``+ - * /``, or a select dropped whose branches
agree.  So each result must equal, byte for byte, the plain expression
it replaced.  Those expressions are copied below as oracles and compared
by ``tobytes()`` over drawn inputs and a few edge cases.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from congames import experts
from congames.experts import (
    HedgeState,
    SleepingExpertState,
    _log_ada_weights,
    ada_predict,
    ada_update,
    hedge_predict,
    hedge_update,
)
from congames.gp import (
    BASE_JITTER,
    MAX_JITTER,
    ConfidenceParams,
    FactorizationError,
    GpModel,
    _Query,
    beta,
)
from congames.kernels import (
    KernelError,
    Matern,
    Polynomial,
    Product,
    SquaredExponential,
    cross,
    diag,
)
from congames.strategy import Player, PlayerConfig, renormalize

K = 7
EXACT = settings(max_examples=150, deadline=None)

# R is any finite regret; C counts at most 1 per round, so 3(C+1) stays finite
REGRETS = arrays(float, K, elements=st.floats(-1e300, 1e300))
MAGNITUDES = arrays(float, K, elements=st.floats(0.0, 1e300))
REAL = st.floats(-1e6, 1e6)
UNIT = st.floats(0.0, 1.0)


def same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (got, want)


# -- the expressions the rewrites replaced ----------------------------------

def old_log_ada_weights(R, C):
    denom = 3.0 * (C + 1.0)
    a = np.maximum(R + 1.0, 0.0) ** 2 / denom
    b = np.maximum(R - 1.0, 0.0) ** 2 / denom
    with np.errstate(divide="ignore"):
        return np.where(
            a > 0.0,
            a + np.log(0.5) + np.log1p(-np.exp(np.minimum(b - a, 0.0))),
            -np.inf,
        )


def old_ada_predict(R, C):
    return old_predict_from(old_log_ada_weights(R, C))


def old_predict_from(logw):
    if np.all(np.isinf(logw)):
        return np.full(len(logw), 1.0 / len(logw))
    m = np.max(logw)
    w = np.exp(logw - m)
    return w / w.sum()


def old_ada_update(R, C, awake, rewards, p):
    expected = float(p @ rewards)
    delta = np.where(awake, rewards - expected, 0.0)
    return R + delta, C + np.abs(delta)


def old_hedge_predict(log_weights):
    logw = log_weights - np.max(log_weights)
    w = np.exp(logw)
    return w / w.sum()


def old_hedge_update(log_weights, rounds_seen, rewards):
    t = rounds_seen + 1
    eta = 2.0 * np.sqrt(np.log(len(log_weights)) / t)
    return log_weights + eta * rewards


def old_renormalize(p, mask):
    restricted = np.where(mask, p, 0.0)
    total = restricted.sum()
    if total <= 0.0:
        return mask / mask.sum()
    return restricted / total


def old_sqdists(X, Y):
    diff = X[:, None, :] - Y[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def old_pairwise(spec, X, Y):
    if isinstance(spec, SquaredExponential):
        return np.exp(-old_sqdists(X, Y) / (2.0 * spec.lengthscale**2))
    if isinstance(spec, Product):
        s = spec.split_index
        return old_pairwise(spec.left, X[:, :s], Y[:, :s]) * old_pairwise(
            spec.right, X[:, s:], Y[:, s:])
    return spec.pairwise(X, Y)


def old_diagonal(spec, X):
    if isinstance(spec, Product):
        s = spec.split_index
        return old_diagonal(spec.left, X[:, :s]) * old_diagonal(spec.right, X[:, s:])
    return spec.diagonal(X)


class OldGpModel(GpModel):
    """The model with its update and query arithmetic as it was written
    before the in-place rewrite; buffers and bookkeeping are shared."""

    def _add_input(self, x, y, query):
        u = self._size
        key = x.tobytes()
        if u:
            if query is None or key not in query.cols:
                query = self._dense(x[None, :], {key: 0})
            col = query.cols[key]
            kvec = query.kt[col]
            b = query.ks[col]
            k = self._pending
            if k:
                b = b + (self._c[:k] * query.g[:, col]) @ self._V[:k, :u]
            kxx = query.prior[col]
            cc = kvec @ b
            resid = y - query.means[col]
        else:
            kxx = float(old_pairwise(self.kernel, x[None, :], x[None, :])[0, 0])
            b = np.zeros(0)
            cc = 0.0
            resid = y
        diag_entry = kxx + self.noise_variance
        jitter = 0.0
        piv = diag_entry - cc
        while piv <= 0.0 and jitter < MAX_JITTER:
            jitter = 10.0 * jitter if jitter else BASE_JITTER * diag_entry
            piv = diag_entry + jitter - cc
        if piv <= 0.0:
            raise FactorizationError("bordered inverse update broke down beyond maximum jitter")
        self._grow(len(x))
        border = b / -piv
        self._S[u, :u] = border
        self._S[:u, u] = border
        self._S[u, u] = 1.0 / piv
        r = resid / piv
        self._alpha[:u] -= np.multiply.outer(b, r)
        self._alpha[u] = r
        self._U[u] = x
        self._counts[u] = 1.0
        self._sums[u] = y
        self._jitter[u] = jitter
        self._row[key] = u
        self._size = u + 1
        if u:
            self._push(b, 1.0 / piv)
        return kxx - cc

    def _repeat_input(self, j, y):
        u, k = self._size, self._pending
        n = self._counts[j]
        d_jj = self.noise_variance / n + self._jitter[j]
        delta = self.noise_variance / (n * (n + 1.0))
        p = self._S[j, :u].copy()
        if k:
            V = self._V[:k, :u]
            p += (self._c[:k] * V[:, j]) @ V
        p_jj = p[j]
        rho = 1.0 - delta * p_jj
        if rho <= 0.0:
            raise FactorizationError("Sherman-Morrison update of a repeated input broke down")
        s = delta / rho
        d_ybar = (self._sums[j] + y) / (n + 1.0) - self._sums[j] / n
        coef = s * self._alpha[j] + (1.0 + s * p_jj) * d_ybar
        self._alpha[:u] += np.multiply.outer(p, coef)
        self._counts[j] = n + 1.0
        self._sums[j] += y
        self._push(p, s)
        return d_jj - d_jj * d_jj * p_jj

    def _dense(self, X, cols):
        u, k = self._size, self._pending
        kmat = old_pairwise(self.kernel, self._U[:u], X)
        kt = kmat.T
        ks = kt @ self._S[:u, :u]
        quad = np.einsum("ij,ij->i", ks, kt)
        g = self._V[:k, :u] @ kmat
        if k:
            quad += self._c[:k] @ (g * g)
        prior = old_diagonal(self.kernel, X)
        alpha = self._alpha[:u]
        means = np.column_stack([kt @ a.copy() for a in alpha.T]) if self.outputs else kt @ alpha
        return _Query(cols, kt, ks, g, prior, means, prior - quad)

    def _closed(self, j):
        n = self._counts[j]
        d = self.noise_variance / n + self._jitter[j]
        p_jj = self._S[j, j]
        k = self._pending
        if k:
            V = self._V[:k, j]
            p_jj = p_jj + self._c[:k] @ (V * V)
        return (self._sums[j].T / n - d * self._alpha[j].T).T, d - d * d * p_jj

    def posterior_batch(self, X):
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if self._size == 0:
            stds = np.sqrt(np.maximum(old_diagonal(self.kernel, X), 0.0))
            return np.zeros((len(X), *self.outputs)), stds
        X = X + 0.0
        keys = [x.tobytes() for x in X]
        rows = [self._row.get(key, -1) for key in keys]
        new = [i for i, j in enumerate(rows) if j < 0]
        if not new:
            means, var = self._closed(np.array(rows, dtype=np.intp))
        else:
            query = self._dense(X[new], {keys[i]: c for c, i in enumerate(new)})
            self._query = query
            if len(new) == len(rows):
                means, var = query.means.copy(), query.var
            else:
                seen = [i for i, j in enumerate(rows) if j >= 0]
                means, var = np.empty((len(rows), *self.outputs)), np.empty(len(rows))
                means[seen], var[seen] = self._closed(np.array([rows[i] for i in seen]))
                means[new], var[new] = query.means, query.var
        return means, np.sqrt(np.maximum(var, 0.0))

    def ucb_batch(self, X, beta_value):
        means, stds = self.posterior_batch(X)
        return (means.T + beta_value * stds).T

    def lcb_batch(self, X, beta_value):
        means, stds = self.posterior_batch(X)
        return (means.T - beta_value * stds).T


# the in-place bounds GpModel computed before the learner formed them
def deleted_ucb_batch(model, X, beta_value):
    means, stds = model.posterior_batch(X)
    stds *= beta_value
    np.add(means.T, stds, out=means.T)
    return means


def deleted_lcb_batch(model, X, beta_value):
    means, stds = model.posterior_batch(X)
    stds *= beta_value
    np.subtract(means.T, stds, out=means.T)
    return means


# -- the expert rules --------------------------------------------------------

def awake_masks():
    """A mask with at least one awake expert, often only one."""
    return st.one_of(
        st.integers(0, K - 1).map(lambda i: np.arange(K) == i),
        arrays(bool, K).map(lambda m: m | (np.arange(K) == 0)),
    )


EDGE_R = np.array([-1.0, -2.0, -1e300, 0.0, 1.0, 1e300, 3.5])


@EXACT
@given(REGRETS, MAGNITUDES)
@example(EDGE_R, np.zeros(K))
@example(np.full(K, -1.0), np.zeros(K))
@example(np.full(K, -5.0), np.arange(K, dtype=float))
@example(np.full(K, 1e300), np.zeros(K))
def test_ada_weights_and_predict(R, C):
    with np.errstate(over="ignore", invalid="ignore"):
        same(_log_ada_weights(R, C), old_log_ada_weights(R, C))
        same(ada_predict(SleepingExpertState(R, C)), old_ada_predict(R, C))


INF, NAN = np.inf, np.nan


@pytest.mark.parametrize("logw", [
    [-INF, -INF, -INF], [INF, INF, INF], [INF, -INF, -INF], [INF, -INF, INF],
    [INF, 0.0, -INF], [NAN, -INF, -INF], [INF, NAN, -INF], [-INF, 0.5, -2.0],
], ids=str)
def test_predict_fallback_is_all_isinf(monkeypatch, logw):
    """The uniform fallback is taken exactly when every log-weight is
    infinite, whatever its sign; otherwise the weights are normalized."""
    logw = np.array(logw)
    monkeypatch.setattr(experts, "_log_ada_weights", lambda R, C: logw.copy())
    state = SleepingExpertState.fresh(len(logw))
    with np.errstate(invalid="ignore"):
        same(ada_predict(state), old_predict_from(logw))


@st.composite
def update_inputs(draw):
    awake = draw(awake_masks())
    weights = draw(arrays(float, K, elements=st.floats(0.0, 1e3)))
    p = np.where(awake, weights, 0.0)
    total = p.sum()
    p = p / total if total > 0 else awake / awake.sum()
    rewards = draw(arrays(float, K, elements=st.one_of(UNIT, REAL)))
    return awake, p, rewards


@EXACT
@given(REGRETS, MAGNITUDES, update_inputs())
@example(EDGE_R, np.zeros(K),
         (np.arange(K) == 2, (np.arange(K) == 2) * 1.0, np.linspace(0.0, 1.0, K)))
def test_ada_update(R, C, inputs):
    awake, p, rewards = inputs
    state = ada_update(SleepingExpertState(R, C), awake, rewards, p)
    want_R, want_C = old_ada_update(R, C, awake, rewards, p)
    same(state.regrets, want_R)
    same(state.magnitudes, want_C)


@EXACT
@given(arrays(float, K, elements=REAL), st.integers(0, 10**6),
       arrays(float, K, elements=st.one_of(UNIT, REAL)))
def test_hedge_predict_and_update(log_weights, rounds_seen, rewards):
    state = HedgeState(log_weights, rounds_seen)
    same(hedge_predict(state), old_hedge_predict(log_weights))
    after = hedge_update(state, rewards)
    assert after.rounds_seen == rounds_seen + 1
    same(after.log_weights, old_hedge_update(log_weights, rounds_seen, rewards))


@EXACT
@given(arrays(float, K, elements=st.one_of(UNIT, st.floats(0.0, 1e300))), awake_masks())
@example(np.zeros(K), np.arange(K) < 2)
@example(np.where(np.arange(K) == 0, 0.0, 0.3), np.arange(K) == 0)
def test_renormalize(p, mask):
    same(renormalize(p, mask), old_renormalize(p, mask))


# -- kernels -----------------------------------------------------------------

KERNELS = [
    SquaredExponential(0.7),
    SquaredExponential(3.0),
    Product(SquaredExponential(1.0), SquaredExponential(2.0), split_index=3),
    Product(SquaredExponential(0.5), Matern(1.0, 2.5), split_index=2),
    Product(Polynomial(bias=1.0, lengthscale=2.0, degree=2), SquaredExponential(1.5),
            split_index=1),
]


@EXACT
@given(st.sampled_from(KERNELS),
       arrays(float, st.tuples(st.integers(1, 6), st.just(4)), elements=st.floats(-10, 10)),
       arrays(float, st.tuples(st.integers(1, 6), st.just(4)), elements=st.floats(-10, 10)))
def test_kernel_cross_and_diag(spec, X, Y):
    same(cross(spec, X, Y), old_pairwise(spec, X, Y))
    same(diag(spec, X), old_diagonal(spec, X))


# -- the GP's updates, queries and bounds ------------------------------------

OUTPUTS = st.sampled_from([(), (1,), (3,)])
GP_KERNELS = st.sampled_from([
    SquaredExponential(1.0),
    Product(SquaredExponential(1.0), SquaredExponential(1.5), split_index=2),
])


@st.composite
def observations(draw):
    """Observations on a small grid, so inputs repeat, with real targets;
    long enough that pending rank-1 terms get folded into S."""
    outputs = draw(OUTPUTS)
    n = draw(st.integers(1, 90))
    grid = draw(st.integers(2, 12))
    xs = draw(arrays(np.int64, (n, 3), elements=st.integers(0, grid - 1)))
    ys = draw(arrays(float, (n, *outputs), elements=st.floats(-10.0, 10.0)))
    return outputs, xs.astype(float) / 2.0, ys


def models(kernel, outputs, beta_scale=1.0):
    """A learner, the model its bounds come from, and an old model: the
    reward model for one target, or the constraint model of the M =
    outputs[0] constraints; the test kernel and noise variance 0.3**2."""
    M = outputs[0] if outputs else 0
    confidence = ConfidenceParams(rkhs_bound=1.0, noise_scale=0.3, failure_prob=0.1,
                                  num_constraints=M)
    player = Player(PlayerConfig(player_index=0, num_players=2, num_actions=2,
                                 reward_kernel=kernel, constraint_kernel=kernel,
                                 confidence=confidence,
                                 beta_scale=beta_scale))
    new = player.constraint_gps[0] if M else player.reward_gp
    assert new.outputs == outputs
    return player, new, OldGpModel(kernel, new.noise_variance, outputs)


def same_bounds(player, new, old, rows):
    """The learner's UCBs and LCBs from ``new`` equal the plain bounds of
    ``old`` and the deleted in-place ones of ``new``, at the scaled
    width that the old model's information gain gives."""
    cfg = player.config
    beta_value = cfg.beta_scale * beta(cfg.confidence, old.running_info_gain)
    ucbs = player._bounds(new, rows, 1)
    same(ucbs, old.ucb_batch(rows, beta_value))
    same(ucbs, deleted_ucb_batch(new, rows, beta_value))
    lcbs = player._bounds(new, rows, -1)
    same(lcbs, old.lcb_batch(rows, beta_value))
    same(lcbs, deleted_lcb_batch(new, rows, beta_value))


def same_state(new, old):
    """Every buffer of the two models, bytes included."""
    u = new._size
    assert (u, new._pending, new._row) == (old._size, old._pending, old._row)
    for name in ("_S", "_alpha", "_counts", "_sums", "_jitter", "_U"):
        same(getattr(new, name)[:u], getattr(old, name)[:u])
    for name in ("_V", "_c"):
        same(getattr(new, name), getattr(old, name))
    same(np.float64(new.running_info_gain), np.float64(old.running_info_gain))


@EXACT
@given(GP_KERNELS, observations(), st.floats(0.0, 5.0), st.data())
def test_gp_updates_queries_and_bounds(kernel, obs, beta_scale, data):
    outputs, xs, ys = obs
    player, new, old = models(kernel, outputs, beta_scale)
    for x, y in zip(xs, ys):
        if data.draw(st.booleans()):
            # a query between observations keeps its dense products for the update
            rows = xs[data.draw(st.lists(st.integers(0, len(xs) - 1), min_size=1, max_size=8))]
            for a, b in zip(new.posterior_batch(rows), old.posterior_batch(rows)):
                same(a, b)
        new.add_observation(x, y)
        old.add_observation(x, y)
        same_state(new, old)
    seen = np.array(sorted(new._row.values()), dtype=np.intp)
    j = seen[data.draw(st.lists(st.integers(0, len(seen) - 1), min_size=1, max_size=8))]
    for a, b in zip(new._closed(j), old._closed(j)):
        same(a, b)
    # training inputs only, unseen inputs only, and a mix of the two
    unseen = xs[:3] + 0.25
    for rows in (xs, unseen, np.concatenate([xs[:4], unseen])):
        same_bounds(player, new, old, rows)


def test_bounds_before_any_observation():
    # at scale 0 an LCB adds -0.0 where the plain form subtracts 0.0
    for outputs in [(), (1,), (3,)]:
        for beta_scale in (0.0, 1.5):
            player, new, old = models(SquaredExponential(1.0), outputs, beta_scale)
            same_bounds(player, new, old, np.arange(6.0).reshape(3, 2))


def test_zero_column_and_zero_row_queries():
    """Rows with no columns all get the empty key, so the query reaches the
    kernel's dimension check, as it did with one tobytes() per row; no
    rows give empty results."""
    player, new, old = models(SquaredExponential(1.0), (2,), 1.5)
    for model in (new, old):
        model.add_observation([1.0], [0.5, 1.0])
    with pytest.raises(KernelError, match="dimension mismatch: 1 vs 0"):
        new.posterior_batch(np.zeros((3, 0)))
    for rows in (np.zeros((0, 1)), np.zeros((0, 0))):
        same_bounds(player, new, old, rows)
