"""Incremental Gaussian-process regression and the confidence-width schedule.

The learners query their models on a finite grid of inputs, so most
observations repeat an earlier input.  With homoscedastic noise s2, n
observations at one input with mean ybar carry exactly the information of
one observation of ybar with noise s2 / n.  The model therefore works over
the distinct inputs U only, with

    A = K_UU + diag(s2 / n_j + jitter_j),

and keeps its explicit inverse P = A^-1 and alpha = P ybar.  P is held as

    P = S + V' diag(c) V,

where S sits in a (cap, cap) buffer, read through the view S[:u, :u], that
doubles when full, and the rows of V (a (PENDING, cap) buffer) are up to
PENDING rank-1 terms not yet added to S.  Every update below adds one such
term at O(u * PENDING) cost; once PENDING of them wait, they are folded
into S with one matrix product, S += V' diag(c) V.  An observation thus
costs O(u * PENDING) plus a share of one O(u^2 * PENDING) gemm, instead of
the O(u^2) passes an eager rank-1 update makes over S.

* A repeat of input j lowers its noise term from s2/n to s2/(n+1), so
  A' = A - delta e_j e_j' with delta = s2 / (n(n+1)).  By Sherman and
  Morrison (1950), with p = P e_j (column j of S plus the pending terms),

      P' = P + s p p',   s = delta / (1 - delta p_j),

  which breaks down when 1 - delta p_j <= 0, that is when A' is no longer
  positive definite.  As ybar changes only in entry j, by d = ybar_j' -
  ybar_j, and p' ybar = alpha_j, alpha gains p (s alpha_j + (1 + s p_j) d).
* A new input x borders A with k = k(U, x) and k(x, x) + s2.  With b = P k
  and the pivot piv = k(x, x) + s2 - k'b, the bordered inverse is

      [[P + b b' / piv, -b / piv], [-b' / piv, 1 / piv]]:

  S gains the row and column [-b' / piv, 1 / piv] and (b, 1 / piv) is
  pending.  With r = (y - k'alpha) / piv, alpha gains -r b and the entry r.
  Only a pivot that breaks down gets a diagonal jitter, up to MAX_JITTER.

A query row that is a training input, x = U_j, needs no kernel column:
with D = diag(s2 / n_j + jitter_j), k(U, x) = (A - D) e_j, so

    mean = ybar_j - D_jj alpha_j,    var = D_jj - D_jj^2 P_jj,

where P_jj = S_jj + sum_i c_i V_ij^2 costs O(PENDING).  The other rows, with
kernel columns K = k(U, X), have means K'alpha and variances
k(x, x) - diag(K'SK) - sum_i c_i (V_i K)^2.  That dense query keeps K, K'S,
V K, the prior variances and the means until the next observation, and a
new input that was one of its rows reuses them: k is its column of K,
b = P k is its row of K'S plus (c * (V k))' V, and its residual comes from
its mean.  Nothing observed in between can have changed P or alpha, as
every observation drops the kept query first.  A new input that was not
queried runs the same dense query on its one row.  Queries match a dense
solve over the full observation list to numerical precision, and so does
the realized information gain 0.5 * logdet(I + K / s2), which is summed
per observation and feeds the confidence-width schedule.

Inputs are keyed by their bytes after adding 0.0, which turns -0.0 into
0.0, so the two name one input; a query row's key is its slice of the
bytes of the whole query.

A model built with ``outputs=(M,)`` takes M targets per input: P, the
jitter and the information gain are shared, and the sums, alpha and means
gain a trailing target axis, updated elementwise and queried one column of
alpha at a time, so each target gets bit for bit a one-target model's values.

The formulas above are evaluated with few numpy calls: the updates do
their scalar arithmetic on Python floats, and the queries work in place
on arrays they computed or gathered themselves, with the same ufuncs on
the same operands as the plain expressions, so every value is bit for
bit theirs (``tests/test_exact_rewrites.py`` keeps those expressions as
oracles).  :meth:`GpModel.posterior_batch` is the one query: it returns
fresh means and stds, which the learner turns into confidence bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernels import KernelSpec, cross, diag, evaluate

BASE_JITTER = 1e-10
MAX_JITTER = 1e-4
# rank-1 terms of the inverse kept apart before one gemm adds them to S
PENDING = 32


class FactorizationError(RuntimeError):
    pass


class _Query(NamedTuple):
    """A dense query at rows X, none of them a training input: ``cols``
    maps each row's key to its index, ``kt`` is k(U, X)', ``ks`` is
    k(U, X)'S, ``g`` is V k(U, X) over the pending terms, and ``prior``,
    ``means`` and ``var`` are the prior variances, posterior means (one
    column per target) and posterior variances at the rows."""

    cols: dict[bytes, int]
    kt: np.ndarray
    ks: np.ndarray
    g: np.ndarray
    prior: np.ndarray
    means: np.ndarray
    var: np.ndarray


@dataclass(frozen=True)
class ConfidenceParams:
    """Inputs to the confidence-width schedule: B, sigma, delta and the game's M."""

    rkhs_bound: float
    noise_scale: float
    failure_prob: float
    num_constraints: int = 0

    def __post_init__(self):
        if self.rkhs_bound <= 0:
            raise ValueError("rkhs_bound must be positive")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be nonnegative")
        if not 0.0 < self.failure_prob < 1.0:
            raise ValueError("failure_prob must lie in (0, 1)")
        if self.num_constraints < 0:
            raise ValueError("num_constraints must be nonnegative")


def beta(params: ConfidenceParams, info_gain_prev: float) -> float:
    """Confidence multiplier B + sigma * sqrt(2(gamma + 1 + log(2(M+1)/delta)))."""
    if info_gain_prev < 0:
        raise ValueError("info_gain_prev must be nonnegative")
    log_term = math.log(2.0 * (params.num_constraints + 1) / params.failure_prob)
    return params.rkhs_bound + params.noise_scale * math.sqrt(
        2.0 * (info_gain_prev + 1.0 + log_term)
    )


class GpModel:
    """Kernel regression state answering posterior mean/std queries.

    ``outputs`` is the shape of one target, ``()`` or ``(M,)``.  Mutated
    only by :meth:`add_observation`; a query changes no result, it only
    keeps its dense products for the next observation.
    """

    def __init__(self, kernel: KernelSpec, noise_variance: float, outputs=()):
        if not 0.0 < noise_variance < math.inf:
            raise ValueError("noise_variance must be positive and finite")
        self.kernel = kernel
        self.noise_variance = float(noise_variance)
        self.outputs = tuple(outputs)
        self.running_info_gain = 0.0
        # distinct inputs, rows 0..size-1 of preallocated buffers; P = A^-1
        # is the (size, size) head of S plus the first `pending` rows of V
        self._row: dict[bytes, int] = {}
        self._size = 0
        self._pending = 0
        self._U = np.zeros((0, 0))
        self._S = np.zeros((0, 0))
        self._V = np.zeros((PENDING, 0))
        self._c = np.zeros(PENDING)
        self._alpha = np.zeros((0, *self.outputs))
        self._counts = np.zeros(0)
        self._sums = np.zeros((0, *self.outputs))
        self._jitter = np.zeros(0)
        # the last dense query since the last observation, or None
        self._query: _Query | None = None

    @property
    def num_observations(self) -> int:
        """Observations fed so far, repeats included."""
        return int(self._counts[:self._size].sum())

    @property
    def num_distinct(self) -> int:
        return self._size

    @property
    def inputs(self) -> np.ndarray:
        """The distinct inputs, one row each, in order of first observation."""
        return self._U[:self._size].copy()

    def add_observation(self, x, y) -> "GpModel":
        # the finiteness checks count finite entries, which costs less
        # than .all() and its Python-level reduction wrapper
        y = np.asarray(y, dtype=float)[()]  # one target: a scalar, for cheap arithmetic
        if y.shape != self.outputs or not (
            np.count_nonzero(np.isfinite(y)) == y.size if y.shape else math.isfinite(y)
        ):
            raise ValueError(f"observation target must be finite, of shape {self.outputs}")
        x = np.asarray(x, dtype=float).ravel() + 0.0
        if np.count_nonzero(np.isfinite(x)) < x.size:
            raise ValueError("observation input must be finite")
        query, self._query = self._query, None
        j = self._row.get(x.tobytes())
        if j is None:
            prev_var = self._add_input(x, y, query)
        else:
            prev_var = self._repeat_input(j, y)
        self.running_info_gain += 0.5 * math.log1p(
            max(prev_var, 0.0) / self.noise_variance
        )
        return self

    def _add_input(self, x: np.ndarray, y, query: _Query | None) -> float:
        """Border P with a new input; returns the posterior variance at x
        before this observation, k(x, x) - k'P k.  ``query`` is the dense
        query made since the last observation, if any."""
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
                # the query was dropped above, so its row of K'S is free to take the sum
                b += (self._c[:k] * query.g[:, col]) @ self._V[:k, :u]
            # Python floats for the scalar arithmetic below
            kxx = float(query.prior[col])
            cc = float(kvec @ b)
            resid = y - query.means[col]
        else:
            kxx = evaluate(self.kernel, x, x)
            b = np.zeros(0)
            cc = 0.0
            resid = y
        diag_entry = kxx + self.noise_variance
        # jitter only a pivot that breaks down: a standing one would bias
        # the information gain by about jitter / noise per input
        jitter = 0.0
        piv = diag_entry - cc
        while piv <= 0.0 and jitter < MAX_JITTER:
            jitter = 10.0 * jitter if jitter else BASE_JITTER * diag_entry
            piv = diag_entry + jitter - cc
        if piv <= 0.0:
            raise FactorizationError(
                "bordered inverse update broke down beyond maximum jitter"
            )
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

    def _repeat_input(self, j: int, y) -> float:
        """Sherman-Morrison update for the lowered noise term of input j;
        returns the posterior variance at that input before this observation.

        With A = K + D for the diagonal noise D, that variance is
        D_jj - D_jj^2 P_jj.
        """
        u, k = self._size, self._pending
        noise = self.noise_variance
        n = float(self._counts[j])
        d_jj = noise / n + float(self._jitter[j])
        delta = noise / (n * (n + 1.0))
        # row j of S is its column j up to rounding, and is contiguous
        p = self._S[j, :u].copy()
        if k:
            V = self._V[:k, :u]
            p += (self._c[:k] * V[:, j]) @ V
        p_jj = float(p[j])
        rho = 1.0 - delta * p_jj
        if rho <= 0.0:
            raise FactorizationError("Sherman-Morrison update of a repeated input broke down")
        s = delta / rho
        sums = self._sums[j]
        total = sums + y
        d_ybar = total / (n + 1.0) - sums / n
        coef = s * self._alpha[j] + (1.0 + s * p_jj) * d_ybar
        self._alpha[:u] += np.multiply.outer(p, coef)
        self._counts[j] = n + 1.0
        self._sums[j] = total
        self._push(p, s)
        return d_jj - d_jj * d_jj * p_jj

    def _push(self, vec: np.ndarray, coef: float) -> None:
        """Add the term coef * vec vec' to P; fold all terms into S once
        PENDING of them wait.  A row of V is written over its first len(vec)
        entries only: the rest stay zero, as no earlier write to the row was
        longer (the size never shrinks)."""
        k = self._pending
        self._V[k, :len(vec)] = vec
        self._c[k] = coef
        k += 1
        if k == PENDING:
            u = self._size
            V = self._V[:, :u]
            self._S[:u, :u] += V.T @ (self._c[:, None] * V)
            k = 0
        self._pending = k

    def _grow(self, dim: int) -> None:
        """Make room for one more distinct input; the buffers double when full."""
        u = self._size
        if u == len(self._alpha):
            cap = max(2 * u, 16)
            S = np.zeros((cap, cap))  # pages stay unmapped until S reaches them
            S[:u, :u] = self._S[:u, :u]
            self._S = S
            V = np.zeros((PENDING, cap))
            V[:, :u] = self._V[:, :u]
            self._V = V
            self._U = np.concatenate([self._U.reshape(-1, dim), np.zeros((cap - u, dim))])
            self._alpha, self._counts, self._sums, self._jitter = (
                np.concatenate([a, np.zeros((cap - u, *a.shape[1:]))])
                for a in (self._alpha, self._counts, self._sums, self._jitter)
            )

    def _dense(self, X: np.ndarray, cols: dict[bytes, int]) -> _Query:
        """The dense posterior at the rows of X, none of them a training
        input; ``cols`` maps each row's key to its index."""
        u, k = self._size, self._pending
        kmat = cross(self.kernel, self._U[:u], X)
        kt = kmat.T
        # K' on the left: BLAS runs K'S about twice as fast as S K here
        ks = kt @ self._S[:u, :u]
        quad = np.einsum("ij,ij->i", ks, kt)
        g = self._V[:k, :u] @ kmat
        if k:
            quad += self._c[:k] @ (g * g)
        prior = diag(self.kernel, X)
        # a product per contiguous column: a strided one or a gemm may round
        # otherwise; the (M, n) stack of them is read through its transpose
        alpha = self._alpha[:u]
        means = np.array([kt @ a.copy() for a in alpha.T]).T if self.outputs else kt @ alpha
        return _Query(cols, kt, ks, g, prior, means, np.subtract(prior, quad, out=quad))

    def _closed(self, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means and variances at the training inputs U_j."""
        n = self._counts[j]
        d = self.noise_variance / n
        d += self._jitter[j]
        # a gather from the diagonal and take() copy the same entries as
        # fancy indexing, faster; the copies are then worked on in place.
        # V keeps fancy indexing: its (F-ordered) layout decides how the
        # product with c rounds
        p_jj = self._S.diagonal()[j]
        k = self._pending
        if k:
            V = self._V[:k, j]
            V *= V
            p_jj += self._c[:k] @ V
        # sums_j / n - d alpha_j and d - d d p_jj; the transposes put the
        # targets first
        means, scaled = self._sums.take(j, 0), self._alpha.take(j, 0)
        np.divide(means.T, n, out=means.T)
        np.multiply(scaled.T, d, out=scaled.T)
        means -= scaled
        dd = d * d
        dd *= p_jj
        return means, np.subtract(d, dd, out=dd)

    def posterior_batch(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means ``(n, *outputs)`` and stds ``(n,)`` at the n rows
        of X: in closed form at the training inputs, by one dense query,
        kept until the next observation, at the others.  Both arrays are
        fresh, the caller's to overwrite."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if np.count_nonzero(np.isfinite(X)) < X.size:
            raise ValueError("query inputs must be finite")
        if self._size == 0:
            stds = np.sqrt(np.maximum(diag(self.kernel, X), 0.0))
            return np.zeros((len(X), *self.outputs)), stds
        X = X + 0.0
        # each row's key is its slice of the C-order bytes of X
        data, width = X.tobytes(), X.shape[1] * X.itemsize
        keys = [data[i * width:(i + 1) * width] for i in range(len(X))]
        get = self._row.get
        rows = [get(key, -1) for key in keys]
        if -1 not in rows:
            means, var = self._closed(np.array(rows, dtype=np.intp))
        else:
            # fresh arrays: the kept query's means give the update its residual
            new = [i for i, j in enumerate(rows) if j < 0]
            query = self._dense(X[new], {keys[i]: c for c, i in enumerate(new)})
            self._query = query
            seen = [i for i, j in enumerate(rows) if j >= 0]
            means, var = np.empty((len(rows), *self.outputs)), np.empty(len(rows))
            if seen:
                means[seen], var[seen] = self._closed(np.array([rows[i] for i in seen]))
            means[new], var[new] = query.means, query.var
        stds = np.maximum(var, 0.0)
        return means, np.sqrt(stds, out=stds)
