"""Incremental Gaussian-process regression with confidence bounds.

The learners query their models on a finite grid of inputs, so most
observations repeat an earlier input.  With homoscedastic noise s2, n
observations at one input with mean ybar carry exactly the information of
one observation of ybar with noise s2 / n.  The model therefore works over
the distinct inputs U only, with

    A = K_UU + diag(s2 / n_j + jitter_j) = L L',

and keeps the inverse factor W = L^-1 (lower triangular) and w = W ybar.
A batch of queries is one product, v = W k(U, X): the mean is v'w and the
variance k(x, x) - |v|^2.  The updates are products and prefix sums too,
so no triangular solve remains; W sits in a (cap, cap) buffer that
doubles when full and is read through the view W[:u, :u].

* A new input x: with c = W k(U, x) and l^2 = k(x, x) + s2 - |c|^2, the
  factor gains the row [c', l] and W the row [-(c'W) / l, 1 / l].  Only
  a pivot that breaks down gets a diagonal jitter, up to MAX_JITTER.
* A repeat of input j lowers its noise term from s2/n to s2/(n+1):
  A - delta e_j e_j' = L (I - q q') L' with delta = s2 / (n(n+1)) and
  q = sqrt(delta) W e_j, which is zero above row j and is read from
  column j of W with no solve.  I - q q' = M M', where, with
  rho_k = 1 - sum_{i<k} q_i^2 and d_k = sqrt(rho_{k+1} / rho_k), M has d
  on its diagonal and M_ik = -q_i q_k / sqrt(rho_k rho_{k+1}) below it
  (Gill, Golub, Murray & Saunders 1974).  In row k of M x = b the earlier
  terms sum to -q_k S_k / rho_k with S_k = sum_{i<k} q_i b_i (by
  induction, as rho_k = rho_{k+1} + q_k^2), so

      x_k = (b_k + q_k S_k / rho_k) / d_k:

  the new inverse factor M^-1 W differs from W only in rows j.., at the
  cost of one exclusive prefix sum per column.  It breaks down when rho
  reaches 0, that is when delta |W e_j|^2 >= 1.

w is recomputed in the rows that changed.  Queries match a dense solve
over the full observation list to numerical precision, and so does the
realized information gain 0.5 * logdet(I + K / s2), which is summed per
observation and feeds the confidence-width schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, cross, diag, evaluate

BASE_JITTER = 1e-10
MAX_JITTER = 1e-4


class FactorizationError(RuntimeError):
    pass


@dataclass(frozen=True)
class ConfidenceParams:
    """Inputs to the confidence-width schedule for one unknown function."""

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

    Mutated only by :meth:`add_observation`; queries are read-only.
    """

    def __init__(self, kernel: KernelSpec, noise_variance: float):
        if noise_variance <= 0:
            raise ValueError("noise_variance must be positive")
        self.kernel = kernel
        self.noise_variance = float(noise_variance)
        self.running_info_gain = 0.0
        # distinct inputs, rows 0..size-1 of preallocated buffers; the
        # inverse factor W is the (size, size) head of a (cap, cap) buffer
        self._row: dict[bytes, int] = {}
        self._size = 0
        self._U = np.zeros((0, 0))
        self._W = np.zeros((0, 0))
        self._w = np.zeros(0)
        self._counts = np.zeros(0)
        self._sums = np.zeros(0)
        self._jitter = np.zeros(0)

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

    def add_observation(self, x, y: float) -> "GpModel":
        if not np.isfinite(y):
            raise ValueError("observation target must be finite")
        x = np.asarray(x, dtype=float).ravel()
        if not np.isfinite(x).all():
            raise ValueError("observation input must be finite")
        j = self._row.get(x.tobytes())
        if j is None:
            prev_var = self._add_input(x, float(y))
        else:
            prev_var = self._repeat_input(j, float(y))
        self.running_info_gain += 0.5 * math.log1p(
            max(prev_var, 0.0) / self.noise_variance
        )
        return self

    def _add_input(self, x: np.ndarray, y: float) -> float:
        """Border the factor with a new input; returns the posterior
        variance at x before this observation, k(x, x) - |c|^2."""
        u = self._size
        kxx = evaluate(self.kernel, x, x)
        diag_entry = kxx + self.noise_variance
        if u:
            kvec = cross(self.kernel, self._U[:u], x[None, :]).ravel()
            c = self._W[:u, :u] @ kvec
        else:
            c = np.zeros(0)
        cc = c @ c
        # jitter only a pivot that breaks down: a standing one would bias
        # the information gain by about jitter / noise per input
        jitter = 0.0
        piv = diag_entry - cc
        while piv <= 0.0 and jitter < MAX_JITTER:
            jitter = 10.0 * jitter if jitter else BASE_JITTER * diag_entry
            piv = diag_entry + jitter - cc
        if piv <= 0.0:
            raise FactorizationError(
                "Cholesky border update broke down beyond maximum jitter"
            )
        self._grow(len(x))
        ell = math.sqrt(piv)
        self._W[u, :u] = (c @ self._W[:u, :u]) / -ell
        self._W[u, u] = 1.0 / ell
        self._U[u] = x
        self._counts[u] = 1.0
        self._sums[u] = y
        self._jitter[u] = jitter
        self._row[x.tobytes()] = u
        self._size = u + 1
        self._refresh_w(u)
        return kxx - cc

    def _repeat_input(self, j: int, y: float) -> float:
        """Downdate the noise term of input j; returns the posterior
        variance at that input before this observation.

        With A = K + S for the diagonal noise S, that variance is
        S_jj - S_jj^2 [A^-1]_jj, and [A^-1]_jj = |W e_j|^2 = |z|^2.
        """
        u = self._size
        n = self._counts[j]
        s_jj = self.noise_variance / n + self._jitter[j]
        delta = self.noise_variance / (n * (n + 1.0))
        B = self._W[j:u, :u]  # the rows M^-1 changes, updated in place
        z = B[:, j]
        zz = z @ z
        q = math.sqrt(delta) * z
        rho = 1.0 - np.concatenate(([0.0], np.cumsum(q * q)))
        if rho[-1] <= 0.0:
            raise FactorizationError("Cholesky downdate of a repeated input broke down")
        d = np.sqrt(rho[1:] / rho[:-1])
        # the prefix sums S_k of rows k >= 1; row 0's is empty, so it only scales
        S = np.cumsum(q[:-1, None] * B[:-1], axis=0)
        B[1:] += (q[1:] / rho[1:-1])[:, None] * S
        B /= d[:, None]
        self._counts[j] = n + 1.0
        self._sums[j] += y
        self._refresh_w(j)
        return s_jj - s_jj * s_jj * zz

    def _refresh_w(self, j: int) -> None:
        """w = W ybar from row j on; the rows above j did not change."""
        u = self._size
        ybar = self._sums[:u] / self._counts[:u]
        self._w[j:u] = self._W[j:u, :u] @ ybar

    def _grow(self, dim: int) -> None:
        """Make room for one more distinct input; the buffers double when full."""
        u = self._size
        if u == len(self._w):
            cap = max(2 * u, 16)
            W = np.zeros((cap, cap))  # pages stay unmapped until W reaches them
            W[:u, :u] = self._W[:u, :u]
            self._W = W
            self._U = np.concatenate([self._U.reshape(-1, dim), np.zeros((cap - u, dim))])
            self._w, self._counts, self._sums, self._jitter = (
                np.concatenate([a, np.zeros(cap - u)])
                for a in (self._w, self._counts, self._sums, self._jitter)
            )

    def posterior_batch(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means and stds at the rows of X."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if not np.isfinite(X).all():
            raise ValueError("query inputs must be finite")
        prior_var = diag(self.kernel, X)
        u = self._size
        if u == 0:
            return np.zeros(len(X)), np.sqrt(np.maximum(prior_var, 0.0))
        kmat = cross(self.kernel, self._U[:u], X)
        v = self._W[:u, :u] @ kmat
        means = v.T @ self._w[:u]
        var = prior_var - np.einsum("ij,ij->j", v, v)
        return means, np.sqrt(np.maximum(var, 0.0))

    def ucb_batch(self, X, beta_value: float) -> np.ndarray:
        means, stds = self.posterior_batch(X)
        return means + beta_value * stds

    def lcb_batch(self, X, beta_value: float) -> np.ndarray:
        means, stds = self.posterior_batch(X)
        return means - beta_value * stds
