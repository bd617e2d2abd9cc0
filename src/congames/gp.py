"""Incremental Gaussian-process regression with confidence bounds.

The learners query their models on a finite grid of inputs, so most
observations repeat an earlier input.  With homoscedastic noise s2, n
observations at one input with mean ybar carry exactly the information of
one observation of ybar with noise s2 / n.  The model therefore factors

    A = K_UU + diag(s2 / n_j + jitter_j) = L L'

over the distinct inputs U only, and keeps w = L^-1 ybar beside it:

* a new input borders L with one row, escalating its diagonal jitter if
  the pivot breaks down;
* a repeated input lowers its noise term from s2/n to s2/(n+1), a rank-1
  downdate of L that changes only the rows from that input on.

A batch of queries costs one triangular solve, v = L^-1 k(U, X): the mean
is v'w and the variance k(x, x) - |v|^2.  These match a dense solve over
the full observation list to numerical precision, and so does the
realized information gain 0.5 * logdet(I + K / s2), which is summed per
observation and feeds the confidence-width schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

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


def _downdate(G: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Cholesky factor of G (I - q q') G' for lower-triangular G, |q| < 1.

    The factor of I - q q' is M with M_kk = d_k and M_ik = q_i g_k below
    the diagonal, where rho_k = 1 - sum_{i<k} q_i^2; so column k of G M is
    d_k G[:, k] + g_k sum_{i>k} q_i G[:, i], a suffix sum over columns
    (Gill, Golub, Murray & Saunders 1974, method C).
    """
    rho = 1.0 - np.concatenate(([0.0], np.cumsum(q * q)))
    d = np.sqrt(rho[1:] / rho[:-1])
    g = -q / np.sqrt(rho[:-1] * rho[1:])
    Gq = G * q
    suffix = np.zeros_like(G)
    suffix[:, :-1] = np.cumsum(Gq[:, :0:-1], axis=1)[:, ::-1]
    return G * d + suffix * g


class GpModel:
    """Kernel regression state answering posterior mean/std queries.

    Mutated only by :meth:`add_observation`; queries are read-only.
    """

    def __init__(self, kernel: KernelSpec, noise_variance: float):
        if noise_variance <= 0:
            raise ValueError("noise_variance must be positive")
        self.kernel = kernel
        self.noise_variance = float(noise_variance)
        self._X: list[np.ndarray] = []
        self._y: list[float] = []
        self.running_info_gain = 0.0
        # distinct inputs, rows 0..size-1 of preallocated buffers; the
        # factor L is a (size, size) view of the head of a flat buffer
        self._row: dict[bytes, int] = {}
        self._size = 0
        self._U = np.zeros((0, 0))
        self._Lbuf = np.zeros(0)
        self._L = np.zeros((0, 0))
        self._w = np.zeros(0)
        self._counts = np.zeros(0)
        self._sums = np.zeros(0)
        self._jitter = np.zeros(0)

    @property
    def num_observations(self) -> int:
        return len(self._y)

    @property
    def inputs(self) -> np.ndarray:
        return np.asarray(self._X, dtype=float)

    @property
    def targets(self) -> np.ndarray:
        return np.asarray(self._y, dtype=float)

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
        self._X.append(x)
        self._y.append(float(y))
        self.running_info_gain += 0.5 * math.log1p(
            max(prev_var, 0.0) / self.noise_variance
        )
        return self

    def _add_input(self, x: np.ndarray, y: float) -> float:
        """Border L with a new input; returns the posterior variance at x
        before this observation, k(x, x) - |c|^2 for the border row c."""
        u = self._size
        kxx = evaluate(self.kernel, x, x)
        diag_entry = kxx + self.noise_variance
        if u:
            kvec = cross(self.kernel, self._U[:u], x[None, :]).ravel()
            c = solve_triangular(self._L, kvec, lower=True, check_finite=False)
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
        self._U[u] = x
        self._L[u, :u] = c
        self._L[u, u] = math.sqrt(piv)
        self._w[u] = (y - c @ self._w[:u]) / self._L[u, u]
        self._counts[u] = 1.0
        self._sums[u] = y
        self._jitter[u] = jitter
        self._row[x.tobytes()] = u
        self._size = u + 1
        return kxx - cc

    def _repeat_input(self, j: int, y: float) -> float:
        """Downdate the noise term of input j; returns the posterior
        variance at that input before this observation.

        With A = K + S for the diagonal noise S, that variance is
        S_jj - S_jj^2 [A^-1]_jj, and [A^-1]_jj = |z|^2 for z = L^-1 e_j,
        whose entries from j on the downdate needs anyway (the rest are 0).
        """
        u = self._size
        n = self._counts[j]
        s_jj = self.noise_variance / n + self._jitter[j]
        delta = self.noise_variance / (n * (n + 1.0))
        G = self._L[j:u, j:u]
        e0 = np.zeros(u - j)
        e0[0] = 1.0
        z = solve_triangular(G, e0, lower=True, check_finite=False)
        zz = z @ z
        if delta * zz >= 1.0:
            raise FactorizationError("Cholesky downdate of a repeated input broke down")
        G_new = _downdate(G, math.sqrt(delta) * z)
        self._counts[j] = n + 1.0
        self._sums[j] += y
        ybar = self._sums[j:u] / self._counts[j:u]
        rhs = ybar - self._L[j:u, :j] @ self._w[:j]
        self._w[j:u] = solve_triangular(G_new, rhs, lower=True, check_finite=False)
        self._L[j:u, j:u] = G_new
        return s_jj - s_jj * s_jj * zz

    def _grow(self, dim: int) -> None:
        """Make room for one more distinct input.

        The buffers double when full.  L stays contiguous, so that the
        triangular solves read it without a copy: its rows move to the
        wider stride, and the new last row is left for the caller to fill.
        """
        u = self._size
        if u == len(self._w):
            cap = max(2 * u, 16)
            buf = np.zeros(cap * cap)  # pages stay unmapped until L reaches them
            buf[: u * u] = self._Lbuf[: u * u]
            self._Lbuf = buf
            self._U = np.concatenate([self._U.reshape(-1, dim), np.zeros((cap - u, dim))])
            self._w, self._counts, self._sums, self._jitter = (
                np.concatenate([a, np.zeros(cap - u)])
                for a in (self._w, self._counts, self._sums, self._jitter)
            )
        L = self._Lbuf[: (u + 1) ** 2].reshape(u + 1, u + 1)
        L[:u, :u] = self._Lbuf[: u * u].reshape(u, u)  # overlapping move
        L[:u, u] = 0.0
        self._L = L

    def posterior(self, x) -> tuple[float, float]:
        """Posterior (mean, std) at a single query point."""
        means, stds = self.posterior_batch(np.asarray(x, dtype=float)[None, :])
        return float(means[0]), float(stds[0])

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
        v = solve_triangular(self._L, kmat, lower=True, check_finite=False)
        means = v.T @ self._w[:u]
        var = prior_var - np.einsum("ij,ij->j", v, v)
        return means, np.sqrt(np.maximum(var, 0.0))

    def ucb_batch(self, X, beta_value: float) -> np.ndarray:
        means, stds = self.posterior_batch(X)
        return means + beta_value * stds

    def lcb_batch(self, X, beta_value: float) -> np.ndarray:
        means, stds = self.posterior_batch(X)
        return means - beta_value * stds
