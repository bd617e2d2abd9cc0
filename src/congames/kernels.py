"""Positive semi-definite kernels and Gram-matrix construction.

Kernels are immutable specs; evaluation is pure, so they can be shared
freely between models and threads.  Inputs are 1-d real vectors (actions
are encoded as integer coordinates cast to float).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np


class KernelError(ValueError):
    pass


@dataclass(frozen=True)
class SquaredExponential:
    lengthscale: float

    def __post_init__(self):
        if self.lengthscale <= 0:
            raise KernelError("lengthscale must be positive")
        # pairwise divides by 2 l^2, which must neither overflow nor vanish
        if not 0.0 < self.lengthscale * self.lengthscale < math.inf:
            raise KernelError("lengthscale squared must be a positive finite number")

    def pairwise(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        # exp(-d2 / 2 l^2) in place: the sign moves into the divisor exactly
        d2 = _sqdists(X, Y)
        d2 /= -(2.0 * self.lengthscale**2)
        return np.exp(d2, out=d2)

    def diagonal(self, X: np.ndarray) -> np.ndarray:
        return np.ones(len(X))


@dataclass(frozen=True)
class Matern:
    lengthscale: float
    nu: float

    def __post_init__(self):
        if self.lengthscale <= 0 or self.nu <= 0:
            raise KernelError("lengthscale and nu must be positive")
        if not (math.isfinite(self.lengthscale) and math.isfinite(self.nu)):
            raise KernelError("lengthscale and nu must be finite")
        # pairwise's general-nu branch divides by Gamma(nu)
        try:
            math.gamma(self.nu)
        except OverflowError:
            raise KernelError(f"nu = {self.nu:g} is too large: Gamma(nu) overflows") from None

    def pairwise(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        s = np.sqrt(_sqdists(X, Y))
        # exp(-r) is 0.0 from r = 746 on, so the cap changes no value, but
        # keeps r^2 finite when a tiny lengthscale makes r overflow
        r = np.minimum(s * math.sqrt(2.0 * self.nu) / self.lengthscale, 1e3)
        if self.nu == 0.5:
            return np.exp(-r)
        if self.nu == 1.5:
            return (1.0 + r) * np.exp(-r)
        if self.nu == 2.5:
            return (1.0 + r + r**2 / 3.0) * np.exp(-r)
        # general nu via the modified Bessel function, the package's only
        # use of scipy, imported here; r=0 is handled as the limit value 1
        from scipy.special import kv

        out = np.ones_like(r)
        pos = r > 0
        rp = r[pos]
        out[pos] = (
            (2.0 ** (1.0 - self.nu) / math.gamma(self.nu))
            * rp**self.nu
            * kv(self.nu, rp)
        )
        return out

    def diagonal(self, X: np.ndarray) -> np.ndarray:
        return np.ones(len(X))


@dataclass(frozen=True)
class Polynomial:
    degree: int
    bias: float = 0.0
    lengthscale: float = 1.0

    def __post_init__(self):
        if self.bias < 0:
            raise KernelError("bias must be nonnegative")
        if self.lengthscale <= 0:
            raise KernelError("lengthscale must be positive")
        if not (math.isfinite(self.bias) and math.isfinite(self.lengthscale)):
            raise KernelError("bias and lengthscale must be finite")
        if self.degree < 1:
            raise KernelError("degree must be a positive integer")
        # pairwise raises a float to this power
        if self.degree > sys.float_info.max:
            raise KernelError(f"degree must be at most {sys.float_info.max:g}")

    def pairwise(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return (self.bias + X @ Y.T / self.lengthscale) ** self.degree

    def diagonal(self, X: np.ndarray) -> np.ndarray:
        sq = np.einsum("ij,ij->i", X, X)
        return (self.bias + sq / self.lengthscale) ** self.degree


@dataclass(frozen=True)
class Product:
    """Product of two kernels acting on complementary coordinate blocks.

    The input vector is split at ``split_index``: ``left`` sees coordinates
    ``[:split_index]``, ``right`` sees ``[split_index:]``.
    """

    left: KernelSpec
    right: KernelSpec
    split_index: int

    def __post_init__(self):
        if self.split_index < 1:
            raise KernelError("split_index must leave a non-empty left block")

    def pairwise(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        s = self._split(X)
        # every pairwise and diagonal returns a fresh array, so the product
        # can overwrite the left factor
        out = self.left.pairwise(X[:, :s], Y[:, :s])
        out *= self.right.pairwise(X[:, s:], Y[:, s:])
        return out

    def diagonal(self, X: np.ndarray) -> np.ndarray:
        s = self._split(X)
        out = self.left.diagonal(X[:, :s])
        out *= self.right.diagonal(X[:, s:])
        return out

    def _split(self, X: np.ndarray) -> int:
        if self.split_index >= X.shape[1]:
            raise KernelError("split_index must leave a non-empty right block")
        return self.split_index


KernelSpec = SquaredExponential | Matern | Polynomial | Product
# the config tag of each kernel; a kernel's dataclass fields are its other
# config keys, read by ``config.parse_kernel``
KERNEL_TYPES = {
    "squared_exponential": SquaredExponential,
    "matern": Matern,
    "polynomial": Polynomial,
    "product": Product,
}


def _sqdists(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    diff = X[:, None, :] - Y[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _as_rows(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    return a


def evaluate(spec: KernelSpec, x, y) -> float:
    """Evaluate k(x, y) for two input vectors."""
    X, Y = _as_rows(x), _as_rows(y)
    if X.shape[1] != Y.shape[1]:
        raise KernelError(
            f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}"
        )
    return float(spec.pairwise(X, Y)[0, 0])


def cross(spec: KernelSpec, X, Y) -> np.ndarray:
    """Kernel matrix between the rows of X and the rows of Y."""
    X, Y = _as_rows(X), _as_rows(Y)
    if X.shape[1] != Y.shape[1]:
        raise KernelError(
            f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}"
        )
    return spec.pairwise(X, Y)


def diag(spec: KernelSpec, X) -> np.ndarray:
    """The prior variances k(x, x) at the rows of X."""
    return spec.diagonal(_as_rows(X))


def gram(spec: KernelSpec, points) -> np.ndarray:
    """Symmetric Gram matrix of a non-empty point list."""
    X = _as_rows(np.asarray(points, dtype=float))
    if X.shape[0] == 0:
        raise KernelError("empty point list")
    G = spec.pairwise(X, X)
    return 0.5 * (G + G.T)


def kernel_to_config(spec: KernelSpec) -> dict:
    """The tagged config object of ``spec``: its ``type`` and each of its
    fields, a nested kernel as its own object."""
    tag = next((t for t, cls in KERNEL_TYPES.items() if type(spec) is cls), None)
    if tag is None:
        raise KernelError(f"unknown kernel spec {spec!r}")
    obj = {"type": tag}
    for f in fields(spec):
        value = getattr(spec, f.name)
        obj[f.name] = kernel_to_config(value) if f.type == "KernelSpec" else value
    return obj
