"""Expert update rules.

Two rules drive the per-context action distributions:

* AdaNormalHedge's sleeping experts, an adaptive potential-based rule
  whose weights depend on each expert's cumulative regret R and
  cumulative magnitude C, for learners whose constraint filter puts
  actions to sleep, and
* plain Hedge, for learners with no filter, whose actions are all awake.

All operations are pure: they return fresh state objects and never
write to an argument.  The arithmetic runs in place on arrays each call
makes for itself, with the same ufuncs on the same operands, in the same
order, as the plain expressions the docstrings give, so the results are
bit for bit those of the expressions (``tests/test_exact_rewrites.py``
holds them as oracles).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SleepingExpertState:
    """Cumulative regret and magnitude vectors for K experts."""

    regrets: np.ndarray
    magnitudes: np.ndarray

    @classmethod
    def fresh(cls, num_experts: int) -> "SleepingExpertState":
        return cls(np.zeros(num_experts), np.zeros(num_experts))


@dataclass(frozen=True)
class HedgeState:
    """Log-weights of K experts plus the per-state round counter."""

    log_weights: np.ndarray
    rounds_seen: int = 0

    @classmethod
    def fresh(cls, num_experts: int) -> "HedgeState":
        return cls(np.zeros(num_experts), 0)


# log(0.5), taken once from the numpy ufunc
_LOG_HALF = np.log(0.5)


def _log_ada_weights(R: np.ndarray, C: np.ndarray) -> np.ndarray:
    """log w(R, C) per expert, -inf where the weight is zero, for the
    potential weight w = 0.5*(exp([R+1]+^2/3(C+1)) - exp([R-1]+^2/3(C+1))).

    With a = [R+1]+^2/3(C+1) and b = [R-1]+^2/3(C+1), log w is
    a + log(0.5) + log1p(-e^(min(b-a, 0))), computed in place on two fresh
    arrays.  Where a = 0, b = 0 too, so the last term is log1p(-1) = -inf
    and no select is needed.  That needs 3(C+1) finite, which holds: C
    grows by at most 1 per round.
    """
    denom = C + 1.0
    denom *= 3.0
    a = R + 1.0
    np.maximum(a, 0.0, out=a)
    np.square(a, out=a)
    a /= denom
    b = R - 1.0
    np.maximum(b, 0.0, out=b)
    np.square(b, out=b)
    b /= denom
    b -= a
    np.minimum(b, 0.0, out=b)
    np.exp(b, out=b)
    np.negative(b, out=b)
    with np.errstate(divide="ignore"):
        np.log1p(b, out=b)
    a += _LOG_HALF
    a += b
    return a


def ada_predict(state: SleepingExpertState) -> np.ndarray:
    """Distribution proportional to the potential weights; uniform fallback."""
    w = _log_ada_weights(state.regrets, state.magnitudes)
    m = w.max()
    # all(isinf(w)), read off the max: -inf, or +inf with no finite entry
    # (a NaN entry makes the max NaN, and fails both tests)
    if m == -np.inf or (m == np.inf and np.isinf(w).all()):
        return np.full(len(w), 1.0 / len(w))
    w -= m
    np.exp(w, out=w)
    w /= w.sum()
    return w


def ada_update(
    state: SleepingExpertState,
    awake: np.ndarray,
    rewards: np.ndarray,
    sampling_dist: np.ndarray,
) -> SleepingExpertState:
    """Accumulate R and C increments for awake experts.

    ``sampling_dist`` is the awake-restricted distribution the action was
    sampled from; it must put no mass on asleep experts.  The increment is
    the reward minus its expectation under that distribution at the awake
    experts and 0.0 at the asleep ones.
    """
    awake = np.asarray(awake, dtype=bool)
    rewards = np.asarray(rewards, dtype=float)
    p = np.asarray(sampling_dist, dtype=float)
    if np.count_nonzero(p[~awake] > 0):
        raise ValueError("sampling distribution puts mass on an asleep expert")
    expected = float(p @ rewards)
    delta = np.zeros(len(p))
    np.subtract(rewards, expected, out=delta, where=awake)
    regrets = state.regrets + delta
    np.abs(delta, out=delta)
    return SleepingExpertState(regrets, state.magnitudes + delta)


def hedge_predict(state: HedgeState) -> np.ndarray:
    w = state.log_weights - state.log_weights.max()
    np.exp(w, out=w)
    w /= w.sum()
    return w


def hedge_update(state: HedgeState, rewards: np.ndarray) -> HedgeState:
    """Multiplicative update with step size 2*sqrt(log K / t)."""
    rewards = np.asarray(rewards, dtype=float)
    t = state.rounds_seen + 1
    eta = 2.0 * np.sqrt(np.log(len(state.log_weights)) / t)
    log_weights = eta * rewards
    log_weights += state.log_weights
    return HedgeState(log_weights, t)
