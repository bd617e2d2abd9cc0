"""Sleeping-expert update rules.

Two interchangeable rules drive the per-context action distributions:

* an adaptive potential-based rule whose weights depend on each expert's
  cumulative regret R and cumulative magnitude C, and
* plain Hedge wrapped in the sleeping-to-expert reduction (asleep entries
  of the reward vector are filled so the expert algorithm is indifferent
  to them).

All operations are pure: they return fresh state objects.
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


def _log_ada_weights(R: np.ndarray, C: np.ndarray) -> np.ndarray:
    """log w(R, C) per expert, -inf where the weight is zero, for the
    potential weight w = 0.5*(exp([R+1]+^2/3(C+1)) - exp([R-1]+^2/3(C+1)))."""
    denom = 3.0 * (C + 1.0)
    a = np.maximum(R + 1.0, 0.0) ** 2 / denom
    b = np.maximum(R - 1.0, 0.0) ** 2 / denom
    with np.errstate(divide="ignore"):
        # log(0.5*(e^a - e^b)) = a + log(0.5) + log1p(-e^(b-a))
        return np.where(
            a > 0.0,
            a + np.log(0.5) + np.log1p(-np.exp(np.minimum(b - a, 0.0))),
            -np.inf,
        )


def ada_predict(state: SleepingExpertState) -> np.ndarray:
    """Distribution proportional to the potential weights; uniform fallback."""
    logw = _log_ada_weights(state.regrets, state.magnitudes)
    if np.all(np.isinf(logw)):
        return np.full(len(logw), 1.0 / len(logw))
    m = np.max(logw)
    w = np.exp(logw - m)
    return w / w.sum()


def ada_update(
    state: SleepingExpertState,
    awake: np.ndarray,
    rewards: np.ndarray,
    sampling_dist: np.ndarray,
) -> SleepingExpertState:
    """Accumulate R and C increments for awake experts.

    ``sampling_dist`` is the awake-restricted distribution the action was
    sampled from; it must put no mass on asleep experts.
    """
    awake = np.asarray(awake, dtype=bool)
    rewards = np.asarray(rewards, dtype=float)
    p = np.asarray(sampling_dist, dtype=float)
    if np.any(p[~awake] > 0):
        raise ValueError("sampling distribution puts mass on an asleep expert")
    expected = float(p @ rewards)
    delta = np.where(awake, rewards - expected, 0.0)
    return SleepingExpertState(
        state.regrets + delta, state.magnitudes + np.abs(delta)
    )


def sleeping_reward_completion(
    ucb_rewards: np.ndarray, awake: np.ndarray, p: np.ndarray
) -> np.ndarray:
    """Complete a reward vector so asleep entries are expectation-neutral.

    Awake entries are the clamped optimistic rewards; asleep entries all
    equal the awake-restricted expected reward, which makes the full-vector
    expectation under ``p`` coincide with the awake-restricted one.
    """
    awake = np.asarray(awake, dtype=bool)
    if not awake.any():
        raise ValueError("at least one expert must be awake")
    r = np.clip(np.asarray(ucb_rewards, dtype=float), 0.0, 1.0)
    p = np.asarray(p, dtype=float)
    mass = p[awake].sum()
    if mass > 0:
        fill = float(p[awake] @ r[awake]) / mass
    else:
        fill = float(r[awake].mean())
    return np.where(awake, r, fill)


def hedge_predict(state: HedgeState) -> np.ndarray:
    logw = state.log_weights - np.max(state.log_weights)
    w = np.exp(logw)
    return w / w.sum()


def hedge_update(state: HedgeState, rewards: np.ndarray) -> HedgeState:
    """Multiplicative update with step size 2*sqrt(log K / t)."""
    rewards = np.asarray(rewards, dtype=float)
    t = state.rounds_seen + 1
    eta = 2.0 * np.sqrt(np.log(len(state.log_weights)) / t)
    return HedgeState(state.log_weights + eta * rewards, t)
