"""Oracle-side evaluation of played trajectories.

Everything here is post-hoc and uses the true game tables; learners never
see these quantities.  Both benchmarks are sums over one object per
player i, the counterfactual reward matrix C[t, a] = r_i(a, a_-i(t), z_t),
gathered from the reward table in one indexing step.  The best feasible
policy decomposes per context: it is the feasible argmax of the
per-context column sums of C, and regret and the equilibrium gap follow
from the same sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import GameDefinition, Trajectory
from .gp import ConfidenceParams, beta


class NoFeasibleActionError(ValueError):
    """A realized context admits no action satisfying the true constraints."""


def _counterfactual(
    trajectory: Trajectory, game: GameDefinition, player: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The player's counterfactual reward matrix C, (T, K), where C[t, a]
    is its true reward in round t had it played a; the per-context column
    sums of C with -inf at infeasible actions, (Z, K); and the mask of
    contexts that occur in the trajectory, (Z,)."""
    Z, K = game.num_contexts, game.num_actions
    index = [a[:, None] for a in trajectory.actions.T]
    index[player] = np.arange(K)
    C = game.rewards[player][(*index, trajectory.contexts[:, None])]
    cells = (trajectory.contexts[:, None] * K + np.arange(K)).ravel()
    totals = np.bincount(cells, C.ravel(), minlength=Z * K).reshape(Z, K)
    feasible = game.feasible_actions(player)
    realized = np.bincount(trajectory.contexts, minlength=Z) > 0
    stranded = np.flatnonzero(realized & ~feasible.any(axis=1))
    if len(stranded):
        raise NoFeasibleActionError(
            f"player {player} has no feasible action at context {stranded[0]}"
        )
    return C, np.where(feasible, totals, -np.inf), realized


def _regret(
    trajectory: Trajectory, player: int, C: np.ndarray, policy: np.ndarray
) -> np.ndarray:
    rounds = np.arange(len(C))
    best = C[rounds, policy[trajectory.contexts]]
    return np.cumsum(best - C[rounds, trajectory.actions[:, player]])


def _as_dict(policy: np.ndarray, realized: np.ndarray) -> dict[int, int]:
    return {int(z): int(policy[z]) for z in np.flatnonzero(realized)}


def best_feasible_policy(
    trajectory: Trajectory, game: GameDefinition, player: int
) -> dict[int, int]:
    """Best fixed feasible context-to-action map against the realized play,
    over the contexts that occur."""
    _, totals, realized = _counterfactual(trajectory, game, player)
    return _as_dict(totals.argmax(axis=1), realized)


def constrained_regret(
    trajectory: Trajectory, game: GameDefinition, player: int
) -> np.ndarray:
    """Cumulative regret against the T-round best feasible policy."""
    C, totals, _ = _counterfactual(trajectory, game, player)
    return _regret(trajectory, player, C, totals.argmax(axis=1))


def _true_constraints(
    trajectory: Trajectory, game: GameDefinition, player: int
) -> np.ndarray:
    """The player's true constraint values in every round, (M, T)."""
    grid = game.constraint_grid(player)
    return grid[:, trajectory.actions[:, player], trajectory.contexts]


def cumulative_violations(
    trajectory: Trajectory, game: GameDefinition, player: int
) -> np.ndarray:
    """Per-constraint cumulative positive parts, shape (M, T)."""
    positive = np.maximum(_true_constraints(trajectory, game, player), 0.0)
    return np.cumsum(positive, axis=1)


def empirical_policy(trajectory: Trajectory) -> dict[int, dict[tuple, float]]:
    """Per-context empirical distribution over played joint actions, keyed
    in order of first play."""
    if trajectory.num_rounds < 1:
        raise ValueError("empty trajectory")
    rows = np.column_stack([trajectory.contexts, trajectory.actions])
    played, first, counts = np.unique(
        rows, axis=0, return_index=True, return_counts=True
    )
    order = np.argsort(first)
    rounds = np.bincount(trajectory.contexts).tolist()
    policy: dict[int, dict[tuple, float]] = {}
    for (z, *joint), count in zip(played[order].tolist(), counts[order].tolist()):
        policy.setdefault(z, {})[tuple(joint)] = count / rounds[z]
    return policy


def cce_epsilon(
    trajectory: Trajectory, game: GameDefinition
) -> tuple[float, dict]:
    """Equilibrium accuracy of the empirical joint policy.

    Returns the largest of the per-player unilateral reward gaps over
    feasible deviation policies and the per-player per-constraint expected
    violations, clamped below at zero, together with the per-player terms.
    Expectations are over the empirical joint distribution at each
    context, i.e. averages over the recorded rounds.
    """
    T = trajectory.num_rounds
    if T < 1:
        raise ValueError("empty trajectory")
    gaps = {}
    violations = {}
    for i in range(game.num_players):
        C, totals, realized = _counterfactual(trajectory, game, i)
        played = C[np.arange(T), trajectory.actions[:, i]]
        earned = np.bincount(
            trajectory.contexts, played, minlength=game.num_contexts
        )
        deviation = totals.max(axis=1)
        gaps[i] = float((deviation[realized] - earned[realized]).sum()) / T
        positive = np.maximum(_true_constraints(trajectory, game, i), 0.0)
        violations[i] = positive.sum(axis=1) / T
    terms = [g for g in gaps.values()]
    terms += [v for vs in violations.values() for v in vs]
    eps = max(0.0, max(terms)) if terms else 0.0
    return eps, {"reward_gaps": gaps, "violation_rates": violations}


def adanormal_regret_bound(C_a: float, all_C: np.ndarray) -> float:
    """Per-expert sleeping regret bound sqrt(3*C_a*(ln K + ln B + ln(1+ln K)))."""
    K = len(all_C)
    B = 1.0 + 1.5 / K * float(np.sum(1.0 + np.log1p(all_C)))
    return math.sqrt(3.0 * C_a * (math.log(K) + math.log(B) + math.log(1.0 + math.log(K))))


def theorem_bounds(
    num_actions: int,
    num_contexts: int,
    T: int,
    confidence: ConfidenceParams,
    reward_info_gain: float,
    constraint_info_gains: list[float],
    expert_magnitudes: list[np.ndarray] | None = None,
) -> tuple[float, list[float]]:
    """Explicit high-probability regret and violation bound values.

    ``confidence`` sets beta for the reward and every constraint model,
    and its delta the martingale term.  ``expert_magnitudes`` holds the
    realized per-context cumulative magnitude vectors; when omitted the
    horizon-based cap on the weight-spread term B, 5/2 + 3/2 * log(1+T),
    is used instead.
    """
    K = num_actions
    if expert_magnitudes:
        B = max(
            1.0 + 1.5 / K * float(np.sum(1.0 + np.log1p(np.maximum(C, 0.0))))
            for C in expert_magnitudes
        )
    else:
        B = 2.5 + 1.5 * math.log1p(T)
    expert_term = math.sqrt(
        3.0 * num_contexts * T
        * (math.log(K) + math.log(B) + math.log(1.0 + math.log(K)))
    )
    martingale_term = math.sqrt(T / 2.0 * math.log(2.0 / confidence.failure_prob))
    c1 = 8.0 / math.log1p(1.0 / confidence.noise_scale**2)

    def gp_term(info_gain: float) -> float:
        return c1 * beta(confidence, info_gain) * math.sqrt(T * info_gain)

    regret_bound = expert_term + martingale_term + gp_term(reward_info_gain)
    return regret_bound, [gp_term(gain) for gain in constraint_info_gains]


@dataclass
class MetricsReport:
    """Per-player oracle metrics for one simulated run."""

    regret: dict[int, np.ndarray]
    violations: dict[int, np.ndarray]
    best_policy: dict[int, dict[int, int]]
    cce_eps: float | None            # None for a trajectory with no rounds
    cce_terms: dict
    status: str

    def final_regret(self, player: int) -> float:
        r = self.regret[player]
        return float(r[-1]) if len(r) else 0.0

    def final_violations(self, player: int) -> np.ndarray:
        v = self.violations[player]
        return v[:, -1] if v.shape[1] else np.zeros(v.shape[0])


def compute_report(trajectory: Trajectory, game: GameDefinition) -> MetricsReport:
    """Every player's oracle metrics.  A run halted in its first round has
    empty series, no best policy and no equilibrium accuracy."""
    regret = {}
    violations = {}
    best = {}
    for i in range(game.num_players):
        C, totals, realized = _counterfactual(trajectory, game, i)
        policy = totals.argmax(axis=1)
        regret[i] = _regret(trajectory, i, C, policy)
        violations[i] = cumulative_violations(trajectory, game, i)
        best[i] = _as_dict(policy, realized)
    eps, terms = cce_epsilon(trajectory, game) if trajectory.num_rounds else (None, {})
    return MetricsReport(
        regret=regret,
        violations=violations,
        best_policy=best,
        cce_eps=eps,
        cce_terms=terms,
        status=trajectory.status,
    )
