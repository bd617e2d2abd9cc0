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
from typing import NamedTuple

import numpy as np

from .game import GameDefinition, Trajectory
from .gp import ConfidenceParams, beta


class NoFeasibleActionError(ValueError):
    """A realized context admits no action satisfying the true constraints."""


class _Oracle(NamedTuple):
    """One player's oracle metrics, from one pass over its counterfactual
    rewards and its true constraint values."""

    regret: np.ndarray            # (T,) cumulative, vs the best feasible policy
    violations: np.ndarray        # (M, T) cumulative positive parts
    best_policy: dict[int, int]   # over the contexts that occur
    reward_gap: float             # T times the player's equilibrium reward gap
    violation_totals: np.ndarray  # (M,) T times the expected violations


def _oracle(trajectory: Trajectory, game: GameDefinition, player: int) -> _Oracle:
    """Gather the player's counterfactual reward matrix C, (T, K), where
    C[t, a] is its true reward in round t had it played a, its per-context
    column sums with -inf at infeasible actions, (Z, K), and its positive
    constraint parts, once each; the best feasible policy is the row
    argmax of the sums, and regret and the reward gap follow from them."""
    Z, K = game.num_contexts, game.num_actions
    contexts = trajectory.contexts
    index = [a[:, None] for a in trajectory.actions.T]
    index[player] = np.arange(K)
    C = game.rewards[player][(*index, contexts[:, None])]
    cells = (contexts[:, None] * K + np.arange(K)).ravel()
    totals = np.bincount(cells, C.ravel(), minlength=Z * K).reshape(Z, K)
    feasible = game.feasible_actions(player)
    realized = np.bincount(contexts, minlength=Z) > 0
    stranded = np.flatnonzero(realized & ~feasible.any(axis=1))
    if len(stranded):
        raise NoFeasibleActionError(
            f"player {player} has no feasible action at context {stranded[0]}"
        )
    totals = np.where(feasible, totals, -np.inf)
    policy = totals.argmax(axis=1)
    rounds, own = np.arange(len(C)), trajectory.actions[:, player]
    played = C[rounds, own]
    earned = np.bincount(contexts, played, minlength=Z)
    positive = np.maximum(game.constraint_grid(player)[:, own, contexts], 0.0)
    return _Oracle(
        regret=np.cumsum(C[rounds, policy[contexts]] - played),
        violations=np.cumsum(positive, axis=1),
        best_policy={int(z): int(policy[z]) for z in np.flatnonzero(realized)},
        reward_gap=float((totals.max(axis=1)[realized] - earned[realized]).sum()),
        violation_totals=positive.sum(axis=1),
    )


def best_feasible_policy(
    trajectory: Trajectory, game: GameDefinition, player: int
) -> dict[int, int]:
    """Best fixed feasible context-to-action map against the realized play,
    over the contexts that occur."""
    return _oracle(trajectory, game, player).best_policy


def constrained_regret(
    trajectory: Trajectory, game: GameDefinition, player: int
) -> np.ndarray:
    """Cumulative regret against the T-round best feasible policy."""
    return _oracle(trajectory, game, player).regret


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
    if trajectory.num_rounds < 1:
        raise ValueError("empty trajectory")
    report = compute_report(trajectory, game)
    return report.cce_eps, report.cce_terms


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

    ``constraint_info_gains`` holds one gain per constraint, each giving a
    violation bound; ``confidence`` sets beta for every model, and its
    delta the martingale term.  ``expert_magnitudes`` holds the
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

    def final_regret(self, player: int) -> float:
        r = self.regret[player]
        return float(r[-1]) if len(r) else 0.0

    def final_violations(self, player: int) -> np.ndarray:
        v = self.violations[player]
        return v[:, -1] if v.shape[1] else np.zeros(v.shape[0])


def compute_report(trajectory: Trajectory, game: GameDefinition) -> MetricsReport:
    """Every player's oracle metrics, one pass per player.  A run halted in
    its first round has empty series, no best policy and no equilibrium
    accuracy."""
    T = trajectory.num_rounds
    oracles = [_oracle(trajectory, game, i) for i in range(game.num_players)]
    eps, terms = None, {}
    if T:
        gaps = {i: o.reward_gap / T for i, o in enumerate(oracles)}
        rates = {i: o.violation_totals / T for i, o in enumerate(oracles)}
        eps = float(max([0.0, *gaps.values(), *(v for vs in rates.values() for v in vs)]))
        terms = {"reward_gaps": gaps, "violation_rates": rates}
    return MetricsReport(
        regret=dict(enumerate(o.regret for o in oracles)),
        violations=dict(enumerate(o.violations for o in oracles)),
        best_policy=dict(enumerate(o.best_policy for o in oracles)),
        cce_eps=eps,
        cce_terms=terms,
    )
