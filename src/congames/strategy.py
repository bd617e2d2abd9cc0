"""Learners for repeated contextual games with unknown constraints.

A :class:`Player` owns one reward GP over (joint action, context), M
constraint GPs over its own action, a context router holding one expert
state per context bucket, and a seeded RNG.  A round is two calls:
:meth:`Player.select_action` opens it (route the context, predict the
bucket's expert distribution, filter actions through constraint LCBs,
sample from the renormalized distribution) and keeps what it computed in
``Player.round``; :meth:`Player.observe_feedback` closes it, updating the
expert state from that same mask and sampling distribution and then the
GPs from the player's own noisy feedback.

Baselines reuse the same machinery: the multiplicative-weights learners
skip constraint filtering, non-contextual variants collapse the router to
a single bucket, and the random baseline plays uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import experts
from .gp import ConfidenceParams, GpModel, beta
from .kernels import KernelSpec

ADA_NORMAL_HEDGE = "ada_normal_hedge"
REDUCED_HEDGE = "reduced_hedge"

CZ_ADA_NORMAL_GP = "cz_ada_normal_gp"
C_ADA_NORMAL_GP = "c_ada_normal_gp"
Z_GPMW = "z_gpmw"
GPMW = "gpmw"
RANDOM = "random"

ALGORITHMS = (CZ_ADA_NORMAL_GP, C_ADA_NORMAL_GP, Z_GPMW, GPMW, RANDOM)

# which code paths each algorithm variant enables
USES_CONTEXT = {CZ_ADA_NORMAL_GP: True, C_ADA_NORMAL_GP: False, Z_GPMW: True, GPMW: False}
USES_CONSTRAINTS = {CZ_ADA_NORMAL_GP: True, C_ADA_NORMAL_GP: True, Z_GPMW: False, GPMW: False}
_DEFAULT_EXPERT_RULE = {
    CZ_ADA_NORMAL_GP: ADA_NORMAL_HEDGE,
    C_ADA_NORMAL_GP: ADA_NORMAL_HEDGE,
    Z_GPMW: REDUCED_HEDGE,
    GPMW: REDUCED_HEDGE,
}


class InfeasibilityDeclared(RuntimeError):
    """No action passes the constraint LCB filter at the observed context."""

    def __init__(self, player_index: int, context):
        super().__init__(
            f"player {player_index} declared infeasibility at context {context}"
        )
        self.player_index = player_index
        self.context = context


@dataclass(frozen=True)
class FiniteContexts:
    num_contexts: int


@dataclass(frozen=True)
class EpsilonNet:
    dim: int
    epsilon: float | None = None  # None: set from lipschitz_product and horizon
    lipschitz_product: float = 1.0
    horizon: int = 1000


ContextMode = FiniteContexts | EpsilonNet


def default_epsilon(lipschitz_product: float, d: int, T: int) -> float:
    """Covering radius (L_r*L_p)^(-2/(d+2)) * T^(-1/(d+2))."""
    if lipschitz_product <= 0 or d <= 0 or T <= 0:
        raise ValueError("all arguments must be positive")
    return lipschitz_product ** (-2.0 / (d + 2)) * T ** (-1.0 / (d + 2))


def renormalize(p: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Restrict p to the masked-in set and renormalize (uniform fallback)."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("empty feasible set")
    restricted = np.where(mask, p, 0.0)
    total = restricted.sum()
    if total <= 0.0:
        return mask / mask.sum()
    return restricted / total


@dataclass
class PlayerConfig:
    num_players: int
    player_index: int
    num_actions: int
    algorithm: str = CZ_ADA_NORMAL_GP
    num_constraints: int = 0
    reward_kernel: KernelSpec | None = None
    constraint_kernels: list[KernelSpec] = field(default_factory=list)
    reward_confidence: ConfidenceParams | None = None
    constraint_confidences: list[ConfidenceParams] = field(default_factory=list)
    context_mode: ContextMode = FiniteContexts(1)
    expert_rule: str | None = None  # None: per-algorithm default
    noise_variance: float = 1.0
    beta_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.num_actions < 2:
            raise ValueError("num_actions must be at least 2")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.expert_rule is None and self.algorithm != RANDOM:
            self.expert_rule = _DEFAULT_EXPERT_RULE[self.algorithm]
        if self.algorithm != RANDOM:
            if self.reward_kernel is None or self.reward_confidence is None:
                raise ValueError(
                    f"{self.algorithm} requires a reward kernel and confidence"
                )
        if self.uses_constraints and self.num_constraints > 0:
            if len(self.constraint_kernels) != self.num_constraints:
                raise ValueError("one constraint kernel per constraint required")
            if len(self.constraint_confidences) != self.num_constraints:
                raise ValueError("one confidence block per constraint required")
        if isinstance(self.context_mode, EpsilonNet):
            if self.context_mode.epsilon is not None and self.context_mode.epsilon <= 0:
                raise ValueError("epsilon must be positive when fixed")

    @property
    def uses_context(self) -> bool:
        return self.algorithm != RANDOM and USES_CONTEXT[self.algorithm]

    @property
    def uses_constraints(self) -> bool:
        return self.algorithm != RANDOM and USES_CONSTRAINTS[self.algorithm]


class ContextRouter:
    """Maps contexts to per-bucket expert states.

    Finite mode keys buckets by context id; epsilon-net mode greedily
    covers [0,1]^d with L1 balls, one bucket per center.  Ties between
    equally close centers break toward the earlier-created one.
    """

    def __init__(self, mode: ContextMode, num_actions: int, expert_rule: str,
                 use_context: bool):
        self.mode = mode
        self.num_actions = num_actions
        self.expert_rule = expert_rule
        self.use_context = use_context
        self.states: dict[int, experts.SleepingExpertState | experts.HedgeState] = {}
        self.centers: list[np.ndarray] = []
        if isinstance(mode, EpsilonNet):
            eps = mode.epsilon
            if eps is None:
                eps = default_epsilon(mode.lipschitz_product, mode.dim, mode.horizon)
            self.epsilon = eps
        else:
            self.epsilon = None

    def _fresh_state(self):
        if self.expert_rule == ADA_NORMAL_HEDGE:
            return experts.SleepingExpertState.fresh(self.num_actions)
        return experts.HedgeState.fresh(self.num_actions)

    def route(self, z) -> int:
        """Return the bucket key for context z, creating it if needed."""
        if not self.use_context:
            key = 0
        elif isinstance(self.mode, FiniteContexts):
            key = int(z)
            if not 0 <= key < self.mode.num_contexts:
                raise ValueError(f"context id {key} out of range")
        else:
            zv = np.asarray(z, dtype=float).ravel()
            if zv.shape != (self.mode.dim,):
                raise ValueError("context dimension mismatch")
            if np.any(zv < 0.0) or np.any(zv > 1.0):
                raise ValueError("epsilon-net contexts must lie in [0,1]^d")
            if self.centers:
                dists = [float(np.abs(zv - c).sum()) for c in self.centers]
                key = int(np.argmin(dists))
                if dists[key] > self.epsilon:
                    self.centers.append(zv)
                    key = len(self.centers) - 1
            else:
                self.centers.append(zv)
                key = 0
        if key not in self.states:
            self.states[key] = self._fresh_state()
        return key

    def predict(self, key: int) -> np.ndarray:
        state = self.states[key]
        if self.expert_rule == ADA_NORMAL_HEDGE:
            return experts.ada_predict(state)
        return experts.hedge_predict(state)


class Player:
    """One learner; owns its models exclusively."""

    def __init__(self, config: PlayerConfig):
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.clamp_events = 0
        self.infeasible = False
        # the open round: (z, bucket, p, mask, pbar), or None between rounds
        self.round: tuple | None = None
        if config.algorithm == RANDOM:
            self.reward_gp = None
            self.constraint_gps = []
            self.router = None
            return
        self.reward_gp = GpModel(config.reward_kernel, config.noise_variance)
        if config.uses_constraints:
            self.constraint_gps = [
                GpModel(k, config.noise_variance) for k in config.constraint_kernels
            ]
        else:
            self.constraint_gps = []
        self.router = ContextRouter(
            config.context_mode, config.num_actions, config.expert_rule,
            config.uses_context,
        )

    # -- per-function confidence widths ------------------------------------

    def reward_beta(self) -> float:
        return self.config.beta_scale * beta(
            self.config.reward_confidence, self.reward_gp.running_info_gain
        )

    def constraint_beta(self, m: int) -> float:
        return self.config.beta_scale * beta(
            self.config.constraint_confidences[m],
            self.constraint_gps[m].running_info_gain,
        )

    # -- round interface ----------------------------------------------------

    def _constraint_input(self, action: int, z) -> np.ndarray:
        return np.array([float(action)], dtype=float)

    def _reward_inputs(self, opponents, z) -> np.ndarray:
        """Candidate reward-GP inputs, one row per own action."""
        cfg = self.config
        i = cfg.player_index
        opp = np.asarray(opponents, dtype=float)
        zv = np.atleast_1d(np.asarray(z, dtype=float)) if cfg.uses_context else []
        # the own action goes in slot i of the joint action
        row = np.concatenate([opp[:i], [0.0], opp[i:], zv])
        rows = np.tile(row, (cfg.num_actions, 1))
        rows[:, i] = np.arange(cfg.num_actions)
        return rows

    def feasible_mask(self, z) -> np.ndarray:
        cfg = self.config
        mask = np.ones(cfg.num_actions, dtype=bool)
        if not cfg.uses_constraints:
            return mask
        actions = np.arange(cfg.num_actions, dtype=float)[:, None]
        for m, gp_m in enumerate(self.constraint_gps):
            lcbs = gp_m.lcb_batch(actions, self.constraint_beta(m))
            mask &= lcbs <= 0.0
        return mask

    def select_action(self, z) -> int:
        """Open a round: sample a feasible action for context z.

        Keeps the context, the bucket, its expert distribution p, the
        feasibility mask and the renormalized distribution pbar that the
        action was sampled from in :attr:`round` for
        :meth:`observe_feedback`.  Raises :class:`InfeasibilityDeclared`
        when no action passes the filter, and in every later round.
        """
        cfg = self.config
        if self.infeasible:
            raise InfeasibilityDeclared(cfg.player_index, z)
        if cfg.algorithm == RANDOM:
            return int(self.rng.integers(cfg.num_actions))
        bucket = self.router.route(z)
        p = self.router.predict(bucket)
        mask = self.feasible_mask(z)
        if not mask.any():
            self.infeasible = True
            raise InfeasibilityDeclared(cfg.player_index, z)
        pbar = renormalize(p, mask)
        action = int(np.searchsorted(np.cumsum(pbar), self.rng.random(), side="right"))
        self.round = (z, bucket, p, mask, pbar)
        return min(action, cfg.num_actions - 1)

    def observe_feedback(self, own_action: int, opponents_actions,
                         noisy_reward: float, noisy_constraints) -> None:
        """Close the round :meth:`select_action` opened with the player's
        own noisy feedback; raises ``RuntimeError`` when none is open."""
        cfg = self.config
        if cfg.algorithm == RANDOM:
            return
        if self.round is None:
            raise RuntimeError("observe_feedback without an open round")
        noisy_constraints = np.asarray(noisy_constraints, dtype=float)
        if cfg.uses_constraints and len(noisy_constraints) != cfg.num_constraints:
            raise ValueError("constraint feedback length mismatch")
        z, bucket, p, mask, pbar = self.round
        self.round = None

        # optimistic reward estimates over own actions (pre-update posterior)
        candidates = self._reward_inputs(opponents_actions, z)
        ucbs = self.reward_gp.ucb_batch(candidates, self.reward_beta())
        self.clamp_events += int(np.sum(ucbs < 0.0))
        rhat = np.clip(ucbs, 0.0, 1.0)

        state = self.router.states[bucket]
        if cfg.expert_rule == ADA_NORMAL_HEDGE:
            self.router.states[bucket] = experts.ada_update(state, mask, rhat, pbar)
        else:
            completed = experts.sleeping_reward_completion(ucbs, mask, p)
            self.router.states[bucket] = experts.hedge_update(state, completed)

        # append observations after the expert update so estimates above
        # used the pre-round posterior
        self.reward_gp.add_observation(candidates[own_action], noisy_reward)
        for m, gp_m in enumerate(self.constraint_gps):
            gp_m.add_observation(
                self._constraint_input(own_action, z), noisy_constraints[m]
            )
