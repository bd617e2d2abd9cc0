"""Learners for repeated contextual games with unknown constraints.

A :class:`Player` owns one reward GP over (joint action, context), one
constraint GP over its own action with the M constraints as target
columns (they share kernel, noise and inputs, hence the posterior
covariance), a context router holding one expert state per context
bucket, and a seeded RNG.  A round is two calls:
:meth:`Player.select_action` opens it (route the context, predict the
bucket's expert distribution, filter actions through constraint LCBs,
sample from the renormalized distribution) and keeps what it computed in
``Player.round``; :meth:`Player.observe_feedback` closes it, updating the
expert state from that same mask and sampling distribution and then the
GPs from the player's own noisy feedback.

The reward GP is queried at the awake actions only: AdaNormalHedge
weighs an asleep action's reward by its zero sampling mass and masks its
increment, and a Hedge learner has no asleep action.  So
``Player.clamp_events`` counts the negative (clamped) reward UCBs of
awake actions, the only ones an update reads.

Only this module reads what an algorithm means: the multiplicative-
weights learners build no constraint model, non-contextual variants
collapse the router to a single bucket, and the expert rule follows the
filter.  The random baseline plays uniform and learns nothing: a
:class:`UniformPlayer` is a seeded column of actions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import experts
from .gp import ConfidenceParams, GpModel, beta
from .kernels import KernelSpec

CZ_ADA_NORMAL_GP = "cz_ada_normal_gp"
C_ADA_NORMAL_GP = "c_ada_normal_gp"
Z_GPMW = "z_gpmw"
GPMW = "gpmw"
RANDOM = "random"

ALGORITHMS = (CZ_ADA_NORMAL_GP, C_ADA_NORMAL_GP, Z_GPMW, GPMW, RANDOM)

# which code paths each learning algorithm enables.  The expert rule
# follows the constraint filter: a filtered learner has asleep actions and
# runs AdaNormalHedge's sleeping experts; an unfiltered one never has, and
# runs Hedge on the full reward vector.
USES_CONTEXT = {CZ_ADA_NORMAL_GP: True, C_ADA_NORMAL_GP: False, Z_GPMW: True, GPMW: False}
USES_CONSTRAINTS = {CZ_ADA_NORMAL_GP: True, C_ADA_NORMAL_GP: True, Z_GPMW: False, GPMW: False}


class InfeasibilityDeclared(RuntimeError):
    """No action passes the constraint LCB filter at the observed context."""

    def __init__(self, player_index: int, context):
        super().__init__(
            f"player {player_index} declared infeasibility at context {context}"
        )
        self.player_index = player_index
        self.context = context


def renormalize(p: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Restrict p to the masked-in set and renormalize (uniform fallback)."""
    mask = np.asarray(mask, dtype=bool)
    if not np.count_nonzero(mask):
        raise ValueError("empty feasible set")
    restricted = np.where(mask, p, 0.0)
    total = restricted.sum()
    if total <= 0.0:
        return mask / mask.sum()
    restricted /= total
    return restricted


@dataclass
class PlayerConfig:
    """One value per setting: ``confidence`` (B, sigma, delta and the
    game's M) serves the reward model and the M-target constraint model,
    whose kernel is ``constraint_kernel``; sigma^2 is their noise."""

    player_index: int
    num_actions: int
    algorithm: str = CZ_ADA_NORMAL_GP
    reward_kernel: KernelSpec | None = None
    constraint_kernel: KernelSpec | None = None
    confidence: ConfidenceParams | None = None
    num_contexts: int = 1
    beta_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.num_actions < 2:
            raise ValueError("num_actions must be at least 2")
        if self.num_contexts < 1:
            raise ValueError("num_contexts must be at least 1")
        if self.algorithm not in USES_CONTEXT:
            raise ValueError(f"{self.algorithm!r} is not a learning algorithm")
        if self.reward_kernel is None or self.confidence is None:
            raise ValueError(
                f"{self.algorithm} requires a reward kernel and confidence"
            )
        if self.uses_constraints and self.num_constraints:
            if self.constraint_kernel is None:
                raise ValueError(f"{self.algorithm} requires a constraint kernel")

    @property
    def num_constraints(self) -> int:
        """The game's constraint count M, as the confidence block holds it."""
        return self.confidence.num_constraints

    @property
    def uses_context(self) -> bool:
        return USES_CONTEXT[self.algorithm]

    @property
    def uses_constraints(self) -> bool:
        return USES_CONSTRAINTS[self.algorithm]


class UniformPlayer:
    """The random baseline: a uniform action each round from its own seeded
    RNG.  It learns nothing, so the engine asks it once per run for its
    whole action column.  Like a learner with no model, it has no
    ``reward_gp`` and no ``clamp_events``."""

    reward_gp = None
    clamp_events = 0

    def __init__(self, num_actions: int, seed: int = 0):
        if num_actions < 2:
            raise ValueError("num_actions must be at least 2")
        self.num_actions, self.seed = num_actions, seed

    def actions(self, T: int) -> np.ndarray:
        """Rounds 1..T: the values of T scalar ``integers(num_actions)`` draws."""
        return np.random.default_rng(self.seed).integers(self.num_actions, size=T)


class ContextRouter:
    """Maps context ids to per-bucket expert states and applies the
    expert rule to them: AdaNormalHedge's sleeping experts when
    ``sleeping``, else Hedge, whose actions are all awake.

    A contextual learner keeps one bucket per context id in [0, Z); a
    non-contextual one plays every context from bucket 0.  A bucket's
    state is created on the first visit.
    """

    def __init__(self, num_contexts: int, num_actions: int, sleeping: bool,
                 use_context: bool):
        self.num_contexts = num_contexts
        self.num_actions = num_actions
        self.sleeping = sleeping
        self.use_context = use_context
        self.states: dict[int, experts.SleepingExpertState | experts.HedgeState] = {}

    def route(self, z) -> int:
        """Return the bucket key for context z, creating it if needed."""
        key = int(z) if self.use_context else 0
        if not 0 <= key < self.num_contexts:
            raise ValueError(f"context id {key} out of range")
        if key not in self.states:
            kind = experts.SleepingExpertState if self.sleeping else experts.HedgeState
            self.states[key] = kind.fresh(self.num_actions)
        return key

    def predict(self, key: int) -> np.ndarray:
        state = self.states[key]
        if self.sleeping:
            return experts.ada_predict(state)
        return experts.hedge_predict(state)

    def update(self, key: int, mask: np.ndarray, ucbs: np.ndarray,
               pbar: np.ndarray) -> None:
        """Update bucket ``key`` from the awake mask, the reward UCBs (an
        asleep action's entry is not read) and the pbar the action was
        sampled from."""
        rhat = ucbs.clip(0.0, 1.0)
        state = self.states[key]
        if self.sleeping:
            self.states[key] = experts.ada_update(state, mask, rhat, pbar)
        else:
            self.states[key] = experts.hedge_update(state, rhat)

    def magnitudes(self) -> list[np.ndarray] | None:
        """Each bucket's magnitude vector C; None under Hedge."""
        if not self.sleeping:
            return None
        return [state.magnitudes for state in self.states.values()]


class Player:
    """One learner; owns its models exclusively."""

    def __init__(self, config: PlayerConfig):
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.clamp_events = 0
        self.infeasible = False
        # the open round: (z, bucket, mask, pbar), or None between rounds
        self.round: tuple | None = None
        noise_variance = config.confidence.noise_scale**2
        self.reward_gp = GpModel(config.reward_kernel, noise_variance)
        # one model with M target columns, or none: a list, as benchmark probes iterate it
        M = config.num_constraints if config.uses_constraints else 0
        self.constraint_gps = (
            [GpModel(config.constraint_kernel, noise_variance, (M,))] if M else []
        )
        self.router = ContextRouter(
            config.num_contexts, config.num_actions, config.uses_constraints,
            config.uses_context,
        )
        # the constraint model's inputs: every own action, one row each
        self._action_grid = np.arange(config.num_actions, dtype=float)[:, None]

    # -- per-function confidence widths ------------------------------------

    def reward_beta(self) -> float:
        return self.config.beta_scale * beta(
            self.config.confidence, self.reward_gp.running_info_gain
        )

    def constraint_beta(self) -> float:
        return self.config.beta_scale * beta(
            self.config.confidence, self.constraint_gps[0].running_info_gain
        )

    def constraint_info_gains(self) -> list[float]:
        """The M constraints' information gains, all the one model's."""
        return [gp.running_info_gain for gp in self.constraint_gps] * self.config.num_constraints

    # -- round interface ----------------------------------------------------

    def _constraint_input(self, action: int, z) -> np.ndarray:
        return np.array([float(action)], dtype=float)

    def _reward_inputs(self, opponents, z, own) -> np.ndarray:
        """Reward-GP inputs, one row per own action in ``own``: the joint
        action with that action in slot i, then z for a contextual learner."""
        cfg = self.config
        i = cfg.player_index
        n = len(opponents) + 1
        rows = np.empty((len(own), n + cfg.uses_context))
        rows[:, :i] = opponents[:i]
        rows[:, i] = own
        rows[:, i + 1:n] = opponents[i:]
        if cfg.uses_context:
            rows[:, n] = z
        return rows

    def feasible_mask(self, z) -> np.ndarray:
        if not self.constraint_gps:
            return np.ones(self.config.num_actions, dtype=bool)
        lcbs = self.constraint_gps[0].lcb_batch(self._action_grid, self.constraint_beta())
        return (lcbs <= 0.0).all(axis=1)

    def select_action(self, z) -> int:
        """Open a round: sample a feasible action for context z.

        Keeps the context, the bucket, the feasibility mask and the
        renormalized expert distribution pbar that the action was sampled
        from in :attr:`round` for :meth:`observe_feedback`.  Raises
        :class:`InfeasibilityDeclared` when no action passes the filter,
        and in every later round.
        """
        cfg = self.config
        if self.infeasible:
            raise InfeasibilityDeclared(cfg.player_index, z)
        bucket = self.router.route(z)
        p = self.router.predict(bucket)
        mask = self.feasible_mask(z)
        if not np.count_nonzero(mask):
            self.infeasible = True
            raise InfeasibilityDeclared(cfg.player_index, z)
        pbar = renormalize(p, mask)
        action = int(pbar.cumsum().searchsorted(self.rng.random(), side="right"))
        self.round = (z, bucket, mask, pbar)
        # the cumulative sum can end just below 1; a draw past its end
        # plays the last action with mass, never an asleep one
        return min(action, int(pbar.nonzero()[0][-1]))

    def observe_feedback(self, own_action: int, opponents_actions,
                         noisy_reward: float, noisy_constraints) -> None:
        """Close the round :meth:`select_action` opened with the player's
        own noisy feedback; raises ``RuntimeError`` when none is open."""
        cfg = self.config
        if self.round is None:
            raise RuntimeError("observe_feedback without an open round")
        noisy_constraints = np.asarray(noisy_constraints, dtype=float)
        if cfg.uses_constraints and len(noisy_constraints) != cfg.num_constraints:
            raise ValueError("constraint feedback length mismatch")
        z, bucket, mask, pbar = self.round
        self.round = None
        awake = mask.nonzero()[0]
        row = int(awake.searchsorted(own_action))
        if row == len(awake) or awake[row] != own_action:
            raise ValueError(f"action {own_action} was asleep this round")

        # optimistic reward estimates at the awake actions (pre-update
        # posterior); no rule reads an asleep entry, which stays 0.0
        candidates = self._reward_inputs(opponents_actions, z, awake)
        ucbs = np.zeros(cfg.num_actions)
        ucbs[awake] = self.reward_gp.ucb_batch(candidates, self.reward_beta())
        self.clamp_events += int(np.count_nonzero(ucbs < 0.0))
        self.router.update(bucket, mask, ucbs, pbar)

        # append observations after the expert update so estimates above
        # used the pre-round posterior
        self.reward_gp.add_observation(candidates[row], noisy_reward)
        for gp in self.constraint_gps:
            gp.add_observation(self._constraint_input(own_action, z), noisy_constraints)
