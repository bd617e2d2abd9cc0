"""Ground-truth games, the random-game generator, and the round engine.

The engine is the only owner of true reward/constraint values; learners
receive nothing beyond the context and the noisy bandit feedback tuple
(own noisy reward, own noisy constraint values, opponents' actions),
enforced by the call signatures of ``Player.select_action``, which opens a
round, and ``Player.observe_feedback``, which closes it.  A run draws
each random baseline's (``UniformPlayer``) whole action column, and, when
a learner plays, all of its noise, before the first round; only learners
are asked each round.  A played game is a columnar ``Trajectory`` of what
was played, contexts and joint actions, and how the run ended; the
feedback went to the learners alone, and the oracle metrics gather true
values from the game tables.
"""

from __future__ import annotations

import ctypes
import functools
import json
import numbers
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import KW_ONLY, dataclass, field
from pathlib import Path

import numpy as np

from .config import MAX_MAGNITUDE, GeneratorParams, _number, _require_keys, parse_json
from .gp import FactorizationError
from .kernels import KernelSpec, cross, gram, kernel_to_config
from .strategy import (
    InfeasibilityDeclared,
    Player,
    UniformPlayer,
    default_constraint_kernel,
    default_reward_kernel,
)

GENERATOR_SCHEME = "gp-posterior-mean-of-sampled-observations-v1"
# the GP draw behind every generated table, read by _sample_gp_function
NUM_GP_SAMPLES = 10
POINTS_PER_SAMPLE = 10
OBS_NOISE = 0.1


@dataclass
class GameDefinition:
    """Tabulated N-player game over finite actions and finite contexts."""

    num_players: int
    num_actions: int
    num_contexts: int
    rewards: list[np.ndarray]          # per player, shape (K,)*N + (Z,)
    constraints: list[np.ndarray]      # per player, shape (M, K) or (M, K, Z)
    reward_noise: list[float]
    constraint_noise: list[list[float]]
    metadata: dict = field(default_factory=dict)

    @property
    def num_constraints(self) -> int:
        return self.constraints[0].shape[0] if self.constraints else 0

    def constraint_grid(self, player: int) -> np.ndarray:
        """Player's true constraint values over (M, K, Z); context-free
        (M, K) tables are broadcast along Z and an empty table gives M=0."""
        table = self.constraints[player]
        if table.size == 0:
            return np.zeros((0, self.num_actions, self.num_contexts))
        if table.ndim == 2:
            table = table[:, :, None]
        return np.broadcast_to(
            table.astype(float, copy=False),
            (table.shape[0], self.num_actions, self.num_contexts),
        )

    def feasible_actions(self, player: int, z: int | None = None) -> np.ndarray:
        """Boolean mask of actions with all true constraints <= 0: shape
        (K,) at context ``z``, or (Z, K) over every context when ``z`` is
        None."""
        mask = np.all(self.constraint_grid(player) <= 0.0, axis=0).T
        return mask if z is None else mask[z]

    def validate(self) -> None:
        """Raise ``ValueError`` unless the game is playable: integer counts
        with N, Z >= 1 and K >= 2; reward tables of shape (K,)*N + (Z,) and
        constraint tables of shape (M, K) or (M, K, Z), one M for all (or
        empty, M=0), finite; N reward and N x M constraint noise scales >= 0;
        values and scales at most :data:`MAX_MAGNITUDE` in magnitude; and a
        feasible action for every player at every context."""
        N, K, Z = self.num_players, self.num_actions, self.num_contexts
        for name, count in (("num_players", N), ("num_actions", K), ("num_contexts", Z)):
            if isinstance(count, bool) or not isinstance(count, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {count!r}")
        if min(N, Z) < 1:
            raise ValueError("a game needs at least one player and context")
        if K < 2:
            raise ValueError("num_actions must be at least 2")
        if len(self.rewards) != N or len(self.constraints) != N:
            raise ValueError(
                f"{N} players need {N} reward and {N} constraint tables, got "
                f"{len(self.rewards)} and {len(self.constraints)}"
            )
        shape = (K,) * N + (Z,)
        for i, table in enumerate(self.rewards):
            if table.shape != shape:
                raise ValueError(
                    f"player {i}: reward table has shape {table.shape}, "
                    f"expected {shape}"
                )
        M = self.num_constraints if self.constraints[0].ndim else 0  # 0-d: no M axis
        for i, table in enumerate(self.constraints):
            fits = table.size == 0 if M == 0 else table.shape in ((M, K), (M, K, Z))
            if not fits:
                raise ValueError(
                    f"player {i}: constraint table has shape {table.shape}, "
                    f"expected {(M, K)} or {(M, K, Z)}"
                )
        for kind, tables in (("reward", self.rewards), ("constraint", self.constraints)):
            for i, table in enumerate(tables):
                if not np.isfinite(table).all():
                    raise ValueError(f"player {i}: {kind} table has non-finite values")
                if table.size and np.abs(table).max() > MAX_MAGNITUDE:
                    raise ValueError(
                        f"player {i}: {kind} table has values beyond {MAX_MAGNITUDE:g}"
                    )
        if len(self.reward_noise) != N or len(self.constraint_noise) != N or any(
            len(row) != M for row in self.constraint_noise
        ):
            raise ValueError(
                f"expected {N} reward noise scales and {N} rows of {M} "
                "constraint noise scales"
            )
        scales = np.array(
            list(self.reward_noise) + [s for row in self.constraint_noise for s in row],
            dtype=float,
        )
        if not (np.isfinite(scales) & (scales >= 0)).all():
            raise ValueError("noise scales must be finite and >= 0")
        if (scales > MAX_MAGNITUDE).any():
            raise ValueError(f"noise scales must be at most {MAX_MAGNITUDE:g}")
        for i in range(N):
            stranded = np.flatnonzero(~self.feasible_actions(i).any(axis=1))
            if len(stranded):
                raise ValueError(f"player {i} has no feasible action at context {stranded[0]}")

    def to_json(self) -> str:
        doc = {
            "num_players": self.num_players,
            "num_actions": self.num_actions,
            "num_contexts": self.num_contexts,
            "rewards": [r.tolist() for r in self.rewards],
            "constraints": [c.tolist() for c in self.constraints],
            "reward_noise": self.reward_noise,
            "constraint_noise": self.constraint_noise,
            "metadata": self.metadata,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "GameDefinition":
        """Parse and validate a game file; a missing, unknown or repeated key,
        or a non-number noise scale, raises ``ConfigError`` naming it."""
        doc = parse_json(text)
        keys = {"num_players", "num_actions", "num_contexts", "rewards",
                "constraints", "reward_noise", "constraint_noise"}
        _require_keys(doc, {*keys, "metadata"}, keys, "")
        game = cls(
            num_players=doc["num_players"],
            num_actions=doc["num_actions"],
            num_contexts=doc["num_contexts"],
            rewards=[_table("reward", i, r) for i, r in enumerate(doc["rewards"])],
            constraints=[
                _table("constraint", i, c) for i, c in enumerate(doc["constraints"])
            ],
            reward_noise=[
                float(_number(s, f".reward_noise[{j}]"))
                for j, s in enumerate(doc["reward_noise"])
            ],
            constraint_noise=[
                [float(_number(s, f".constraint_noise[{i}][{j}]")) for j, s in enumerate(row)]
                for i, row in enumerate(doc["constraint_noise"])
            ],
            metadata=doc.get("metadata", {}),
        )
        game.validate()
        return game


def _table(kind: str, player: int, value) -> np.ndarray:
    # JSON ints and floats only (numpy reads "0.25", true and null as numbers)
    table = np.asarray(value, dtype=object)
    if any(type(x) not in (int, float) for x in table.flat):
        raise ValueError(f"player {player}: {kind} table is not a rectangular array of numbers")
    return table.astype(float)


@dataclass
class Trajectory:
    """A played game, one row per completed round (row t-1 is round t)."""

    contexts: np.ndarray             # (T,) context ids
    actions: np.ndarray              # (T, N) joint actions
    _: KW_ONLY
    status: str = "completed"
    infeasible_player: int | None = None
    infeasible_round: int | None = None
    failed_player: int | None = None
    failed_round: int | None = None

    @property
    def num_rounds(self) -> int:
        return len(self.contexts)


@functools.cache
def _bundled_openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS, if it exports the thread-count calls."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))  # already loaded by numpy: the same handle
        if hasattr(lib, "scipy_openblas_set_num_threads64_") and hasattr(
            lib, "scipy_openblas_get_num_threads64_"
        ):
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads64_.restype = None
            lib.scipy_openblas_get_num_threads64_.argtypes = []
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            return lib
    return None


@contextmanager
def one_blas_thread() -> Iterator[bool]:
    """Run the block with numpy's BLAS on one thread and restore the old
    count after it.  Yields whether it could: where numpy links another
    BLAS (MKL, a system OpenBLAS), nothing changes and it yields False.

    OpenBLAS splits a factorization, and a large matrix-vector product, by
    its thread count, so the same call rounds differently with another
    count.
    """
    lib = _bundled_openblas()
    if lib is None:
        yield False
        return
    before = lib.scipy_openblas_get_num_threads64_()
    if before != 1:
        lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield True
    finally:
        if before != 1:
            lib.scipy_openblas_set_num_threads64_(before)


def _sample_gp_function(
    rng: np.random.Generator, kernel: KernelSpec, grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Observations and weights of a posterior mean over ``grid``.

    Draws :data:`NUM_GP_SAMPLES` independent functions from the GP prior,
    records each at :data:`POINTS_PER_SAMPLE` (at most ``len(grid)``)
    uniformly chosen grid points, and returns the pooled inputs ``X`` with
    the weights ``alpha`` of a single zero-mean GP conditioned on them with
    noise variance :data:`OBS_NOISE`: the posterior mean at rows G is
    ``cross(kernel, G, X) @ alpha``.  The caller evaluates it, so that it
    can exploit the structure of its own grid.
    """
    points = min(POINTS_PER_SAMPLE, len(grid))
    obs_x = []
    obs_y = []
    for _ in range(NUM_GP_SAMPLES):
        idx = rng.choice(len(grid), size=points, replace=False)
        pts = grid[idx]
        K = gram(kernel, pts) + 1e-9 * np.eye(len(pts))
        L = np.linalg.cholesky(K)
        obs_x.append(pts)
        obs_y.append(L @ rng.standard_normal(len(pts)))
    X = np.concatenate(obs_x)
    y = np.concatenate(obs_y)
    A = gram(kernel, X) + OBS_NOISE * np.eye(len(X))
    return X, np.linalg.solve(A, y)


@one_blas_thread()
def generate_random_game(seed: int, **params) -> GameDefinition:
    """Random N-player game with GP-smooth rewards and constraints.

    ``params`` are the fields of :class:`~congames.config.GeneratorParams`,
    which holds their defaults.  Rewards live on the joint-action x context
    grid and are min-max rescaled to [0, 1] per player; constraints are
    context-free over own actions and each is shifted by its
    ``feasible_quantile`` quantile, so roughly that fraction of actions
    meets it.  With one constraint that leaves a feasible action per
    player; with several, the shifts can leave none, and the least
    violating action is then shifted to be feasible.

    The reward mean over the K^N * Z grid is evaluated per factor of the
    product kernel: the action kernel once on the K^N joint actions, the
    context kernel once on the Z contexts, and their broadcast product
    reshaped in grid order.  Each entry is the same product of the same
    two factor values that ``cross`` on the full grid computes, so the
    matrix, and the tables drawn from it, are bit-identical to the dense
    evaluation, at about a seventh of its cost for Z=25.

    BLAS runs on one thread throughout (:func:`one_blas_thread`), so the
    tables do not depend on the machine's core count.
    """
    p = GeneratorParams(**params)
    num_players, num_actions, num_contexts = p.num_players, p.num_actions, p.num_contexts
    if num_contexts < 1 or num_players < 2:
        raise ValueError("degenerate grid")
    rng = np.random.default_rng(seed)
    k_r = default_reward_kernel(num_players)
    k_g = default_constraint_kernel()

    action_axes = np.meshgrid(
        *[np.arange(num_actions, dtype=float)] * num_players, indexing="ij"
    )
    joint = np.stack([ax.ravel() for ax in action_axes], axis=1)
    contexts = np.arange(num_contexts, dtype=float)[:, None]
    grid = np.concatenate(
        [np.repeat(joint, num_contexts, axis=0),
         np.tile(contexts, (len(joint), 1))],
        axis=1,
    )
    shape = (num_actions,) * num_players + (num_contexts,)

    rewards = []
    for _ in range(num_players):
        X, alpha = _sample_gp_function(rng, k_r, grid)
        # the grid is joint actions x contexts, context fastest, so each
        # entry of cross(k_r, grid, X) is a product of one row of each factor
        on_joint = cross(k_r.left, joint, X[:, :num_players])
        on_contexts = cross(k_r.right, contexts, X[:, num_players:])
        k_grid = on_joint[:, None, :] * on_contexts[None, :, :]
        values = k_grid.reshape(len(grid), -1) @ alpha
        # the (K^N, Z, S) grid kernel is the generator's largest array:
        # free it before the next player's is built
        del k_grid
        lo, hi = values.min(), values.max()
        if hi - lo < 1e-12:
            values = np.full_like(values, 0.5)
        else:
            values = (values - lo) / (hi - lo)
        rewards.append(values.reshape(shape))

    action_grid = np.arange(num_actions, dtype=float)[:, None]
    constraints = []
    for _ in range(num_players):
        rows = []
        for _ in range(p.num_constraints):
            X, alpha = _sample_gp_function(rng, k_g, action_grid)
            g = cross(k_g, action_grid, X) @ alpha
            rows.append(g - np.quantile(g, p.feasible_quantile))
        table = np.asarray(rows)
        if table.size and not np.any(np.all(table <= 0.0, axis=0)):
            # per-constraint quantile shifts can leave no jointly feasible
            # action; force the least-violating action to be feasible
            best = int(np.argmax(-table.max(axis=0)))
            table -= np.maximum(table[:, best], 0.0)[:, None]
        constraints.append(table)

    game = GameDefinition(
        num_players=num_players,
        num_actions=num_actions,
        num_contexts=num_contexts,
        rewards=rewards,
        constraints=constraints,
        reward_noise=[p.noise_scale] * num_players,
        constraint_noise=[[p.noise_scale] * p.num_constraints] * num_players,
        metadata={
            "seed": seed,
            "generator_scheme": GENERATOR_SCHEME,
            "num_gp_samples": NUM_GP_SAMPLES,
            "points_per_sample": POINTS_PER_SAMPLE,
            "obs_noise": OBS_NOISE,
            "feasible_quantile": p.feasible_quantile,
            "reward_kernel": kernel_to_config(k_r),
            "constraint_kernel": kernel_to_config(k_g),
        },
    )
    game.validate()
    return game


def uniform_finite_schedule(num_contexts: int, T: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(num_contexts, size=T)


def fixed_schedule(contexts: Sequence[int] | np.ndarray, T: int) -> np.ndarray:
    """The first T of ``contexts`` as a new 1-D int64 array; a float, bool
    or str context, or an integer outside the int64 range, raises
    ``ValueError`` rather than being cast."""
    if len(contexts) < T:
        raise ValueError("fixed context sequence shorter than the horizon")
    head = contexts[:T]
    schedule = np.array(head)
    # np.array casts a bool among ints to an int; an array's dtype tells
    has_bool = not isinstance(head, np.ndarray) and any(
        isinstance(z, (bool, np.bool_)) for z in head
    )
    if has_bool or schedule.ndim != 1 or (schedule.size and schedule.dtype.kind not in "iu"):
        # Python ints beyond int64 make a float or an object array
        if schedule.ndim == 1 and all(
            isinstance(z, int) and not isinstance(z, bool) for z in head
        ):
            if (top := max(head)) > np.iinfo(np.int64).max:
                raise ValueError(f"context {top} is above the int64 range")
            raise ValueError(f"context {min(head)} is below the int64 range")
        raise ValueError("a context schedule must be a 1-D sequence of integers")
    if schedule.dtype.kind == "u" and schedule.size and schedule.max() > np.iinfo(np.int64).max:
        raise ValueError(f"context {schedule.max()} is above the int64 range")
    return schedule.astype(np.int64, copy=False)


def run(
    game: GameDefinition,
    players: list[Player | UniformPlayer],
    context_schedule: Sequence[int] | np.ndarray,
    noise_seed: int = 0,
) -> Trajectory:
    """Simulate the repeated game over ``context_schedule``, any 1-D integer
    sequence, copied as :func:`fixed_schedule` copies it.

    Each ``UniformPlayer``'s action column is drawn before the first
    round; with no learner that is the whole run, and no noise is drawn.
    Otherwise all of the run's noise is drawn before the first round too,
    in one ``standard_normal((T, N + N*M))`` call: row t holds round t's
    N reward draws, then each player's M constraint draws in player
    order, the order in which a per-round draw would take them from the
    stream.  Each round every learner (``Player``) selects an action, in
    player order, and is then sent its noisy feedback, gathered for it
    alone.  The trajectory keeps the contexts and joint actions played,
    not the feedback.

    Halts early, with the status, player and round recorded, if a player
    declares infeasibility (``infeasibility_declared``) or a player's GP
    factor breaks down on its feedback (``factorization_error``); the
    trajectory holds only the rounds before that one.
    """
    N, M = game.num_players, game.num_constraints
    if len(players) != N:
        raise ValueError("player count does not match the game")
    contexts = fixed_schedule(context_schedule, len(context_schedule))
    outside = np.flatnonzero((contexts < 0) | (contexts >= game.num_contexts))
    if len(outside):
        t = int(outside[0])
        raise ValueError(
            f"context {contexts[t]} at round {t + 1} is outside "
            f"[0, {game.num_contexts})"
        )
    T = len(contexts)
    actions = np.zeros((T, N), dtype=np.int64)
    for i, player in enumerate(players):
        if isinstance(player, UniformPlayer):
            actions[:, i] = player.actions(T)
    learners = [(i, p) for i, p in enumerate(players) if isinstance(p, Player)]

    def played(rounds: int, **status) -> Trajectory:
        return Trajectory(contexts[:rounds], actions[:rounds], **status)

    if not learners:
        return played(T)
    reward_sigma = np.asarray(game.reward_noise, dtype=float)
    constraint_sigma = np.array(
        [row[:M] for row in game.constraint_noise], dtype=float
    ).reshape(N, M)
    noise = np.random.default_rng(noise_seed).standard_normal((T, N + N * M))
    reward_noise = reward_sigma * noise[:, :N]
    constraint_noise = constraint_sigma * noise[:, N:].reshape(T, N, M)
    grids = [game.constraint_grid(i) for i in range(N)]
    for t, z in enumerate(contexts.tolist()):
        try:
            for i, player in learners:
                actions[t, i] = player.select_action(z)
        except InfeasibilityDeclared as declared:
            return played(
                t,
                status="infeasibility_declared",
                infeasible_player=declared.player_index,
                infeasible_round=t + 1,
            )
        joint = tuple(actions[t].tolist())
        for i, player in learners:
            a = joint[i]
            try:
                player.observe_feedback(
                    a, joint[:i] + joint[i + 1:],
                    game.rewards[i][joint + (z,)] + reward_noise[t, i],
                    grids[i][:, a, z] + constraint_noise[t, i],
                )
            except FactorizationError:
                return played(
                    t,
                    status="factorization_error",
                    failed_player=i,
                    failed_round=t + 1,
                )
    return played(T)
