"""Game definition, generator, schedules, and simulation loop tests."""

import json

import numpy as np
import pytest

from congames import game as game_mod
from congames.cli import build_player
from congames.config import PlayerBlock
from congames.game import (
    GameDefinition,
    GENERATOR_SCHEME,
    Trajectory,
    fixed_schedule,
    generate_random_game,
    one_blas_thread,
    run,
    uniform_finite_schedule,
)
from congames.gp import ConfidenceParams, FactorizationError
from congames.kernels import Product, SquaredExponential, cross
from congames.strategy import (
    CZ_ADA_NORMAL_GP,
    InfeasibilityDeclared,
    Player,
    PlayerConfig,
    UniformPlayer,
)


def tiny_game(constraints=None):
    """2-player, 2-action, 2-context game with hand-set tables."""
    K, Z = 2, 2
    rewards = [
        np.arange(K * K * Z, dtype=float).reshape(K, K, Z) / (K * K * Z),
        np.ones((K, K, Z)) * 0.5,
    ]
    if constraints is None:
        constraints = [np.array([[-1.0, -1.0]]), np.array([[-1.0, -1.0]])]
    return GameDefinition(
        num_players=2,
        num_actions=K,
        num_contexts=Z,
        rewards=rewards,
        constraints=constraints,
        reward_noise=[0.0, 0.0],
        constraint_noise=[[0.0], [0.0]],
    )


def one_action(doc, constraints):
    """Turn a 2-player, 2-context game document into a K=1 game that gives
    both players the feasible one-constraint table ``constraints``."""
    doc["num_actions"] = 1
    doc["rewards"] = [[[[0.5, 0.5]]]] * 2
    doc["constraints"] = [constraints] * 2


def random_players(game, seed=0):
    return [UniformPlayer(game.num_actions, seed + i) for i in range(game.num_players)]


class TestGameDefinition:
    def test_reward_lookup(self):
        game = tiny_game()
        assert game.reward(0, (1, 0), 1) == pytest.approx(
            game.rewards[0][1, 0, 1]
        )

    def test_constraint_lookup_context_free(self):
        game = tiny_game(constraints=[np.array([[0.2, -0.3]])] * 2)
        np.testing.assert_allclose(game.constraint_values(0, 0, 1), [0.2])
        np.testing.assert_allclose(game.constraint_values(1, 1, 0), [-0.3])

    def test_feasible_actions_mask(self):
        game = tiny_game(constraints=[np.array([[0.2, -0.3]])] * 2)
        np.testing.assert_array_equal(game.feasible_actions(0, 0), [False, True])
        game.validate()

    def test_infeasible_game_detected(self):
        game = tiny_game(constraints=[np.array([[1.0, 1.0]])] * 2)
        with pytest.raises(ValueError, match="^player 0 has no feasible action at context 0$"):
            game.validate()

    def test_json_roundtrip_byte_identical(self):
        game = generate_random_game(0, num_players=2, num_actions=3, num_contexts=2)
        text = game.to_json()
        again = GameDefinition.from_json(text)
        assert again.to_json() == text
        np.testing.assert_array_equal(again.rewards[0], game.rewards[0])

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda d: d["rewards"].__setitem__(1, d["rewards"][1][:2]),
                     r"player 1: reward table has shape \(2, 3, 2\), "
                     r"expected \(3, 3, 2\)",
                     id="truncated-reward-table"),
        pytest.param(lambda d: d["rewards"].pop(), "2 players need 2 reward",
                     id="missing-reward-table"),
        pytest.param(lambda d: d["rewards"][0][1][2].append(0.5),
                     "player 0: reward table is not a rectangular array",
                     id="ragged-reward-table"),
        pytest.param(lambda d: d["constraints"][1].append(d["constraints"][1][0]),
                     r"player 1: constraint table has shape \(2, 3\), "
                     r"expected \(1, 3\) or \(1, 3, 2\)",
                     id="constraint-counts-differ"),
        pytest.param(lambda d: d["constraints"][0][0].pop(),
                     r"player 0: constraint table has shape \(1, 2\)",
                     id="short-constraint-table"),
        pytest.param(lambda d: d["rewards"][1][0][0].__setitem__(1, float("nan")),
                     "player 1: reward table has non-finite values",
                     id="nan-reward"),
        pytest.param(lambda d: d["constraints"][0][0].__setitem__(2, float("inf")),
                     "player 0: constraint table has non-finite values",
                     id="inf-constraint"),
        pytest.param(lambda d: d["reward_noise"].pop(),
                     "expected 2 reward noise scales", id="short-reward-noise"),
        pytest.param(lambda d: d["constraint_noise"][1].append(1.0),
                     "2 rows of 1 constraint noise scales",
                     id="long-constraint-noise"),
        pytest.param(lambda d: d["constraint_noise"][0].__setitem__(0, -0.5),
                     "noise scales must be finite and >= 0", id="negative-noise"),
        pytest.param(lambda d: d.__setitem__("num_contexts", 0),
                     "at least one player", id="no-contexts"),
        pytest.param(lambda d: d["rewards"][0][0][0].__setitem__(1, 1e200),
                     "player 0: reward table has values beyond 1e\\+150",
                     id="huge-reward"),
        pytest.param(lambda d: d["constraints"][1][0].__setitem__(0, -1e200),
                     "player 1: constraint table has values beyond 1e\\+150",
                     id="huge-constraint"),
        pytest.param(lambda d: d["reward_noise"].__setitem__(0, 1e200),
                     "noise scales must be at most 1e\\+150", id="huge-noise"),
        pytest.param(lambda d: d.__setitem__("num_actions", 3.0),
                     "num_actions must be an integer", id="float-count"),
        pytest.param(lambda d: d.__setitem__("num_players", True),
                     "num_players must be an integer", id="bool-count"),
        pytest.param(lambda d: one_action(d, [[-1.0]]), "num_actions must be at least 2",
                     id="one-action-MK"),
        pytest.param(lambda d: one_action(d, [[[-1.0, -1.0]]]),
                     "num_actions must be at least 2", id="one-action-MKZ"),
        pytest.param(lambda d: d["constraints"].__setitem__(1, [[1.0, 0.5, 2.0]]),
                     "^player 1 has no feasible action at context 0$",
                     id="stranded-context-MK"),
        pytest.param(lambda d: d["constraints"].__setitem__(
                         0, [[[-1.0, 1.0], [-0.5, 0.5], [-2.0, 2.0]]]),
                     "^player 0 has no feasible action at context 1$",
                     id="stranded-context-MKZ"),
        pytest.param(lambda d: d.__setitem__("reward_noise", ["0.5", True]),
                     r"^\.reward_noise\[0\]: must be a number$", id="string-noise"),
        pytest.param(lambda d: d.__setitem__("reward_noise", [0.5, True]),
                     r"^\.reward_noise\[1\]: must be a number$", id="bool-noise"),
        pytest.param(lambda d: d["constraint_noise"][1].__setitem__(0, None),
                     r"^\.constraint_noise\[1\]\[0\]: must be a number$",
                     id="null-constraint-noise"),
        pytest.param(lambda d: d["rewards"][0][2][1].__setitem__(0, "0.25"),
                     "^player 0: reward table is not a rectangular array of numbers$",
                     id="string-reward"),
        pytest.param(lambda d: d["rewards"][1][0][0].__setitem__(1, None),
                     "^player 1: reward table is not a rectangular array of numbers$",
                     id="null-reward"),
        pytest.param(lambda d: d["constraints"][1][0].__setitem__(2, False),
                     "^player 1: constraint table is not a rectangular array of numbers$",
                     id="bool-constraint"),
        pytest.param(lambda d: d["constraints"].__setitem__(0, [0.1, True]),
                     "^player 0: constraint table is not a rectangular array of numbers$",
                     id="bare-bool-table"),
        pytest.param(lambda d: d.pop("rewards"), r"^\.rewards: missing required key$",
                     id="missing-key"),
        pytest.param(lambda d: d.__setitem__("num_action", 3),
                     r"^\.num_action: unknown key$", id="unknown-key"),
    ])
    def test_malformed_game_rejected(self, edit, message):
        doc = json.loads(
            generate_random_game(0, num_players=2, num_actions=3, num_contexts=2)
            .to_json()
        )
        edit(doc)
        with pytest.raises(ValueError, match=message):
            GameDefinition.from_json(json.dumps(doc))

    @pytest.mark.parametrize("constraints, noise", [
        pytest.param([np.zeros(0), np.zeros(0)], [[], []], id="empty"),
        pytest.param([-np.ones((2, 2, 2)), -np.ones((2, 2))],
                     [[0.0, 0.1], [0.0, 0.1]], id="context-and-context-free"),
    ])
    def test_constraint_layouts_accepted(self, constraints, noise):
        game = tiny_game(constraints)
        game.constraint_noise = noise
        again = GameDefinition.from_json(game.to_json())
        assert again.num_constraints == len(noise[0])


# every (N, K, Z) of these up to about 60k grid rows
DENSE_GRIDS = [
    (N, K, Z)
    for N in (2, 3, 4) for K in (2, 3, 7) for Z in (1, 2, 5, 25)
    if K**N * Z <= 60_000
]


class TestGenerator:
    @pytest.mark.parametrize("N, K, Z", DENSE_GRIDS)
    def test_tables_equal_dense_posterior_mean(self, monkeypatch, N, K, Z):
        # the generator evaluates the reward mean per kernel factor; every
        # table must equal cross(kernel, grid, X) @ alpha bit for bit
        real = game_mod._sample_gp_function
        for seed in (0, 1, 2):
            calls = []

            def recording(rng, kernel, grid, *args):
                X, alpha = real(rng, kernel, grid, *args)
                calls.append((kernel, grid, X, alpha))
                return X, alpha

            monkeypatch.setattr(game_mod, "_sample_gp_function", recording)
            game = generate_random_game(
                seed, num_players=N, num_actions=K, num_contexts=Z
            )
            assert len(calls) == 2 * N
            shape = (K,) * N + (Z,)
            for i, (kernel, grid, X, alpha) in enumerate(calls[:N]):
                # grid rows in table order: joint actions, context fastest
                assert np.array_equal(grid, np.argwhere(np.ones(shape)))
                with one_blas_thread():  # as the generator runs it
                    dense = cross(kernel, grid, X) @ alpha
                lo, hi = dense.min(), dense.max()
                assert np.array_equal(
                    game.rewards[i], ((dense - lo) / (hi - lo)).reshape(shape)
                )
            for i, (kernel, grid, X, alpha) in enumerate(calls[N:]):
                with one_blas_thread():
                    dense = cross(kernel, grid, X) @ alpha
                assert np.array_equal(
                    game.constraints[i], [dense - np.quantile(dense, 0.25)]
                )

    def test_deterministic_per_seed(self):
        g1 = generate_random_game(5, num_players=2, num_actions=3, num_contexts=2)
        g2 = generate_random_game(5, num_players=2, num_actions=3, num_contexts=2)
        assert g1.to_json() == g2.to_json()
        g3 = generate_random_game(6, num_players=2, num_actions=3, num_contexts=2)
        assert g3.to_json() != g1.to_json()

    def test_shapes_and_ranges(self):
        game = generate_random_game(
            1, num_players=2, num_actions=4, num_contexts=3, num_constraints=2
        )
        assert game.rewards[0].shape == (4, 4, 3)
        assert game.constraints[0].shape == (2, 4)
        for r in game.rewards:
            assert r.min() >= 0.0 and r.max() <= 1.0 + 1e-12

    def test_always_feasible(self):
        for M in range(4):
            for seed in range(5):
                game = generate_random_game(
                    seed, num_players=2, num_actions=4, num_contexts=2, num_constraints=M
                )
                for i in range(game.num_players):
                    assert game.feasible_actions(i).any(axis=1).all()

    def test_quantile_shift_keeps_some_feasible(self):
        game = generate_random_game(
            2, num_players=2, num_actions=7, num_contexts=2,
            feasible_quantile=0.25,
        )
        for i in range(2):
            feas = game.feasible_actions(i, 0).sum()
            assert 1 <= feas <= 7

    def test_metadata_stamp(self):
        game = generate_random_game(3, num_players=2, num_actions=3, num_contexts=2)
        assert game.metadata["generator_scheme"] == GENERATOR_SCHEME
        assert game.metadata["seed"] == 3


class TestSchedules:
    def test_uniform_finite_deterministic_and_in_range(self):
        s1 = uniform_finite_schedule(4, 100, seed=1)
        s2 = uniform_finite_schedule(4, 100, seed=1)
        assert s1 == s2
        assert set(s1) <= {0, 1, 2, 3}
        assert len(s1) == 100

    def test_fixed_schedule_truncates(self):
        assert fixed_schedule([0, 1, 0, 1], 3) == [0, 1, 0]

    def test_fixed_schedule_too_short(self):
        with pytest.raises(ValueError):
            fixed_schedule([0, 1], 3)


class TestRun:
    def test_completed_run_shape(self):
        game = tiny_game()
        traj = run(game, random_players(game), [0, 1, 0, 1], noise_seed=0)
        assert traj.status == "completed"
        assert traj.num_rounds == 4
        np.testing.assert_array_equal(traj.contexts, [0, 1, 0, 1])
        assert traj.actions.shape == (4, 2)
        assert traj.noisy_rewards.shape == (4, 2)
        assert traj.noisy_constraints.shape == (4, 2, 1)

    def test_noiseless_rewards_match_tables(self):
        game = tiny_game()
        traj = run(game, random_players(game), [1, 0], noise_seed=0)
        for z, joint, rewards, constraints in zip(
            traj.contexts, traj.actions, traj.noisy_rewards,
            traj.noisy_constraints,
        ):
            for i in range(2):
                assert rewards[i] == pytest.approx(game.reward(i, joint, z))
                np.testing.assert_allclose(
                    constraints[i], game.constraint_values(i, joint[i], z)
                )

    def test_noise_seed_determinism(self):
        game = generate_random_game(0, num_players=2, num_actions=3, num_contexts=2)
        sched = uniform_finite_schedule(2, 20, seed=2)
        t1 = run(game, random_players(game), sched, noise_seed=7)
        t2 = run(game, random_players(game), sched, noise_seed=7)
        np.testing.assert_array_equal(t1.actions, t2.actions)
        np.testing.assert_array_equal(t1.noisy_rewards, t2.noisy_rewards)
        np.testing.assert_array_equal(t1.noisy_constraints, t2.noisy_constraints)

    def test_player_count_mismatch(self):
        game = tiny_game()
        with pytest.raises(ValueError):
            run(game, random_players(game)[:1], [0])

    @pytest.mark.parametrize("z", [-1, 2])
    def test_context_out_of_range(self, z):
        # -1 would index the last context and 2 the table's edge
        game = tiny_game()
        with pytest.raises(ValueError, match=rf"context {z} at round 3"):
            run(game, random_players(game), [0, 1, z, 0])

    def test_halt_keeps_earlier_rounds(self):
        game = generate_random_game(0, num_players=2, num_actions=3, num_contexts=2)
        sched = uniform_finite_schedule(2, 20, seed=2)

        def random_and_learner():
            block = PlayerBlock(algorithm=CZ_ADA_NORMAL_GP, beta_scale=0.2)
            return [random_players(game)[0], build_player(block, game, 1, 11)]

        full = run(game, random_and_learner(), sched, noise_seed=7)
        players = random_and_learner()
        select = players[1].select_action
        calls = []

        def declares_in_round_6(z):
            calls.append(z)
            if len(calls) == 6:
                raise InfeasibilityDeclared(1, "forced")
            return select(z)

        players[1].select_action = declares_in_round_6
        halted = run(game, players, sched, noise_seed=7)
        assert halted.status == "infeasibility_declared"
        assert (halted.infeasible_player, halted.infeasible_round) == (1, 6)
        assert halted.num_rounds == 5
        np.testing.assert_array_equal(halted.contexts, full.contexts[:5])
        np.testing.assert_array_equal(halted.actions, full.actions[:5])
        np.testing.assert_array_equal(halted.noisy_rewards, full.noisy_rewards[:5])

    def test_infeasibility_declared_recorded(self):
        # every action violates by margin 1: the learner must declare once
        # constraint LCBs tighten rather than crash
        game = tiny_game(constraints=[np.array([[1.0, 1.0]])] * 2)
        confidence = ConfidenceParams(
            rkhs_bound=1.0, noise_scale=0.3, failure_prob=0.1, num_constraints=1
        )
        learner = Player(
            PlayerConfig(
                player_index=0,
                num_actions=2,
                algorithm=CZ_ADA_NORMAL_GP,
                reward_kernel=Product(
                    left=SquaredExponential(lengthscale=2.0),
                    right=SquaredExponential(lengthscale=0.5),
                    split_index=2,
                ),
                constraint_kernel=SquaredExponential(lengthscale=0.5),
                confidence=confidence,
                num_contexts=2,
                beta_scale=0.05,
                seed=0,
            )
        )
        players = [learner, random_players(game)[1]]
        sched = uniform_finite_schedule(2, 200, seed=0)
        traj = run(game, players, sched, noise_seed=0)
        assert traj.status == "infeasibility_declared"
        assert traj.infeasible_player == 0
        assert traj.num_rounds == traj.infeasible_round - 1


def reference_run(game, players, context_schedule, noise_seed=0):
    """The engine as a per-round loop: two noise draws and a gather of
    the true values per round, feedback to every learner, and the noisy
    arrays filled row by row; a random player's action is read from its
    ``actions(T)`` column.  ``run`` must reproduce it exactly."""
    N, M = game.num_players, game.num_constraints
    contexts = np.array([int(z) for z in context_schedule], dtype=np.int64)
    T = len(contexts)
    actions = np.zeros((T, N), dtype=np.int64)
    noisy_rewards = np.zeros((T, N))
    noisy_constraints = np.zeros((T, N, M))
    reward_sigma = np.asarray(game.reward_noise, dtype=float)
    constraint_sigma = np.array(
        [row[:M] for row in game.constraint_noise], dtype=float
    ).reshape(N, M)
    grids = [game.constraint_grid(i) for i in range(N)]
    rng = np.random.default_rng(noise_seed)
    columns = {
        i: p.actions(T) for i, p in enumerate(players) if isinstance(p, UniformPlayer)
    }

    def played(rounds, **status):
        return Trajectory(
            contexts[:rounds], actions[:rounds], noisy_rewards[:rounds],
            noisy_constraints[:rounds], **status,
        )

    for t in range(T):
        z = int(contexts[t])
        try:
            joint = tuple(
                int(columns[i][t]) if i in columns else p.select_action(z)
                for i, p in enumerate(players)
            )
        except InfeasibilityDeclared as declared:
            return played(
                t, status="infeasibility_declared",
                infeasible_player=declared.player_index, infeasible_round=t + 1,
            )
        true_rewards = np.array([game.rewards[i][joint + (z,)] for i in range(N)])
        true_constraints = np.array(
            [grids[i][:, joint[i], z] for i in range(N)]
        ).reshape(N, M)
        rewards = true_rewards + reward_sigma * rng.standard_normal(N)
        constraints = true_constraints + constraint_sigma * rng.standard_normal((N, M))
        for i, player in enumerate(players):
            if i in columns:
                continue
            try:
                player.observe_feedback(
                    joint[i], joint[:i] + joint[i + 1:], rewards[i], constraints[i]
                )
            except FactorizationError:
                return played(
                    t, status="factorization_error",
                    failed_player=i, failed_round=t + 1,
                )
        actions[t] = joint
        noisy_rewards[t] = rewards
        noisy_constraints[t] = constraints
    return played(T)


STATUS_FIELDS = ("status", "infeasible_player", "infeasible_round",
                 "failed_player", "failed_round", "num_rounds")
ALL_RANDOM = ["random"] * 3
ONE_LEARNER = ["random", "cz_ada_normal_gp", "random"]
MIXED = ["cz_ada_normal_gp", "random", "z_gpmw"]


class TestRunMatchesReferenceLoop:
    """``run`` draws its noise and the random players' action columns in
    one call each, asks and feeds only learners, and builds the noisy
    arrays at the end; the per-round loop is the oracle."""

    @staticmethod
    def game(layout):
        game = generate_random_game(
            4, num_players=3, num_actions=4, num_contexts=3,
            num_constraints=0 if layout == "empty" else 2, noise_scale=0.3,
        )
        if layout == "MKZ":
            # a context-dependent shift on top of the (M, K) tables
            shift = 0.1 * np.arange(game.num_contexts)
            game.constraints = [c[:, :, None] - shift for c in game.constraints]
            game.validate()
        return game

    @staticmethod
    def players(game, algorithms, halt=None, fail=None, fed=None):
        """Players built as the CLI builds them.  ``halt=(i, r)`` makes
        learner i declare infeasibility in round r, ``fail=(i, r)`` makes
        its ``observe_feedback`` raise ``FactorizationError`` in round r,
        and ``fed`` collects every learner's (round, player, reward,
        constraints) feedback."""
        players = [
            build_player(PlayerBlock(algorithm=a, beta_scale=0.2), game, i, 10 + i)
            for i, a in enumerate(algorithms)
        ]
        for i, player in enumerate(players):
            if isinstance(player, UniformPlayer):
                continue
            selected = []

            def select(z, i=i, select=player.select_action, selected=selected):
                selected.append(z)
                if halt == (i, len(selected)):
                    raise InfeasibilityDeclared(i, z)
                return select(z)

            def observe(a, opponents, reward, constraints, i=i,
                        observe=player.observe_feedback, selected=selected):
                if fail == (i, len(selected)):
                    raise FactorizationError("forced")
                if fed is not None:
                    fed.append((len(selected), i, reward, np.array(constraints)))
                observe(a, opponents, reward, constraints)

            player.select_action = select
            player.observe_feedback = observe
        return players

    @pytest.mark.parametrize("layout", ["MK", "MKZ", "empty"])
    @pytest.mark.parametrize("algorithms, halt, fail", [
        pytest.param(ALL_RANDOM, None, None, id="all-random-completed"),
        pytest.param(ONE_LEARNER, (1, 1), None, id="one-learner-halt-round-1"),
        pytest.param(ONE_LEARNER, (1, 9), None, id="one-learner-halt-round-9"),
        pytest.param(MIXED, None, None, id="mixed-completed"),
        pytest.param(MIXED, (0, 1), None, id="mixed-halt-round-1"),
        pytest.param(MIXED, (2, 9), None, id="mixed-halt-round-9"),
        pytest.param(MIXED, None, (0, 7), id="mixed-factorization-error-round-7"),
    ])
    def test_same_trajectory(self, layout, algorithms, halt, fail):
        game = self.game(layout)
        schedule = uniform_finite_schedule(game.num_contexts, 30, seed=5)
        want = reference_run(
            game, self.players(game, algorithms, halt, fail), schedule, noise_seed=8
        )
        fed = []
        got = run(
            game, self.players(game, algorithms, halt, fail, fed), schedule,
            noise_seed=8,
        )
        for name in STATUS_FIELDS:
            assert getattr(got, name) == getattr(want, name), name
        for name in ("contexts", "actions", "noisy_rewards", "noisy_constraints"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.noisy_constraints.shape == want.noisy_constraints.shape

        # a learner is fed exactly the trajectory's row of its round
        learners = {i for i, a in enumerate(algorithms) if a != "random"}
        assert {i for _, i, _, _ in fed} <= learners
        assert len(fed) >= len(learners) * got.num_rounds
        for t, i, reward, constraints in fed:
            if t <= got.num_rounds:
                assert reward == got.noisy_rewards[t - 1, i]
                assert np.array_equal(constraints, got.noisy_constraints[t - 1, i])
