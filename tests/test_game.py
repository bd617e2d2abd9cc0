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


def build_players(game, algorithms, halt=None, fail=None, fed=None):
    """Players built as the CLI builds them.  ``halt=(i, r)`` makes
    learner i declare infeasibility in round r, ``fail=(i, r)`` makes its
    ``observe_feedback`` raise ``FactorizationError`` in round r, and
    ``fed`` collects every (round, player, reward, constraints) feedback
    a learner is sent, the one that raises included."""
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
            if fed is not None:
                fed.append((len(selected), i, reward, np.array(constraints)))
            if fail == (i, len(selected)):
                raise FactorizationError("forced")
            observe(a, opponents, reward, constraints)

        player.select_action = select
        player.observe_feedback = observe
    return players


def assert_same_feedback(got, want):
    """Two ``fed`` lists agree entry by entry: the same rounds and players,
    and rewards and constraints of the same shape, bit for bit."""
    assert len(got) == len(want)
    for (t, i, reward, constraints), (t0, i0, reward0, constraints0) in zip(got, want):
        assert (t, i) == (t0, i0)
        for value, value0 in ((reward, reward0), (constraints, constraints0)):
            value, value0 = np.asarray(value, float), np.asarray(value0, float)
            assert value.shape == value0.shape
            assert value.tobytes() == value0.tobytes(), (t, i)


class TestGameDefinition:
    def test_constraint_lookup_context_free(self):
        # an (M, K) table holds at every context
        game = tiny_game(constraints=[np.array([[0.2, -0.3]])] * 2)
        np.testing.assert_array_equal(game.constraint_grid(0)[:, 0, 1], [0.2])
        np.testing.assert_array_equal(game.constraint_grid(1)[:, 1, 0], [-0.3])

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
        assert s1.dtype == s2.dtype == np.int64
        np.testing.assert_array_equal(s1, s2)
        assert set(s1.tolist()) <= {0, 1, 2, 3}
        assert len(s1) == 100

    def test_fixed_schedule_truncates(self):
        schedule = fixed_schedule([0, 1, 0, 1], 3)
        assert schedule.dtype == np.int64
        np.testing.assert_array_equal(schedule, [0, 1, 0])

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

    def test_halt_fields_are_keyword_only(self):
        # a third positional array must not silently become the status
        with pytest.raises(TypeError):
            Trajectory(np.zeros(1, int), np.zeros((1, 2), int), "completed")

    def test_noiseless_rewards_match_tables(self):
        # at noise 0 a learner is fed the true values of its round
        game = tiny_game()
        fed = []
        players = build_players(game, [CZ_ADA_NORMAL_GP, "random"], fed=fed)
        traj = run(game, players, [1, 0, 0, 1], noise_seed=0)
        assert traj.num_rounds == len(fed) == 4
        for t, i, reward, constraints in fed:
            z, joint = traj.contexts[t - 1], traj.actions[t - 1]
            # tiny_game's constraint tables are context-free (M, K)
            assert reward == game.rewards[i][(*joint, z)]
            np.testing.assert_array_equal(constraints, game.constraints[i][:, joint[i]])

    def test_noise_seed_determinism(self):
        game = generate_random_game(0, num_players=2, num_actions=3, num_contexts=2)
        sched = uniform_finite_schedule(2, 20, seed=2)
        feds = [[], [], []]
        trajectories = [
            run(game, build_players(game, ["random", CZ_ADA_NORMAL_GP], fed=fed),
                sched, noise_seed=seed)
            for fed, seed in zip(feds, [7, 7, 8])
        ]
        np.testing.assert_array_equal(trajectories[0].actions, trajectories[1].actions)
        assert len(feds[0]) == 20
        assert_same_feedback(feds[0], feds[1])
        assert feds[0][0][2] != feds[2][0][2]

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

    def test_any_integer_sequence_gives_the_same_run(self):
        game = generate_random_game(0, num_players=2, num_actions=3, num_contexts=2)
        contexts = [0, 1, 1, 0, 1, 0, 0, 1]
        trajectories = [
            run(game, build_players(game, ["random", CZ_ADA_NORMAL_GP]), schedule,
                noise_seed=3)
            for schedule in (contexts, tuple(contexts), np.array(contexts, np.int32),
                             np.array(contexts, np.int64), np.array(contexts, np.uint64))
        ]
        for trajectory in trajectories:
            assert trajectory.contexts.dtype == np.int64
            np.testing.assert_array_equal(trajectory.contexts, contexts)
            np.testing.assert_array_equal(trajectory.actions, trajectories[0].actions)

    def test_trajectory_keeps_a_copy_of_the_contexts(self):
        game = tiny_game()
        schedule = np.array([0, 1, 0, 1])
        traj = run(game, random_players(game), schedule)
        schedule[:] = 1
        np.testing.assert_array_equal(traj.contexts, [0, 1, 0, 1])

    @pytest.mark.parametrize("schedule", [
        [0, 1.5], [True, False], ["1", "0"], np.zeros((2, 2), dtype=np.int64),
        [True, 1], (1, np.False_),
    ], ids=["float", "bool", "str", "2-d", "bool-among-ints", "numpy-bool-among-ints"])
    def test_non_integer_schedule_rejected(self, schedule):
        # a float, bool or str context is refused, not rounded or cast
        game = tiny_game()
        with pytest.raises(ValueError, match="1-D sequence of integers"):
            run(game, random_players(game), schedule)

    def test_uint64_context_above_int64_rejected(self):
        # a cast would wrap 2**63 to -2**63, a context the caller never gave
        game = tiny_game()
        with pytest.raises(ValueError, match=r"^context 9223372036854775808 is above"):
            run(game, random_players(game), np.array([1, 2**63], dtype=np.uint64))

    @pytest.mark.parametrize("contexts, message", [
        ([1, 2**63], "context 9223372036854775808 is above the int64 range"),
        ([1, 2**64], "context 18446744073709551616 is above the int64 range"),
        ([1, -2**63 - 1], "context -9223372036854775809 is below the int64 range"),
    ], ids=["2**63", "2**64", "-2**63-1"])
    def test_python_int_outside_int64_rejected(self, contexts, message):
        # np.array makes these lists float64 or object arrays
        with pytest.raises(ValueError, match=rf"^{message}$"):
            fixed_schedule(contexts, 2)

    def test_empty_schedule_is_an_empty_completed_run(self):
        game = tiny_game()
        traj = run(game, random_players(game), [])
        assert traj.status == "completed"
        assert traj.num_rounds == 0
        assert traj.actions.shape == (0, 2)

    def test_halt_keeps_earlier_rounds(self):
        game = generate_random_game(0, num_players=2, num_actions=3, num_contexts=2)
        sched = uniform_finite_schedule(2, 20, seed=2)
        algorithms = ["random", CZ_ADA_NORMAL_GP]

        full_fed, halted_fed = [], []
        full = run(game, build_players(game, algorithms, fed=full_fed), sched,
                   noise_seed=7)
        halted = run(game, build_players(game, algorithms, halt=(1, 6), fed=halted_fed),
                     sched, noise_seed=7)
        assert halted.status == "infeasibility_declared"
        assert (halted.infeasible_player, halted.infeasible_round) == (1, 6)
        assert halted.num_rounds == 5
        np.testing.assert_array_equal(halted.contexts, full.contexts[:5])
        np.testing.assert_array_equal(halted.actions, full.actions[:5])
        assert_same_feedback(halted_fed, full_fed[:5])

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
    the true values per round, and feedback to every learner, each
    recorded as ``build_players`` records it; a random player's action is
    read from its ``actions(T)`` column.  Returns the trajectory and the
    feedback; ``run`` must reproduce both exactly."""
    N, M = game.num_players, game.num_constraints
    contexts = np.array([int(z) for z in context_schedule], dtype=np.int64)
    T = len(contexts)
    actions = np.zeros((T, N), dtype=np.int64)
    fed = []
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
        return Trajectory(contexts[:rounds], actions[:rounds], **status), fed

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
            fed.append((t + 1, i, rewards[i], constraints[i]))
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
    return played(T)


STATUS_FIELDS = ("status", "infeasible_player", "infeasible_round",
                 "failed_player", "failed_round", "num_rounds")
ALL_RANDOM = ["random"] * 3
ONE_LEARNER = ["random", "cz_ada_normal_gp", "random"]
MIXED = ["cz_ada_normal_gp", "random", "z_gpmw"]


class TestRunMatchesReferenceLoop:
    """``run`` draws its noise and the random players' action columns in
    one call each and asks and feeds only learners; the per-round loop is
    the oracle for the trajectory and for every learner's feedback."""

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
        want, want_fed = reference_run(
            game, build_players(game, algorithms, halt, fail), schedule, noise_seed=8
        )
        fed = []
        got = run(
            game, build_players(game, algorithms, halt, fail, fed), schedule,
            noise_seed=8,
        )
        for name in STATUS_FIELDS:
            assert getattr(got, name) == getattr(want, name), name
        for name in ("contexts", "actions"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

        # every learner is fed, bit for bit, what the per-round loop feeds it
        learners = {i for i, a in enumerate(algorithms) if a != "random"}
        assert {i for _, i, _, _ in want_fed} <= learners
        assert len(want_fed) >= len(learners) * got.num_rounds
        assert_same_feedback(fed, want_fed)
