"""Learner tests: routing, feasibility filtering, sampling, and updates."""

import numpy as np
import pytest

from congames import experts
from congames import gp as gp_mod
from congames.cli import build_player
from congames.config import PlayerBlock
from congames.game import generate_random_game, run, uniform_finite_schedule
from congames.gp import ConfidenceParams, GpModel
from congames.kernels import Product, SquaredExponential
from congames.strategy import (
    ALGORITHMS,
    C_ADA_NORMAL_GP,
    CZ_ADA_NORMAL_GP,
    GPMW,
    RANDOM,
    USES_CONSTRAINTS,
    Z_GPMW,
    ContextRouter,
    InfeasibilityDeclared,
    Player,
    PlayerConfig,
    UniformPlayer,
    default_constraint_kernel,
    default_reward_kernel,
    renormalize,
)

SE1 = SquaredExponential(lengthscale=1.0)


def confidence(M=1):
    return ConfidenceParams(
        rkhs_bound=1.0, noise_scale=1.0, failure_prob=0.1, num_constraints=M
    )


def make_config(algorithm=CZ_ADA_NORMAL_GP, num_constraints=1, **kw):
    reward_kernel = Product(
        left=SquaredExponential(lengthscale=2.0), right=SE1, split_index=2
    )
    if algorithm in (C_ADA_NORMAL_GP, GPMW):
        reward_kernel = SquaredExponential(lengthscale=2.0)
    defaults = dict(
        player_index=0,
        num_players=2,
        num_actions=3,
        algorithm=algorithm,
        reward_kernel=reward_kernel,
        constraint_kernel=SE1,
        confidence=confidence(num_constraints),
        num_contexts=4,
        seed=0,
    )
    defaults.update(kw)
    return PlayerConfig(**defaults)


class TestHelpers:
    def test_renormalize_restricts_and_scales(self):
        p = np.array([0.2, 0.3, 0.5])
        mask = np.array([True, False, True])
        np.testing.assert_allclose(renormalize(p, mask), [2.0 / 7.0, 0.0, 5.0 / 7.0])

    def test_renormalize_uniform_fallback(self):
        p = np.array([0.0, 1.0, 0.0])
        mask = np.array([True, False, True])
        np.testing.assert_allclose(renormalize(p, mask), [0.5, 0.0, 0.5])

    def test_renormalize_empty_set(self):
        with pytest.raises(ValueError):
            renormalize(np.full(2, 0.5), np.zeros(2, dtype=bool))


class TestPlayerConfig:
    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            make_config(algorithm="gradient_descent")

    def test_random_is_not_a_learner(self):
        # the random baseline is a UniformPlayer, not a configured learner
        with pytest.raises(ValueError, match="not a learning algorithm"):
            make_config(algorithm=RANDOM)
        with pytest.raises(ValueError, match="not a learning algorithm"):
            PlayerConfig(player_index=0, num_players=2, num_actions=3,
                         confidence=confidence(), algorithm=RANDOM)

    @pytest.mark.parametrize("algorithm", [a for a in ALGORITHMS if a != RANDOM])
    @pytest.mark.parametrize("num_players", [2, 3])
    def test_unset_kernels_are_the_generators(self, algorithm, num_players):
        # over (joint action, z), or the joint action alone for a learner
        # that ignores context
        config = make_config(algorithm, num_players=num_players, reward_kernel=None,
                             constraint_kernel=None)
        kernel = default_reward_kernel(num_players)
        assert kernel.split_index == num_players
        assert config.reward_kernel == (kernel if config.uses_context else kernel.left)
        assert config.constraint_kernel == default_constraint_kernel()

    @pytest.mark.parametrize("algorithm", [a for a in ALGORITHMS if a != RANDOM])
    def test_expert_rule_follows_the_filter(self, algorithm):
        # a filtered learner runs sleeping experts, an unfiltered one Hedge
        player = Player(make_config(algorithm))
        assert player.router.sleeping == USES_CONSTRAINTS[algorithm]
        a = player.select_action(1)
        player.observe_feedback(a, (2,), 0.7, [0.2])
        state, = player.router.states.values()
        sleeping = isinstance(state, experts.SleepingExpertState)
        assert sleeping != isinstance(state, experts.HedgeState)
        assert sleeping == USES_CONSTRAINTS[algorithm]

    def test_context_and_constraint_flags(self):
        assert make_config(CZ_ADA_NORMAL_GP).uses_context
        assert make_config(CZ_ADA_NORMAL_GP).uses_constraints
        assert not make_config(C_ADA_NORMAL_GP).uses_context
        assert make_config(C_ADA_NORMAL_GP).uses_constraints
        assert make_config(Z_GPMW).uses_context
        assert not make_config(Z_GPMW).uses_constraints
        assert not make_config(GPMW).uses_context
        assert not make_config(GPMW).uses_constraints


class TestUniformPlayer:
    @pytest.mark.parametrize("T", [1, 5000, 20000])
    @pytest.mark.parametrize("seed", [0, 17, 1_000_013])
    @pytest.mark.parametrize("K", [2, 3, 7, 10])
    def test_column_equals_scalar_draws(self, K, seed, T):
        # the engine draws the column in one call; a per-round player
        # would have drawn it one scalar at a time from the same seed
        rng = np.random.default_rng(seed)
        scalar = [int(rng.integers(K)) for _ in range(T)]
        column = UniformPlayer(K, seed).actions(T)
        assert column.tolist() == scalar

    def test_rejects_fewer_than_two_actions(self):
        with pytest.raises(ValueError):
            UniformPlayer(1, 0)


class TestContextRouter:
    def test_finite_contexts_keyed_by_id(self):
        router = ContextRouter(3, 2, True, True)
        assert router.route(0) == 0
        assert router.route(2) == 2
        assert router.route(0) == 0
        assert set(router.states) == {0, 2}

    def test_finite_context_range_checked(self):
        router = ContextRouter(3, 2, True, True)
        for z in (3, -1):
            with pytest.raises(ValueError):
                router.route(z)

    def test_context_free_single_bucket(self):
        router = ContextRouter(3, 2, True, False)
        assert router.route(0) == router.route(2) == 0


class TestPlayer:
    def test_random_player_uniform_and_stateless(self):
        player = UniformPlayer(4, seed=3)
        actions = player.actions(200)
        assert set(actions.tolist()) == {0, 1, 2, 3}
        # a column depends on the seed alone, not on earlier calls
        np.testing.assert_array_equal(player.actions(200), actions)
        np.testing.assert_array_equal(player.actions(50), actions[:50])
        assert player.reward_gp is None
        assert player.clamp_events == 0

    def test_seeded_determinism(self):
        runs = []
        for _ in range(2):
            player = Player(make_config(seed=42))
            seq = []
            for t in range(10):
                z = t % 4
                a = player.select_action(z)
                player.observe_feedback(a, (t % 3,), 0.3, [0.1])
                seq.append(a)
            runs.append(seq)
        assert runs[0] == runs[1]

    def test_fresh_player_all_feasible(self):
        player = Player(make_config())
        assert player.feasible_mask(0).all()

    def test_feasibility_uses_constraint_lcb(self):
        # train the constraint GP hard at action 0 with positive values
        player = Player(make_config(beta_scale=0.01))
        for _ in range(50):
            player.constraint_gps[0].add_observation(np.array([0.0]), [1.0])
            player.constraint_gps[0].add_observation(np.array([2.0]), [-1.0])
        mask = player.feasible_mask(0)
        assert not mask[0]
        assert mask[2]

    def test_infeasibility_declared_when_all_filtered(self):
        player = Player(make_config(beta_scale=0.01))
        for a in range(3):
            for _ in range(50):
                player.constraint_gps[0].add_observation(np.array([float(a)]), [1.0])
        with pytest.raises(InfeasibilityDeclared):
            player.select_action(0)
        assert player.infeasible
        with pytest.raises(InfeasibilityDeclared):
            player.select_action(1)

    @pytest.mark.parametrize(
        "algorithm", [CZ_ADA_NORMAL_GP, C_ADA_NORMAL_GP], ids=["context", "no_context"]
    )
    @pytest.mark.parametrize("index", [0, 1, 2], ids=["first", "middle", "last"])
    def test_reward_inputs_layout(self, index, algorithm):
        # 3 players: the own action takes slot `index` of the joint action,
        # the opponents keep their order, and the context comes last
        config = make_config(algorithm, player_index=index, num_players=3)
        rows = config.reward_inputs((5, 6), 2, np.arange(3))
        for a in range(3):
            joint = [5.0, 6.0]
            joint.insert(index, float(a))
            if algorithm == CZ_ADA_NORMAL_GP:
                joint.append(2.0)
            np.testing.assert_array_equal(rows[a], joint)
        assert rows.shape == (3, 4 if algorithm == CZ_ADA_NORMAL_GP else 3)

    def test_non_contextual_inputs_exclude_context(self):
        rows = make_config(C_ADA_NORMAL_GP).reward_inputs((5,), 2, np.arange(3))
        assert rows.shape == (3, 2)

    def test_observe_feedback_feeds_models(self):
        player = Player(make_config())
        a = player.select_action(1)
        player.observe_feedback(a, (2,), 0.7, [0.2])
        assert player.reward_gp.num_observations == 1
        assert player.constraint_gps[0].num_observations == 1
        state = player.router.states[1]
        assert np.any(state.magnitudes > 0) or np.all(state.regrets == 0)

    def test_reduced_hedge_path_updates_hedge_state(self):
        player = Player(make_config(Z_GPMW))
        a = player.select_action(1)
        player.observe_feedback(a, (2,), 0.7, [])
        state = player.router.states[1]
        assert state.rounds_seen == 1

    def test_constraint_model_is_context_free(self):
        # the filter queries the one (K, 1) action grid, and an observation
        # at any context is the own action's row of it
        player = Player(make_config())
        np.testing.assert_array_equal(player.config.action_grid, [[0.0], [1.0], [2.0]])
        played = []
        for z in (3, 0):
            played.append(player.select_action(z))
            player.observe_feedback(played[-1], (2,), 0.7, [0.2])
        assert player.constraint_gps[0].inputs.tolist() == [
            [float(a)] for a in dict.fromkeys(played)]

    @pytest.mark.parametrize("opponents", [(1,), (1, 2, 0)])
    def test_opponents_length_checked(self, opponents):
        # a learner in a 3-player game observes two opponents' actions
        game = generate_random_game(0, num_players=3, num_actions=3, num_contexts=2)
        player = build_player(PlayerBlock(algorithm=GPMW), game, 0, 0)
        a = player.select_action(1)
        with pytest.raises(ValueError, match="opponents"):
            player.observe_feedback(a, opponents, 0.7, [0.2])
        assert player.reward_gp.num_observations == 0

    def test_beta_scale_multiplies(self):
        # before any observation the means are 0, so a UCB is beta * std
        p1 = Player(make_config(beta_scale=1.0))
        p2 = Player(make_config(beta_scale=0.5))
        rows = p1.config.reward_inputs((0,), 1, np.arange(3))
        ucbs = p1._bounds(p1.reward_gp, rows, 1)
        assert np.all(ucbs > 0.0)
        np.testing.assert_allclose(p2._bounds(p2.reward_gp, rows, 1), 0.5 * ucbs)


class TestRoundMask:
    """observe_feedback closes the round select_action opened, with its mask."""

    @staticmethod
    def trained_player():
        player = Player(make_config(beta_scale=0.01))
        for _ in range(30):
            player.constraint_gps[0].add_observation(np.array([0.0]), [1.0])
            player.constraint_gps[0].add_observation(np.array([2.0]), [-1.0])
        return player

    @staticmethod
    def spy_on_updates(monkeypatch):
        seen = []
        real = experts.ada_update

        def spy(state, mask, rewards, sampling_dist):
            seen.append((np.array(mask), np.array(sampling_dist)))
            return real(state, mask, rewards, sampling_dist)

        monkeypatch.setattr(experts, "ada_update", spy)
        return seen

    def test_observe_without_open_round_raises(self, monkeypatch):
        player = self.trained_player()
        seen = self.spy_on_updates(monkeypatch)
        with pytest.raises(RuntimeError, match="open round"):
            player.observe_feedback(2, (0,), 0.5, [-0.5])
        a = player.select_action(1)
        player.observe_feedback(a, (0,), 0.5, [-0.5])
        with pytest.raises(RuntimeError):  # the round is closed
            player.observe_feedback(a, (0,), 0.5, [-0.5])
        assert len(seen) == 1
        assert player.reward_gp.num_observations == 1

    def test_after_several_selects_and_a_stale_mask(self, monkeypatch):
        player = self.trained_player()
        seen = self.spy_on_updates(monkeypatch)
        for z in (0, 1, 3):
            player.select_action(z)
        z, bucket, mask, pbar = player.round
        assert (z, bucket) == (3, 3)
        assert mask[1] and not mask[0]
        # constraint data arriving after select_action changes the filter,
        # but the update uses what the action was sampled from
        for _ in range(30):
            player.constraint_gps[0].add_observation(np.array([1.0]), [1.0])
        assert not player.feasible_mask(3)[1]
        player.observe_feedback(2, (0,), 0.5, [-0.5])
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0][0], mask)
        np.testing.assert_array_equal(seen[0][1], pbar)
        np.testing.assert_array_equal(pbar, renormalize(player.router.predict(bucket), mask))
        assert player.round is None

    def test_one_filter_per_round(self, monkeypatch):
        calls = []
        real = Player.feasible_mask

        def counting(self, z):
            calls.append(z)
            return real(self, z)

        monkeypatch.setattr(Player, "feasible_mask", counting)
        player = Player(make_config())
        for t in range(5):
            a = player.select_action(t % 4)
            player.observe_feedback(a, (t % 3,), 0.3, [0.1])
        assert len(calls) == 5


class FixedDraw:
    """An RNG stub whose every uniform draw is ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


class TestSampling:
    def test_draw_past_the_cumulative_sum_plays_an_awake_action(self):
        # pbar's cumulative sum ends one ulp below 1, so the largest draw
        # lands past its end; the last action is asleep
        p = np.array([0.1, 0.1, 0.6, 0.2])
        mask = np.array([True, True, True, False])
        draw = np.nextafter(1.0, 0.0)
        assert np.cumsum(renormalize(p, mask))[-1] <= draw
        player = Player(make_config(num_actions=4))
        player.feasible_mask = lambda z: mask
        player.router.predict = lambda key: p
        player.rng = FixedDraw(draw)
        action = player.select_action(0)
        assert action == 2
        # the round closes on the awake action's own reward row
        player.observe_feedback(action, (1,), 0.5, [0.0])
        np.testing.assert_array_equal(player.reward_gp.inputs, [[2.0, 1.0, 0.0]])

    def test_observing_an_asleep_action_raises(self):
        player = TestRoundMask.trained_player()
        player.select_action(1)
        assert not player.round[2][0]
        with pytest.raises(ValueError, match="asleep"):
            player.observe_feedback(0, (0,), 0.5, [-0.5])


class TestAwakeQueries:
    """The reward GP is queried at the awake actions only."""

    def test_clamp_events_count_awake_actions_only(self):
        player = TestRoundMask.trained_player()
        rows = player.config.reward_inputs((0,), 1, np.arange(3))
        for _ in range(30):
            for row in rows:
                player.reward_gp.add_observation(row, -1.0)
        # every action's UCB is negative, but action 0 is asleep
        assert np.all(player._bounds(player.reward_gp, rows, 1) < 0.0)
        a = player.select_action(1)
        assert player.round[2].tolist() == [False, True, True]
        player.observe_feedback(a, (0,), 0.5, [-0.5])
        assert player.clamp_events == 2

    class AllRowsPlayer(Player):
        """The round with UCBs at all K candidate rows, asleep ones
        included, handed to the expert update unmasked."""

        def observe_feedback(self, own_action, opponents_actions, noisy_reward,
                             noisy_constraints):
            z, bucket, mask, pbar = self.round
            self.round = None
            rows = self.config.reward_inputs(
                opponents_actions, z, np.arange(self.config.num_actions)
            )
            ucbs = self._bounds(self.reward_gp, rows, 1)
            self.router.update(bucket, mask, ucbs, pbar)
            self.reward_gp.add_observation(rows[own_action], noisy_reward)
            for gp in self.constraint_gps:
                gp.add_observation(self.config.action_grid[own_action], noisy_constraints)

    @staticmethod
    def play(algorithm, reference):
        """200 rounds of the learner in the middle of three players; its
        final bucket states and each round's (mask, UCBs)."""
        game = generate_random_game(0, num_players=3, num_actions=4, num_contexts=2)
        blocks = [PlayerBlock(), PlayerBlock(algorithm=algorithm, beta_scale=0.15),
                  PlayerBlock()]
        players = [build_player(b, game, i, 10 + i) for i, b in enumerate(blocks)]
        if reference:
            players[1] = TestAwakeQueries.AllRowsPlayer(players[1].config)
        learner = players[1]
        updates = []
        real_update = learner.router.update

        def recording(key, mask, ucbs, pbar):
            updates.append((mask.copy(), ucbs.copy()))
            real_update(key, mask, ucbs, pbar)

        learner.router.update = recording
        trajectory = run(game, players, uniform_finite_schedule(2, 200, 1), noise_seed=2)
        assert trajectory.status == "completed"
        return trajectory.actions, learner.router.states, updates

    @pytest.mark.parametrize("algorithm", [a for a in ALGORITHMS if a != RANDOM])
    def test_same_round_as_querying_every_action(self, algorithm):
        actions, states, updates = self.play(algorithm, reference=False)
        ref_actions, ref_states, ref_updates = self.play(algorithm, reference=True)
        np.testing.assert_array_equal(actions, ref_actions)
        assert len(actions) == 200
        masks = np.array([mask for mask, _ in updates])
        np.testing.assert_array_equal(masks, [mask for mask, _ in ref_updates])
        if algorithm in (CZ_ADA_NORMAL_GP, C_ADA_NORMAL_GP):
            assert masks.mean() < 1.0  # the filter drops actions
        else:
            assert masks.all()  # no filter: every action is awake
        for (mask, ucbs), (_, ref_ucbs) in zip(updates, ref_updates):
            np.testing.assert_allclose(ucbs[mask], ref_ucbs[mask], rtol=0, atol=1e-12)
            assert np.all(ucbs[~mask] == 0.0)
        assert states.keys() == ref_states.keys()
        for key, state in states.items():
            ref = ref_states[key]
            if isinstance(state, experts.SleepingExpertState):
                pairs = [(state.regrets, ref.regrets), (state.magnitudes, ref.magnitudes)]
            else:
                assert state.rounds_seen == ref.rounds_seen
                pairs = [(state.log_weights, ref.log_weights)]
            for got, want in pairs:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestOnePosteriorPerRound:
    """Each model of a learner evaluates kernel columns at most once per
    round: the query at training inputs needs none, and a new input's
    update reuses the round's query."""

    def test_cross_at_most_once_per_model_and_round(self, monkeypatch):
        game = generate_random_game(0, num_players=3, num_actions=7, num_contexts=5)
        blocks = [PlayerBlock(algorithm=CZ_ADA_NORMAL_GP, beta_scale=0.15),
                  PlayerBlock(), PlayerBlock()]
        players = [build_player(b, game, i, 10 + i) for i, b in enumerate(blocks)]
        learner = players[0]
        models = [learner.reward_gp, *learner.constraint_gps]
        counts = []
        real_cross = gp_mod.cross

        def counting(spec, X, Y):
            owner, = [k for k, m in enumerate(models) if np.shares_memory(X, m._U)]
            counts[-1][owner] += 1
            return real_cross(spec, X, Y)

        real_select = learner.select_action

        def select(z):
            counts.append([0] * len(models))
            return real_select(z)

        monkeypatch.setattr(gp_mod, "cross", counting)
        learner.select_action = select
        trajectory = run(game, players, uniform_finite_schedule(5, 120, 1), noise_seed=2)
        assert trajectory.status == "completed"
        counts = np.array(counts)
        assert counts.shape == (120, 2)
        assert counts.max() == 1
        # the reward model met a new input in most rounds and evaluated
        # columns in each of them; the constraint model, once it has seen
        # all 7 actions, queries every one in closed form
        assert learner.reward_gp.num_distinct > 60
        assert counts[:, 0].sum() >= learner.reward_gp.num_distinct - 1
        assert learner.constraint_gps[0].num_distinct == 7
        assert counts[-60:, 1].sum() == 0


class TestOneConstraintModel:
    """A constraint-aware learner keeps its M constraints in one model
    with M target columns, queried once and fed once per round."""

    @pytest.mark.parametrize("M", [0, 1, 3])
    @pytest.mark.parametrize("algorithm", [a for a in ALGORITHMS if a != RANDOM])
    def test_one_model_one_query_one_update_per_round(self, monkeypatch, algorithm, M):
        built = []
        real_init = GpModel.__init__

        def init(self, *args, **kw):
            built.append(self)
            real_init(self, *args, **kw)

        game = generate_random_game(3, num_players=2, num_actions=4, num_contexts=2,
                                    num_constraints=M, feasible_quantile=0.7)
        monkeypatch.setattr(GpModel, "__init__", init)
        blocks = [PlayerBlock(algorithm=algorithm, beta_scale=0.5), PlayerBlock()]
        players = [build_player(b, game, i, 10 + i) for i, b in enumerate(blocks)]
        learner = players[0]
        expected = 1 if M and algorithm in (CZ_ADA_NORMAL_GP, C_ADA_NORMAL_GP) else 0
        assert built == [learner.reward_gp, *learner.constraint_gps]
        assert [gp.outputs for gp in learner.constraint_gps] == [(M,)] * expected

        calls = []
        for gp in learner.constraint_gps:
            for name in ("posterior_batch", "add_observation"):
                real = getattr(gp, name)

                def counted(*args, real=real, name=name):
                    calls[-1].append(name)
                    return real(*args)

                monkeypatch.setattr(gp, name, counted)
        real_select = learner.select_action

        def select(z):
            calls.append([])
            return real_select(z)

        learner.select_action = select
        trajectory = run(game, players, uniform_finite_schedule(2, 40, 1), noise_seed=2)
        assert trajectory.status == "completed"
        assert calls == [["posterior_batch", "add_observation"] * expected] * 40

    def test_feasibility_needs_every_constraint(self):
        # constraint 1 is violated at action 0 and constraint 0 at action 2
        player = Player(make_config(num_constraints=2, beta_scale=0.01))
        model, = player.constraint_gps
        for _ in range(50):
            model.add_observation([0.0], [-1.0, 1.0])
            model.add_observation([1.0], [-1.0, -1.0])
            model.add_observation([2.0], [1.0, -1.0])
        assert player.feasible_mask(0).tolist() == [False, True, False]
