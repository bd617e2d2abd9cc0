"""Oracle-side metric tests: hand computations and exhaustive enumeration."""

import itertools
import math

import numpy as np
import pytest

from congames.game import (
    GameDefinition,
    Trajectory,
    generate_random_game,
    run,
    uniform_finite_schedule,
)
from congames.gp import ConfidenceParams
from congames.metrics import (
    NoFeasibleActionError,
    best_feasible_policy,
    cce_epsilon,
    compute_report,
    constrained_regret,
    empirical_policy,
    theorem_bounds,
)
from congames.strategy import UniformPlayer


def make_trajectory(game, plays):
    """Build a trajectory from (context, joint-action) pairs."""
    contexts = np.array([z for z, _ in plays], dtype=int)
    actions = np.array([a for _, a in plays], dtype=int).reshape(
        len(plays), game.num_players
    )
    return Trajectory(contexts, actions)


def true_reward(game, player, joint, z):
    return float(game.rewards[player][(*joint, z)])


def true_constraints(game, player, action, z):
    """The player's true constraint values at its own action and context z,
    read from the raw (M, K) or (M, K, Z) table: the oracles do not go
    through ``constraint_grid``, the path the metrics use."""
    table = game.constraints[player]
    if table.size == 0:
        return np.zeros(0)
    return table[:, action, z] if table.ndim == 3 else table[:, action]


def hand_game(r0, constraints0=None):
    """2-player 1-context game; player 0 rewards r0[(a0,a1)]."""
    K = r0.shape[0]
    rewards = [r0[..., None], np.full(r0.shape + (1,), 0.5)]
    c0 = constraints0 if constraints0 is not None else np.full((1, K), -1.0)
    return GameDefinition(
        num_players=2,
        num_actions=K,
        num_contexts=1,
        rewards=rewards,
        constraints=[c0, np.full((1, K), -1.0)],
        reward_noise=[0.0, 0.0],
        constraint_noise=[[0.0], [0.0]],
    )


class TestConstrainedRegret:
    def test_optimal_play_zero_regret(self):
        r0 = np.array([[0.9, 0.9], [0.1, 0.1]])
        game = hand_game(r0)
        traj = make_trajectory(game, [(0, (0, 0)), (0, (0, 1))])
        regret = constrained_regret(traj, game, 0)
        np.testing.assert_allclose(regret, [0.0, 0.0], atol=1e-12)

    def test_hand_two_round_value(self):
        # played earns 0.1 each round; feasible optimum earns 0.5 each round
        r0 = np.array([[0.1, 0.1], [0.5, 0.5]])
        game = hand_game(r0)
        traj = make_trajectory(game, [(0, (0, 0)), (0, (0, 1))])
        regret = constrained_regret(traj, game, 0)
        np.testing.assert_allclose(regret, [0.4, 0.8], atol=1e-12)

    def test_optimum_respects_feasibility(self):
        # action 1 is better but infeasible, so the benchmark is action 0
        r0 = np.array([[0.1, 0.1], [0.9, 0.9]])
        game = hand_game(r0, constraints0=np.array([[-1.0, 0.5]]))
        traj = make_trajectory(game, [(0, (0, 0))])
        policy = best_feasible_policy(traj, game, 0)
        assert policy == {0: 0}
        np.testing.assert_allclose(constrained_regret(traj, game, 0), [0.0])

    def test_benchmark_fixed_at_horizon_optimum(self):
        # best-in-hindsight convention: partial sums against the T-round
        # optimal policy, so early regret may be negative
        r0 = np.array([[1.0, 0.0], [0.0, 1.0]])
        game = hand_game(r0)
        traj = make_trajectory(game, [(0, (0, 0)), (0, (0, 1)), (0, (0, 1))])
        # played: 1, 0, 0; action 0 totals 1, action 1 totals 2 -> optimum a=1
        regret = constrained_regret(traj, game, 0)
        np.testing.assert_allclose(regret, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_no_feasible_action_raises(self):
        r0 = np.array([[0.1, 0.1], [0.9, 0.9]])
        game = hand_game(r0, constraints0=np.array([[0.5, 0.5]]))
        traj = make_trajectory(game, [(0, (0, 0))])
        with pytest.raises(NoFeasibleActionError):
            best_feasible_policy(traj, game, 0)

    def test_exhaustive_policy_enumeration_tiny_games(self):
        # decomposability: per-context argmax equals brute force over K^|Z|
        rng = np.random.default_rng(0)
        for trial in range(20):
            K = int(rng.integers(2, 4))
            Z = int(rng.integers(1, 3))
            T = int(rng.integers(1, 21))
            game = generate_random_game(
                trial + 100, num_players=2, num_actions=K, num_contexts=Z
            )
            plays = [
                (int(rng.integers(Z)), (int(rng.integers(K)), int(rng.integers(K))))
                for _ in range(T)
            ]
            traj = make_trajectory(game, plays)
            policy = best_feasible_policy(traj, game, 0)

            def policy_value(pol):
                total = 0.0
                for z, (_, a1) in plays:
                    total += true_reward(game, 0, (pol[z], a1), z)
                return total

            feasible_sets = [
                np.flatnonzero(game.feasible_actions(0, z)) for z in range(Z)
            ]
            best_val = max(
                policy_value(dict(enumerate(choice)))
                for choice in itertools.product(*feasible_sets)
            )
            got_val = policy_value(
                {z: policy.get(z, int(feasible_sets[z][0])) for z in range(Z)}
            )
            assert got_val == pytest.approx(best_val, abs=1e-9)


def oracle_game(kind, seed):
    """A 3-player game whose context Z-1 never occurs in oracle plays.

    ``kind`` picks the constraint tables: "2d" (M, K), "3d" (M, K, Z) or
    "none" (no constraints).  In the 3-d game the unused context has no
    feasible action, which the metrics must ignore.
    """
    M = {"2d": 1, "3d": 2, "none": 0}[kind]
    game = generate_random_game(
        seed, num_players=3, num_actions=3, num_contexts=3, num_constraints=M,
        feasible_quantile=0.7,
    )
    if kind == "3d":
        rng = np.random.default_rng(seed)
        for i in range(3):
            table = rng.normal(size=(M, 3, 3))
            for z in range(2):
                table[:, rng.integers(3), z] = -rng.random(M)
            table[:, :, 2] = np.abs(table[:, :, 2]) + 0.1
            game.constraints[i] = table
    return game


def brute_force(game, plays, player):
    """Best policy, regret, violations and reward gap from per-round loops."""
    K, M, T = game.num_actions, game.num_constraints, len(plays)

    def swapped(joint, a):
        return tuple(a if j == player else b for j, b in enumerate(joint))

    rounds = {}
    for t, (z, _) in enumerate(plays):
        rounds.setdefault(z, []).append(t)
    policy, gap = {}, 0.0
    for z, ts in rounds.items():
        totals = {
            a: sum(true_reward(game, player, swapped(plays[t][1], a), z) for t in ts)
            for a in range(K)
            if np.all(true_constraints(game, player, a, z) <= 0.0)
        }
        policy[z] = max(totals, key=totals.get)
        earned = sum(true_reward(game, player, plays[t][1], z) for t in ts)
        gap += totals[policy[z]] - earned
    regret, acc = [], 0.0
    for z, joint in plays:
        acc += true_reward(game, player, swapped(joint, policy[z]), z)
        acc -= true_reward(game, player, joint, z)
        regret.append(acc)
    violations, total = np.zeros((M, T)), np.zeros(M)
    for t, (z, joint) in enumerate(plays):
        total = total + np.maximum(
            true_constraints(game, player, joint[player], z), 0.0
        )
        violations[:, t] = total
    return policy, np.array(regret), violations, gap / max(T, 1)


class TestBruteForceOracle:
    @pytest.mark.parametrize("T", [0, 1, 20])
    @pytest.mark.parametrize("kind", ["2d", "3d", "none"])
    def test_vectorized_metrics_match(self, kind, T):
        for seed in range(3):
            game = oracle_game(kind, 40 + seed)
            rng = np.random.default_rng(seed)
            plays = [
                (int(rng.integers(2)), tuple(int(a) for a in rng.integers(3, size=3)))
                for _ in range(T)
            ]
            traj = make_trajectory(game, plays)
            report = compute_report(traj, game) if T else None
            terms = []
            for i in range(3):
                policy, regret, violations, gap = brute_force(game, plays, i)
                assert best_feasible_policy(traj, game, i) == policy
                np.testing.assert_allclose(
                    constrained_regret(traj, game, i), regret,
                    rtol=1e-12, atol=1e-12,
                )
                got = compute_report(traj, game).violations[i]
                assert got.shape == (game.num_constraints, T)
                np.testing.assert_allclose(got, violations, rtol=1e-12, atol=1e-12)
                terms += [gap] + list(violations[:, -1] / T if T else [])
                if report is not None:
                    assert report.best_policy[i] == policy
                    np.testing.assert_allclose(
                        report.regret[i], regret, rtol=1e-12, atol=1e-12
                    )
                    np.testing.assert_allclose(
                        report.violations[i], violations, rtol=1e-12, atol=1e-12
                    )
                    assert report.cce_terms["reward_gaps"][i] == pytest.approx(
                        gap, rel=1e-12, abs=1e-12
                    )
            if T == 0:
                with pytest.raises(ValueError):
                    cce_epsilon(traj, game)
                continue
            eps, _ = cce_epsilon(traj, game)
            assert eps == pytest.approx(max(0.0, *terms), rel=1e-12, abs=1e-12)
            assert report.cce_eps == eps

    def test_unrealized_context_never_raises(self):
        # the 3-d oracle game's context 2 has no feasible action at all
        game = oracle_game("3d", 40)
        assert not game.feasible_actions(0, 2).any()
        traj = make_trajectory(game, [(2, (0, 0, 0))])
        with pytest.raises(NoFeasibleActionError):
            constrained_regret(traj, game, 0)
        traj = make_trajectory(game, [(0, (0, 0, 0)), (1, (1, 1, 1))])
        assert set(best_feasible_policy(traj, game, 0)) == {0, 1}


class TestViolations:
    def test_always_feasible_zero(self):
        game = hand_game(np.full((2, 2), 0.5))
        traj = make_trajectory(game, [(0, (0, 0)), (0, (1, 1))])
        np.testing.assert_allclose(
            compute_report(traj, game).violations[0], np.zeros((1, 2))
        )

    def test_positive_part_accumulates(self):
        game = hand_game(
            np.full((2, 2), 0.5), constraints0=np.array([[0.3, -1.0]])
        )
        traj = make_trajectory(game, [(0, (0, 0)), (0, (1, 0)), (0, (0, 1))])
        np.testing.assert_allclose(
            compute_report(traj, game).violations[0], [[0.3, 0.3, 0.6]]
        )

    def test_matches_rescan_oracle(self):
        rng = np.random.default_rng(1)
        game = generate_random_game(7, num_players=2, num_actions=4, num_contexts=2)
        plays = [
            (int(rng.integers(2)), (int(rng.integers(4)), int(rng.integers(4))))
            for _ in range(30)
        ]
        traj = make_trajectory(game, plays)
        got = compute_report(traj, game).violations[0]
        acc = 0.0
        for t, (z, (a0, _)) in enumerate(plays):
            g = true_constraints(game, 0, a0, z)[0]
            acc += max(g, 0.0)
            assert got[0, t] == pytest.approx(acc, abs=1e-12)


class TestEmpiricalPolicyAndCce:
    def test_empirical_policy_counts(self):
        game = hand_game(np.full((2, 2), 0.5))
        traj = make_trajectory(game, [(0, (0, 0)), (0, (0, 0)), (0, (1, 0))])
        rho = empirical_policy(traj)
        assert rho[0][(0, 0)] == pytest.approx(2.0 / 3.0)
        assert rho[0][(1, 0)] == pytest.approx(1.0 / 3.0)

    def test_equilibrium_play_has_zero_epsilon(self):
        # both players repeat the unique feasible optimum: no deviation helps
        r0 = np.array([[0.9, 0.2], [0.1, 0.1]])
        game = hand_game(r0)
        game.rewards[1] = np.array([[0.9, 0.2], [0.1, 0.1]])[..., None]
        traj = make_trajectory(game, [(0, (0, 0))] * 5)
        eps, _ = cce_epsilon(traj, game)
        assert eps == pytest.approx(0.0, abs=1e-12)

    def test_hand_deviation_gap(self):
        # player 0 always plays its worst action: gap = 0.8 per round
        r0 = np.array([[0.1, 0.1], [0.9, 0.9]])
        game = hand_game(r0)
        traj = make_trajectory(game, [(0, (0, 0))] * 4)
        eps, terms = cce_epsilon(traj, game)
        assert eps == pytest.approx(0.8, abs=1e-12)
        assert max(terms["reward_gaps"].values()) == pytest.approx(0.8, abs=1e-12)

    def test_proposition_consistency_on_simulated_runs(self):
        for seed in range(3):
            game = generate_random_game(
                seed, num_players=2, num_actions=3, num_contexts=2
            )
            players = [UniformPlayer(3, seed * 10 + i) for i in range(2)]
            sched = uniform_finite_schedule(2, 50, seed=seed)
            traj = run(game, players, sched, noise_seed=seed)
            eps, _ = cce_epsilon(traj, game)
            T = traj.num_rounds
            cap = max(
                max(
                    constrained_regret(traj, game, i)[-1] / T for i in range(2)
                ),
                max(
                    compute_report(traj, game).violations[i].max() / T
                    for i in range(2)
                ),
            )
            assert eps <= cap + 1e-9


class TestTheoremBounds:
    @staticmethod
    def params(B=1.0, sigma=1.0, delta=0.1, M=1):
        return ConfidenceParams(
            rkhs_bound=B, noise_scale=sigma, failure_prob=delta, num_constraints=M
        )

    def test_hand_recomputation(self):
        K, Z, T, delta, gamma = 7, 5, 100, 0.1, 5.0
        p = self.params()
        regret_bound, violation_bounds = theorem_bounds(
            num_actions=K,
            num_contexts=Z,
            T=T,
            confidence=p,
            reward_info_gain=gamma,
            constraint_info_gain=gamma,
        )
        # independent recomputation, spelled out term by term
        B_pot = 2.5 + 1.5 * math.log1p(T)
        expert = math.sqrt(
            3.0 * Z * T * (math.log(K) + math.log(B_pot) + math.log(1 + math.log(K)))
        )
        martingale = math.sqrt(T / 2.0 * math.log(2.0 / delta))
        c1 = 8.0 / math.log(2.0)
        beta_T = 1.0 + math.sqrt(2.0 * (gamma + 1.0 + math.log(2.0 * 2.0 / delta)))
        gp_term = c1 * beta_T * math.sqrt(T * gamma)
        assert regret_bound == pytest.approx(expert + martingale + gp_term, abs=1e-9)
        assert violation_bounds[0] == pytest.approx(
            c1 * beta_T * math.sqrt(T * gamma), abs=1e-9
        )

    def test_hand_recomputation_sigma_delta_and_m(self):
        # sigma, delta and M all differ from 1, 0.1 and 1, so a bound that
        # read the wrong one, or a default, would not match
        K, Z, T = 7, 5, 100
        B, sigma, delta, M = 2.0, 0.5, 0.05, 2
        reward_gain, gain = 6.0, 4.5
        regret_bound, violation_bounds = theorem_bounds(
            K, Z, T, self.params(B, sigma, delta, M), reward_gain, gain
        )
        B_pot = 2.5 + 1.5 * math.log1p(T)
        expert = math.sqrt(
            3.0 * Z * T * (math.log(K) + math.log(B_pot) + math.log(1 + math.log(K)))
        )
        martingale = math.sqrt(T / 2.0 * math.log(2.0 / delta))
        c1 = 8.0 / math.log(1.0 + 1.0 / sigma**2)  # 8 / ln 5

        def gp_term(gamma):
            beta_T = B + sigma * math.sqrt(
                2.0 * (gamma + 1.0 + math.log(2.0 * (M + 1) / delta))
            )
            return c1 * beta_T * math.sqrt(T * gamma)

        assert regret_bound == pytest.approx(
            expert + martingale + gp_term(reward_gain), abs=1e-9
        )
        # one model serves the M constraints: M equal bounds, none without it
        assert violation_bounds == pytest.approx([gp_term(gain)] * M, abs=1e-9)
        assert theorem_bounds(
            K, Z, T, self.params(B, sigma, delta, M), reward_gain, None
        ) == (regret_bound, [])

    def test_single_context_drops_z_factor(self):
        p = self.params()
        multi, _ = theorem_bounds(7, 5, 100, p, 5.0, 5.0)
        single, _ = theorem_bounds(7, 1, 100, p, 5.0, 5.0)
        assert single < multi

    def test_monotone_in_horizon(self):
        p = self.params()
        b1, _ = theorem_bounds(7, 5, 100, p, 5.0, 5.0)
        b2, _ = theorem_bounds(7, 5, 200, p, 5.0, 5.0)
        assert b2 > b1

    def test_realized_magnitudes_tighten_potential(self):
        p = self.params()
        small = [np.array([0.5, 0.5, 0.5])]
        tight, _ = theorem_bounds(
            7, 5, 1000, p, 5.0, 5.0, expert_magnitudes=small
        )
        loose, _ = theorem_bounds(7, 5, 1000, p, 5.0, 5.0)
        assert tight < loose


class TestReport:
    def test_report_aggregates(self):
        game = generate_random_game(2, num_players=2, num_actions=3, num_contexts=2)
        players = [UniformPlayer(3, i) for i in range(2)]
        traj = run(game, players, uniform_finite_schedule(2, 30, seed=0), noise_seed=0)
        report = compute_report(traj, game)
        # the views run the report's own pass, so they agree bit for bit
        for i in range(2):
            np.testing.assert_array_equal(
                report.regret[i], constrained_regret(traj, game, i)
            )
            assert report.best_policy[i] == best_feasible_policy(traj, game, i)
        eps, terms = cce_epsilon(traj, game)
        assert eps == report.cce_eps >= 0.0
        # a violation rate, a numpy float, sets eps here; eps is a float whatever sets it
        assert eps == max(terms["violation_rates"][1]) > max(terms["reward_gaps"].values())
        assert type(report.cce_eps) is float
        assert terms["reward_gaps"] == report.cce_terms["reward_gaps"]
        for i in range(2):
            np.testing.assert_array_equal(
                terms["violation_rates"][i], report.cce_terms["violation_rates"][i]
            )

    def test_one_feasibility_mask_per_player(self, monkeypatch):
        game = generate_random_game(
            2, num_players=3, num_actions=3, num_contexts=2, num_constraints=2
        )
        players = [UniformPlayer(3, i) for i in range(3)]
        traj = run(game, players, uniform_finite_schedule(2, 30, seed=0), noise_seed=0)
        calls = []
        real = GameDefinition.feasible_actions

        def counting(self, player, z=None):
            calls.append(player)
            return real(self, player, z)

        monkeypatch.setattr(GameDefinition, "feasible_actions", counting)
        compute_report(traj, game)
        assert calls == [0, 1, 2]

    def test_zero_rounds(self):
        # a run halted in round 1: empty series, no policy, no equilibrium gap
        game = oracle_game("2d", 40)
        report = compute_report(make_trajectory(game, []), game)
        for i in range(game.num_players):
            assert report.regret[i].shape == (0,)
            assert report.violations[i].shape == (game.num_constraints, 0)
            assert report.best_policy[i] == {}
            assert report.final_regret(i) == 0.0
        assert report.cce_eps is None
        assert report.cce_terms == {}
