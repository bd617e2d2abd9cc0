"""Equilibrium accuracy of no-regret play.

Runs all players as constraint-aware learners and certifies the empirical
joint policy as an approximate constrained contextual coarse correlated
equilibrium: the certified epsilon is bounded by the larger of the
players' average regrets and average violations.
"""

from congames.cli import build_player
from congames.config import PlayerBlock
from congames.game import generate_random_game, run, uniform_finite_schedule
from congames.metrics import cce_epsilon, compute_report, empirical_policy


def main():
    game = generate_random_game(
        seed=4, num_players=2, num_actions=4, num_contexts=2
    )
    T = 500
    blocks = [
        PlayerBlock(algorithm="cz_ada_normal_gp", beta_scale=0.1)
        for _ in range(game.num_players)
    ]
    players = [build_player(b, game, i, seed=20 + i) for i, b in enumerate(blocks)]
    trajectory = run(
        game, players, uniform_finite_schedule(game.num_contexts, T, seed=1),
        noise_seed=1,
    )
    report = compute_report(trajectory, game)

    eps, terms = cce_epsilon(trajectory, game)
    avg_regrets = [report.final_regret(i) / T for i in range(game.num_players)]
    avg_violations = [
        float(report.final_violations(i).max()) / T
        for i in range(game.num_players)
    ]
    print(f"certified epsilon: {eps:.4f}")
    print(f"average regrets:    {[f'{v:.4f}' for v in avg_regrets]}")
    print(f"average violations: {[f'{v:.4f}' for v in avg_violations]}")
    cap = max(max(avg_regrets), max(avg_violations))
    print(f"Proposition-style cap max{{R/T, V/T}} = {cap:.4f}  (eps <= cap: {eps <= cap + 1e-9})")

    rho = empirical_policy(trajectory)
    print("\nmost frequent joint actions per context:")
    for z in sorted(rho):
        top = sorted(rho[z].items(), key=lambda kv: -kv[1])[:3]
        pretty = ", ".join(f"{a}:{p:.2f}" for a, p in top)
        print(f"  z={z}: {pretty}")


if __name__ == "__main__":
    main()
