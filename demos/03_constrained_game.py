"""A constrained contextual game, end to end.

Generates a random 2-player game, pits a constraint-aware contextual
learner against a random opponent, and prints how regret and constraint
violations evolve.  The learner's violations should flatten once its
constraint model identifies the infeasible actions, while its average
regret keeps shrinking.
"""

import numpy as np

from congames.cli import build_player
from congames.config import PlayerBlock
from congames.game import generate_random_game, run, uniform_finite_schedule
from congames.metrics import compute_report


def main():
    game = generate_random_game(
        seed=3, num_players=2, num_actions=5, num_contexts=3
    )
    print("true feasible actions per context (player 0):")
    for z in range(game.num_contexts):
        print(f"  z={z}: {np.flatnonzero(game.feasible_actions(0, z)).tolist()}")

    T = 600
    blocks = [
        PlayerBlock(algorithm="cz_ada_normal_gp", beta_scale=0.1),
        PlayerBlock(algorithm="random"),
    ]
    players = [build_player(b, game, i, seed=10 + i) for i, b in enumerate(blocks)]
    schedule = uniform_finite_schedule(game.num_contexts, T, seed=0)
    trajectory = run(game, players, schedule, noise_seed=0)
    report = compute_report(trajectory, game)

    print(f"\nstatus: {trajectory.status}")
    print("round  avg_regret  cum_violation")
    regret = report.regret[0]
    violations = report.violations[0][0]
    for t in (50, 100, 200, 400, 600):
        print(f"{t:5d}  {regret[t - 1] / t:10.4f}  {violations[t - 1]:13.3f}")

    learner = players[0]
    print(f"\nlearner info gain (reward GP): {learner.reward_gp.running_info_gain:.2f}")
    print("learned feasible actions per context:")
    for z in range(game.num_contexts):
        print(f"  z={z}: {np.flatnonzero(learner.feasible_mask(z)).tolist()}")


if __name__ == "__main__":
    main()
