"""Sleeping-experts aggregation on a toy availability pattern.

Four experts with different mean rewards; expert availability ("awake")
changes over time.  Shows the AdaNormalHedge distribution concentrating
on the best awake expert and the per-expert sleeping regret staying
under the parameter-free bound.
"""

import numpy as np

from congames.experts import SleepingExpertState, ada_predict, ada_update
from congames.metrics import adanormal_regret_bound
from congames.strategy import renormalize


def main():
    rng = np.random.default_rng(1)
    K = 4
    means = np.array([0.2, 0.4, 0.6, 0.8])
    state = SleepingExpertState.fresh(K)

    print("round  distribution (awake experts)")
    for t in range(1, 1001):
        # expert 3 (the best) sleeps for a stretch mid-run
        awake = np.ones(K, dtype=bool)
        if 300 <= t < 600:
            awake[3] = False
        rewards = np.clip(means + 0.2 * rng.standard_normal(K), 0.0, 1.0)
        p = renormalize(ada_predict(state), awake)
        state = ada_update(state, awake, rewards, p)
        if t in (100, 400, 1000):
            dist = ", ".join(f"{v:.3f}" for v in ada_predict(state))
            print(f"{t:5d}  [{dist}]  awake={awake.astype(int).tolist()}")

    print("\nper-expert sleeping regret vs parameter-free bound:")
    for a in range(K):
        bound = adanormal_regret_bound(state.magnitudes[a], state.magnitudes)
        print(
            f"  expert {a}: R={state.regrets[a]:8.2f}"
            f"  C={state.magnitudes[a]:7.2f}  bound={bound:7.2f}"
        )


if __name__ == "__main__":
    main()
