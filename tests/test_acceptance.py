"""Acceptance gate: one test per pinned criterion.

Criteria:
  1. GP posterior equals a dense direct-solve oracle.
  2. Empirical per-expert sleeping-regret bound over adversarial sequences.
  3. 10-seed three-player reproduction: violation plateau for
     constraint-aware learners, growing violations for the
     constraint-blind ones, shrinking average regret, and contextual
     variants beating their non-contextual counterparts.
  4. High-probability theorem bounds hold on >= 8 of 10 seeds.
  5. No spurious infeasibility on feasible games (at most 2 of 10 seeds).
  6. Equilibrium epsilon <= max average regret/violation on every run.
  7. Best-feasible policy equals exhaustive enumeration on tiny games.
  8. Byte-identical outputs for repeated identical CLI runs.

The shared 10-seed experiment (criteria 3-6) runs once per session in a
fixture; it is the only slow part.
"""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest

from congames import game as gm
from congames import metrics as mt
from congames.cli import main, run_seed, worker_pool
from congames.config import parse_config
from congames.experts import SleepingExpertState, ada_predict, ada_update
from congames.gp import GpModel
from congames.kernels import (
    Matern,
    Polynomial,
    Product,
    SquaredExponential,
    evaluate,
    gram,
)
from congames.metrics import adanormal_regret_bound
from congames.strategy import renormalize

# empirically chosen confidence multipliers for the reproduction runs
# (theoretical beta saturates the [0,1] reward clamp at this noise scale;
# the context-free constrained variant needs a tighter constraint filter
# because only the LCB mask, not contextual reward learning, can stop its
# violations)
BETA_SCALE = {
    "random": 1.0,
    "gpmw": 0.15,
    "z_gpmw": 0.15,
    "c_ada_normal_gp": 0.1,
    "cz_ada_normal_gp": 0.15,
}
ALGORITHMS = ["random", "gpmw", "z_gpmw", "c_ada_normal_gp", "cz_ada_normal_gp"]
NUM_SEEDS = 10
HORIZON = 1000


def _report(criterion: str, passed: bool, detail: str):
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {criterion}: {detail}"


# -- criteria 3-6 shared experiment -----------------------------------------

def _run_one(args):
    """One (seed, algorithm) cell of the reproduction grid, played as
    ``congames run`` plays a seed: the generated B.3.1 game (N=3, K=7,
    Z=5), the learner as player 0 and two random players."""
    seed, algorithm = args
    config = parse_config(json.dumps({
        "game": {"generate": {}},
        "T": HORIZON,
        "seeds": [seed],
        "players": [{"algorithm": algorithm, "beta_scale": BETA_SCALE[algorithm]}, {}, {}],
    }))
    result = run_seed(config, seed)
    out = {"seed": seed, "algorithm": algorithm, "status": result["status"]}
    if result["status"] != "completed":
        return out

    out["regret"] = result["regret"][0]
    out["violations"] = result["violations"][0]

    # criterion 6 bookkeeping: epsilon vs the Proposition cap over players
    cap = max(
        max(result["final_regret"]) / HORIZON,
        max(max(v) for v in result["final_violations"]) / HORIZON,
    )
    out["cce_consistent"] = bool(result["cce_eps"] <= cap + 1e-9)

    # criterion 4 bookkeeping for the full learner
    if algorithm == "cz_ada_normal_gp":
        out["regret_bound"] = result["bounds"]["0"]["regret_bound"]
        out["violation_bounds"] = result["bounds"]["0"]["violation_bounds"]
    return out


@pytest.fixture(scope="session")
def reproduction():
    jobs = [(seed, alg) for alg in ALGORITHMS for seed in range(NUM_SEEDS)]
    workers = min(os.cpu_count() or 1, 10)
    with worker_pool(workers) as pool:
        results = list(pool.map(_run_one, jobs))
    grouped = {alg: [] for alg in ALGORITHMS}
    for r in results:
        grouped[r["algorithm"]].append(r)
    return grouped


def _mean_series(runs, key):
    return np.mean([r[key] for r in runs if r["status"] == "completed"], axis=0)


def test_criterion_1_gp_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    families = [
        lambda: SquaredExponential(lengthscale=float(rng.uniform(0.5, 3.0))),
        lambda: Matern(lengthscale=float(rng.uniform(0.5, 2.0)),
                       nu=float(rng.choice([0.5, 1.5, 2.5]))),
        lambda: Polynomial(bias=float(rng.uniform(0.1, 2.0)),
                           lengthscale=float(rng.uniform(0.5, 2.0)),
                           degree=int(rng.integers(1, 4))),
        lambda: Product(
            left=SquaredExponential(lengthscale=float(rng.uniform(0.5, 3.0))),
            right=SquaredExponential(lengthscale=float(rng.uniform(0.3, 1.0))),
            split_index=2,
        ),
    ]
    worst = 0.0
    for i in range(100):
        kernel = families[i % 4]()
        dim = 3 if isinstance(kernel, Product) else int(rng.integers(1, 5))
        t = int(rng.integers(1, 21))
        noise = float(rng.uniform(0.05, 2.0))
        X = rng.normal(size=(t, dim))
        y = rng.normal(size=t)
        model = GpModel(kernel, noise)
        for xi, yi in zip(X, y):
            model.add_observation(xi, yi)
        queries = rng.normal(size=(10, dim))
        means, stds = model.posterior_batch(queries)
        # dense direct solve of the posterior equations
        K = gram(kernel, X) + noise * np.eye(t)
        Kinv = np.linalg.inv(K)
        for q, m, s in zip(queries, means, stds):
            kvec = np.array([evaluate(kernel, x, q) for x in X])
            om = kvec @ Kinv @ y
            ov = max(evaluate(kernel, q, q) - kvec @ Kinv @ kvec, 0.0)
            scale = max(abs(om), 1.0)
            worst = max(worst, abs(m - om) / scale,
                        abs(s - math.sqrt(ov)) / max(math.sqrt(ov), 1.0))
    elapsed = time.monotonic() - start
    _report(
        "1 (GP oracle equivalence)",
        worst < 1e-8 and elapsed < 10.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_sleeping_regret_bound():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    violations = 0
    for trial in range(200):
        K = int(rng.integers(2, 9))
        T = int(rng.integers(50, 2001))
        adversarial = trial % 2 == 1
        state = SleepingExpertState.fresh(K)
        for _ in range(T):
            awake = rng.random(K) < rng.uniform(0.3, 1.0)
            if not awake.any():
                awake[int(rng.integers(K))] = True
            p = renormalize(ada_predict(state), awake)
            if adversarial:
                # punish the learner: reward the least-weighted awake expert
                rewards = np.zeros(K)
                masked = np.where(awake, p, np.inf)
                rewards[int(np.argmin(masked))] = 1.0
            else:
                rewards = rng.random(K)
            state = ada_update(state, awake, rewards, p)
        # state.regrets accumulates exactly the realized sleeping regret
        for a in range(K):
            bound = adanormal_regret_bound(
                float(state.magnitudes[a]), state.magnitudes
            )
            if state.regrets[a] > bound + 1e-9:
                violations += 1
    elapsed = time.monotonic() - start
    _report(
        "2 (Theorem A.2 empirical bound)",
        violations == 0 and elapsed < 60.0,
        f"{violations} violations, {elapsed:.1f}s",
    )


def test_criterion_3a_violation_plateau(reproduction):
    details = []
    ok = True
    for alg in ("cz_ada_normal_gp", "c_ada_normal_gp"):
        mv = _mean_series(reproduction[alg], "violations")[0]
        share = (mv[-1] - mv[499]) / max(mv[-1], 1e-12)
        details.append(f"{alg} second-half share {share:.3f}")
        ok &= share < 0.15
    _report("3a (violation plateau)", ok, "; ".join(details))


def test_criterion_3b_unfiltered_violations_grow(reproduction):
    details = []
    ok = True
    for alg in ("gpmw", "z_gpmw"):
        mv = _mean_series(reproduction[alg], "violations")[0]
        share = (mv[-1] - mv[499]) / max(mv[-1], 1e-12)
        details.append(f"{alg} second-half share {share:.3f}")
        ok &= share >= 0.35
    _report("3b (violations keep growing)", ok, "; ".join(details))


def test_criterion_3c_average_regret_decreases(reproduction):
    details = []
    ok = True
    for alg in ("gpmw", "z_gpmw", "c_ada_normal_gp", "cz_ada_normal_gp"):
        mr = _mean_series(reproduction[alg], "regret")
        early, late = mr[99] / 100.0, mr[-1] / HORIZON
        details.append(f"{alg} {early:.4f}->{late:.4f}")
        ok &= late < early
    _report("3c (average regret decreases)", ok, "; ".join(details))


def test_criterion_3d_context_helps(reproduction):
    pairs = [("cz_ada_normal_gp", "c_ada_normal_gp"), ("z_gpmw", "gpmw")]
    details = []
    ok = True
    for ctx_alg, flat_alg in pairs:
        ctx = _mean_series(reproduction[ctx_alg], "regret")[-1]
        flat = _mean_series(reproduction[flat_alg], "regret")[-1]
        details.append(f"{ctx_alg} {ctx:.1f} vs {flat_alg} {flat:.1f}")
        ok &= ctx < flat
    _report("3d (contextual beats non-contextual)", ok, "; ".join(details))


def test_criterion_4_theorem_bounds_hold(reproduction):
    runs = reproduction["cz_ada_normal_gp"]
    holds = 0
    for r in runs:
        if r["status"] != "completed":
            continue
        regret_ok = r["regret"][-1] <= r["regret_bound"]
        viol_ok = all(
            v <= b
            for v, b in zip(r["violations"][:, -1], r["violation_bounds"])
        )
        holds += int(regret_ok and viol_ok)
    _report(
        "4 (Theorem 1 high-probability bounds)",
        holds >= 8,
        f"bounds hold on {holds}/{NUM_SEEDS} seeds",
    )


def test_criterion_5_no_spurious_infeasibility(reproduction):
    declared = sum(
        1
        for r in reproduction["cz_ada_normal_gp"]
        if r["status"] == "infeasibility_declared"
    )
    _report(
        "5 (no spurious infeasibility)",
        declared <= 2,
        f"declared on {declared}/{NUM_SEEDS} feasible seeds",
    )


def test_criterion_6_proposition_consistency(reproduction):
    checked, bad = 0, 0
    for runs in reproduction.values():
        for r in runs:
            if r["status"] != "completed":
                continue
            checked += 1
            bad += int(not r["cce_consistent"])
    _report(
        "6 (Proposition 1 consistency)",
        bad == 0 and checked > 0,
        f"{bad} violations over {checked} runs",
    )


def test_criterion_7_policy_oracle():
    rng = np.random.default_rng(11)
    mismatches = 0
    for trial in range(50):
        K = int(rng.integers(2, 4))
        Z = int(rng.integers(1, 3))
        T = int(rng.integers(1, 21))
        game = gm.generate_random_game(
            500 + trial, num_players=2, num_actions=K, num_contexts=Z
        )
        contexts = np.zeros(T, dtype=int)
        actions = np.zeros((T, 2), dtype=int)
        for t in range(T):
            contexts[t] = rng.integers(Z)
            actions[t] = rng.integers(K), rng.integers(K)
        traj = gm.Trajectory(contexts, actions)
        policy = mt.best_feasible_policy(traj, game, 0)

        def value(pol):
            return sum(
                game.rewards[0][pol[int(z)], a[1], int(z)]
                for z, a in zip(contexts, actions)
            )

        feasible_sets = [
            np.flatnonzero(game.feasible_actions(0, z)) for z in range(Z)
        ]
        brute = max(
            value(dict(enumerate(choice)))
            for choice in itertools.product(*feasible_sets)
        )
        got = value(
            {z: policy.get(z, int(feasible_sets[z][0])) for z in range(Z)}
        )
        if abs(got - brute) > 1e-9:
            mismatches += 1
    _report(
        "7 (brute-force policy oracle)",
        mismatches == 0,
        f"{mismatches} mismatches over 50 tiny games",
    )


def test_criterion_8_determinism(tmp_path):
    config = {
        "game": {"generate": {"num_players": 2, "num_actions": 4,
                              "num_contexts": 3}},
        "T": 40,
        "seeds": [0, 1],
        "players": [
            {"algorithm": "cz_ada_normal_gp", "beta_scale": 0.2},
            {"algorithm": "random"},
        ],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["run", str(path), "--out", str(out1)]) == 0
    assert main(["run", str(path), "--out", str(out2)]) == 0
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("rounds_seed0.csv", "rounds_seed1.csv",
                     "summary.json", "metadata.json")
    )
    _report("8 (byte-identical determinism)", identical,
            "CSV and JSON outputs compared across two runs")
