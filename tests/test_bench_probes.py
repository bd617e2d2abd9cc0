"""The benchmark's probes and attribute reads name things that exist.

``perfbench/tracer.py`` wraps functions by (module, class, attribute),
and ``perfbench/one_pass.properties()`` reads learner and GP attributes
off the built players; a renamed function or attribute would only show
up when the benchmark runs.  Both files are loaded by path and nothing
is wrapped.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from congames.cli import build_player
from congames.config import PlayerBlock
from congames.game import generate_random_game, run, uniform_finite_schedule
from congames.strategy import ALGORITHMS, RANDOM, USES_CONSTRAINTS, USES_CONTEXT

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load("perfbench_tracer", PERFBENCH / "tracer.py")


@pytest.mark.parametrize(
    "module, cls, attr, name",
    tracer.PROBES + tracer.LAYERS,
    ids=[f"{m}.{c + '.' if c else ''}{a}" for m, c, a, _ in tracer.PROBES + tracer.LAYERS],
)
def test_probe_resolves(module, cls, attr, name):
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr, None)), f"{name}: {module}.{cls}.{attr}"


@pytest.fixture
def one_pass(monkeypatch):
    # one_pass imports its siblings workloads and tracer as top-level modules
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    yield load("perfbench_one_pass", PERFBENCH / "one_pass.py")
    for name in ("tracer", "workloads"):
        if name not in before:
            sys.modules.pop(name, None)


# M = 0 leaves a learner no constraint model and M = 2 gives it one with
# two target columns; the M = 1 cases keep their bare algorithm ids
CELLS = [(algorithm, M) for M in (1, 0, 2) for algorithm in ALGORITHMS]


@pytest.mark.parametrize(
    "algorithm, num_constraints", CELLS,
    ids=[a if M == 1 else f"{a}-M{M}" for a, M in CELLS],
)
def test_properties_read_built_players(one_pass, algorithm, num_constraints):
    # a T=5 cell of the algorithm against a random player, built as the CLI does
    game = generate_random_game(0, num_players=2, num_actions=3, num_contexts=2,
                                num_constraints=num_constraints)
    blocks = [PlayerBlock(algorithm=algorithm, beta_scale=0.2), PlayerBlock()]
    players = [build_player(b, game, i, 10 + i) for i, b in enumerate(blocks)]
    contexts = uniform_finite_schedule(2, 5, seed=1)
    trajectory = run(game, players, contexts, noise_seed=2)
    assert trajectory.status == "completed"

    props = one_pass.properties(players, [trajectory.status])
    assert props["strategy.halted"] == 0
    assert props["strategy.clamp_events"] >= 0
    if algorithm == RANDOM:
        assert props["gp.max_obs"] == 0 and props["strategy.buckets"] == 0
        return
    assert props["gp.max_obs"] == 5
    assert props["gp.factor_mb"] > 0.0
    assert 0.0 <= props["gp.reward.repeat_share"] < 1.0
    # 5 rounds on 3 actions repeat one: a share of 0 means no model was read
    constraint_share = props["gp.constraint.repeat_share"]
    if num_constraints and USES_CONSTRAINTS[algorithm]:
        assert 0.0 < constraint_share < 1.0
    else:
        assert constraint_share == 0.0
    buckets = len(set(contexts)) if USES_CONTEXT[algorithm] else 1
    assert props["strategy.buckets"] == buckets
