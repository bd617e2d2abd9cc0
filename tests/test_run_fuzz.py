"""``congames run`` on mutated game files and configs either runs or exits 1.

A small valid game document, with one constraint or two, and a config
are mutated: counts, table
shapes, ragged lists, 0-d tables, NaN, +-inf, huge and tiny values, N or
K at 1, noise lists, player settings, kernels, schedules and the horizon.
Each case runs ``main(["run", ...])`` in process at T <= 3 with one
worker.  The exit code must be 0 or 1 (1: a config error reported before
any seed runs); exit 2 means a seed raised, which bad input must never
cause.  A run that exits 0 has no per-seed errors and no NaN in its
summary.
"""

import copy
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from congames.cli import main
from congames.strategy import ALGORITHMS

GAME = {
    "num_players": 2,
    "num_actions": 2,
    "num_contexts": 2,
    "rewards": [
        [[[0.1, 0.9], [0.4, 0.2]], [[0.7, 0.3], [0.5, 0.6]]],
        [[[0.8, 0.2], [0.3, 0.5]], [[0.1, 0.4], [0.9, 0.7]]],
    ],
    "constraints": [[[-0.5, 0.3]], [[0.2, -0.1]]],
    "reward_noise": [0.1, 0.1],
    "constraint_noise": [[0.1], [0.1]],
    "metadata": {},
}
# two constraints per player: learners build one model with two targets
GAME_M2 = {
    **GAME,
    "constraints": [[[-0.5, 0.3], [-0.2, 0.1]], [[0.2, -0.1], [-0.3, -0.4]]],
    "constraint_noise": [[0.1, 0.1], [0.1, 0.1]],
}
BASE_GAMES = st.sampled_from([GAME, GAME_M2])
CONFIG = {
    "T": 3,
    "seeds": [0],
    "players": [{"algorithm": "cz_ada_normal_gp", "beta_scale": 0.15},
                {"algorithm": "random"}],
}

NAN, INF = float("nan"), float("inf")
COUNTS = st.sampled_from([0, 1, 2, 3, -1, 2.5, "2", True, None, [2], 10**6])
LEAVES = st.sampled_from([
    NAN, INF, -INF, 1e308, -1e308, 1e-320, 0.0, -0.0, -1.0, 5.0, 2, "a", None,
    True, [1.0], [], 10**400,
])
SETTINGS = st.sampled_from([
    0.0, -1.0, 1e-320, 1e-200, 1e-9, 0.5, 1.0, 0.999999, 1e9, 1e200, 1e308,
    NAN, INF, "1", True, None, 10**400,
])
KERNELS = st.one_of(
    st.builds(lambda ls: {"type": "squared_exponential", "lengthscale": ls}, SETTINGS),
    st.builds(lambda ls, nu: {"type": "matern", "lengthscale": ls, "nu": nu},
              st.sampled_from([0.1, 1.0, 1e-200]),
              st.sampled_from([0.5, 1.5, 2.5, 3.5, 0.0, -1.0, 1e-3])),
    st.builds(lambda degree, bias: {"type": "polynomial", "degree": degree, "bias": bias},
              st.sampled_from([0, 1, 2, 60, 2.5]), st.sampled_from([0.0, 1.0, -1.0, 1e200])),
    st.builds(lambda split: {"type": "product", "split_index": split,
                             "left": {"type": "squared_exponential", "lengthscale": 1.0},
                             "right": {"type": "squared_exponential", "lengthscale": 1.0}},
              st.sampled_from([0, 1, 2, 3, 10])),
    st.sampled_from([{"type": "bogus"}, {}, "se", None, []]),
)


def _path_into(draw, value):
    """A list of indices leading from ``value`` to one nested entry."""
    path = []
    while isinstance(value, list) and value:
        i = draw(st.integers(0, len(value) - 1))
        path.append(i)
        value = value[i]
    return path


def _poke(doc, key, draw, new, leaf=False):
    """Replace one innermost entry of ``doc[key]`` (``leaf``), or one
    entry at any depth, the whole value included."""
    new = copy.deepcopy(new)
    path = _path_into(draw, doc[key])
    if not leaf:
        path = path[:draw(st.integers(0, len(path)))]
    if not path:
        doc[key] = new
        return
    owner = doc[key]
    for i in path[:-1]:
        owner = owner[i]
    owner[path[-1]] = new


@st.composite
def game_documents(draw):
    doc = copy.deepcopy(draw(BASE_GAMES))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(
            ["count", "leaf", "ragged", "wrap", "drop_key", "noise", "players",
             "infeasible"]))
        key = draw(st.sampled_from(
            ["rewards", "constraints"] if op in ("leaf", "wrap")
            else ["reward_noise", "constraint_noise"] if op == "noise"
            else ["rewards", "constraints", "constraint_noise"]))
        if op in ("leaf", "noise", "ragged", "wrap") and key not in doc:
            continue
        if op == "count":
            doc[draw(st.sampled_from(["num_players", "num_actions", "num_contexts"]))] = (
                draw(COUNTS))
        elif op in ("leaf", "noise"):
            _poke(doc, key, draw, draw(LEAVES), leaf=True)
        elif op == "ragged":
            path = _path_into(draw, doc[key])[:-1]
            owner = doc[key]
            for i in path[:draw(st.integers(0, len(path)))]:
                owner = owner[i]
            if isinstance(owner, list) and owner:
                owner.pop()
        elif op == "wrap":
            _poke(doc, key, draw, draw(st.sampled_from([[], 0.5, [[]], [[0.0]]])))
        elif op == "drop_key":
            del doc[draw(st.sampled_from(sorted(doc)))]
        elif op == "players":
            for key in ("rewards", "constraints", "reward_noise", "constraint_noise"):
                if isinstance(doc.get(key), list) and doc[key]:
                    doc[key] = copy.deepcopy(
                        doc[key][:1] if draw(st.booleans()) else doc[key] * 2)
        elif op == "infeasible" and isinstance(doc.get("constraints"), list):
            doc["constraints"] = [[[1.0, 1.0]], [[1.0, 1.0]]]
    return doc


@st.composite
def configs(draw):
    config = copy.deepcopy(CONFIG)
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(
            ["T", "seeds", "algorithm", "setting", "kernel", "schedule", "players"]))
        players = config["players"]
        player = players[draw(st.integers(0, len(players) - 1))] if players else {}
        if op == "T":
            config["T"] = draw(st.sampled_from([1, 2, 0, -1, 2.5, "3", True]))
        elif op == "seeds":
            config["seeds"] = draw(st.sampled_from(
                [[1, 2], [], [-1], [0, 0], [1.5], "0", [2**40]]))
        elif op == "algorithm":
            player["algorithm"] = draw(st.sampled_from(
                ["cz_ada_normal_gp", "c_ada_normal_gp", "z_gpmw", "gpmw", "random",
                 "bogus", 3]))
        elif op == "setting":
            key = draw(st.sampled_from(["delta", "rkhs_bound", "noise_scale", "beta_scale"]))
            player[key] = draw(SETTINGS)
        elif op == "kernel":
            player[draw(st.sampled_from(["reward_kernel", "constraint_kernel"]))] = (
                draw(KERNELS))
        elif op == "schedule":
            config["context_schedule"] = draw(st.sampled_from([
                {"mode": "fixed_sequence", "contexts": [0, 1, 1]},
                {"mode": "fixed_sequence", "contexts": [0, 2, 1]},
                {"mode": "fixed_sequence", "contexts": [0]},
                {"mode": "uniform_iid", "contexts": [0]},
                {"mode": "bogus"},
            ]))
        elif op == "players":
            config["players"] = draw(st.sampled_from([
                [{"algorithm": "random"}], copy.deepcopy(config["players"] * 2), [],
            ]))
    return config


def run_case(game_doc, config) -> tuple[int, str | None]:
    """``congames run`` on the two documents; its exit code and the text
    of its ``summary.json``."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        game_path = tmp / "game.json"
        game_path.write_text(json.dumps(game_doc))
        config_path = tmp / "config.json"
        config_path.write_text(json.dumps({"game": {"path": str(game_path)}, **config}))
        code = main(["run", str(config_path), "--out", str(tmp / "out")])
        summary = tmp / "out" / "summary.json"
        return code, summary.read_text() if summary.exists() else None


FUZZ = settings(max_examples=80, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])


def check_exit(game_doc, config):
    code, text = run_case(game_doc, config)
    assert code in (0, 1), text and json.loads(text)["errors"]
    if code == 0:
        assert json.loads(text)["errors"] == {}
        assert "NaN" not in text


def game_with(key, value, path=()):
    """GAME with ``value`` at ``game[key][path...]``, or as ``game[key]``."""
    doc = copy.deepcopy(GAME)
    if not path:
        doc[key] = value
        return doc
    owner = doc[key]
    for i in path[:-1]:
        owner = owner[i]
    owner[path[-1]] = value
    return doc


def config_with(key, value):
    """CONFIG with the learner's setting ``key`` set to ``value``."""
    config = copy.deepcopy(CONFIG)
    config["players"][0][key] = value
    return config


# The 80 derandomized examples of each test never draw these entries of
# COUNTS, LEAVES and SETTINGS (as a player setting), so each is given as an
# explicit example; a value added to those lists needs one too unless the
# draws reach it.
HUGE_LEAF = game_with("rewards", 10**400, (0, 0, 0, 0))
HUGE_SETTING = config_with("delta", 10**400)


@FUZZ
@given(game_documents(), st.sampled_from(ALGORITHMS))
@example(HUGE_LEAF, ALGORITHMS[0])
@example(game_with("num_actions", 3), ALGORITHMS[0])
@example(game_with("num_contexts", -1), ALGORITHMS[0])
@example(game_with("num_players", None), ALGORITHMS[0])
@example(game_with("reward_noise", -1.0, (0,)), ALGORITHMS[0])
@example(game_with("rewards", "a", (1, 0, 1, 0)), ALGORITHMS[0])
@example(game_with("constraints", True, (0, 0, 1)), ALGORITHMS[0])
@example(game_with("constraint_noise", [1.0], (1, 0)), ALGORITHMS[0])
def test_mutated_game_file_runs_or_exits_1(game_doc, algorithm):
    config = copy.deepcopy(CONFIG)
    config["players"][0]["algorithm"] = algorithm
    check_exit(game_doc, config)


@FUZZ
@given(configs(), BASE_GAMES)
@example(HUGE_SETTING, GAME)
@example(config_with("beta_scale", 0.0), GAME)
@example(config_with("noise_scale", 1e-320), GAME)
@example(config_with("delta", 0.5), GAME)
@example(config_with("delta", 0.999999), GAME_M2)
@example(config_with("rkhs_bound", 1e200), GAME)
@example(config_with("beta_scale", INF), GAME)
@example(config_with("noise_scale", None), GAME)
def test_mutated_config_runs_or_exits_1(config, game_doc):
    check_exit(game_doc, config)


def test_base_documents_run():
    code, text = run_case(GAME, CONFIG)
    assert code == 0
    assert json.loads(text)["statuses"] == {"0": "completed"}


def test_two_constraint_base_runs():
    code, text = run_case(GAME_M2, CONFIG)
    assert code == 0
    summary = json.loads(text)
    assert summary["statuses"] == {"0": "completed"}
    assert len(summary["per_seed"]["0"]["bounds"]["0"]["violation_bounds"]) == 2
