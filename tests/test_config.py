"""Config parsing tests: defaults, shorthands, and path-addressed errors."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import congames
from congames.cli import main
from congames.config import ConfigError, parse_config
from congames.game import generate_random_game
from congames.kernels import SquaredExponential
from congames.strategy import CZ_ADA_NORMAL_GP, RANDOM


# the most entries numpy can index along one axis
INTP_MAX = int(np.iinfo(np.intp).max)


def base_config(**overrides):
    doc = {
        "game": {"generate": {"num_players": 2, "num_actions": 3, "num_contexts": 2}},
        "T": 10,
    }
    doc.update(overrides)
    return json.dumps(doc)


class TestDefaults:
    def test_minimal_config(self):
        config = parse_config(base_config())
        assert config.T == 10
        assert config.seeds == [0]
        assert len(config.players) == 2
        assert all(p.algorithm == RANDOM for p in config.players)
        assert config.schedule.mode == "uniform_iid"
        assert config.bound_checks is True

    def test_generator_shorthands(self):
        config = parse_config(
            json.dumps({"game": {"generate": {"K": 4, "Z": 3}}, "T": 5})
        )
        assert config.game.generate.num_actions == 4
        assert config.game.generate.num_contexts == 3

    def test_player_blocks(self):
        config = parse_config(
            base_config(
                players=[
                    {"algorithm": "cz_ada_normal_gp", "beta_scale": 0.2,
                     "reward_kernel": {"type": "squared_exponential",
                                       "lengthscale": 1.5}},
                    {"algorithm": "random"},
                ]
            )
        )
        first = config.players[0]
        assert first.algorithm == CZ_ADA_NORMAL_GP
        assert first.beta_scale == 0.2
        assert first.reward_kernel == SquaredExponential(lengthscale=1.5)

    def test_fixed_sequence_schedule(self):
        config = parse_config(
            base_config(context_schedule={"mode": "fixed_sequence",
                                          "contexts": [0, 1] * 5})
        )
        assert config.schedule.mode == "fixed_sequence"
        assert config.schedule.contexts[:2] == [0, 1]

    def test_fixed_sequence_longer_than_horizon_accepted(self):
        config = parse_config(base_config(context_schedule={
            "mode": "fixed_sequence", "contexts": [1] * 11}))
        assert config.schedule.contexts == [1] * 11

    def test_game_from_path(self):
        config = parse_config(
            json.dumps({"game": {"path": "some/game.json"}, "T": 5,
                        "players": [{"algorithm": "random"}] * 2})
        )
        assert config.game.path == "some/game.json"
        assert config.game.generate is None


class TestErrors:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match=r"\.horizon"):
            parse_config(base_config(horizon=5))

    def test_missing_game(self):
        with pytest.raises(ConfigError):
            parse_config(json.dumps({"T": 5}))

    def test_game_needs_exactly_one_source(self):
        with pytest.raises(ConfigError, match=r"\.game"):
            parse_config(json.dumps({"game": {}, "T": 5}))
        with pytest.raises(ConfigError, match=r"\.game"):
            parse_config(
                json.dumps({"game": {"path": "x", "generate": {}}, "T": 5})
            )

    def test_bad_horizon(self):
        with pytest.raises(ConfigError, match=r"\.T"):
            parse_config(base_config(T=0))
        with pytest.raises(ConfigError, match=r"\.T"):
            parse_config(base_config(T="ten"))

    def test_bad_seeds(self):
        with pytest.raises(ConfigError, match=r"\.seeds"):
            parse_config(base_config(seeds=[]))
        with pytest.raises(ConfigError, match=r"\.seeds"):
            parse_config(base_config(seeds=["a"]))

    def test_duplicate_seed(self):
        # a repeat would count one run twice in the aggregate
        with pytest.raises(ConfigError, match=r"^\.seeds\[1\]: repeats seed 1$"):
            parse_config(base_config(seeds=[1, 1]))
        with pytest.raises(ConfigError, match=r"^\.seeds\[3\]: "):
            parse_config(base_config(seeds=[4, 0, 2, 0]))

    def test_bad_algorithm(self):
        with pytest.raises(ConfigError, match=r"\.players"):
            parse_config(base_config(players=[{"algorithm": "sgd"}] * 2))

    def test_player_count_mismatch(self):
        with pytest.raises(ConfigError, match=r"\.players"):
            parse_config(base_config(players=[{"algorithm": "random"}]))

    def test_bad_schedule_mode(self):
        with pytest.raises(ConfigError, match=r"\.context_schedule"):
            parse_config(base_config(context_schedule={"mode": "round_robin"}))

    def test_fixed_sequence_requires_contexts(self):
        with pytest.raises(ConfigError, match=r"\.context_schedule\.contexts"):
            parse_config(base_config(context_schedule={"mode": "fixed_sequence"}))

    @pytest.mark.parametrize("length", [1, 3, 9])
    def test_fixed_sequence_shorter_than_horizon(self, length):
        with pytest.raises(
            ConfigError,
            match=rf"^\.context_schedule\.contexts: {length} contexts for a "
                  r"horizon of T = 10$",
        ):
            parse_config(base_config(context_schedule={
                "mode": "fixed_sequence", "contexts": ([0, 1, 1] * 3)[:length]}))

    @pytest.mark.parametrize("contexts", [[0, 1] * 5, []])
    def test_uniform_iid_takes_no_contexts(self, contexts):
        with pytest.raises(ConfigError, match=r"^\.context_schedule\.contexts: "):
            parse_config(base_config(context_schedule={
                "mode": "uniform_iid", "contexts": contexts}))
        with pytest.raises(ConfigError, match=r"^\.context_schedule\.contexts: "):
            parse_config(base_config(context_schedule={"contexts": contexts}))

    @pytest.mark.parametrize("z", [-1, 2])
    def test_fixed_sequence_context_out_of_range(self, z):
        with pytest.raises(
            ConfigError, match=rf"\.context_schedule\.contexts: context {z} "
        ):
            parse_config(base_config(context_schedule={
                "mode": "fixed_sequence", "contexts": [0, 1, z]}))

    @pytest.mark.parametrize("key, value, message", [
        *(pytest.param(key, value, f"{key}: ", id=f"{key}-{value}") for key, value in [
            ("noise_scale", 0), ("noise_scale", -0.5), ("rkhs_bound", 0),
            ("rkhs_bound", -1), ("beta_scale", -1), ("beta_scale", float("nan")),
        ]),
        # kernel parameters are JSON numbers, and degree and split_index
        # integers; each error names the kernel's key
        *(pytest.param(key, kernel, message, id=name) for name, key, kernel, message in [
            ("se-string-lengthscale", "reward_kernel",
             {"type": "squared_exponential", "lengthscale": "0.5"},
             "reward_kernel.lengthscale: must be a number"),
            ("se-true-lengthscale", "reward_kernel",
             {"type": "squared_exponential", "lengthscale": True},
             "reward_kernel.lengthscale: must be a number"),
            ("matern-string-nu", "reward_kernel",
             {"type": "matern", "lengthscale": 1.0, "nu": "2.5"},
             "reward_kernel.nu: must be a number"),
            # the general-nu Matern divides by Gamma(nu), a float overflow
            ("matern-huge-nu", "constraint_kernel",
             {"type": "matern", "lengthscale": 1.0, "nu": 200},
             "constraint_kernel: nu = 200 is too large: Gamma(nu) overflows"),
            ("polynomial-string-bias", "constraint_kernel",
             {"type": "polynomial", "degree": 2, "bias": "1"},
             "constraint_kernel.bias: must be a number"),
            ("polynomial-fractional-degree", "constraint_kernel",
             {"type": "polynomial", "degree": 1.5},
             "constraint_kernel.degree: must be an integer"),
            ("polynomial-string-degree", "constraint_kernel",
             {"type": "polynomial", "degree": "3"},
             "constraint_kernel.degree: must be an integer"),
            ("polynomial-true-degree", "constraint_kernel",
             {"type": "polynomial", "degree": True},
             "constraint_kernel.degree: must be an integer"),
            # a float cannot be raised to a power beyond the float range
            ("polynomial-huge-degree", "constraint_kernel",
             {"type": "polynomial", "degree": 10**400},
             "constraint_kernel: degree must be at most 1.79769e+308"),
            ("product-fractional-split", "reward_kernel",
             {"type": "product", "split_index": 1.9,
              "left": {"type": "squared_exponential", "lengthscale": 1.0},
              "right": {"type": "squared_exponential", "lengthscale": 1.0}},
             "reward_kernel.split_index: must be an integer"),
            ("product-without-left", "reward_kernel",
             {"type": "product", "split_index": 1,
              "right": {"type": "squared_exponential", "lengthscale": 1.0}},
             "reward_kernel.left: missing required key"),
            ("product-without-right", "reward_kernel",
             {"type": "product", "split_index": 1,
              "left": {"type": "squared_exponential", "lengthscale": 1.0}},
             "reward_kernel.right: missing required key"),
        ]),
    ])
    def test_bad_player_scale(self, key, value, message):
        with pytest.raises(ConfigError) as exc:
            parse_config(base_config(players=[{"algorithm": "cz_ada_normal_gp",
                                               key: value}, {}]))
        assert str(exc.value).startswith(f".players[0].{message}")

    @pytest.mark.parametrize("key, value", [
        ("num_players", 1), ("num_players", 2.5), ("num_contexts", True),
        ("K", "3"), ("num_constraints", -1), ("noise_scale", "0.1"),
        ("noise_scale", -1), ("feasible_quantile", 2),
        ("feasible_quantile", -0.5),
    ])
    def test_bad_generator_value(self, key, value):
        with pytest.raises(ConfigError, match=rf"\.game\.generate\.{key}: "):
            parse_config(json.dumps({"game": {"generate": {key: value}}, "T": 5}))

    @pytest.mark.parametrize("key", ["num_gp_samples", "points_per_sample", "obs_noise"])
    def test_generator_draw_settings_are_not_keys(self, tmp_path, capsys, key):
        # the generator's GP draw is fixed by constants in congames.game
        text = json.dumps({"game": {"generate": {key: 1}}, "T": 5})
        with pytest.raises(ConfigError, match=rf"^\.game\.generate\.{key}: unknown key$"):
            parse_config(text)
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"config error: .game.generate.{key}: unknown key\n")

    @pytest.mark.parametrize("text, message", [
        # an int beyond the float range
        (base_config(game={"generate": {"noise_scale": 10**400}}),
         r"^\.game\.generate\.noise_scale: must be finite$"),
        # an int of more digits than json converts
        (base_config()[:-1] + ', "seeds": [' + "1" * 4400 + "]}",
         r"^invalid JSON: Exceeds the limit \(4300 digits\)"),
        ("{not json", r"^invalid JSON: Expecting property name"),
        ("[]", r"^top level must be an object$"),
    ], ids=["huge-noise-scale", "seed-of-4400-digits", "not-json", "top-level-list"])
    def test_unreadable_document(self, tmp_path, capsys, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(text)
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("text, message", [
        (base_config(game={"generate": {"K": 10**400}}),
         rf"^\.game\.generate\.K: must be at most {INTP_MAX}$"),
        (base_config(game={"generate": {"Z": 10**30}}),
         rf"^\.game\.generate\.Z: must be at most {INTP_MAX}$"),
        (base_config(T=10**400), rf"^\.T: must be at most {INTP_MAX}$"),
        # each count fits, but a reward table of 2**21**3 * 2 = 2**64 entries does not
        (base_config(game={"generate": {"num_players": 3, "K": 2**21, "Z": 2}}),
         rf"^\.game\.generate: K\*\*num_players \* Z reward-table entries exceed {INTP_MAX}$"),
    ], ids=["K-1e400", "Z-1e30", "T-1e400", "table-2**64"])
    def test_size_numpy_cannot_index(self, tmp_path, capsys, text, message):
        """A count, horizon or reward table beyond numpy's index range is a
        config error with exit 1, not a seed that fails inside numpy."""
        with pytest.raises(ConfigError, match=message):
            parse_config(text)
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("command", ["run", "generate-game"])
    def test_generator_noise_scale_beyond_game_bound(self, tmp_path, capsys, command):
        """A generator noise scale that no game may hold is a config error
        with exit 1, not a failure in every seed; the bound is the game's."""
        at_bound = parse_config(base_config(game={"generate": {"noise_scale": 1e150}}))
        generate_random_game(0, **dataclasses.asdict(at_bound.game.generate)).validate()
        path = tmp_path / "config.json"
        path.write_text(base_config(game={"generate": {"noise_scale": 1e151}}))
        assert main([command, str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "config error: .game.generate.noise_scale: must lie in [0, 1e+150]\n")

    @pytest.mark.parametrize("overrides, where", [
        ({"seeds": [-1]}, r"\.seeds\[0\]"),
        ({"seeds": [0, True]}, r"\.seeds\[1\]"),
        ({"game": {"path": 5}}, r"\.game\.path"),
        ({"context_schedule": {"mode": "fixed_sequence", "contexts": "01"}},
         r"\.context_schedule\.contexts"),
        ({"context_schedule": {"mode": "fixed_sequence", "contexts": [0, 1.0]}},
         r"\.context_schedule\.contexts\[1\]"),
        ({"players": []}, r"\.players"),
        ({"bound_checks": "no"}, r"\.bound_checks"),
    ])
    def test_wrong_top_level_value(self, overrides, where):
        with pytest.raises(ConfigError, match=rf"^{where}: "):
            parse_config(base_config(**overrides))

    @pytest.mark.parametrize("value", [1e-200, 1e200])
    def test_noise_scale_square_must_be_positive_and_finite(self, value):
        # sigma^2 is the GPs' noise variance: 1e-200 squares to 0, 1e200 to inf
        with pytest.raises(ConfigError, match=r"\.players\[0\]\.noise_scale: its square"):
            parse_config(base_config(players=[{"algorithm": "cz_ada_normal_gp",
                                               "noise_scale": value}, {}]))

    @pytest.mark.parametrize("algorithm, key, split, dim", [
        # a contextual reward input is (a0, a1, z), a non-contextual one
        # (a0, a1), a constraint input (a1); a split at dim leaves the
        # right block empty
        ("cz_ada_normal_gp", "reward_kernel", 3, 3),
        ("cz_ada_normal_gp", "constraint_kernel", 1, 1),
        ("c_ada_normal_gp", "reward_kernel", 2, 2),
        ("c_ada_normal_gp", "constraint_kernel", 1, 1),
        ("z_gpmw", "reward_kernel", 3, 3),
        ("gpmw", "reward_kernel", 2, 2),
    ])
    def test_kernel_must_fit_the_inputs(self, algorithm, key, split, dim):
        se = {"type": "squared_exponential", "lengthscale": 1.0}
        kernel = {"type": "product", "left": se, "right": se, "split_index": split}
        with pytest.raises(ConfigError, match=rf"\.players\[1\]\.{key}: .* of a "
                                              rf"{dim}-coordinate input"):
            parse_config(base_config(players=[{}, {"algorithm": algorithm, key: kernel}]))

    @pytest.mark.parametrize("algorithm, dim", [
        ("cz_ada_normal_gp", 3), ("c_ada_normal_gp", 2), ("z_gpmw", 3), ("gpmw", 2),
    ])
    def test_fitting_split_runs(self, tmp_path, algorithm, dim):
        # every split that leaves both blocks non-empty; no split fits the
        # one-coordinate constraint input, so only the reward model has one
        se = {"type": "squared_exponential", "lengthscale": 1.0}
        for split in range(1, dim):
            kernel = {"type": "product", "left": se, "right": se, "split_index": split}
            path = tmp_path / f"config{split}.json"
            path.write_text(base_config(T=5, players=[
                {}, {"algorithm": algorithm, "reward_kernel": kernel}]))
            out = tmp_path / f"out{split}"
            assert main(["run", str(path), "--out", str(out)]) == 0
            summary = json.loads((out / "summary.json").read_text())
            assert summary["statuses"] == {"0": "completed"}

    def test_kernel_must_be_finite_on_the_inputs(self):
        # (1e100 + a0 a1 + ... )^4 overflows at every input
        kernel = {"type": "polynomial", "bias": 1e100, "degree": 4}
        with pytest.raises(ConfigError, match=r"\.players\[1\]\.reward_kernel: is inf "
                                              r"at the game's input \[2\.0, 2\.0, 1\.0\]"):
            parse_config(base_config(players=[
                {}, {"algorithm": "cz_ada_normal_gp", "reward_kernel": kernel}]))
        kernel["bias"] = 1e70
        parse_config(base_config(players=[
            {}, {"algorithm": "cz_ada_normal_gp", "reward_kernel": kernel}]))

    def test_fitting_product_kernel_accepted(self):
        se = {"type": "squared_exponential", "lengthscale": 1.0}
        kernel = {"type": "product", "left": se, "right": se, "split_index": 2}
        config = parse_config(base_config(players=[
            {}, {"algorithm": "cz_ada_normal_gp", "reward_kernel": kernel}]))
        assert config.players[1].reward_kernel.split_index == 2

    def test_unused_constraint_kernel_is_not_checked(self):
        # the multiplicative-weights learners build no constraint model,
        # and no learner builds one in a game without constraints
        se = {"type": "squared_exponential", "lengthscale": 1.0}
        kernel = {"type": "product", "left": se, "right": se, "split_index": 5}
        for algorithm, M in [("z_gpmw", 1), ("gpmw", 1), ("c_ada_normal_gp", 0),
                             ("cz_ada_normal_gp", 0)]:
            parse_config(base_config(
                game={"generate": {"num_players": 2, "K": 3, "Z": 2, "num_constraints": M}},
                players=[{"algorithm": algorithm, "constraint_kernel": kernel}, {}]))

    def test_expert_rule_is_not_a_key(self):
        # the algorithm fixes the expert rule
        with pytest.raises(ConfigError, match=r"\.players\[0\]\.expert_rule: unknown key"):
            parse_config(base_config(players=[
                {"algorithm": "cz_ada_normal_gp", "expert_rule": "reduced_hedge"}, {},
            ]))

    def test_output_dir_is_not_a_key(self):
        # --out alone sets the output directory
        with pytest.raises(ConfigError, match=r"^\.output_dir: unknown key$"):
            parse_config(base_config(output_dir="x"))

    def test_zero_beta_scale_accepted(self):
        config = parse_config(base_config(players=[{"beta_scale": 0}, {}]))
        assert config.players[0].beta_scale == 0.0

    def test_unknown_player_key(self):
        with pytest.raises(ConfigError):
            parse_config(base_config(players=[{"lr": 0.1}, {}]))

    def test_unknown_kernel_key(self):
        kernel = {"type": "squared_exponential", "lengthscale": 1.0,
                  "lengthscal": 9, "nu": 3}
        with pytest.raises(ConfigError,
                           match=r"^\.players\[1\]\.reward_kernel\.lengthscal: unknown key$"):
            parse_config(base_config(players=[
                {}, {"algorithm": "cz_ada_normal_gp", "reward_kernel": kernel}]))

    def test_not_json(self):
        with pytest.raises(ConfigError):
            parse_config("{not json")

    def test_missing_keys_reported_in_a_fixed_order(self):
        # the required keys are a set, whose order changes with the hash seed
        src = str(Path(congames.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r})\n"
            "from congames.config import ConfigError, parse_config\n"
            "try:\n    parse_config('{}')\n"
            "except ConfigError as exc:\n    print(exc)\n"
        )
        messages = {
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                timeout=60, check=True, env={**os.environ, "PYTHONHASHSEED": str(seed)},
            ).stdout
            for seed in range(8)
        }
        assert messages == {".T: missing required key\n"}


class TestRepeatedKeys:
    """A key given twice, or a field set under two names, is an error at
    its path, not a silent last-value-wins."""

    @pytest.mark.parametrize("text, where", [
        ('{"game": {"generate": {}}, "T": 5, "T": 50}', r"\.T"),
        ('{"game": {"generate": {"K": 3, "K": 3}}, "T": 5}', r"\.game\.generate\.K"),
        ('{"game": {"generate": {}, "generate": {}}, "T": 5}', r"\.game\.generate"),
        ('{"game": {"generate": {"num_players": 2}}, "T": 5, "players": '
         '[{}, {"beta_scale": 1, "beta_scale": 0.5}]}', r"\.players\[1\]\.beta_scale"),
        ('{"game": {"generate": {"num_players": 2}}, "T": 5, "players": [{"algorithm": '
         '"z_gpmw", "reward_kernel": {"type": "squared_exponential", "lengthscale": 1, '
         '"lengthscale": 2}}, {}]}', r"\.players\[0\]\.reward_kernel\.lengthscale"),
    ], ids=["top", "generator", "block", "player", "kernel"])
    def test_key_given_twice(self, text, where):
        with pytest.raises(ConfigError, match=rf"^{where}: given more than once$"):
            parse_config(text)

    @pytest.mark.parametrize("first, second", [
        ("K", "num_actions"), ("num_actions", "K"),
        ("Z", "num_contexts"), ("num_contexts", "Z"),
    ])
    def test_field_set_under_two_names(self, first, second):
        text = json.dumps({"game": {"generate": {first: 5, second: 7}}, "T": 5})
        with pytest.raises(ConfigError, match=rf"^\.game\.generate\.{second}: sets "):
            parse_config(text)

    def test_run_exits_1(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"game": {"generate": {}}, "T": 5, "T": 50}')
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert ".T: given more than once" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
