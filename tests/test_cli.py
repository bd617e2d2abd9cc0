"""CLI harness tests: subcommands, exit codes, and output determinism."""

import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from congames.cli import (
    BLAS_THREADS,
    _encode,
    _write_seed_csv,
    build_player,
    main,
    run_seed,
    worker_pool,
)
from congames.config import PlayerBlock, parse_config
from congames.game import GameDefinition, generate_random_game
from congames.gp import FactorizationError, GpModel
from congames.strategy import (
    C_ADA_NORMAL_GP,
    CZ_ADA_NORMAL_GP,
    GPMW,
    Z_GPMW,
    InfeasibilityDeclared,
    Player,
)


def config_doc(**overrides):
    doc = {
        "game": {"generate": {"num_players": 2, "num_actions": 3,
                              "num_contexts": 2}},
        "T": 15,
        "seeds": [0, 1],
        "players": [
            {"algorithm": "cz_ada_normal_gp", "beta_scale": 0.2},
            {"algorithm": "random"},
        ],
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_doc()))
    return path


class TestRunCommand:
    def test_run_writes_outputs(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out", str(out)]) == 0
        assert (out / "rounds_seed0.csv").exists()
        assert (out / "rounds_seed1.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["statuses"] == {"0": "completed", "1": "completed"}
        assert "0" in summary["per_seed"]
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["seeds"] == [0, 1]
        assert "config_sha256" in meta

    def test_csv_layout(self, config_path, tmp_path):
        out = tmp_path / "out"
        main(["run", str(config_path), "--out", str(out)])
        lines = (out / "rounds_seed0.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["t", "z", "a0", "a1"]
        assert "regret_p0" in header and "viol_p1_m0" in header
        assert len(lines) == 1 + 15

    def test_determinism_byte_identical(self, config_path, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["run", str(config_path), "--out", str(out1)])
        main(["run", str(config_path), "--out", str(out2)])
        for name in ("rounds_seed0.csv", "rounds_seed1.csv",
                     "summary.json", "metadata.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("z", [-1, 2])
    def test_out_of_range_context_exit_codes(self, tmp_path, capsys, z):
        # a generated game knows Z at parse time, a game file is read
        # before any seed runs: both are config errors (exit 1)
        schedule = {"mode": "fixed_sequence", "contexts": [0, 1, z] * 5}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_doc(context_schedule=schedule)))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert f"context {z} is outside [0, 2)" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

        game_path = tmp_path / "game.json"
        config = parse_config(json.dumps(config_doc()))
        from congames.cli import _load_game

        game_path.write_text(_load_game(config, 0).to_json())
        path.write_text(json.dumps(config_doc(
            seeds=[0], game={"path": str(game_path)}, context_schedule=schedule,
        )))
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert f"context {z} is outside [0, 2)" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_bad_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("key, value", [
        ("noise_scale", 0), ("rkhs_bound", 0), ("beta_scale", -1),
    ])
    def test_bad_player_scale_exit_code(self, tmp_path, capsys, key, value):
        doc = config_doc(seeds=[0])
        doc["players"][0][key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert f".players[0].{key}" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("left, right, message", [
        ({"type": "squared_exponential", "lengthscale": "x"},
         {"type": "squared_exponential", "lengthscale": 1.0},
         ".players[0].reward_kernel.left.lengthscale: must be a number"),
        ({"type": "squared_exponential", "lengthscale": 1.0},
         {"type": "matern", "lengthscale": 1.0},
         ".players[0].reward_kernel.right.nu: missing required key"),
    ], ids=["left-string-lengthscale", "right-matern-without-nu"])
    def test_kernel_error_names_the_factor(self, tmp_path, capsys, left, right, message):
        doc = config_doc(seeds=[0])
        doc["players"][0]["reward_kernel"] = {
            "type": "product", "split_index": 2, "left": left, "right": right}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("edit, where", [
        (lambda d: d["game"]["generate"].update(K="3"), ".game.generate.K"),
        (lambda d: d["players"][0].update(delta="abc"), ".players[0].delta"),
        (lambda d: d["players"].__setitem__(1, 5), ".players[1]"),
        (lambda d: d.update(context_schedule={
            "mode": "fixed_sequence", "contexts": ["a"]}),
         ".context_schedule.contexts[0]"),
        (lambda d: d.update(T=True), ".T"),
        (lambda d: d["players"][0].update(reward_kernel={
            "type": "squared_exponential", "lengthscale": 1.0, "lengthscal": 9}),
         ".players[0].reward_kernel.lengthscal"),
    ], ids=["string-K", "string-delta", "int-player", "string-context", "bool-T",
            "kernel-typo"])
    def test_wrong_type_is_config_error(self, tmp_path, capsys, edit, where):
        doc = config_doc(seeds=[0])
        edit(doc)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {where}: ")
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("text, message", [
        (None, "[Errno 2] No such file or directory: '{path}'"),
        ("{not json",
         "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ('{"num_players": 2}', ".constraint_noise: missing required key"),
        ('{"num_player": 2}', ".num_player: unknown key"),
        ('{"num_players": 2, "num_players": 3}', ".num_players: given more than once"),
        # a JSON int beyond the float range
        ('{"num_players": 2, "num_actions": 2, "num_contexts": 1, "rewards": [], '
         '"constraints": [], "reward_noise": [1' + '0' * 400 + '], "constraint_noise": []}',
         ".reward_noise[0]: must be finite"),
        ("[]", "top level must be an object"),
    ], ids=["missing", "not-json", "missing-key", "unknown-key", "repeated-key", "huge-int",
            "top-level-list"])
    def test_bad_game_file_is_config_error(self, tmp_path, capsys, text, message):
        game_path = tmp_path / "game.json"
        if text is not None:
            game_path.write_text(text)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_doc(game={"path": str(game_path)})))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        message = message.format(path=game_path)
        assert capsys.readouterr().err == f"config error: .game.path: {game_path}: {message}\n"
        assert not (out / "summary.json").exists()

    def test_repeated_key_in_a_valid_game_file(self, tmp_path, capsys):
        # json keeps the last value, which here would load a valid game
        config = parse_config(json.dumps(config_doc()))
        from congames.cli import _load_game

        text = _load_game(config, 0).to_json()
        assert '\n  "num_contexts": 2,\n' in text
        game_path = tmp_path / "game.json"
        game_path.write_text(text.replace(
            '\n  "num_contexts": 2,\n', '\n  "num_contexts": 5,\n  "num_contexts": 2,\n'
        ))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_doc(game={"path": str(game_path)})))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: .game.path: {game_path}: .num_contexts: given more than once\n"
        )
        assert not (out / "summary.json").exists()

    def test_game_file_player_count_checked(self, tmp_path, capsys):
        config = parse_config(json.dumps(config_doc()))
        from congames.cli import _load_game

        game_path = tmp_path / "game.json"
        game_path.write_text(_load_game(config, 0).to_json())  # N=2
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_doc(
            game={"path": str(game_path)}, players=[{"algorithm": "random"}] * 3,
        )))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert "config error: .players: player count must match the game" in (
            capsys.readouterr().err
        )
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("out, message", [
        ("file", "[Errno 17] File exists: '{file}'"),
        ("file/sub", "[Errno 20] Not a directory: '{file}/sub'"),
    ], ids=["existing-file", "below-a-file"])
    def test_unwritable_out_is_config_error(self, tmp_path, capsys, out, message):
        file = tmp_path / "file"
        file.write_text("kept")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_doc()))
        assert main(["run", str(path), "--out", str(tmp_path / out)]) == 1
        message = message.format(file=file)
        assert capsys.readouterr().err == f"config error: --out: {message}\n"
        assert file.read_text() == "kept"

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 1

    def test_no_seed_override_flag(self, config_path, tmp_path, capsys):
        # the config's seeds are the one place that sets them
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["run", str(config_path), "--out", str(out), "--seed-override", "7"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed-override 7" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("parallel", ["0", "-2"])
    def test_parallel_below_one_is_config_error(self, config_path, tmp_path,
                                                capsys, parallel):
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out", str(out),
                     "--parallel", parallel]) == 1
        assert "config error: --parallel: must be at least 1" in capsys.readouterr().err
        assert not (out / "metadata.json").exists()

    def test_short_fixed_sequence_is_config_error(self, tmp_path, capsys):
        # 3 contexts for T = 15: rejected before any seed runs
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_doc(
            context_schedule={"mode": "fixed_sequence", "contexts": [0, 1, 0]}
        )))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: .context_schedule.contexts: 3 contexts for a horizon"
        )
        assert not (out / "summary.json").exists()

    def test_parallel_matches_serial(self, config_path, tmp_path):
        out1, out2 = tmp_path / "serial", tmp_path / "parallel"
        main(["run", str(config_path), "--out", str(out1)])
        main(["run", str(config_path), "--out", str(out2), "--parallel", "2"])
        names = sorted(p.name for p in out1.iterdir())
        assert names == ["metadata.json", "rounds_seed0.csv", "rounds_seed1.csv",
                         "summary.json"]
        assert sorted(p.name for p in out2.iterdir()) == names
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_output_memory_does_not_hold_the_curves(self, tmp_path):
        # three random players, T=20000, two seeds: the curves of every
        # seed as Python floats, or summary.json's text whole, would take
        # the traced peak to about 25 MB
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "game": {"generate": {"num_players": 3, "K": 7, "Z": 5}},
            "T": 20000, "seeds": [0, 10], "players": [{"algorithm": "random"}] * 3,
        }))
        tracemalloc.start()
        try:
            assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert len(summary["aggregate"]["mean_violations"][2][0]) == 20000

    def test_summary_replaced_only_when_complete(self, config_path, tmp_path,
                                                 monkeypatch):
        from congames import cli

        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out", str(out)]) == 0
        before = (out / "summary.json").read_bytes()

        def fails(values, newline):
            raise RuntimeError("injected encoding fault")

        monkeypatch.setattr(cli, "_float_items", fails)
        for target in (out, tmp_path / "fresh"):
            with pytest.raises(RuntimeError, match="injected encoding fault"):
                main(["run", str(config_path), "--out", str(target)])
            assert not (target / "summary.json.tmp").exists()
        # a failed write leaves the last complete summary, or none
        assert (out / "summary.json").read_bytes() == before
        assert not (tmp_path / "fresh" / "summary.json").exists()

    def test_game_file_parsed_once_for_all_seeds(self, monkeypatch, tmp_path):
        config = parse_config(json.dumps(config_doc()))
        from congames.cli import _load_game

        game_path = tmp_path / "game.json"
        game_path.write_text(_load_game(config, 0).to_json())
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_doc(game={"path": str(game_path)})))
        real = GameDefinition.from_json.__func__
        parsed = []

        def counting(cls, text):
            parsed.append(text)
            return real(cls, text)

        monkeypatch.setattr(GameDefinition, "from_json", classmethod(counting))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert len(parsed) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["statuses"] == {"0": "completed", "1": "completed"}

        # the pool's workers play the same loaded game
        assert main(["run", str(path), "--out", str(tmp_path / "par"),
                     "--parallel", "2"]) == 0
        assert len(parsed) == 2
        assert (tmp_path / "par" / "summary.json").read_bytes() == (
            out / "summary.json"
        ).read_bytes()

        # run_seed called on its own still loads the file itself
        _write_seed_csv(tmp_path, run_seed(parse_config(path.read_text()), 1))
        assert len(parsed) == 3
        assert (tmp_path / "rounds_seed1.csv").read_bytes() == (
            out / "rounds_seed1.csv"
        ).read_bytes()

    def test_pool_workers_run_blas_on_one_thread(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        with worker_pool(2) as pool:
            seen = list(pool.map(os.getenv, BLAS_THREADS))
        assert seen == ["1"] * len(BLAS_THREADS)
        # this process's environment is restored when the pool closes
        assert os.environ["OPENBLAS_NUM_THREADS"] == "4"
        assert "MKL_NUM_THREADS" not in os.environ

    def test_seed_failure_isolated(self, monkeypatch, tmp_path):
        # an error in one seed's metrics is recorded for that seed alone;
        # the other seed still completes and writes its CSV
        from congames import cli

        real = cli.metrics_mod.compute_report
        calls = []

        def fails_first(trajectory, game):
            calls.append(None)
            if len(calls) == 1:
                raise RuntimeError("injected metrics fault")
            return real(trajectory, game)

        monkeypatch.setattr(cli.metrics_mod, "compute_report", fails_first)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_doc(seeds=[0, 1])))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out), "--parallel", "1"]) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["statuses"] == {"0": "error", "1": "completed"}
        assert list(summary["errors"]) == ["0"]
        error = summary["errors"]["0"]
        assert error.startswith("Traceback") and "injected metrics fault" in error
        assert list(summary["per_seed"]) == ["1"]
        assert not (out / "rounds_seed0.csv").exists()
        assert (out / "rounds_seed1.csv").read_text().count("\n") == 1 + 15

    def test_single_action_game_file_is_config_error(self, tmp_path, capsys):
        game = GameDefinition(
            num_players=2, num_actions=1, num_contexts=2,
            rewards=[np.zeros((1, 1, 2)), np.zeros((1, 1, 2))],
            constraints=[np.zeros(0), np.zeros(0)],
            reward_noise=[0.0, 0.0], constraint_noise=[[], []],
        )
        game_path = tmp_path / "game.json"
        game_path.write_text(game.to_json())
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_doc(game={"path": str(game_path)})))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: .game.path: {game_path}: num_actions must be at least 2\n"
        )
        assert not (out / "summary.json").exists()

    def test_infeasible_context_game_file_is_config_error(self, tmp_path, capsys):
        # player 1's (M, K, Z) table leaves no feasible action at context 1
        config = parse_config(json.dumps(config_doc()))
        from congames.cli import _load_game

        game = _load_game(config, 0)
        constraints = np.repeat(game.constraints[1][:, :, None], 2, axis=2)
        constraints[:, :, 1] = 1.0
        game.constraints[1] = constraints
        game_path = tmp_path / "game.json"
        game_path.write_text(game.to_json())
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_doc(game={"path": str(game_path)})))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: .game.path: {game_path}: player 1 has no feasible "
            "action at context 1\n"
        )
        assert not (out / "summary.json").exists()

    def test_round_one_halt_is_a_status(self, monkeypatch, tmp_path):
        real = Player.select_action

        def player_0_declares(self, z):
            if self.config.player_index == 0:
                raise InfeasibilityDeclared(0, z)
            return real(self, z)

        monkeypatch.setattr(Player, "select_action", player_0_declares)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_doc(T=5, seeds=[0])))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["statuses"] == {"0": "infeasibility_declared"}
        assert summary["errors"] == {}
        per_seed = summary["per_seed"]["0"]
        assert per_seed["num_rounds"] == 0
        assert (per_seed["infeasible_player"], per_seed["infeasible_round"]) == (0, 1)
        assert per_seed["cce_eps"] is None
        assert per_seed["final_regret"] == [0.0, 0.0]
        lines = (out / "rounds_seed0.csv").read_text().splitlines()
        assert lines == ["t,z,a0,a1,regret_p0,regret_p1,viol_p0_m0,viol_p1_m0"]

    def test_csv_values_match_twelve_digit_format(self, tmp_path):
        values = [-0.0, 1e-13, 123456789012345.0, 0.1 + 0.2, 1 / 3, -2.5e-300,
                  1e20, 7.0]
        rows = np.array([[1, 0, 2, 1] + values[:4], [2, 1, 0, 6] + values[4:]])
        _write_seed_csv(tmp_path, {
            "seed": 4, "num_players": 2, "num_constraints": 1, "rows": rows,
        })
        expected = "t,z,a0,a1,regret_p0,regret_p1,viol_p0_m0,viol_p1_m0\r\n"
        for labels, floats in (("1,0,2,1", values[:4]), ("2,1,0,6", values[4:])):
            expected += ",".join([labels] + [format(v, ".12g") for v in floats])
            expected += "\r\n"
        assert (tmp_path / "rounds_seed4.csv").read_bytes() == expected.encode()
        assert "-0,1e-13,1.23456789012e+14," in expected

    @pytest.mark.parametrize("num_rows", [0, 2 * 4096 + 3])
    def test_csv_rows_written_in_blocks(self, tmp_path, num_rows):
        rng = np.random.default_rng(num_rows)
        labels = rng.integers(0, 7, size=(num_rows, 4))
        floats = rng.standard_normal((num_rows, 4)) * 10.0 ** rng.integers(
            -20, 20, size=(num_rows, 4)
        )
        _write_seed_csv(tmp_path, {
            "seed": 0, "num_players": 2, "num_constraints": 1,
            "rows": np.column_stack([labels, floats]),
        })
        expected = "t,z,a0,a1,regret_p0,regret_p1,viol_p0_m0,viol_p1_m0\r\n"
        expected += "".join(
            ",".join([str(v) for v in ints] + [format(v, ".12g") for v in vals])
            + "\r\n"
            for ints, vals in zip(labels.tolist(), floats.tolist())
        )
        assert (tmp_path / "rounds_seed0.csv").read_bytes() == expected.encode()

    def test_malformed_game_file_names_player_and_shape(self, tmp_path, capsys):
        # the file is validated once, before any seed runs, and the error
        # names the table whichever actions the rounds would play
        config = parse_config(json.dumps(config_doc()))
        from congames.cli import _load_game

        doc = json.loads(_load_game(config, 0).to_json())
        doc["rewards"][0] = [plane[:2] for plane in doc["rewards"][0]]
        game_path = tmp_path / "game.json"
        game_path.write_text(json.dumps(doc))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_doc(
            seeds=[0], game={"path": str(game_path)},
            players=[{"algorithm": "random"}] * 2,
        )))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert (
            "player 0: reward table has shape (3, 2, 2), expected (3, 3, 2)"
        ) in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_factorization_error_is_a_run_status(self, monkeypatch, tmp_path):
        real = GpModel.add_observation

        def breaks_in_round_3(self, x, y):
            if self.num_observations == 2:
                raise FactorizationError("forced breakdown")
            return real(self, x, y)

        monkeypatch.setattr(GpModel, "add_observation", breaks_in_round_3)
        doc = config_doc(seeds=[0], players=[
            {"algorithm": "random"},
            {"algorithm": "cz_ada_normal_gp", "beta_scale": 0.2},
        ])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["statuses"] == {"0": "factorization_error"}
        assert summary["errors"] == {}
        per_seed = summary["per_seed"]["0"]
        assert per_seed["failed_player"] == 1
        assert per_seed["failed_round"] == 3
        assert per_seed["num_rounds"] == 2
        assert per_seed["infeasible_player"] is None
        lines = (out / "rounds_seed0.csv").read_text().splitlines()
        assert len(lines) == 1 + 2

    def test_summary_lists_a_halted_seed_outside_the_aggregate(self, tmp_path, capsys):
        # the default game at a narrow beta: one seed plays all T rounds, the
        # other declares infeasibility early (seed 9, in round 235)
        T = 1000
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "game": {"generate": {}}, "T": T, "seeds": [8, 9],
            "players": [{"algorithm": "cz_ada_normal_gp", "beta_scale": 0.15}, {}, {}],
        }))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        statuses = summary["statuses"]
        assert statuses == {"8": "completed", "9": "infeasibility_declared"}
        per_seed = summary["per_seed"]
        assert per_seed["9"]["num_rounds"] < T == per_seed["8"]["num_rounds"]
        aggregate = summary["aggregate"]
        assert aggregate["num_complete"] == 1
        assert aggregate["mean_final_regret"] == per_seed["8"]["final_regret"]
        assert [curve[-1] for curve in aggregate["mean_regret"]] == (
            per_seed["8"]["final_regret"])
        # summary.json is the one across-seed record: no command re-reads the CSVs
        with pytest.raises(SystemExit) as exc:
            main(["report", str(out)])
        assert exc.value.code == 2
        assert "invalid choice: 'report'" in capsys.readouterr().err


class TestGenerateGame:
    def test_generate_and_reuse(self, config_path, tmp_path):
        game_path = tmp_path / "game.json"
        assert main(["generate-game", str(config_path), "--out",
                     str(game_path)]) == 0
        game = GameDefinition.from_json(game_path.read_text())
        assert game.num_players == 2
        for i in range(game.num_players):
            assert game.feasible_actions(i).any(axis=1).all()

    @pytest.mark.parametrize("generate, params, digest", [
        ({}, {}, "238773e60575f856cb122290122667ca85e900b612ac3441cfd86d63fec57a7e"),
        ({"num_constraints": 2, "K": 4, "Z": 3},
         {"num_constraints": 2, "num_actions": 4, "num_contexts": 3},
         "58184a57477edb9903cc379687bf58b39960c04252750d2228b6e02a8400f1d7"),
    ], ids=["default", "M2-K4-Z3"])
    def test_game_file_bytes(self, tmp_path, generate, params, digest):
        # the file is the library's game, metadata included, byte for byte
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"game": {"generate": generate}, "T": 1}))
        game_path = tmp_path / "game.json"
        assert main(["generate-game", str(path), "--out", str(game_path)]) == 0
        text = game_path.read_text()
        assert text == generate_random_game(0, **params).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_missing_out_dir_is_config_error(self, config_path, tmp_path, capsys):
        out = tmp_path / "missing" / "g.json"
        assert main(["generate-game", str(config_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: --out: [Errno 2] No such file or directory: '{out}'\n"
        )

    def test_requires_generate_block(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config_doc(game={"path": "x.json"})))
        assert main(["generate-game", str(path), "--out",
                     str(tmp_path / "g.json")]) == 1


class TestBuildPlayer:
    """One value per learner setting, and the algorithm decides the rest."""

    GAME = generate_random_game(
        1, num_players=2, num_actions=3, num_contexts=2, num_constraints=2
    )

    @pytest.mark.parametrize("algorithm, constraint_targets", [
        (CZ_ADA_NORMAL_GP, 2), (C_ADA_NORMAL_GP, 2), (Z_GPMW, 0), (GPMW, 0),
    ])
    def test_one_confidence_block(self, algorithm, constraint_targets):
        block = PlayerBlock(algorithm=algorithm, noise_scale=0.5, delta=0.05,
                            rkhs_bound=2.0)
        player = build_player(block, self.GAME, 0, seed=3)
        assert player.reward_gp.noise_variance == 0.5**2
        assert player.reward_gp.outputs == ()
        # one model carries the M constraints as target columns
        assert [gp.outputs for gp in player.constraint_gps] == (
            [(constraint_targets,)] if constraint_targets else [])
        for gp in player.constraint_gps:
            assert gp.noise_variance == 0.5**2
            assert gp.kernel == player.config.constraint_kernel
        assert player.config.num_constraints == 2
        confidence = player.config.confidence
        assert (confidence.rkhs_bound, confidence.noise_scale,
                confidence.failure_prob, confidence.num_constraints) == (
            2.0, 0.5, 0.05, 2)

    def test_num_constraints_is_read_only(self):
        player = build_player(PlayerBlock(algorithm=CZ_ADA_NORMAL_GP), self.GAME, 0, 0)
        with pytest.raises(AttributeError):
            player.config.num_constraints = 1


class TestRunSeedInternals:
    def test_bounds_present_for_learning_players(self, config_path):
        config = parse_config(config_path.read_text())
        result = run_seed(config, 0)
        assert "0" in result["bounds"]          # learner
        assert "1" not in result["bounds"]      # random baseline
        assert result["bounds"]["0"]["regret_bound"] > 0

    def test_regret_series_lengths(self, config_path):
        config = parse_config(config_path.read_text())
        result = run_seed(config, 0)
        assert len(result["regret"][0]) == config.T
        assert len(result["violations"][0][0]) == config.T


def json_text(obj) -> str:
    """``obj`` as ``summary.json`` writes it: the pieces ``_encode`` writes, joined."""
    out: list[str] = []
    _encode(obj, "\n", out.append)
    return "".join(out)


def round12_reference(obj):
    """The rounding ``_encode`` folds in, one value at a time."""
    if isinstance(obj, float):
        return float(format(float(obj), ".12g"))
    if isinstance(obj, dict):
        return {k: round12_reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round12_reference(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [round12_reference(float(v)) for v in obj.ravel()]
    if isinstance(obj, np.floating):
        return float(format(float(obj), ".12g"))
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


EDGE_FLOATS = [-0.0, 5e-324, 999999999999.5, 9.99999999999995, 1e16,
               float("nan"), float("inf"), -float("inf"), 99999999999.99, 1e11,
               999999999999.6, 1e-300, 9.99e-301, 2.2250738585072014e-308,
               1e-310, 2.9999999999999, 7.0]
FLOATS = st.sampled_from(EDGE_FLOATS) | st.floats()
SCALARS = (
    FLOATS
    | st.integers()
    | st.booleans()
    | st.none()
    | st.text()
    | st.sampled_from(['"quoted"', "back\\slash", "tab\tnew\nline", "\x00\x1f",
                       "caf\u00e9", "\u2028", "\U0001f600", "\ud800"])
    | FLOATS.map(np.float64)
    | st.floats(width=32).map(np.float32)
    | st.integers(-2**63, 2**63 - 1).map(np.int64)
)
ARRAYS = hnp.arrays(
    st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
)
DOCUMENTS = st.recursive(
    SCALARS | ARRAYS | st.lists(FLOATS) | st.lists(FLOATS).map(tuple),
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.dictionaries(st.text(max_size=8), inner, max_size=5)
        | st.dictionaries(st.integers(), inner, max_size=3)
    ),
    max_leaves=30,
)


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @given(DOCUMENTS)
    def test_matches_indented_json_of_rounded_values(self, obj):
        assert json_text(obj) == json.dumps(
            round12_reference(obj), indent=2, sort_keys=True
        )

    def test_edge_floats(self):
        obj = {"floats": EDGE_FLOATS, "array": np.array(EDGE_FLOATS),
               "scalars": [np.float64(v) for v in EDGE_FLOATS], "empty": [[], {}]}
        assert json_text(obj) == json.dumps(
            round12_reference(obj), indent=2, sort_keys=True
        )
        assert '\n    1000000000000.0,\n    10.0,\n    1e+16,' in json_text(obj)

    @pytest.mark.parametrize("value", EDGE_FLOATS)
    def test_edge_float_among_plain_values(self, value):
        # the other values alone would be written from their %.12g text
        obj = {"values": [0.25, value, 3.0, -0.0]}
        assert json_text(obj) == json.dumps(
            round12_reference(obj), indent=2, sort_keys=True
        )

    @pytest.mark.parametrize("scale", [1e-8, 1e-5, 1e-2, 1.0, 1e3, 1e6, 1e7, 1e10])
    def test_cumulative_sums_at_scale(self, scale):
        # curves like the summary's regret and violation curves, 20000
        # rounds long, some of them integral
        rng = np.random.default_rng(int(np.log10(scale)) + 8)
        curve = np.cumsum(rng.random(20000) * scale)
        drift = np.cumsum((rng.random(20000) - 0.7) * scale)
        floored = curve.copy()
        floored[::10] = np.floor(floored[::10])
        counts = np.cumsum(rng.integers(0, 3, 20000)).astype(float)
        obj = {"curve": curve, "drift": drift.tolist(), "floored": floored,
               "counts": counts.tolist(), "scaled_counts": counts * scale}
        # compared by lines: a failing diff of the whole text takes minutes
        assert json_text(obj).splitlines() == json.dumps(
            round12_reference(obj), indent=2, sort_keys=True
        ).splitlines()
