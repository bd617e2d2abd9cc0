"""Experiment orchestration and command-line entry points.

Subcommands::

    congames run <config.json> [--out DIR] [--parallel N]
    congames generate-game <config.json> --out FILE

Outputs are deterministic under a fixed config: per-seed per-round CSVs,
an aggregate ``summary.json``, and a metadata stamp.  Numbers are written
with 12 significant digits.  Each seed's CSV is written as its result
arrives, and ``summary.json`` is encoded piece by piece into a temporary
file that replaces it once complete.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys
import traceback
from collections.abc import Callable, Iterator
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import game as game_mod
from . import metrics as metrics_mod
from .config import (
    ConfigError,
    ExperimentConfig,
    PlayerBlock,
    check_game_shape,
    learner_config,
    parse_config,
)
from .strategy import RANDOM, Player, UniformPlayer

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

_SEED_STRIDE = 1_000_003
_CSV_BLOCK_ROWS = 4096
# who halted a run and in which round, as its trajectory records them
_HALT_FIELDS = ("infeasible_player", "infeasible_round", "failed_player", "failed_round")
# a seed's entry in summary.json
_PER_SEED_FIELDS = (
    "final_regret", "final_violations", "cce_eps", "bounds", "num_rounds", *_HALT_FIELDS,
)


# the thread variables of OpenBLAS, OpenMP and MKL, read once, when BLAS loads
BLAS_THREADS = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
}


@contextmanager
def worker_pool(max_workers: int) -> Iterator[ProcessPoolExecutor]:
    """A process pool whose workers run BLAS on one thread each.

    Workers are spawned, not forked, so each loads BLAS afresh with
    :data:`BLAS_THREADS` in its environment: a forked worker inherits the
    BLAS its parent already started, which no variable pins any more, and
    workers that each run a multithreaded BLAS on a few cores make their
    small solves contend.  The pool starts workers as jobs arrive, so the
    variables are set in this process for as long as the pool lives and
    restored when it closes.  A serial run never loads the pool modules.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    saved = {name: os.environ.get(name) for name in BLAS_THREADS}
    os.environ.update(BLAS_THREADS)
    try:
        with ProcessPoolExecutor(
            max_workers=max_workers, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            yield pool
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _float_items(values: np.ndarray, newline: str) -> str:
    """The items of a JSON array of the 1-D float array ``values``, each
    rounded to 12 significant digits as ``float(format(x, ".12g"))``
    rounds it, written as ``json`` writes them.  If all are finite and
    each nonzero |x| is in [1e-300, 1e11), the ``%.12g`` text is the repr
    of the rounded value once integral tokens (``3``, ``-0``) get their
    ``.0``: a decimal of at most 15 (DBL_DIG) digits parses to a double
    whose repr has those digits, and both formats take an exponent below
    1e-4.  The guard keeps out subnormals (``4.94065645841e-324``, repr
    ``5e-324``) and values that round to 1e12 (``1e+12``); other arrays
    are parsed back by numpy and written by the C encoder."""
    text = ("%.12g," * len(values))[:-1] % tuple(values.tolist())
    magnitudes = np.abs(values)
    if np.all((magnitudes < 1e11) & ((magnitudes >= 1e-300) | (magnitudes == 0.0))):
        return ("," + newline).join([
            token if "." in token or "e" in token else token + ".0"
            for token in text.split(",")
        ])
    rounded = np.fromstring(text, sep=",").tolist()
    return json.dumps(rounded)[1:-1].replace(", ", "," + newline)


def _json_key(key) -> str:
    """A dict key as ``json`` writes it: a string, or the quoted JSON text
    of a number, bool or None."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(
                "keys must be str, int, float, bool or None, "
                f"not {type(key).__name__}"
            )
        key = json.dumps(key)
    return json.dumps(key)


def _encode(obj, newline: str, write: Callable[[str], object]) -> None:
    """Pass the JSON text of ``obj`` to ``write`` in pieces: a key, a
    scalar, or a whole list of floats; ``newline`` is the line break and
    indent of the enclosing level.  Joined, the pieces are ``json.dumps(obj,
    indent=2, sort_keys=True)`` with floats rounded to 12 significant digits."""
    if isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            write(sep + _json_key(key) + ": ")
            _encode(value, inner, write)
            sep = "," + inner
        write(newline + "}")
    elif isinstance(obj, np.ndarray):
        if not obj.size:
            write("[]")
            return
        inner = newline + "  "
        values = obj.ravel().astype(float)
        write("[" + inner + _float_items(values, inner) + newline + "]")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        inner = newline + "  "
        if all(isinstance(v, float) for v in obj):
            write("[" + inner + _float_items(np.array(obj), inner) + newline + "]")
            return
        sep = "[" + inner
        for value in obj:
            write(sep)
            _encode(value, inner, write)
            sep = "," + inner
        write(newline + "]")
    elif isinstance(obj, (float, np.floating)):
        write(json.dumps(float(format(float(obj), ".12g"))))
    elif isinstance(obj, np.integer):
        write(json.dumps(int(obj)))
    else:
        write(json.dumps(obj))


def build_player(
    block: PlayerBlock,
    game: game_mod.GameDefinition,
    player_index: int,
    seed: int,
) -> Player | UniformPlayer:
    """Instantiate one player from its config block and the game shape:
    a learner, or the random baseline for ``algorithm: random``."""
    if block.algorithm == RANDOM:
        return UniformPlayer(game.num_actions, seed)
    return Player(learner_config(block, player_index, game.num_players, game.num_actions,
                                 game.num_contexts, game.num_constraints, seed))


def _load_game(config: ExperimentConfig, seed: int) -> game_mod.GameDefinition:
    """The seed's generated game, or the config's game file."""
    if config.game.generate is not None:
        return game_mod.generate_random_game(
            seed, **dataclasses.asdict(config.game.generate)
        )
    return _check_game_file(config)


@game_mod.one_blas_thread()
def run_seed(
    config: ExperimentConfig,
    seed: int,
    game: game_mod.GameDefinition | None = None,
) -> dict:
    """Run one seed end to end and return plain-data results.

    ``game`` is the seed's game when the caller has built it already;
    without it the seed loads or generates its own.  BLAS runs on one
    thread throughout (:func:`game.one_blas_thread`): the GP algebra is
    small products that a second thread does not speed up, and a
    threaded product may round differently.
    """
    if game is None:
        game = _load_game(config, seed)
    base = _SEED_STRIDE * seed
    if config.schedule.mode == "fixed_sequence":
        contexts = game_mod.fixed_schedule(config.schedule.contexts, config.T)
    else:
        contexts = game_mod.uniform_finite_schedule(
            game.num_contexts, config.T, base + 1
        )
    players = [
        build_player(block, game, i, base + 10 + i)
        for i, block in enumerate(config.players)
    ]
    trajectory = game_mod.run(game, players, contexts, noise_seed=base + 2)
    report = metrics_mod.compute_report(trajectory, game)

    bounds = {}
    if config.bound_checks:
        for i, player in enumerate(players):
            if not isinstance(player, Player):
                continue
            regret_bound, violation_bounds = metrics_mod.theorem_bounds(
                num_actions=game.num_actions,
                num_contexts=game.num_contexts,
                T=max(trajectory.num_rounds, 1),
                confidence=player.config.confidence,
                reward_info_gain=player.reward_gp.running_info_gain,
                constraint_info_gain=(player.constraint_gps[0].running_info_gain
                                      if player.constraint_gps else None),
                expert_magnitudes=player.router.magnitudes(),
            )
            bounds[str(i)] = {
                "regret_bound": regret_bound,
                "violation_bounds": violation_bounds,
            }

    # per round: t, z, the joint action, then each player's regret and
    # each player's violations
    rows = np.column_stack(
        [np.arange(1, trajectory.num_rounds + 1), trajectory.contexts,
         trajectory.actions]
        + [report.regret[i] for i in range(game.num_players)]
        + [report.violations[i].T for i in range(game.num_players)]
    )

    return {
        "seed": seed,
        "status": trajectory.status,
        **{name: getattr(trajectory, name) for name in _HALT_FIELDS},
        "num_rounds": trajectory.num_rounds,
        "num_players": game.num_players,
        "num_constraints": game.num_constraints,
        "rows": rows,
        "final_regret": [report.final_regret(i) for i in range(game.num_players)],
        "final_violations": [
            report.final_violations(i).tolist() for i in range(game.num_players)
        ],
        "regret": [report.regret[i] for i in range(game.num_players)],
        "violations": [report.violations[i] for i in range(game.num_players)],
        "cce_eps": report.cce_eps,
        "bounds": bounds,
    }


def _csv_header(num_players: int, num_constraints: int) -> list[str]:
    header = ["t", "z"] + [f"a{i}" for i in range(num_players)]
    header += [f"regret_p{i}" for i in range(num_players)]
    for i in range(num_players):
        header += [f"viol_p{i}_m{m}" for m in range(num_constraints)]
    return header


def _write_seed_csv(out_dir: Path, result: dict) -> None:
    # integers for t, z and the actions, 12 significant digits for the
    # rest, and csv.writer's line ending; one % per block of rows
    header = _csv_header(result["num_players"], result["num_constraints"])
    labels = 2 + result["num_players"]
    line = ",".join(["%d"] * labels + ["%.12g"] * (len(header) - labels)) + "\r\n"
    rows = result["rows"]
    path = out_dir / f"rounds_seed{result['seed']}.csv"
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(rows), _CSV_BLOCK_ROWS):
            block = rows[start:start + _CSV_BLOCK_ROWS]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def _aggregate(results: list[dict], T: int) -> dict:
    """Across-seed means and stds of the complete seeds' curves: a 1-D
    array per player, and per player and constraint for violations."""
    complete = [r for r in results if r.get("status") == "completed" and r["num_rounds"] == T]
    agg: dict = {"num_complete": len(complete)}
    if complete:
        num_players = complete[0]["num_players"]
        regret = np.array([r["regret"] for r in complete])  # (S, N, T)
        agg["mean_regret"] = list(regret.mean(axis=0))
        agg["std_regret"] = list(regret.std(axis=0))
        viols = np.array([r["violations"] for r in complete])  # (S, N, M, T)
        agg["mean_violations"] = [list(player) for player in viols.mean(axis=0)]
        agg["std_violations"] = [list(player) for player in viols.std(axis=0)]
        agg["mean_final_regret"] = [
            float(np.mean([r["final_regret"][i] for r in complete]))
            for i in range(num_players)
        ]
    return agg


def _write_summary(out_dir: Path, summary: dict) -> None:
    """Write ``summary.json`` as :func:`_encode` produces it, through a
    temporary sibling that replaces it only once the text is complete."""
    tmp = out_dir / "summary.json.tmp"
    try:
        with tmp.open("w") as fh:
            _encode(summary, "\n", fh.write)
        os.replace(tmp, out_dir / "summary.json")
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def run_experiment(
    config: ExperimentConfig,
    out_dir: Path,
    parallel: int = 1,
    game: game_mod.GameDefinition | None = None,
) -> int:
    """Run all seeds, write outputs, and return the process exit code.

    ``game``, the config's game file loaded once, is played by every seed.
    With ``parallel > 1`` the seeds run in a :func:`worker_pool`.  Each
    seed's CSV is written as its result arrives, in seed order, and its
    per-round rows are then dropped; ``summary.json`` is written last.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    results: list[dict] = []
    failures: dict[int, str] = {}
    with ExitStack() as stack:
        # per seed, a call that returns its result or raises its error
        if parallel > 1:
            pool = stack.enter_context(worker_pool(parallel))
            calls = [(s, pool.submit(run_seed, config, s, game).result)
                     for s in config.seeds]
        else:
            calls = [(s, functools.partial(run_seed, config, s, game))
                     for s in config.seeds]
        for s, call in calls:
            try:
                result = call()
            except Exception:
                failures[s] = traceback.format_exc()
                continue
            _write_seed_csv(out_dir, result)
            del result["rows"]
            results.append(result)

    summary = {
        "statuses": {
            str(r["seed"]): r["status"] for r in results
        } | {str(s): "error" for s in failures},
        "errors": failures,
        "per_seed": {
            str(r["seed"]): {name: r[name] for name in _PER_SEED_FIELDS}
            for r in results
        },
        "aggregate": _aggregate(results, config.T),
    }
    _write_summary(out_dir, summary)
    return 2 if failures else 0


def _metadata_stamp(config_text: str, config: ExperimentConfig) -> dict:
    return {
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "generator_scheme": game_mod.GENERATOR_SCHEME,
        "seeds": config.seeds,
        "T": config.T,
    }


def _check_game_file(config: ExperimentConfig) -> game_mod.GameDefinition:
    """Read the config's game file, which ``from_json`` checks, and check the
    game against the config: ``congames run`` reads it once, before any
    seed runs, and every seed plays the game returned."""
    path = config.game.path
    try:
        game = game_mod.GameDefinition.from_json(Path(path).read_text())
    except (OSError, ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(".game.path", f"{path}: {exc}") from exc
    check_game_shape(config, game.num_players, game.num_actions, game.num_contexts,
                     game.num_constraints)
    return game


def cmd_run(args) -> int:
    try:
        text = Path(args.config).read_text()
        config = parse_config(text)
        game = None if config.game.path is None else _check_game_file(config)
        if args.parallel < 1:
            raise ConfigError("--parallel", "must be at least 1")
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out or "out")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "metadata.json").write_text(
            json.dumps(_metadata_stamp(text, config), indent=2, sort_keys=True)
        )
    except OSError as exc:
        print(f"config error: --out: {exc}", file=sys.stderr)
        return 1
    return run_experiment(config, out_dir, parallel=args.parallel, game=game)


def cmd_generate_game(args) -> int:
    try:
        config = parse_config(Path(args.config).read_text())
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if config.game.generate is None:
        print("config error: .game.generate block required", file=sys.stderr)
        return 1
    game = _load_game(config, config.seeds[0])
    try:
        Path(args.out).write_text(game.to_json())
    except OSError as exc:
        print(f"config error: --out: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="congames",
        description="Repeated contextual games with unknown constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--parallel", type=int, default=1)
    p_run.set_defaults(func=cmd_run)

    p_gen = sub.add_parser("generate-game", help="write a serialized game")
    p_gen.add_argument("config")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_generate_game)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
