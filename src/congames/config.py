"""Experiment configuration: strict JSON parsing with defaults.

Unknown keys are rejected and every error names the offending path, so a
misspelled field fails loudly instead of silently running defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .kernels import KernelSpec, kernel_from_config
from .strategy import ALGORITHMS, RANDOM

DEFAULT_DELTA = 0.1
DEFAULT_NOISE_SCALE = 1.0
DEFAULT_RKHS_BOUND = 1.0


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require_keys(obj: dict, allowed: set[str], required: set[str], path: str):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}.{key}", "missing required key")


@dataclass
class GeneratorParams:
    num_players: int = 3
    num_actions: int = 7
    num_contexts: int = 5
    num_constraints: int = 1
    num_gp_samples: int = 10
    points_per_sample: int = 10
    obs_noise: float = 0.1
    noise_scale: float = DEFAULT_NOISE_SCALE
    feasible_quantile: float = 0.25


@dataclass
class GameBlock:
    generate: GeneratorParams | None = None
    path: str | None = None


@dataclass
class PlayerBlock:
    algorithm: str = RANDOM
    delta: float = DEFAULT_DELTA
    rkhs_bound: float = DEFAULT_RKHS_BOUND
    noise_scale: float = DEFAULT_NOISE_SCALE
    beta_scale: float = 1.0
    reward_kernel: KernelSpec | None = None       # None: generator defaults
    constraint_kernel: KernelSpec | None = None
    expert_rule: str | None = None


@dataclass
class ScheduleBlock:
    mode: str = "uniform_iid"
    contexts: list[int] = field(default_factory=list)


@dataclass
class ExperimentConfig:
    game: GameBlock
    T: int
    seeds: list[int]
    players: list[PlayerBlock]
    schedule: ScheduleBlock
    output_dir: str | None = None
    bound_checks: bool = True


def _parse_generator(obj: dict, path: str) -> GeneratorParams:
    allowed = {
        "num_players", "num_actions", "num_contexts", "num_constraints",
        "num_gp_samples", "points_per_sample", "obs_noise", "noise_scale",
        "feasible_quantile", "K", "Z",
    }
    _require_keys(obj, allowed, set(), path)
    params = GeneratorParams()
    # K and Z are accepted shorthands for the action and context counts
    mapping = {"K": "num_actions", "Z": "num_contexts"}
    for key, value in obj.items():
        setattr(params, mapping.get(key, key), value)
    if params.num_actions < 2:
        raise ConfigError(f"{path}.num_actions", "must be at least 2")
    if params.num_contexts < 1:
        raise ConfigError(f"{path}.num_contexts", "must be at least 1")
    return params


def _parse_player(obj: dict, path: str) -> PlayerBlock:
    allowed = {
        "algorithm", "delta", "rkhs_bound", "noise_scale", "beta_scale",
        "reward_kernel", "constraint_kernel", "expert_rule",
    }
    _require_keys(obj, allowed, set(), path)
    block = PlayerBlock()
    for key in ("algorithm", "expert_rule"):
        if key in obj:
            setattr(block, key, obj[key])
    for key in ("delta", "rkhs_bound", "noise_scale", "beta_scale"):
        if key in obj:
            setattr(block, key, float(obj[key]))
    for key in ("reward_kernel", "constraint_kernel"):
        if key in obj:
            try:
                setattr(block, key, kernel_from_config(obj[key]))
            except Exception as exc:
                raise ConfigError(f"{path}.{key}", str(exc)) from exc
    if block.algorithm not in ALGORITHMS:
        raise ConfigError(
            f"{path}.algorithm",
            f"must be one of {', '.join(ALGORITHMS)}",
        )
    if not 0.0 < block.delta < 1.0:
        raise ConfigError(f"{path}.delta", "must lie in (0, 1)")
    for key in ("rkhs_bound", "noise_scale"):
        if not getattr(block, key) > 0.0:
            raise ConfigError(f"{path}.{key}", "must be positive")
    # a negative scale turns the LCB feasibility filter into an upper bound
    if not block.beta_scale >= 0.0:
        raise ConfigError(f"{path}.beta_scale", "must be nonnegative")
    return block


def parse_config(text: str) -> ExperimentConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("", "top level must be an object")
    allowed = {
        "game", "T", "seeds", "players", "context_schedule", "output_dir",
        "bound_checks",
    }
    _require_keys(doc, allowed, {"game", "T"}, "")

    game_obj = doc["game"]
    _require_keys(game_obj, {"generate", "path"}, set(), ".game")
    if ("generate" in game_obj) == ("path" in game_obj):
        raise ConfigError(".game", "exactly one of 'generate' or 'path' required")
    if "generate" in game_obj:
        game = GameBlock(generate=_parse_generator(game_obj["generate"], ".game.generate"))
    else:
        game = GameBlock(path=str(game_obj["path"]))

    T = doc["T"]
    if not isinstance(T, int) or T < 1:
        raise ConfigError(".T", "must be a positive integer")

    seeds = doc.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds or not all(
        isinstance(s, int) for s in seeds
    ):
        raise ConfigError(".seeds", "must be a non-empty list of integers")

    players_obj = doc.get("players")
    if players_obj is None:
        num_players = game.generate.num_players if game.generate else 0
        players = [PlayerBlock() for _ in range(num_players)]
    else:
        if not isinstance(players_obj, list) or not players_obj:
            raise ConfigError(".players", "must be a non-empty list")
        players = [
            _parse_player(p, f".players[{i}]") for i, p in enumerate(players_obj)
        ]
    if game.generate and players and len(players) != game.generate.num_players:
        raise ConfigError(".players", "player count must match the game")

    sched_obj = doc.get("context_schedule", {"mode": "uniform_iid"})
    _require_keys(sched_obj, {"mode", "contexts"}, set(), ".context_schedule")
    schedule = ScheduleBlock(mode=sched_obj.get("mode", "uniform_iid"))
    if schedule.mode not in ("uniform_iid", "fixed_sequence"):
        raise ConfigError(".context_schedule.mode", "unknown schedule mode")
    if schedule.mode == "fixed_sequence":
        contexts = sched_obj.get("contexts")
        if not contexts:
            raise ConfigError(".context_schedule.contexts", "must be non-empty")
        schedule.contexts = [int(z) for z in contexts]
        if game.generate is not None:
            num_contexts = game.generate.num_contexts
            for z in schedule.contexts:
                if not 0 <= z < num_contexts:
                    raise ConfigError(
                        ".context_schedule.contexts",
                        f"context {z} is outside [0, {num_contexts})",
                    )

    return ExperimentConfig(
        game=game,
        T=T,
        seeds=list(seeds),
        players=players,
        schedule=schedule,
        output_dir=doc.get("output_dir"),
        bound_checks=bool(doc.get("bound_checks", True)),
    )
