"""Experiment configuration: strict JSON parsing with defaults.

Unknown and repeated keys are rejected and every error names the
offending path, so a misspelled or doubled field fails loudly instead of
silently running defaults or the last value given.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .kernels import KERNEL_TYPES, KernelError, KernelSpec, diag
from .strategy import ALGORITHMS, RANDOM, USES_CONSTRAINTS, USES_CONTEXT

DEFAULT_DELTA = 0.1
DEFAULT_NOISE_SCALE = 1.0
DEFAULT_RKHS_BOUND = 1.0
# the most entries numpy can index along one array: a horizon or a reward
# table beyond it cannot be built on any machine
MAX_ENTRIES = int(np.iinfo(np.intp).max)


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


# the value of a key that a JSON object gives more than once
_REPEATED = object()


def _json_object(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        obj[key] = _REPEATED if key in obj else value
    return obj


def _reject_repeats(value, path: str) -> None:
    """Raise on a key given twice in any object of the document."""
    if isinstance(value, dict):
        for key, item in value.items():
            if item is _REPEATED:
                raise ConfigError(f"{path}.{key}", "given more than once")
            _reject_repeats(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _reject_repeats(item, f"{path}[{i}]")


def parse_json(text: str):
    """``json.loads(text)`` that raises ``ConfigError``, naming the path,
    on a key given twice in any object, where ``json`` keeps the last."""
    doc = json.loads(text, object_pairs_hook=_json_object)
    _reject_repeats(doc, "")
    return doc


def _require_keys(obj: dict, allowed: set[str], required: set[str], path: str):
    if not isinstance(obj, dict):
        raise ConfigError(path, "must be an object" if path else "top level must be an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", "unknown key")
    for key in sorted(required):  # a set's order changes with the hash seed
        if key not in obj:
            raise ConfigError(f"{path}.{key}", "missing required key")


def _integer(value, path: str, minimum: int | None = None) -> int:
    # bool is an int subclass, but true is not a count
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, "must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be at least {minimum}")
    return value


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, "must be a number")
    # false for NaN, +-inf and an int beyond the float range
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(path, "must be finite")
    return value


def parse_kernel(obj, path: str) -> KernelSpec:
    """Build a kernel from its tagged config object.

    ``type`` names a :data:`~congames.kernels.KERNEL_TYPES` class, whose
    dataclass fields are the other keys: a field without a default is
    required, an ``int`` field takes a JSON integer, a ``float`` field a
    JSON number and any other field a nested kernel object."""
    if not isinstance(obj, dict):
        raise ConfigError(path, "must be an object")
    tag = obj.get("type")
    if not isinstance(tag, str) or tag not in KERNEL_TYPES:
        raise ConfigError(f"{path}.type", f"must be one of {', '.join(KERNEL_TYPES)}")
    cls = KERNEL_TYPES[tag]
    params = fields(cls)
    _require_keys(obj, {"type", *(f.name for f in params)},
                  {f.name for f in params if f.default is MISSING}, path)
    values = {}
    for f in params:
        if f.name not in obj:
            continue
        value, where = obj[f.name], f"{path}.{f.name}"
        if f.type == "int":
            values[f.name] = _integer(value, where)
        elif f.type == "float":
            values[f.name] = float(_number(value, where))
        else:
            values[f.name] = parse_kernel(value, where)
    try:
        return cls(**values)
    except KernelError as exc:
        raise ConfigError(path, str(exc)) from exc


@dataclass
class GeneratorParams:
    """The random-game generator's parameters and their defaults: each
    field is a ``game.generate`` config key and a keyword of
    ``game.generate_random_game``."""

    num_players: int = 3
    num_actions: int = 7
    num_contexts: int = 5
    num_constraints: int = 1
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
    bound_checks: bool = True


# the least value of each generator count; K and Z are accepted
# shorthands for the action and context counts
_GENERATOR_COUNTS = {
    "num_players": 2, "num_actions": 2, "num_contexts": 1, "num_constraints": 0,
}
_SHORTHANDS = {"K": "num_actions", "Z": "num_contexts"}


def _parse_generator(obj: dict, path: str) -> GeneratorParams:
    _require_keys(obj, {*(f.name for f in fields(GeneratorParams)), *_SHORTHANDS},
                  set(), path)
    params, keys = GeneratorParams(), {}
    for key, value in obj.items():
        name = _SHORTHANDS.get(key, key)
        if keys.setdefault(name, key) != key:
            raise ConfigError(f"{path}.{key}", f"sets {name} again, after {keys[name]}")
        if name in _GENERATOR_COUNTS:
            _integer(value, f"{path}.{key}", _GENERATOR_COUNTS[name])
            if value > MAX_ENTRIES:
                raise ConfigError(f"{path}.{key}", f"must be at most {MAX_ENTRIES}")
        else:
            _number(value, f"{path}.{key}")
        setattr(params, name, value)
    if not params.noise_scale >= 0.0:
        raise ConfigError(f"{path}.noise_scale", "must be nonnegative")
    if not 0.0 <= params.feasible_quantile <= 1.0:
        raise ConfigError(f"{path}.feasible_quantile", "must lie in [0, 1]")
    # a player's reward table has K**N * Z entries; multiplying up stops
    # past the bound, so a large N costs at most 63 steps
    entries = params.num_contexts
    for _ in range(params.num_players):
        entries *= params.num_actions
        if entries > MAX_ENTRIES:
            K, N, Z = (keys.get(n, n) for n in ("num_actions", "num_players", "num_contexts"))
            raise ConfigError(
                path, f"{K}**{N} * {Z} reward-table entries exceed {MAX_ENTRIES}"
            )
    return params


def _parse_player(obj: dict, path: str) -> PlayerBlock:
    allowed = {
        "algorithm", "delta", "rkhs_bound", "noise_scale", "beta_scale",
        "reward_kernel", "constraint_kernel",
    }
    _require_keys(obj, allowed, set(), path)
    block = PlayerBlock(algorithm=obj.get("algorithm", RANDOM))
    for key in ("delta", "rkhs_bound", "noise_scale", "beta_scale"):
        if key in obj:
            setattr(block, key, float(_number(obj[key], f"{path}.{key}")))
    for key in ("reward_kernel", "constraint_kernel"):
        if key in obj:
            setattr(block, key, parse_kernel(obj[key], f"{path}.{key}"))
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
    # sigma^2 is the noise variance of every GP the player builds
    if not 0.0 < block.noise_scale * block.noise_scale < math.inf:
        raise ConfigError(f"{path}.noise_scale", "its square must be a positive finite number")
    # a negative scale turns the LCB feasibility filter into an upper bound
    if not block.beta_scale >= 0.0:
        raise ConfigError(f"{path}.beta_scale", "must be nonnegative")
    return block


def parse_config(text: str) -> ExperimentConfig:
    try:
        doc = parse_json(text)
    except ConfigError:
        raise
    except ValueError as exc:  # malformed, or an int of too many digits
        raise ConfigError("", f"invalid JSON: {exc}") from exc
    allowed = {
        "game", "T", "seeds", "players", "context_schedule", "bound_checks",
    }
    _require_keys(doc, allowed, {"game", "T"}, "")

    game_obj = doc["game"]
    _require_keys(game_obj, {"generate", "path"}, set(), ".game")
    if ("generate" in game_obj) == ("path" in game_obj):
        raise ConfigError(".game", "exactly one of 'generate' or 'path' required")
    if "generate" in game_obj:
        game = GameBlock(generate=_parse_generator(game_obj["generate"], ".game.generate"))
    elif isinstance(game_obj["path"], str):
        game = GameBlock(path=game_obj["path"])
    else:
        raise ConfigError(".game.path", "must be a string")

    T = _integer(doc["T"], ".T", 1)
    if T > MAX_ENTRIES:
        raise ConfigError(".T", f"must be at most {MAX_ENTRIES}")

    seeds = doc.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError(".seeds", "must be a non-empty list of integers")
    for i, s in enumerate(seeds):
        _integer(s, f".seeds[{i}]", 0)
        # a repeated seed would count one run twice in the aggregate
        if seeds.index(s) < i:
            raise ConfigError(f".seeds[{i}]", f"repeats seed {s}")

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

    sched_obj = doc.get("context_schedule", {"mode": "uniform_iid"})
    _require_keys(sched_obj, {"mode", "contexts"}, set(), ".context_schedule")
    schedule = ScheduleBlock(mode=sched_obj.get("mode", "uniform_iid"))
    if schedule.mode not in ("uniform_iid", "fixed_sequence"):
        raise ConfigError(".context_schedule.mode", "unknown schedule mode")
    if schedule.mode == "fixed_sequence":
        contexts = sched_obj.get("contexts")
        if not isinstance(contexts, list) or not contexts:
            raise ConfigError(".context_schedule.contexts", "must be a non-empty list")
        schedule.contexts = [
            _integer(z, f".context_schedule.contexts[{t}]")
            for t, z in enumerate(contexts)
        ]
    elif "contexts" in sched_obj:
        raise ConfigError(".context_schedule.contexts", "needs mode fixed_sequence")

    bound_checks = doc.get("bound_checks", True)
    if not isinstance(bound_checks, bool):
        raise ConfigError(".bound_checks", "must be true or false")

    config = ExperimentConfig(
        game=game,
        T=T,
        seeds=list(seeds),
        players=players,
        schedule=schedule,
        bound_checks=bound_checks,
    )
    if game.generate is not None:
        params = game.generate
        check_game_shape(config, params.num_players, params.num_actions, params.num_contexts)
    if schedule.mode == "fixed_sequence" and len(schedule.contexts) < T:
        raise ConfigError(
            ".context_schedule.contexts",
            f"{len(schedule.contexts)} contexts for a horizon of T = {T}",
        )
    return config


def check_game_shape(config: ExperimentConfig, num_players: int,
                     num_actions: int, num_contexts: int) -> None:
    """Check the player blocks and the fixed context sequence against the
    game's player count N, action count K and context count Z.

    A learner's kernels must fit its inputs, a joint action (then z, for
    a contextual learner) for the reward and an own action for the
    constraints, and be finite on them.  An action coordinate lies in
    [0, K - 1] and a context in [0, Z - 1], and on that box each kernel
    is largest at the far corner (a polynomial one too, as its bias and
    the inputs are nonnegative), so its value there is the one checked."""
    if len(config.players) != num_players:
        raise ConfigError(".players", "player count must match the game")
    for i, block in enumerate(config.players):
        if block.algorithm == RANDOM:
            continue
        reward_corner = [num_actions - 1.0] * num_players
        if USES_CONTEXT[block.algorithm]:
            reward_corner.append(num_contexts - 1.0)
        corners = {"reward_kernel": reward_corner}
        if USES_CONSTRAINTS[block.algorithm]:
            corners["constraint_kernel"] = [num_actions - 1.0]
        for key, corner in corners.items():
            kernel = getattr(block, key)
            if kernel is None:
                continue
            path = f".players[{i}].{key}"
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    value = diag(kernel, [corner])[0]
            except KernelError as exc:
                raise ConfigError(path, f"{exc} of a {len(corner)}-coordinate input") from exc
            if not math.isfinite(value):
                raise ConfigError(path, f"is {value} at the game's input {corner}")
    for z in config.schedule.contexts:
        if not 0 <= z < num_contexts:
            raise ConfigError(
                ".context_schedule.contexts",
                f"context {z} is outside [0, {num_contexts})",
            )
