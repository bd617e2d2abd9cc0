"""In-memory spans around the public functions of each congames module.

Functions are wrapped where their callers look them up: a module that did
``from .kernels import cross`` holds its own reference, so ``cross`` is
replaced in ``congames.kernels``, ``congames.gp`` and ``congames.game``
alike.  Each call records a span (name, start, end, parent); a span's
self time is its duration minus the durations of its direct children.
Nothing here changes an argument or a result, so a traced run must
reproduce the untraced outputs exactly.
"""

from __future__ import annotations

import importlib
import math
from collections import defaultdict
from functools import wraps
from time import perf_counter

# (module, class or None, attribute, span name).  Every import site of a
# wrapped name is listed.
PROBES = [
    ("congames.game", None, "run", "game.run"),
    ("congames.cli", None, "build_player", "cli.build_player"),
]
LAYERS = [
    ("congames.kernels", None, "cross", "kernels.cross"),
    ("congames.gp", None, "cross", "kernels.cross"),
    ("congames.game", None, "cross", "kernels.cross"),
    ("congames.kernels", None, "evaluate", "kernels.evaluate"),
    ("congames.gp", None, "evaluate", "kernels.evaluate"),
    ("congames.gp", "GpModel", "add_observation", "gp.add_observation"),
    ("congames.gp", "GpModel", "posterior_batch", "gp.posterior_batch"),
    ("congames.strategy", "Player", "select_action", "strategy.select_action"),
    ("congames.strategy", "Player", "observe_feedback", "strategy.observe_feedback"),
    ("congames.strategy", "Player", "feasible_mask", "strategy.feasible_mask"),
    ("congames.experts", None, "ada_predict", "experts.predict"),
    ("congames.experts", None, "hedge_predict", "experts.predict"),
    ("congames.experts", None, "ada_update", "experts.update"),
    ("congames.experts", None, "hedge_update", "experts.update"),
    ("congames.game", None, "generate_random_game", "game.generate"),
    ("congames.metrics", None, "compute_report", "metrics.compute_report"),
    ("congames.metrics", None, "best_feasible_policy", "metrics.best_feasible_policy"),
    ("congames.metrics", None, "cce_epsilon", "metrics.cce_epsilon"),
    ("congames.metrics", None, "constrained_regret", "metrics.constrained_regret"),
    ("congames.config", None, "parse_config", "config.parse_config"),
    ("congames.cli", None, "parse_config", "config.parse_config"),
    ("congames.cli", None, "run_experiment", "cli.run_experiment"),
    ("congames.cli", None, "run_seed", "cli.run_seed"),
]


class Tracer:
    """Span recorder; spans stay in memory until :meth:`write`."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.players: list = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        after = _AFTER.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.starts[idx] = start
                self.ends[idx] = end
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def install(self, full: bool):
        """Wrap the probes (always) and every layer (when ``full``)."""
        for module, cls, attr, name in PROBES + (LAYERS if full else []):
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def spans_named(self, name: str) -> list[int]:
        return [i for i, n in enumerate(self.names) if n == name]

    def durations(self, name: str) -> list[float]:
        return [self.ends[i] - self.starts[i] for i in self.spans_named(name)]

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        totals: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            totals[name] += self.ends[i] - self.starts[i] - child[i]
        return totals

    def round_ms(self) -> tuple[list[float], list[float]]:
        """Per-round times from the select and observe spans of each run.

        A round runs from its first ``select_action`` to its last
        ``observe_feedback``; a round halted by an infeasibility
        declaration has no observe span and is skipped.  Returns all round
        times and those of the last tenth of each run's rounds.
        """
        runs: dict[int, list[int]] = defaultdict(list)
        run_ids = set(self.spans_named("game.run"))
        for i, parent in enumerate(self.parents):
            if parent in run_ids and self.names[i] in (
                "strategy.select_action", "strategy.observe_feedback"
            ):
                runs[parent].append(i)
        every, last_decile = [], []
        for spans in runs.values():
            rounds, start, end = [], None, None
            for i in spans:
                if self.names[i] == "strategy.observe_feedback":
                    end = self.ends[i]
                    continue
                if end is not None:  # the first select after an observe
                    rounds.append(1e3 * (end - start))
                    start = end = None
                if start is None:
                    start = self.starts[i]
            if end is not None:
                rounds.append(1e3 * (end - start))
            every += rounds
            last_decile += rounds[-max(len(rounds) // 10, 1):]
        return every, last_decile

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{name},{self.starts[i]!r},{self.ends[i]!r},{self.parents[i]}\n")


def _count_cross(tracer, args, result):
    tracer.counts["kernels.cross.entries"] += result.size


def _count_rows(tracer, args, result):
    tracer.counts["gp.posterior_batch.rows"] += len(result[0])


def _count_feasible(tracer, args, result):
    if args[0].config.uses_constraints:
        tracer.counts["feasible.tested"] += len(result)
        tracer.counts["feasible.kept"] += int(result.sum())


def _keep_player(tracer, args, result):
    tracer.players.append(result)


_AFTER = {
    "kernels.cross": _count_cross,
    "gp.posterior_batch": _count_rows,
    "strategy.feasible_mask": _count_feasible,
    "cli.build_player": _keep_player,
}


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
