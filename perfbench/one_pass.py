"""One pass of a benchmark workload in a fresh process.

    python3 perfbench/one_pass.py --workload repro_cell --case 3 \
        [--size tiny] [--trace 1] [--setup-only]

The clock starts before ``congames`` (and with it numpy and scipy) is
first imported and stops after the last output of the workload.  Set-up
is the time until the first ``game.run`` begins; ``--setup-only`` stops
the pass there.  Prints one JSON object: the timings, the peak resident
memory, the outputs of every cell or seed, the workload properties and,
with ``--trace 1``, the per-layer metrics.
"""

import argparse
import json
import resource
import shutil
import sys
import time
from collections import Counter
from pathlib import Path

import workloads
from tracer import Tracer, quantile

ROOT = Path(__file__).resolve().parents[1]
RUN_DIR = ROOT / ".perfbench_run"

TIMED_LAYERS = (
    "kernels.cross", "kernels.evaluate", "gp.add_observation",
    "gp.posterior_batch", "strategy.select_action",
    "strategy.observe_feedback", "strategy.feasible_mask", "experts.predict",
    "experts.update", "metrics.best_feasible_policy",
)


class FirstRound(BaseException):
    """Raised at the first round of a set-up-only pass.

    A ``BaseException`` so that the CLI's per-seed ``except Exception``
    does not swallow it.
    """


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def properties(players: list, statuses: list[str]) -> dict:
    """Workload properties that later optimisations depend on."""
    import numpy as np

    def repeats(models):
        seen = sum(m.num_observations for m in models)
        distinct = sum(
            len(np.unique(m.inputs, axis=0)) for m in models if m.num_observations
        )
        return _share(seen - distinct, seen)

    learners = [p for p in players if p.reward_gp is not None]
    # a cell's players are built in player order, so index 0 opens a cell
    cells: list[list] = []
    for p in learners:
        if p.config.player_index == 0 or not cells:
            cells.append([])
        cells[-1] += [p.reward_gp, *p.constraint_gps]
    return {
        "gp.reward.repeat_share": repeats([p.reward_gp for p in learners]),
        "gp.constraint.repeat_share": repeats(
            [m for p in learners for m in p.constraint_gps]
        ),
        "gp.max_obs": max(
            (m.num_observations for c in cells for m in c), default=0
        ),
        "gp.factor_mb": max(
            (sum(8 * m.num_observations**2 for m in c) / 1e6 for c in cells),
            default=0.0,
        ),
        "strategy.clamp_events": sum(p.clamp_events for p in players),
        "strategy.buckets": sum(len(p.router.states) for p in learners),
        "strategy.halted": sum(s == "infeasibility_declared" for s in statuses),
    }


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass."""
    self_s = tracer.self_times()
    calls = Counter(tracer.names)
    out = {}
    for name in TIMED_LAYERS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    add_us = [1e6 * d for d in tracer.durations("gp.add_observation")]
    rounds, last_decile = tracer.round_ms()
    out.update({
        "kernels.cross.entries": tracer.counts["kernels.cross.entries"],
        "gp.add_observation.p50_us": quantile(add_us, 0.5),
        "gp.add_observation.p99_us": quantile(add_us, 0.99),
        "gp.posterior_batch.rows": tracer.counts["gp.posterior_batch.rows"],
        "strategy.feasible_share": _share(
            tracer.counts["feasible.kept"], tracer.counts["feasible.tested"]
        ),
        "game.generate.s": sum(tracer.durations("game.generate")),
        "game.run.self_s": self_s.get("game.run", 0.0),
        "game.round_ms.p50": quantile(rounds, 0.5),
        "game.round_ms.p99": quantile(rounds, 0.99),
        "game.round_ms.last_decile_p50": quantile(last_decile, 0.5),
        "metrics.compute_report.s": sum(tracer.durations("metrics.compute_report")),
        "metrics.cce_epsilon.self_s": self_s.get("metrics.cce_epsilon", 0.0),
        "metrics.constrained_regret.self_s": self_s.get(
            "metrics.constrained_regret", 0.0
        ),
        "config.parse_config.s": sum(tracer.durations("config.parse_config")),
        # run_experiment minus its run_seed spans: output and aggregation
        "cli.output.self_s": self_s.get("cli.run_experiment", 0.0),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--case", type=int, required=True)
    parser.add_argument("--size", default="full", choices=sorted(workloads.HORIZON))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    inputs = workloads.make_inputs(args.workload, args.case, args.size, RUN_DIR)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        start = time.perf_counter()
        from congames import cli, config, game

        if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
            raise ImportError(f"congames imported from {cli.__file__}, not {ROOT / 'src'}")
        tracer = Tracer()
        tracer.install(full=bool(args.trace))
        if args.setup_only:
            def first_round(*_args, **_kwargs):
                raise FirstRound(time.perf_counter())

            game.run = first_round
            try:
                workloads.run(inputs, cli, config)
            except FirstRound as stop:
                print(json.dumps({"setup_s": stop.args[0] - start}))
                return 0
            raise RuntimeError("the workload never reached its first round")

        outcome = workloads.run(inputs, cli, config)
        wall = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        record = workloads.outputs(inputs, outcome)
        runs = tracer.spans_named("game.run")
        statuses = [c["status"] for c in record["cells"]]
        record.update({
            "wall_s": wall,
            "setup_s": tracer.starts[runs[0]] - start,
            "engine_s": sum(tracer.ends[i] - tracer.starts[i] for i in runs),
            "rounds": sum(c["rounds"] or 0 for c in record["cells"]),
            "peak_rss_mb": peak_rss_mb,
            "properties": properties(tracer.players, statuses),
        })
        if args.trace:
            record["layers"] = layer_metrics(tracer) | record["properties"]
            record["layers"]["cli.output.bytes"] = record.get("output_bytes", 0)
            RUN_DIR.mkdir(exist_ok=True)
            tracer.write(RUN_DIR / f"spans_{args.workload}.csv")
        print(json.dumps(record))
        return 0
    finally:
        if "out_dir" in inputs:
            shutil.rmtree(inputs["out_dir"], ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
