"""The three benchmark workloads: inputs from a case seed, the run, and the
outputs checked against the stored reference.

Every workload is one process, one thread of work, and no worker pool.

* ``repro_cell``: the reproduction cell the acceptance grid builds (N=3,
  K=7, Z=5, T=1000): ``cz_ada_normal_gp`` at beta scale 0.15 against two
  random players, followed by ``compute_report`` and ``theorem_bounds``.
  The growing GP posterior dominates.
* ``algo_sweep_z25``: one short cell (T=300) per algorithm at the
  acceptance gate's beta scales on a Z=25 game.  Factors stay small, so
  per-call overhead (kernel evaluation per query row, expert predict and
  update, routing over 25 buckets) outweighs O(t^2) algebra; it runs the
  Hedge and non-contextual paths and makes game generation visible in
  set-up.
* ``cli_random_long``: ``congames run`` in-process with three random
  players, K=7, Z=5, T=20000 and two seeds.  No GP runs; the engine, the
  oracle metrics and the CSV/JSON output share the time.

Cells are driven through ``config.parse_config`` and ``cli.run_seed``,
which build a cell exactly as the acceptance grid does.  This module uses
only the standard library, so that ``congames`` is first imported inside
the timed region of a pass.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
from pathlib import Path

WORKLOADS = ("repro_cell", "algo_sweep_z25", "cli_random_long")

# case seeds 0..9 are the acceptance reproduction grid's seeds
CASES = 10

HORIZON = {
    "full": {"repro_cell": 1000, "algo_sweep_z25": 300, "cli_random_long": 20000},
    "tiny": {"repro_cell": 30, "algo_sweep_z25": 20, "cli_random_long": 200},
}

# the acceptance gate's confidence multipliers (tests/test_acceptance.py)
BETA_SCALE = {
    "random": 1.0,
    "gpmw": 0.15,
    "z_gpmw": 0.15,
    "c_ada_normal_gp": 0.1,
    "cz_ada_normal_gp": 0.15,
}
ALGORITHMS = ("cz_ada_normal_gp", "c_ada_normal_gp", "z_gpmw", "gpmw", "random")


def _config(T: int, seeds: list[int], learner: str, num_contexts: int) -> str:
    players = [{"algorithm": learner, "beta_scale": BETA_SCALE[learner]}]
    players += [{"algorithm": "random"}, {"algorithm": "random"}]
    return json.dumps({
        "game": {"generate": {"num_players": 3, "K": 7, "Z": num_contexts}},
        "T": T,
        "seeds": seeds,
        "players": players,
        "bound_checks": True,
    })


def make_inputs(workload: str, case: int, size: str, run_dir: Path) -> dict:
    """Inputs of one pass; the same case and size give the same inputs."""
    T = HORIZON[size][workload]
    if workload == "repro_cell":
        return {"configs": [_config(T, [case], "cz_ada_normal_gp", 5)]}
    if workload == "algo_sweep_z25":
        return {"configs": [_config(T, [case], a, 25) for a in ALGORITHMS]}
    if workload == "cli_random_long":
        out_dir = run_dir / f"cli_{os.getpid()}"
        shutil.rmtree(out_dir, ignore_errors=True)  # left by a killed pass
        out_dir.mkdir(parents=True)
        path = out_dir / "config.json"
        path.write_text(_config(T, [case, case + CASES], "random", 5))
        return {
            "argv": ["run", str(path), "--out", str(out_dir), "--parallel", "1"],
            "out_dir": out_dir,
        }
    raise ValueError(f"unknown workload {workload!r}")


def run(inputs: dict, cli, config):
    """The timed work of one pass; returns what :func:`outputs` checks."""
    if "argv" in inputs:
        return cli.main(inputs["argv"])
    results = []
    for text in inputs["configs"]:
        cfg = config.parse_config(text)
        results.append(cli.run_seed(cfg, cfg.seeds[0]))
    return results


def _digest(action_rows) -> str:
    text = "\n".join(",".join(str(int(a)) for a in row) for row in action_rows)
    return hashlib.sha256(text.encode()).hexdigest()


def outputs(inputs: dict, outcome) -> dict:
    """Per cell or seed: status, rounds, joint-action digest, final regret
    and violations per player, and ``cce_eps``; for the CLI also the exit
    code and the bytes written."""
    if "argv" not in inputs:
        return {"cells": [
            {
                "seed": r["seed"],
                "status": r["status"],
                "rounds": r["num_rounds"],
                "actions_sha256": _digest(
                    row[2:2 + r["num_players"]] for row in r["rows"]
                ),
                "final_regret": r["final_regret"],
                "final_violations": r["final_violations"],
                "cce_eps": r["cce_eps"],
            }
            for r in outcome
        ]}
    out_dir = inputs["out_dir"]
    summary = json.loads((out_dir / "summary.json").read_text())
    cells = []
    for seed, status in sorted(summary["statuses"].items(), key=lambda kv: int(kv[0])):
        per_seed = summary["per_seed"][seed]
        with (out_dir / f"rounds_seed{seed}.csv").open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            cols = [i for i, name in enumerate(header) if name.startswith("a")]
            actions = [[row[i] for i in cols] for row in reader]
        cells.append({
            "seed": int(seed),
            "status": status,
            "rounds": per_seed["num_rounds"],
            "actions_sha256": _digest(actions),
            "final_regret": per_seed["final_regret"],
            "final_violations": per_seed["final_violations"],
            "cce_eps": per_seed["cce_eps"],
        })
    written = sum(p.stat().st_size for p in out_dir.iterdir() if p.name != "config.json")
    return {"exit_code": outcome, "cells": cells, "output_bytes": written}
