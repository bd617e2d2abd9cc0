"""``congames run`` outputs at M = 0..3 constraints, pinned byte for byte.

Each config plays a generated 3-player game (K=5, Z=3, feedback noise
0.3) for T=300 rounds at seeds 0 and 1: ``cz_ada_normal_gp`` at beta
scale 1.0, ``c_ada_normal_gp`` at 0.5 and a random player, both learners
with noise scale 0.3.  A ``feasible_quantile`` of 0.7 leaves room for
every seed to play to T, and at M >= 1 the constraint filter drops an
action in most rounds, so the filter and each learner's M violation
bounds are in the files.
A further case plays the Hedge learners at M=1 on the same game:
``z_gpmw`` at beta scale 1.0, ``gpmw`` at 0.5 and a random player.  It
pins the Hedge rule (prediction, and the update from the clamped reward
UCBs), which the M-sweep's learners do not run.
The digests are sha256 of ``summary.json`` and each ``rounds_seed*.csv``
as written; BLAS runs on one thread, so they do not depend on the core
count.  To print them for the code at hand, run this file as a script:
``PYTHONPATH=src python tests/test_golden_outputs.py``.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from congames.cli import main

SEEDS = [0, 1]
# a change that is meant to keep results, such as a new layout of the GP
# state, must leave these as they are
GOLDEN = {
    0: {
        "summary.json": "5d6424c94762d3c1436e8e9fa733c6f8ace7220e56f537d62aa620acd8bcd83b",
        "rounds_seed0.csv": "1c679721e48a5d59de2080a03cb0ff439500c9432073c05ddbea619a8ffe9f17",
        "rounds_seed1.csv": "6875677ce9faa02a77224614b859697171c6a9bc24f68e663e244c8fb14a4346",
    },
    1: {
        "summary.json": "26cc9c5b8b56ae8f869909084a015b57c7b5d6400999bf536fd5006a35fbe4cc",
        "rounds_seed0.csv": "ccf67272bfffd87d432100a3b3c48479cb6aeed9c2e7f09302f2416835f8d214",
        "rounds_seed1.csv": "20685d4c0ee7271e5d47ab027c15b374dc90d10135bdabd2373fcfd150279a80",
    },
    2: {
        "summary.json": "e041525b42c50644a41c5239cdcfc141e99984659684639aa14e5680cd859921",
        "rounds_seed0.csv": "66286eef06ba8d11869f8f5b3a6916dca19d93d143020daa3250d573b4ca38f5",
        "rounds_seed1.csv": "3869f6bfed384cb42ff2fb7b3478c67c031dbcbd98fe4f7c4431c0532b5e0a0d",
    },
    3: {
        "summary.json": "3b34aabcfdf0b655aa852b76bbb7f7214a9ef33f729052b96187ee56245147a9",
        "rounds_seed0.csv": "3601db2e0e4ae43412507611f8f15a43fb1dad8e0d4cbe543cf7299aaeb4a8fa",
        "rounds_seed1.csv": "0131a06e2d19e3614684cb0103b98055238cc35abec9898e91de8dcd70278141",
    },
}
# recorded before the expert rules were rewritten in place
HEDGE_GOLDEN = {
    "summary.json": "10a92117d2b84eac0ac6b38ee9c841f4eb4cdfbe565447880364d4b48b03f5a0",
    "rounds_seed0.csv": "9a87c34356e41300bd482d7abd6685b654ceb1394291ef8fc873adb3ba75d437",
    "rounds_seed1.csv": "303041029c5b1fd683caf9ed7d5b6e3814c5022225979b75b2edccc8e60610d6",
}
LEARNERS = ("cz_ada_normal_gp", "c_ada_normal_gp")
HEDGE_LEARNERS = ("z_gpmw", "gpmw")


def config(num_constraints: int, learners=LEARNERS) -> dict:
    return {
        "game": {"generate": {"num_players": 3, "K": 5, "Z": 3,
                              "num_constraints": num_constraints,
                              "feasible_quantile": 0.7, "noise_scale": 0.3}},
        "T": 300,
        "seeds": SEEDS,
        "players": [{"algorithm": learners[0], "beta_scale": 1.0,
                     "noise_scale": 0.3},
                    {"algorithm": learners[1], "beta_scale": 0.5,
                     "noise_scale": 0.3},
                    {"algorithm": "random"}],
    }


def digests(num_constraints: int, tmp: Path, learners=LEARNERS) -> dict[str, str]:
    """sha256 of the run's summary and round files, after checking that
    every seed played to T."""
    path = tmp / "config.json"
    path.write_text(json.dumps(config(num_constraints, learners)))
    out = tmp / "out"
    assert main(["run", str(path), "--out", str(out), "--parallel", "1"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["statuses"] == {str(s): "completed" for s in SEEDS}
    names = ["summary.json"] + [f"rounds_seed{s}.csv" for s in SEEDS]
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in names}


@pytest.mark.parametrize("num_constraints", sorted(GOLDEN))
def test_outputs_are_byte_identical(tmp_path, num_constraints):
    assert digests(num_constraints, tmp_path) == GOLDEN[num_constraints]


def test_hedge_outputs_are_byte_identical(tmp_path):
    assert digests(1, tmp_path, HEDGE_LEARNERS) == HEDGE_GOLDEN


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        found = {}
        for m in range(4):
            (Path(tmp) / str(m)).mkdir()
            found[m] = digests(m, Path(tmp) / str(m))
        (Path(tmp) / "hedge").mkdir()
        found["hedge"] = digests(1, Path(tmp) / "hedge", HEDGE_LEARNERS)
        json.dump(found, sys.stdout, indent=4)
