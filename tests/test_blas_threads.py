"""Generated games and runs do not depend on the BLAS thread count.

OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when it loads, and splits a
factorization by its thread count, so the generator's solves would round
differently in an unpinned process on a machine with several cores.  Each
setting therefore runs in its own process.  On one core both settings give
one thread and the comparison holds trivially.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import congames
from congames.game import _bundled_openblas, one_blas_thread

SRC = str(Path(congames.__file__).resolve().parents[1])
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NEEDS_OPENBLAS = pytest.mark.skipif(
    _bundled_openblas() is None, reason="numpy's BLAS exports no known thread-count call"
)

# the hash of the default game, and of summary.json after a short run of a
# GP learner on a small generated game (unpinned, a 2-core machine rounds
# both differently)
PROBE = """
import hashlib, json, sys
from pathlib import Path
from congames.cli import main
from congames.game import generate_random_game

out = Path(sys.argv[1])
out.mkdir()
config = out / "config.json"
config.write_text(json.dumps({
    "game": {"generate": {"num_players": 2, "K": 3, "Z": 2}},
    "T": 60,
    "seeds": [0],
    "players": [
        {"algorithm": "cz_ada_normal_gp", "beta_scale": 0.15},
        {"algorithm": "random"},
    ],
}))
assert main(["run", str(config), "--out", str(out / "run")]) == 0
print(json.dumps({
    "game": hashlib.sha256(generate_random_game(0).to_json().encode()).hexdigest(),
    "summary": hashlib.sha256((out / "run" / "summary.json").read_bytes()).hexdigest(),
}))
"""


def probe(tmp_path, name, threads):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path / name)], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@NEEDS_OPENBLAS
def test_game_and_summary_equal_unpinned_and_pinned(tmp_path):
    assert probe(tmp_path, "unpinned", None) == probe(tmp_path, "pinned", "1")


@NEEDS_OPENBLAS
def test_one_blas_thread_restores_the_count():
    lib = _bundled_openblas()
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(2)
    try:
        with one_blas_thread():
            assert lib.scipy_openblas_get_num_threads64_() == 1
        assert lib.scipy_openblas_get_num_threads64_() == 2
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


@NEEDS_OPENBLAS
def test_run_seed_plays_on_one_blas_thread(monkeypatch):
    # a cell's GP algebra runs pinned, and the caller's count comes back
    from congames import cli, game
    from congames.config import parse_config

    lib = _bundled_openblas()
    seen = []
    real_run = game.run

    def counting_run(*args, **kwargs):
        seen.append(lib.scipy_openblas_get_num_threads64_())
        return real_run(*args, **kwargs)

    monkeypatch.setattr(game, "run", counting_run)
    config = parse_config(json.dumps({
        "game": {"generate": {"num_players": 2, "K": 3, "Z": 2}},
        "T": 10,
        "seeds": [0],
        "players": [{"algorithm": "cz_ada_normal_gp"}, {"algorithm": "random"}],
    }))
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(2)
    try:
        assert cli.run_seed(config, 0)["status"] == "completed"
        assert lib.scipy_openblas_get_num_threads64_() == 2
    finally:
        lib.scipy_openblas_set_num_threads64_(before)
    assert seen == [1]
