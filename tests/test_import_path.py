"""Importing the package and its CLI loads no scipy module and no
process-pool module.

scipy backs only the general-nu Matern kernel, which imports it on first
use; every other run, and every worker process, starts without it.  The
``multiprocessing`` and ``concurrent.futures`` machinery is imported by
``cli.worker_pool`` when a ``--parallel`` run opens its pool.
"""

import json
import subprocess
import sys
from pathlib import Path

import congames


def modules_loaded_by_import(*packages: str) -> list[str]:
    """The modules of ``packages`` that a fresh ``import congames,
    congames.cli`` leaves in ``sys.modules``."""
    src = str(Path(congames.__file__).resolve().parents[1])
    code = (
        "import sys, json\n"
        f"sys.path.insert(0, {src!r})\n"
        "import congames, congames.cli\n"
        f"packages = {packages!r}\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] in packages)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        check=True,
    )
    return json.loads(proc.stdout)


def test_import_loads_no_scipy():
    assert modules_loaded_by_import("scipy") == []


def test_import_loads_no_process_pool():
    assert modules_loaded_by_import("multiprocessing", "concurrent") == []
