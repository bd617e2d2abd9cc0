"""Importing the package and its CLI loads no scipy module.

scipy backs only the general-nu Matern kernel, which imports it on first
use; every other run, and every worker process, starts without it.
"""

import json
import subprocess
import sys
from pathlib import Path

import congames


def test_import_loads_no_scipy():
    src = str(Path(congames.__file__).resolve().parents[1])
    code = (
        "import sys, json\n"
        f"sys.path.insert(0, {src!r})\n"
        "import congames, congames.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        check=True,
    )
    assert json.loads(proc.stdout) == []
