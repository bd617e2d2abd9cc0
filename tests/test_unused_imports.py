"""Every name a package module imports is used in that module.

A stand-in for a linter's unused-import rule, on the standard library
alone: each ``src/congames/*.py`` is parsed with ``ast``.  A name counts
as used when it is read anywhere in the module, annotations included.
``from __future__ import annotations`` binds no name and is exempt.
"""

import ast
from pathlib import Path

import pytest

import congames

PACKAGE = Path(congames.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports but never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_detector():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "import os.path\n"
        "from .kernels import cross, evaluate as ev\n"
        "def f(x: np.ndarray) -> None:\n"
        "    return cross(x)\n"
    )
    assert unused_imports(source) == ["os", "os", "ev"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
