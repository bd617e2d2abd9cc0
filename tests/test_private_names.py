"""Every top-level private name of the package is read somewhere in it.

A stand-in for a linter's dead-code rule, on the standard library alone:
each ``src/congames/*.py`` is parsed with ``ast``, and a function, class
or constant defined at module level under a name with one leading
underscore must be read in some package module, as a bare name or as a
module attribute (``game_mod._name``).  A helper whose last caller was
deleted then fails here instead of lingering.
"""

import ast
from pathlib import Path

import congames

PACKAGE = Path(congames.__file__).resolve().parent


def _defined(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def orphaned_privates(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each top-level private name that no module of
    ``sources`` (module name to source text) reads, in definition order."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _defined(tree)
        if name not in read
    ]


def test_detector():
    sources = {
        "a": (
            "_USED = 1\n"
            "_DEAD: int = 2\n"
            "__all__ = ['f']\n"
            "def _helper(x):\n"
            "    return x + _USED\n"
            "def _orphan():\n"
            "    _local = 3\n"
            "    return _local\n"
            "class _Gone:\n"
            "    pass\n"
            "def f():\n"
            "    return _helper(1)\n"
        ),
        "b": (
            "from . import a as a_mod\n"
            "def _from_elsewhere():\n"
            "    pass\n"
            "def g():\n"
            "    return a_mod._Gone\n"
        ),
        "c": "from .b import _from_elsewhere\n_from_elsewhere()\n",
    }
    assert orphaned_privates(sources) == ["a._DEAD", "a._orphan"]


def test_every_private_name_is_read():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert orphaned_privates(sources) == []
