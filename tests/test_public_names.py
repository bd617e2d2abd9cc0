"""Every public name of the package is read by the system that uses it.

A stand-in for a linter's dead-code rule, on the standard library alone:
each function, class and constant a package module defines at top level
without a leading underscore must be read by some module of
``src/congames``, of ``demos/`` or of ``perfbench/``.  A read is a bare
name, a module attribute (``metrics_mod.name``) or a string literal equal
to the name, since the benchmark's tracer names the functions it wraps as
strings.  Tests do not count: public API that only its own tests read
should go.  Each name has one import path, its home module: the package
``__init__.py`` holds its docstring alone and re-exports nothing.
"""

import ast
from pathlib import Path

import congames

PACKAGE = Path(congames.__file__).resolve().parent
ROOT = PACKAGE.parent.parent
READERS = [
    *sorted(PACKAGE.glob("*.py")),
    *sorted((ROOT / "demos").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
]


def names_read(source: str) -> set[str]:
    """The names a module reads: loaded names, attributes and strings."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def test_detector():
    source = (
        "from congames.game import kept, unused\n"
        "import congames.metrics as mt\n"
        "PROBES = [('congames.experts', None, 'probed', 'span')]\n"
        "def f(x):\n"
        "    stored = 1\n"
        "    return kept(x) + mt.via_attribute(x)\n"
    )
    read = names_read(source)
    assert {"kept", "via_attribute", "probed"} <= read
    assert not {"unused", "f", "stored"} & read


def test_readers_exist():
    assert {p.parent.name for p in READERS} == {"congames", "demos", "perfbench"}


def public_definitions(source: str) -> list[str]:
    """The functions, classes and constants a module defines at top level
    under a name without a leading underscore."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not n.startswith("_")]


def test_definition_detector():
    source = (
        "import json\n"
        "LIMIT = 3\n"
        "_PRIVATE = 4\n"
        "__all__ = ['f']\n"
        "shape: tuple = (1, 2)\n"
        "def f():\n"
        "    inner = 1\n"
        "    return inner\n"
        "class Spec:\n"
        "    field = 2\n"
        "if True:\n"
        "    hidden = 5\n"
    )
    assert public_definitions(source) == ["LIMIT", "shape", "f", "Spec"]


def test_every_public_definition_is_read():
    # a helper whose last caller was deleted fails here instead of lingering
    read = set().union(*(names_read(p.read_text()) for p in READERS))
    unread = [
        f"{p.stem}.{name}"
        for p in READERS if p.parent == PACKAGE
        for name in public_definitions(p.read_text())
        if name not in read
    ]
    assert unread == []


def test_package_init_is_docstring_alone():
    # no import, assignment or definition: a second import path for a
    # name would need a second edit whenever the name is added or deleted
    body = ast.parse((PACKAGE / "__init__.py").read_text()).body
    assert len(body) == 1
    assert isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
    assert isinstance(body[0].value.value, str)
