"""Only ``strategy.py`` reads what an algorithm means.

The inputs a learner's models see, its default kernels and whether it
builds a constraint model all follow from two flags, ``USES_CONTEXT``
and ``USES_CONSTRAINTS``.  Each ``src/congames/*.py`` is parsed with
``ast``: a module other than ``strategy.py`` that imports or reads either
flag holds a second copy of that knowledge, which a change to what a
learner models would have to find and edit.
"""

import ast
from pathlib import Path

import congames

PACKAGE = Path(congames.__file__).resolve().parent
FLAGS = {"USES_CONTEXT", "USES_CONSTRAINTS"}


def flags_read(source: str) -> set[str]:
    """The flags ``source`` imports, names or reads as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read & FLAGS


def test_detector():
    assert flags_read("from .strategy import USES_CONTEXT as uc\n") == {"USES_CONTEXT"}
    assert flags_read("from . import strategy\nstrategy.USES_CONSTRAINTS['gpmw']\n") == {
        "USES_CONSTRAINTS"}
    assert flags_read("x = USES_CONTEXT[a] and USES_CONSTRAINTS[a]\n") == FLAGS
    assert flags_read("uses_context = config.uses_context\n") == set()


def test_only_strategy_reads_the_flags():
    readers = {p.stem for p in PACKAGE.glob("*.py") if flags_read(p.read_text())}
    assert readers == {"strategy"}
