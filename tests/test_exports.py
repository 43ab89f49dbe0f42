"""Every exported name and private helper has a use outside its own definition.

So does every public method and property of an exported class.  A name
counts as used when it appears as a word on some line of the
package (other than ``__init__.py``), the benchmark or the demos that is
not its own ``def`` or ``class`` line.  The ``oracle_*`` references are
exempt: the tests judge the package against them.
"""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hmegraph

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hmegraph"


def source_lines():
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for folder in ("perfbench", "demos"):
        paths += (ROOT / folder).rglob("*.py")
    return [line for p in paths for line in p.read_text(encoding="utf-8").splitlines()]


def public_members(cls):
    """The public methods and properties that `cls` itself defines."""
    for name, value in vars(cls).items():
        kinds = (property, classmethod, staticmethod)
        if not name.startswith("_") and (inspect.isfunction(value) or isinstance(value, kinds)):
            yield name


def test_every_export_is_used():
    """Each export, and each public method or property of an exported
    class, has a use."""
    lines = source_lines()
    classes = [getattr(hmegraph, name) for name in hmegraph.__all__]
    classes = [obj for obj in classes if inspect.isclass(obj)]
    members = [name for cls in classes for name in public_members(cls)]
    assert {"id_of", "total", "eos", "load"} <= set(members)
    unused = []
    for name in [*hmegraph.__all__, *members]:
        if name.startswith("oracle_"):
            continue
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    assert unused == []


def private_definitions(tree):
    """The module-level ``_name`` definitions of a parsed module, by node."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_helper_has_a_caller():
    """A module-level ``_name`` in the package is read somewhere in the
    package outside its own definition."""
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    reads = []  # (path, line, name) of every name read and attribute
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                reads.append((path, node.lineno, node.attr))
    defined, unused = 0, []
    for path, tree in trees.items():
        for name, node in private_definitions(tree):
            defined += 1
            if not any(
                n == name and not (p == path and node.lineno <= line <= node.end_lineno)
                for p, line, n in reads
            ):
                unused.append(f"{path.name}:{name}")
    assert defined and unused == []


def test_exports_load_on_first_use():
    """A fresh ``import hmegraph`` loads none of the modules the decode
    never runs; ``hmegraph.metrics`` and ``hmegraph.synth`` resolve as
    modules before any of their names is touched."""
    code = (
        "import sys, hmegraph\n"
        "heavy = ['hmegraph.assignment', 'hmegraph.metrics', 'hmegraph.synth']\n"
        "assert not [m for m in heavy if m in sys.modules], sorted(sys.modules)\n"
        "assert hmegraph.metrics is sys.modules['hmegraph.metrics']\n"
        "assert hmegraph.synth is sys.modules['hmegraph.synth']\n"
        "assert 'hmegraph.assignment' not in sys.modules\n"
    )
    path = [str(Path(hmegraph.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_exports_are_their_home_objects():
    """Each exported name is the object its home module defines, ``dir``
    lists every export, and an unknown name raises naming it."""
    for name in hmegraph.__all__:
        obj = getattr(hmegraph, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("hmegraph."), name
        assert getattr(home, name) is obj, name
    assert set(hmegraph.__all__) <= set(dir(hmegraph))
    with pytest.raises(AttributeError, match="'no_such_export'"):
        hmegraph.no_such_export
