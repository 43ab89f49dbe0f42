"""Every exported name has a use outside its own definition.

A name counts as used when it appears as a word on some line of the
package (other than ``__init__.py``), the benchmark or the demos that is
not its own ``def`` or ``class`` line.  The ``oracle_*`` references are
exempt: the tests judge the package against them.
"""

import re
from pathlib import Path

import hmegraph

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hmegraph"


def source_lines():
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for folder in ("perfbench", "demos"):
        paths += (ROOT / folder).rglob("*.py")
    return [line for p in paths for line in p.read_text(encoding="utf-8").splitlines()]


def test_every_export_is_used():
    lines = source_lines()
    unused = []
    for name in hmegraph.__all__:
        if name.startswith("oracle_"):
            continue
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    assert unused == []
