"""The ``REPRO_*`` environment surface: what ``src/`` reads, README documents.

A knob is read when its name appears as a string literal in the package
(``os.environ.get("REPRO_JOBS")`` and friends).  README.md's knob table must
list exactly those names, one row each, and no document may name a knob the
package no longer reads — so a deleted knob cannot linger in the docs and a
new one cannot appear without a row.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
KNOB = re.compile(r"REPRO_[A-Z_]+")


def _read_knobs() -> set:
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and KNOB.fullmatch(node.value)):
                names.add(node.value)
    return names


def _knob_table_rows() -> list:
    """First cells of README rows that start with a ``REPRO_*`` knob."""
    cells = []
    for line in (REPO / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("| `REPRO_"):
            cells.append(line.split("|")[1])
    return cells


def test_readme_table_lists_exactly_the_knobs_src_reads():
    rows = _knob_table_rows()
    first = [KNOB.findall(cell)[0] for cell in rows]
    assert len(first) == len(set(first)), "a knob has two rows"
    assert set(first) == _read_knobs()


def test_no_text_names_a_knob_src_does_not_read():
    read = _read_knobs()
    texts = [REPO / "README.md", *sorted((REPO / "docs").rglob("*.md")),
             *sorted(SRC.rglob("*.py"))]
    stale = {
        f"{path.relative_to(REPO)}: {name}"
        for path in texts
        for name in KNOB.findall(path.read_text(encoding="utf-8"))
        if name not in read
    }
    assert not stale, sorted(stale)


def test_knob_count_is_pinned():
    # Adding a knob is a design decision; update this number with its row.
    assert len(_read_knobs()) == 18
