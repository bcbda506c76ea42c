"""Every name the package exports is used by the package, its scripts or its benchmark.

A name counts as used when it appears as a whole word in a .py file under
src/zipvl (the package's own __init__.py aside), scripts/ or perfbench/, on a
line other than the def or class line that defines it. An export that only
tests reach fails here: delete it, or give it a caller.
"""

import pathlib
import re

import zipvl

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _source_lines() -> list[str]:
    package = ROOT / "src" / "zipvl"
    files = [p for p in package.rglob("*.py") if p != package / "__init__.py"]
    files += list((ROOT / "scripts").rglob("*.py")) + list((ROOT / "perfbench").rglob("*.py"))
    return [line for path in sorted(files) for line in path.read_text().splitlines()]


def test_every_export_is_used_outside_its_definition():
    lines = _source_lines()
    unused = []
    for name in zipvl.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(?:def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    assert unused == []
