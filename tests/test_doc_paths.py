"""Stale-path guard: every repo file path the docs and sources name
must exist.

Scans the user-facing docs, the scripts and the package sources for
paths under ``scripts/``, ``benchmarks/``, ``examples/``, ``perfbench/``
and ``tests/`` that end in ``.py``, ``.json``, ``.md`` or ``.txt``, so a
deleted or renamed file cannot live on as a dead reference.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

PATH_PATTERN = re.compile(
    r"(?<![\w./-])"
    r"((?:scripts|benchmarks|examples|perfbench|tests)/[\w./-]*?"
    r"\.(?:py|json|md|txt))(?![\w/-])"
)


def _scanned_files() -> list[Path]:
    files = [
        REPO_ROOT / name for name in ("README.md", "EXPERIMENTS.md", "DESIGN.md")
    ]
    files += sorted((REPO_ROOT / "scripts").glob("*.py"))
    files += sorted((REPO_ROOT / "src").rglob("*.py"))
    return files


def test_pattern_finds_paths():
    text = "run scripts/full_run.py, see tests/golden/x.md; not my_tests/a.py"
    assert PATH_PATTERN.findall(text) == [
        "scripts/full_run.py", "tests/golden/x.md",
    ]


def test_every_named_repo_path_exists():
    named: dict[str, set[str]] = {}
    for path in _scanned_files():
        for match in PATH_PATTERN.findall(path.read_text(encoding="utf-8")):
            named.setdefault(match, set()).add(
                str(path.relative_to(REPO_ROOT))
            )
    assert named, "the scan found no paths at all"
    missing = {
        target: sorted(sources)
        for target, sources in sorted(named.items())
        if not (REPO_ROOT / target).exists()
    }
    assert not missing, f"docs and sources name missing files: {missing}"
