"""Net lines per directory against a git ref: the number every CHANGES entry reports.

``python scripts/net_lines.py <git-ref>`` counts the lines of every ``*.py``
file under ``src/``, ``tests/`` and ``scripts/`` at ``<git-ref>`` and in the
working tree (tracked files plus untracked ones git does not ignore), and
prints one row per file whose count moved, then one total per directory::

    python scripts/net_lines.py HEAD~1

Counts are ``wc -l`` counts (newline bytes), so they match
``find src -name '*.py' | xargs wc -l``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from typing import Dict, List

REPO = Path(__file__).resolve().parent.parent
DIRECTORIES = ("src", "tests", "scripts")


def git(*args: str) -> bytes:
    return subprocess.run(
        ["git", *args], cwd=REPO, check=True, capture_output=True
    ).stdout


def python_files(listing: bytes) -> List[str]:
    return [path for path in listing.decode().split("\0") if path.endswith(".py")]


def lines_at(ref: str) -> Dict[str, int]:
    listing = git("ls-tree", "-r", "-z", "--name-only", ref, "--", *DIRECTORIES)
    return {
        path: git("show", f"{ref}:{path}").count(b"\n")
        for path in python_files(listing)
    }


def lines_now() -> Dict[str, int]:
    listing = git("ls-files", "-z", "-co", "--exclude-standard", "--", *DIRECTORIES)
    return {
        path: (REPO / path).read_bytes().count(b"\n")
        for path in python_files(listing)
        if (REPO / path).is_file()  # tracked but deleted in the working tree
    }


def report(before: Dict[str, int], after: Dict[str, int]) -> List[str]:
    """One row per file that moved, then per-directory and overall totals."""
    rows = []
    for path in sorted(set(before) | set(after)):
        old, new = before.get(path, 0), after.get(path, 0)
        if old != new:
            rows.append(f"{new - old:+7d}  {old:6d} -> {new:6d}  {path}")
    for prefix in (*(f"{directory}/" for directory in DIRECTORIES), ""):
        old, new = (
            sum(count for path, count in side.items() if path.startswith(prefix))
            for side in (before, after)
        )
        rows.append(f"{new - old:+7d}  {old:6d} -> {new:6d}  {prefix or 'total'}")
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    print("\n".join(report(lines_at(argv[0]), lines_now())))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
