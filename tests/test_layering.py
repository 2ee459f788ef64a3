"""What ``service/sharded.py`` may know, and the line-count script, as checks.

The sharded module is fan-out / failure policy, durability glue and topology.
The batched passes live in their families' modules and reach it only through
public names, so the index kernels, the geometry and scipy are none of its
business.  Read from the syntax tree: nothing is imported or executed.
"""

import ast
import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SHARDED = REPO / "src" / "repro" / "service" / "sharded.py"

FORBIDDEN = ("scipy", "repro.index.soa", "repro.geometry")
PUBLIC_NAMES_ONLY = ("repro.core.executor", "repro.core.reverse_nn")


def imports_of(path):
    """``(module, imported name or None)`` for every import statement in a file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import: resolve it before judging it"
            found.extend((node.module, alias.name) for alias in node.names)
    return found


def within(module, package):
    return module == package or module.startswith(package + ".")


def test_sharded_imports_no_kernel_geometry_or_scipy():
    imported = imports_of(SHARDED)
    assert imported, "no imports found: the check is not looking at the module"
    for module, name in imported:
        # ``from repro.index import soa`` is the same import spelled sideways
        spelled = [module] + ([f"{module}.{name}"] if name else [])
        for package in FORBIDDEN:
            assert not any(within(m, package) for m in spelled), (module, name)


def test_sharded_reaches_the_family_passes_through_public_names_only():
    names = []
    for module, name in imports_of(SHARDED):
        # the module itself in hand (``import m`` / ``from repro.core import
        # executor``) would reach its private names by attribute
        assert module not in PUBLIC_NAMES_ONLY or name is not None, module
        assert f"{module}.{name}" not in PUBLIC_NAMES_ONLY, (module, name)
        if module in PUBLIC_NAMES_ONLY:
            names.append(name)
    assert names, "the sharded hooks no longer import the shared passes"
    assert not [name for name in names if name.startswith("_")]


def test_net_lines_reports_moved_files_and_directory_totals():
    spec = importlib.util.spec_from_file_location(
        "net_lines", REPO / "scripts" / "net_lines.py"
    )
    net_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(net_lines)
    before = {"src/a.py": 10, "src/gone.py": 4, "tests/t.py": 7, "scripts/s.py": 1}
    after = {"src/a.py": 6, "tests/t.py": 7, "tests/new.py": 9, "scripts/s.py": 1}
    rows = [row.split() for row in net_lines.report(before, after)]
    assert rows == [
        ["-4", "10", "->", "6", "src/a.py"],
        ["-4", "4", "->", "0", "src/gone.py"],
        ["+9", "0", "->", "9", "tests/new.py"],
        ["-8", "14", "->", "6", "src/"],
        ["+9", "7", "->", "16", "tests/"],
        ["+0", "1", "->", "1", "scripts/"],
        ["+1", "22", "->", "23", "total"],
    ]
