"""Package metadata for ``pip install -e .`` (src layout, ``fuzzy-knn`` CLI)."""

import re
from pathlib import Path

from setuptools import find_packages, setup

# The version lives in the package; importing it here would need numpy.
INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
MATCH = re.search(r'^__version__ = "([^"]+)"', INIT.read_text(), re.M)
if MATCH is None:
    raise RuntimeError(f"no __version__ line in {INIT}")

setup(
    name="fuzzy-knn",
    version=MATCH.group(1),
    description="K-nearest neighbor search for fuzzy objects (SIGMOD 2010 reproduction)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
    entry_points={"console_scripts": ["fuzzy-knn = repro.cli:main"]},
)
