"""Package metadata and entry points.

Installing the package (``pip install -e .``) puts the ``repro`` library
on the path and installs the ``repro-run`` console script — the unified
CLI of the parallel experiment engine (equivalent to
``python -m repro.engine``).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_ROOT = Path(__file__).resolve().parent
_README = _ROOT / "README.md"

# Single source of truth for the version: repro.__version__.
_VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (_ROOT / "src" / "repro" / "__init__.py").read_text(encoding="utf-8"),
    re.MULTILINE,
).group(1)

setup(
    name="repro-cuckoo-directory",
    version=_VERSION,
    description=(
        "Reproduction of the Cuckoo Directory (HPCA 2011) with a parallel, "
        "cached experiment engine"
    ),
    long_description=_README.read_text(encoding="utf-8") if _README.exists() else "",
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages("src"),
    # The compiled displacement walk is built from source on first import.
    package_data={"repro.core": ["_cuckoo_walk.c"]},
    python_requires=">=3.9",
    install_requires=["numpy"],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
    entry_points={
        "console_scripts": [
            "repro-run=repro.engine.cli:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering",
        "Topic :: System :: Hardware",
    ],
)
