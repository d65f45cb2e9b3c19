"""Legacy setup shim.

The execution environment is offline and lacks the ``wheel`` package, so
PEP 660 editable installs (``pip install -e .`` with a ``[build-system]``
table) cannot build. This shim lets pip fall back to the classic
``setup.py develop`` code path. The version is read from
``repro.__version__`` so the two cannot drift.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
