"""Package metadata for the repro distribution.

Plain ``setup.py`` (no pyproject.toml) so the legacy editable-install
path (``pip install -e . --no-use-pep517``) works in offline
environments where the ``wheel`` package is unavailable.

Every kernel, the soft-decision ones included, is vectorised NumPy:
nothing is compiled, at install or at first use, and no extra exists.
"""

import os
import re

from setuptools import find_packages, setup


def _version() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "src", "repro", "_version.py")) as handle:
        match = re.search(r'__version__\s*=\s*"([^"]+)"', handle.read())
    if match is None:
        raise RuntimeError("cannot find __version__ in src/repro/_version.py")
    return match.group(1)


setup(
    name="repro",
    version=_version(),
    description=(
        "Reproduction of 'Lightweight Error-Correction Code Encoders in "
        "Superconducting Electronic Systems' (SOCC 2025)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
    # numpy 2 is the line CI installs and the step counts of
    # tests/test_request_steps.py were taken on.
    # scipy serves margin calibration (system/calibration.py) and the
    # tests' reference tails; the codec service never imports it.
    install_requires=[
        "numpy>=2.0",
        "scipy>=1.11",
    ],
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
        ],
    },
)
