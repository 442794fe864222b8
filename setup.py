"""Setuptools entry point.

A plain ``setup.py`` (no ``pyproject.toml``) so that installs work in offline
environments where the ``wheel`` package (required by PEP 660 editable
builds with older setuptools) is unavailable.

Developer workflow (see also README.md):

* tier-1 test suite: ``PYTHONPATH=src python -m pytest -x -q``
* benchmark:         ``python3 benchmarks/e2e/run.py`` (``--quick`` runs
  every workload's correctness gates in seconds)
* paper artifacts:   ``PYTHONPATH=src python -m pytest benchmarks/bench_table*.py
  benchmarks/bench_fig*.py benchmarks/bench_listing*.py``
"""

from setuptools import find_packages, setup

setup(
    name="repro-uplan",
    version="1.1.0",
    description=(
        "Reproduction of 'Towards a Unified Query Plan Representation' with a "
        "batched, fingerprint-deduplicating plan ingestion pipeline"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.8",
    # No hard runtime dependencies: the engine is pure stdlib.  ``fast``
    # adds the optional NumPy column kernels (repro.engine.arrays); without
    # it the vectorized executor runs on plain-list columns, fully
    # functional, just slower.
    extras_require={"fast": ["numpy"]},
)
