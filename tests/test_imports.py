"""Every ``repro`` subpackage imports first, in a fresh interpreter.

Callers usually import ``repro.dialects`` or ``repro.catalog`` before
anything else, which hides an import cycle that only bites when another
package comes first.
"""

import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SUBPACKAGES = sorted(path.parent.name for path in (SRC / "repro").glob("*/__init__.py"))


def test_every_subpackage_is_listed():
    assert len(SUBPACKAGES) >= 16 and "storage" in SUBPACKAGES


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports_first(name):
    completed = subprocess.run(
        [sys.executable, "-c", f"import repro.{name}"],
        cwd=SRC, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
