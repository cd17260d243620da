"""Smoke tests: every example script runs to completion.

Examples are part of the public deliverable; a refactor that breaks one
must fail CI.  Every script runs unmodified, under the suite's own
environment: the two heavier sequence examples finish in tens of
seconds, so none needs a reduced-scope variant.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "example produced no output"


def test_examples_discovered():
    names = {p.name for p in EXAMPLES}
    assert {"quickstart.py", "language_modeling.py", "recommendation.py",
            "translation.py", "hardware_offload.py",
            "distributed_scaleout.py"} <= names
