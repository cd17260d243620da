"""``scripts/setup_phases.py`` end to end at a small size: every phase is
printed for 1 and 2 lanes, both lane counts settle after one call, and the
resident bytes of each derived array are printed."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_prints_every_phase_and_settles_after_one_call():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "setup_phases.py"),
            "--l", "20000", "--rows", "8", "--batch", "16",
            "--train-rows", "64", "--repeats", "1",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    lines = {line[:14].strip(): line[14:].split() for line in result.stdout.splitlines()}
    assert lines["phase"] == ["1", "lane", "2", "lanes"]
    for phase in ("plane", "boxes", "scores", "calibration", "first call", "second call"):
        assert len(lines[phase]) == 6, phase  # best / median per lane count
    # Whichever lanes set-up took, the second call allocates nothing.
    assert lines["calls to flat"] == ["2", "2"]
    # The screener keeps the fused plane, the boxes and the coarse boxes.
    resident = [
        line.split(":")[0] for line in result.stdout.splitlines() if line.startswith("resident")
    ]
    assert resident == [
        "resident fused plane", "resident boxes", "resident coarse boxes", "resident total"
    ]
