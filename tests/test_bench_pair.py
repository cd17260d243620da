"""The paired-run summary (``scripts/bench_pair.py``): pure arithmetic
and the parent checkout; no benchmark is run here.
``scripts/code_lines.py`` rides along."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pair.py"
spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
bench_pair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pair)


class TestSummarize:
    def test_direction_decides_who_won_and_ties_count_for_neither(self):
        parent = [10.0, 10.0, 10.0, 10.0]
        change = [12.0, 9.0, 10.0, 11.0]
        assert bench_pair.summarize(parent, change, "higher")["won"] == 2
        assert bench_pair.summarize(parent, change, "lower")["won"] == 1

    def test_gain_needs_ten_pairs_nine_tenths_and_the_parents_spread(self):
        parent = [100.0 + i for i in range(10)]  # quartiles 2.25 .. 7.75 above 100
        clear = [value + 20 for value in parent]
        assert bench_pair.summarize(parent, clear, "higher")["gain"]
        assert not bench_pair.summarize(parent, clear, "lower")["gain"]
        assert not bench_pair.summarize(parent[:9], clear[:9], "higher")["gain"]
        inside_noise = [value + 1 for value in parent]  # wins every pair, by too little
        assert not bench_pair.summarize(parent, inside_noise, "higher")["gain"]
        two_lost = clear[:8] + [0.0, 0.0]
        assert not bench_pair.summarize(parent, two_lost, "higher")["gain"]

    def test_every_contract_metric_has_a_direction(self):
        better = bench_pair.directions()
        assert better["throughput_rows_per_s"] == "higher"
        assert better["linalg.topk.update_ms"] == "lower"
        assert set(bench_pair.bounds()) < set(better)  # end-to-end metrics only
        assert bench_pair.bounds()["call_peak_mb"] == 0.1


class TestVerdict:
    """The no-regression reading: bound relative to the parent's median."""

    TIGHT = [100.0, 101.0, 99.0, 100.0]  # IQR 1.5 around 100

    def test_worse_only_beyond_the_bound_in_the_metrics_direction(self):
        down_30 = [value * 0.7 for value in self.TIGHT]
        assert bench_pair.verdict(self.TIGHT, down_30, "higher", 0.25) == "WORSE"
        assert bench_pair.verdict(self.TIGHT, down_30, "lower", 0.25) == "ok"
        down_20 = [value * 0.8 for value in self.TIGHT]
        assert bench_pair.verdict(self.TIGHT, down_20, "higher", 0.25) == "ok"
        assert bench_pair.verdict(self.TIGHT, down_20, "higher", 0.1) == "WORSE"

    def test_unresolved_when_the_parents_spread_exceeds_the_bound(self):
        noisy = [60.0, 100.0, 140.0, 100.0]  # IQR 60 of median 100
        assert bench_pair.verdict(noisy, noisy, "higher", 0.25) == "UNRESOLVED"
        assert bench_pair.verdict(noisy, noisy, "higher", 0.75) == "ok"
        # ... unless every run of the change beats every run of the parent
        clear = [150.0, 160.0, 170.0, 180.0]
        assert bench_pair.verdict(noisy, clear, "higher", 0.25) == "ok"
        assert bench_pair.verdict(noisy, clear, "lower", 0.25) == "WORSE"


def test_parent_is_unpacked_from_an_archive_without_touching_git(tmp_path):
    """``materialize`` gives the committed parent — not the working
    tree's edits — as plain files, and adds no worktree to the
    repository (an archive writes nothing under ``.git``)."""
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)

    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@example.invalid", *args],
            cwd=repo, check=True, capture_output=True, timeout=60,
        )

    git("init", "-q")
    (repo / "pkg" / "mod.py").write_text("VERSION = 1\n")
    git("add", "-A")
    git("commit", "-q", "-m", "one")
    (repo / "pkg" / "mod.py").write_text("VERSION = 2\n")
    git("commit", "-q", "-am", "two")
    (repo / "pkg" / "mod.py").write_text("VERSION = 3  # uncommitted\n")
    before = sorted(path.name for path in (repo / ".git").iterdir())

    bench_pair.materialize("HEAD", tmp_path / "head", repo)
    bench_pair.materialize("HEAD~1", tmp_path / "first", repo)
    assert (tmp_path / "head" / "pkg" / "mod.py").read_text() == "VERSION = 2\n"
    assert (tmp_path / "first" / "pkg" / "mod.py").read_text() == "VERSION = 1\n"
    assert not (tmp_path / "head" / ".git").exists()
    assert sorted(path.name for path in (repo / ".git").iterdir()) == before
    assert not (repo / ".git" / "worktrees").exists()
    with pytest.raises(SystemExit, match="git archive no-such-rev"):
        bench_pair.materialize("no-such-rev", tmp_path / "absent", repo)
    assert not (tmp_path / "absent").exists()


def test_a_last_line_that_is_not_the_record_is_a_failed_run():
    """``run_side`` then prints the child's stderr and exits, where it
    used to raise ``JSONDecodeError`` from the traceback's last line."""
    for stdout in ("", "Traceback (most recent call last):\n  boom\n", "17\n"):
        assert bench_pair.parse_record(stdout) == {"correct": False}
    record = bench_pair.parse_record('# note\n{"correct": true, "metrics": {}}\n')
    assert record == {"correct": True, "metrics": {}}


def test_code_lines_refuses_to_report_a_vacuous_zero(tmp_path):
    """No path, or one that does not exist, used to print ``0 total
    (0 files)`` and exit 0 — a "src/ did not grow" figure of nothing."""
    script = SCRIPT.with_name("code_lines.py")
    (tmp_path / "one.py").write_text('"""doc"""\n# note\nx = 1\n')
    for args, ok in (([str(tmp_path)], True), ([], False),
                     ([str(tmp_path), str(tmp_path / "absent")], False)):
        run = subprocess.run([sys.executable, str(script), *args],
                             capture_output=True, text=True, timeout=60)
        assert (run.returncode == 0) == ok, run
        assert ("1  total (1 files)" in run.stdout) == ok
