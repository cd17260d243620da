"""Test ids a change removes and adds, against a parent revision.

    python3 scripts/test_ids.py [--parent HEAD]
    make test-ids PARENT=HEAD

Unpacks ``--parent`` (default ``HEAD``: the commit an uncommitted change
sits on; ``HEAD^`` once it is committed) into a temporary directory with
``git archive | tar -x``, as ``scripts/bench_pair.py`` does — nothing
under ``.git`` is written — runs ``pytest --collect-only -q`` there and
in the working tree, each against its own ``src/``, and prints the ids
the working tree no longer has, then the ids it has that the parent did
not.  It gates nothing: a change that deletes a knob deletes that
knob's tests, and this list is what the deletions are checked
against.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pair import ROOT, materialize


def collect(root: Path) -> set:
    """The test ids ``pytest --collect-only -q`` lists in ``root``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        # The project's addopts already hold one -q; a second would print
        # per-file counts instead of ids.
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-o", "addopts=",
         "-p", "no:cacheprovider"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
        raise SystemExit(f"test_ids: collection in {root} failed (code {done.returncode})")
    return {line for line in done.stdout.splitlines() if "::" in line}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="revision to compare against")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="test_ids_") as scratch:
        tree = Path(scratch) / "parent"
        materialize(args.parent, tree)
        parent = collect(tree)
    change = collect(ROOT)
    removed, added = sorted(parent - change), sorted(change - parent)
    print(f"# {len(parent)} test ids at {args.parent}, {len(change)} in the working tree")
    for title, ids in (("removed", removed), ("added", added)):
        print(f"# {title} ({len(ids)})")
        for test_id in ids:
            print(test_id)
    return 0


if __name__ == "__main__":
    sys.exit(main())
