"""The docs name only files and ``make`` targets that exist."""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
ROOTS = (REPO, REPO / "src", REPO / "src" / "repro")
# A quoted name is an output the reader's own code writes (``"trace.json"``).
PATH = re.compile(r'(?<!["\w./-])\w[\w./-]*\.(?:py|json)\b')
TARGET = re.compile(r"^([a-z][\w-]*):", re.MULTILINE)


def named(doc):
    """(line number, kind, name) for every path and make target in ``doc``."""
    fenced = False
    for number, line in enumerate((REPO / doc).read_text().splitlines(), 1):
        if line.startswith("```"):
            fenced = not fenced
        if "deleted in PR 15" in line:  # a pointer into git history
            continue
        for path in PATH.findall(line):
            if not path.startswith("bench/out/"):  # generated, git-ignored
                yield number, "path", path
        # Prose may start a line with "make"; a command is fenced or backticked.
        for target in re.findall(r"^make ([a-z][\w-]*)" if fenced
                                 else r"`make ([a-z][\w-]*)", line):
            yield number, "make", target


@pytest.mark.parametrize("doc", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
def test_named_paths_and_make_targets_exist(doc):
    basenames = {p.name for ext in ("py", "json") for p in REPO.rglob(f"*.{ext}")}
    targets = set(TARGET.findall((REPO / "Makefile").read_text()))

    def exists(kind, name):
        if kind == "make":
            return name in targets
        if "/" in name:
            return any((root / name).exists() for root in ROOTS)
        return name in basenames

    missing = [
        f"{doc}:{number}: {name}"
        for number, kind, name in named(doc)
        if not exists(kind, name)
    ]
    assert not missing, missing
