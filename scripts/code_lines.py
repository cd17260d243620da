#!/usr/bin/env python3
"""Count code lines: non-blank, non-comment, non-docstring.

``python3 scripts/code_lines.py PATH...`` prints one count per ``.py``
file (directories are walked) and a total — the figure the simplicity
PRs quote for "``src/`` measurably smaller".
"""

import ast
import pathlib
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: pathlib.Path) -> int:
    doc = set()
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    with tokenize.open(path) as handle:
        for token in tokenize.generate_tokens(handle.readline):
            if token.type not in _SKIP:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - doc)


if __name__ == "__main__":
    roots = [pathlib.Path(arg) for arg in sys.argv[1:]]
    files = sorted(f for r in roots for f in ([r] if r.is_file() else r.rglob("*.py")))
    missing = [str(r) for r in roots if not r.exists()]
    if missing or not files:
        sys.exit(f"code_lines.py: nothing to count (paths not found: {missing})")
    counts = {f: code_lines(f) for f in files}
    for f, n in counts.items():
        print(f"{n:7d}  {f}")
    print(f"{sum(counts.values()):7d}  total ({len(counts)} files)")
