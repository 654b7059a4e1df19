"""Count the code lines of Python sources: blank, comment and docstring lines excluded.

    python3 tools/code_lines.py [paths...]

Each path is a ``.py`` file or a directory searched for them; the default
is ``src/trienotary`` under the repository root. The output is one
``count path`` line per file, in path order, then ``count total``.

A code line holds a token other than a comment or a line break; a token
that spans lines, such as a multi-line string, makes each of its lines a
code line. The lines of a module, class or function docstring are not
counted, whatever tokens they hold. So a multi-line string assigned to a
name counts, and the same string as a docstring does not.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

# INDENT only shares a line with code, and DEDENT and ENDMARKER are empty
# tokens, the last ones placed on the line after the end of the file
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def sources(paths: list[Path]) -> list[Path]:
    """The ``.py`` files named by ``paths``, directories searched, in path order."""
    found = set()
    for path in paths:
        found.update(path.rglob("*.py") if path.is_dir() else [path])
    return sorted(found)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", type=Path, help="files or directories")
    args = parser.parse_args(argv)
    paths = args.paths or [Path(__file__).resolve().parents[1] / "src" / "trienotary"]
    total = 0
    for path in sources(paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
