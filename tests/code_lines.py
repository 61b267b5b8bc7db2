"""Count the code lines of Python modules.

Usage, from the root of a checkout:

    python3 tests/code_lines.py PATH     # a file, or every *.py under a directory

A code line is one that holds a token other than a comment or a
docstring: blank lines, comment lines and the lines of module, class and
function docstrings do not count, and a line counts once however many
tokens it holds.  A string that spans lines counts on every line it spans,
unless it is a docstring.  The script prints one line per module, then the
total; pytest does not collect this file.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

# Tokens that hold no code: layout, comments and the end of the file.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT:
            continue
        if token.type == tokenize.STRING and token.start[0] in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", type=Path)
    args = parser.parse_args(argv)
    files = sorted(args.path.rglob("*.py")) if args.path.is_dir() else [args.path]
    total = 0
    for file in files:
        count = code_lines(file.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {file}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
