"""Count the lines of a Python package: all of them, and its code lines.

    python3 tools/line_count.py [DIR]

prints "<total> lines, <code> code lines" for the *.py files directly in
DIR (default src/capsym).  A code line holds a token that is not a
comment and not part of a docstring, the string that opens a module, class
or function body; blank lines count only in the total.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_source(text):
    """(total lines, code lines) of one Python source text."""
    docstrings = _docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def count_package(path):
    """(total lines, code lines) summed over the *.py files in path."""
    total = code = 0
    for name in sorted(os.listdir(path)):
        if name.endswith(".py"):
            with open(os.path.join(path, name), encoding="utf-8") as fh:
                t, c = count_source(fh.read())
            total, code = total + t, code + c
    return total, code


if __name__ == "__main__":
    if len(sys.argv) > 2:
        raise SystemExit("usage: line_count.py [DIR]")
    path = sys.argv[1] if len(sys.argv) == 2 else os.path.join(ROOT, "src",
                                                              "capsym")
    print("{:,} lines, {:,} code lines".format(*count_package(path)))
