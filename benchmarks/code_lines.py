#!/usr/bin/env python3
"""Count the code lines of Python and C sources.

    python3 benchmarks/code_lines.py PATH...

Each PATH is a file or a directory, searched recursively for ``*.py``
and ``*.c`` files.  The tool prints each file's count, then the total
of each language's files, and then the total of all of them.

A Python line counts when it holds a token other than a comment and is
not part of a module, class or function docstring, so blank lines,
comment lines and docstrings are left out.  A C line counts when it
holds a character other than white space outside ``/* */`` and ``//``
comments.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that are no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def python_lines(source: str) -> int:
    """The code lines of a Python source."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def c_lines(source: str) -> int:
    """The code lines of a C source.  String and character literals are
    read as code, so a comment marker inside one opens no comment."""
    count, i, n = 0, 0, len(source)
    in_block, code_here, quote = False, False, None
    while i < n:
        ch, pair = source[i], source[i:i + 2]
        if ch == "\n":
            count += code_here
            code_here = False
        elif in_block:
            if pair == "*/":
                in_block = False
                i += 1
        elif quote:
            if ch == "\\":
                i += 1
            elif ch == quote:
                quote = None
        elif pair == "/*":
            in_block = True
            i += 1
        elif pair == "//":
            while i < n and source[i] != "\n":
                i += 1
            continue
        elif not ch.isspace():
            code_here = True
            if ch in "\"'":
                quote = ch
        i += 1
    return count + code_here


def count_file(path: Path) -> int:
    source = path.read_text()
    return python_lines(source) if path.suffix == ".py" else c_lines(source)


def sources(paths) -> list[Path]:
    """The .py and .c files named by ``paths``, or found under them, in
    sorted order within each directory."""
    found = []
    for path in map(Path, paths):
        if path.is_dir():
            found += sorted(p for p in path.rglob("*") if p.suffix in (".py", ".c") and p.is_file())
        else:
            found.append(path)
    return found


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: code_lines.py PATH...", file=sys.stderr)
        return 2
    totals = {"Python": 0, "C": 0}
    for path in sources(paths):
        lines = count_file(path)
        totals["Python" if path.suffix == ".py" else "C"] += lines
        print(f"{lines:6d} {path}")
    for language, lines in totals.items():
        print(f"{lines:6d} total {language}")
    print(f"{sum(totals.values()):6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
