"""Print the line counts of the ulrichcert package sources.

Two numbers for the ``.py`` files under ``src/ulrichcert``: all lines, and
code lines, which leave out blank lines, comment-only lines and the
docstrings of modules, classes and functions. Standard library only::

    python scripts/source_lines.py
"""
from __future__ import annotations

import ast
import pathlib

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ulrichcert"
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree) -> set:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: pathlib.Path):
    """(total lines, code lines) of one source file."""
    text = path.read_text()
    lines = text.splitlines()
    skipped = docstring_lines(ast.parse(text))
    code = sum(1 for number, line in enumerate(lines, 1)
               if number not in skipped and line.strip() and not line.lstrip().startswith("#"))
    return len(lines), code


def main() -> None:
    total = code = 0
    for path in sorted(SOURCE.rglob("*.py")):
        t, c = count(path)
        total, code = total + t, code + c
    print(f"src/ulrichcert: {total} lines, {code} code lines")


if __name__ == "__main__":
    main()
