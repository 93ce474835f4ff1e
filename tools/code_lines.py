"""Count the code lines of each module of a Python package.

A code line is a line that is not blank, not a comment and not inside a
docstring, where docstrings are found by their ``ast`` spans: the first
statement of a module, class or function body when it is a string
constant.  Prints one ``<lines> <file>`` row per module, in file-name
order, and a ``<lines> total`` row.  Standard library only:

    python tools/code_lines.py                  # src/pimbounds/*.py
    python tools/code_lines.py other/src/pimbounds  # a directory's *.py
    python tools/code_lines.py a.py b.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_DEFAULT = Path(__file__).resolve().parent.parent / "src" / "pimbounds"


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The 1-based line numbers spanned by the docstrings of ``tree``."""
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


def code_lines(path: Path) -> int:
    """The number of code lines of one source file."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(source))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#")
               and number not in docstrings)


def main(argv: list[str]) -> int:
    paths = sorted(path for arg in argv or [_DEFAULT]
                   for path in (Path(arg).glob("*.py") if Path(arg).is_dir()
                                else [Path(arg)]))
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print(f"{count:6d} {path.name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
