"""Code lines of each module in ``src/omcontrol``, and their total.

    python3 tools/loc.py                 # this checkout
    python3 tools/loc.py --against DIR   # this checkout, the checkout at DIR, and the change

A code line is a line that is not blank, not a comment alone and not in a
docstring (the string that opens a module, class or function body).  A
line shared by code and a comment counts as code.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "omcontrol"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines in the Python source ``text``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def counts(checkout: Path) -> dict:
    """Code lines per module of the package in ``checkout``."""
    return {path.name: code_lines(path.read_text())
            for path in sorted((checkout / PACKAGE).glob("*.py"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, help="another checkout to compare with")
    args = parser.parse_args(argv)
    here = counts(ROOT)
    if args.against is None:
        for name, count in here.items():
            print(f"{count:6d}  {name}")
        print(f"{sum(here.values()):6d}  total")
        return 0
    there = counts(args.against)
    if not there:
        parser.error(f"no {PACKAGE} under {args.against}")
    print(f"{'this':>6}  {'other':>6}  {'change':>6}")
    for name in sorted(here.keys() | there.keys()):
        a, b = here.get(name, 0), there.get(name, 0)
        print(f"{a:6d}  {b:6d}  {a - b:+6d}  {name}")
    a, b = sum(here.values()), sum(there.values())
    print(f"{a:6d}  {b:6d}  {a - b:+6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
