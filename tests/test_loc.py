"""``tools/loc.py``'s counting rule, which the change records quote."""

import importlib.util
from pathlib import Path

_LOC = Path(__file__).resolve().parents[1] / "tools" / "loc.py"

# 8 code lines: docstrings and comment-only lines do not count; a line of code with a
# comment does, and so does each line of a string that is not a docstring
FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a comment after code


# a comment alone
def f(x):
    """One-line docstring."""
    y = [x,
         x]  # continued
    return y


class C:
    """Class docstring
    on two lines.
    """

    s = """a string, not a docstring,
    on two lines"""
'''


def load_loc():
    spec = importlib.util.spec_from_file_location("tools_loc", _LOC)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkout(root: Path, modules: dict) -> Path:
    package = root / "src" / "omcontrol"
    package.mkdir(parents=True)
    for name, text in modules.items():
        (package / name).write_text(text)
    return root


def test_docstrings_and_comment_lines_are_not_code():
    loc = load_loc()
    assert loc.code_lines(FIXTURE) == 8
    assert loc.code_lines("x = 1  # code and a comment\n# only a comment\n\n") == 1


def test_against_prints_both_totals_and_the_change(tmp_path, monkeypatch, capsys):
    loc = load_loc()
    here = checkout(tmp_path / "here", {"a.py": FIXTURE, "b.py": "x = 1\n"})
    there = checkout(tmp_path / "there", {"a.py": "x = 1\ny = 2\n", "c.py": "z = 3\n"})
    monkeypatch.setattr(loc, "ROOT", here)
    assert loc.main(["--against", str(there)]) == 0
    assert capsys.readouterr().out == (
        "  this   other  change\n"
        "     8       2      +6  a.py\n"
        "     1       0      +1  b.py\n"
        "     0       1      -1  c.py\n"
        "     9       3      +6  total\n")
