"""tools/code_lines.py: which lines count as code."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

# a comment

import os


class Thing:
    """A class docstring."""

    def method(self):
        """A function docstring
        over two lines."""
        text = """a multi-line string
assigned to a name
is code"""
        return text  # a comment after code


def function():
    value = 1

    return value
'''


def test_docstrings_comments_and_blank_lines_are_not_code():
    # import, class, def, the three lines of the string, return, def,
    # value = 1, return value
    assert code_lines.code_lines(SOURCE) == 10


def test_a_docstring_alone_is_no_code():
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0
    assert code_lines.code_lines('"""A docstring."""\nX = """not one"""\n') == 1


def test_total_is_the_sum_of_the_files(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("X = 1\nY = 2\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = [line.split(None, 1) for line in capsys.readouterr().out.splitlines()]
    assert lines == [
        ["10", str(tmp_path / "a.py")],
        ["2", str(tmp_path / "pkg" / "b.py")],
        ["12", "total"],
    ]
