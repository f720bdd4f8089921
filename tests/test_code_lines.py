"""The code-line counter of tools/code_lines.py."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
import math


def f(x):
    """Function docstring."""
    total = (x +  # a trailing comment
             1)

    note = """a string that is not a docstring,
    over two lines"""
    return math.sqrt(total), note


class C:
    """Class docstring."""
'''


def test_counts_lines_with_a_token_other_than_comment_blank_or_docstring():
    # import, def, the two lines of `total`, the two of `note`, return, class
    assert code_lines.code_lines(SOURCE) == 8
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n# and a comment\n') == 0


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\ny = [\n    2,\n]\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     4  b.py",
        "     8  pkg/a.py",
        "    12  total",
    ]
