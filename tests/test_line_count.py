"""tools/line_count.py on a small sample source."""

import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "line_count.py")

SAMPLE = '''"""A module docstring
over two lines."""

import os  # a trailing comment

# a comment line


def f(x):
    """A function docstring."""
    s = """a string that is not a docstring,
    over two lines"""
    return x


class C:
    \'\'\'A class docstring.\'\'\'
    y = [1,
         2]
'''


@pytest.fixture(scope="module")
def line_count():
    spec = importlib.util.spec_from_file_location("line_count", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_leave_out_blanks_comments_and_docstrings(line_count):
    # code: import, def, the two lines of s, return, class, the two of y
    assert line_count.count_source(SAMPLE) == (19, 8)


def test_package_count_sums_its_python_files(line_count, tmp_path):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert line_count.count_package(tmp_path) == (21, 9)
