import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PYTHON = '''"""Module docstring,
over two lines."""

import math  # a comment after code counts

# a comment line


def norm(x):
    """Function docstring,

    with a blank line inside."""
    text = """a string that is no docstring,
    over two lines"""
    return math.hypot(x,
                      0.0)
'''

C = '''/* A block comment
 * over two lines */
#include <math.h>

// a line comment
double half(double x)  /* a trailing comment */
{
    const char *s = "/* no comment */ // nor this";

    /* a comment */ return x / 2.0;  // code before it counts
}
'''


def test_counts_the_code_lines_of_python_and_c(tmp_path, capsys):
    """import, def, text's two lines and return's two lines; #include, the
    signature, two braces, s and the return line; other files are skipped."""
    spec = importlib.util.spec_from_file_location("code_lines",
                                                  ROOT / "benchmarks" / "code_lines.py")
    counter = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(counter)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(PYTHON)
    (tmp_path / "pkg" / "b.c").write_text(C)
    (tmp_path / "pkg" / "notes.txt").write_text("not counted\n")
    assert counter.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     6 {tmp_path / 'pkg' / 'a.py'}", f"     6 {tmp_path / 'pkg' / 'b.c'}",
        "     6 total Python", "     6 total C", "    12 total"]
