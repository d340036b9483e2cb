"""The code-line counter that ROADMAP's line figures quote."""

import importlib.util
import subprocess
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_code_lines.py"
spec = importlib.util.spec_from_file_location("count_code_lines", TOOL)
count_code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
import math


def f(x):
    """Docstring."""
    return math.hypot(x,  # a trailing comment keeps its line
                      2.0)


"a bare string statement"
f(
    """a string argument is code""")
'''


def test_code_lines_skip_docstrings_comments_and_blanks():
    # import, def, the two lines of the return call, and the two lines of
    # the last call; the docstrings, comment and blank lines hold no code
    assert count_code_lines.code_lines(SOURCE) == 6


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n# two\ny = (x,\n     x)\n")
    assert count_code_lines.main([str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [r.split() for r in rows] == [["6", "a.py"], ["3", "b.py"], ["9", "total"]]


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.com",
                    "-c", "commit.gpgsign=false", *args], check=True, capture_output=True)


def test_against_prints_each_module_at_a_commit_beside_the_working_tree(tmp_path, capsys):
    repo, pkg = tmp_path, tmp_path / "pkg"
    pkg.mkdir()
    git(repo, "init", "-q")
    (pkg / "a.py").write_text(SOURCE)
    (pkg / "b.py").write_text("x = 1\n")
    (repo / "top.py").write_text("y = 2\n")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "first")
    # a.py loses its last call, b.py is deleted and c.py is new
    (pkg / "a.py").write_text(SOURCE.rsplit("f(\n", 1)[0])
    (pkg / "b.py").unlink()
    (pkg / "c.py").write_text("z = (1,\n     2)\n")
    assert count_code_lines.main(["--against", "HEAD", str(pkg)]) == 0
    rows = [r.split() for r in capsys.readouterr().out.splitlines()]
    assert rows == [["6", "4", "a.py"], ["1", "-", "b.py"], ["-", "2", "c.py"],
                    ["7", "6", "total"]]
    # a ref git does not know exits 2 with git's message
    assert count_code_lines.main(["--against", "no-such-ref", str(pkg)]) == 2
    assert "no-such-ref" in capsys.readouterr().err
