"""Count lines of code per module of src/matchfield.

A code line is a line that holds a token other than a comment or a blank
line, outside a docstring: a logical line made of string literals alone
(a docstring, or a bare string statement) holds no code. Lines a
multi-line token spans all count. Run from anywhere:

    python tools/count_code_lines.py [DIR]
    python tools/count_code_lines.py --against REF [DIR]

The first prints one "lines  module" row per module of DIR (default
src/matchfield) and then their total. With --against, DIR must lie in a
git work tree: each row holds the module's lines at the commit REF (read
with git show, "-" where the module is absent) beside its lines in the
working tree, and the last row both totals.
"""

from __future__ import annotations

import argparse
import io
import subprocess
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "matchfield"
# tokens that carry no code: layout, comments and the stream's end
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Number of lines of source that hold code."""
    lines: set[int] = set()
    logical: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            logical.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if any(t.type != tokenize.STRING for t in logical):
                for t in logical:
                    lines.update(range(t.start[0], t.end[0] + 1))
            logical = []
    return len(lines)


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], check=True, capture_output=True,
                          text=True).stdout


def lines_at(ref: str, root: Path) -> dict[str, int]:
    """Code lines of each module in directory root as the commit ref holds it."""
    # ls-tree and the ./ form of show both take paths relative to root
    names = _git(root, "ls-tree", "--name-only", ref, "./").splitlines()
    return {name: code_lines(_git(root, "show", f"{ref}:./{name}"))
            for name in names if name.endswith(".py")}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count code lines per module.")
    parser.add_argument("dir", nargs="?", type=Path, default=PACKAGE)
    parser.add_argument("--against", metavar="REF", help="also count each module at commit REF")
    args = parser.parse_args(argv)
    now = {p.name: code_lines(p.read_text()) for p in sorted(args.dir.glob("*.py"))}
    if args.against is None:
        for name, n in now.items():
            print(f"{n:6d}  {name}")
        print(f"{sum(now.values()):6d}  total")
        return 0
    try:
        then = lines_at(args.against, args.dir)
    except subprocess.CalledProcessError as e:
        print(f"error: {e.stderr.strip()}", file=sys.stderr)
        return 2
    for name in sorted(then.keys() | now.keys()):
        print(f"{then.get(name, '-'):>6}  {now.get(name, '-'):>6}  {name}")
    print(f"{sum(then.values()):6d}  {sum(now.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
