"""Count lines of code per module of src/matchfield.

A code line is a line that holds a token other than a comment or a blank
line, outside a docstring: a logical line made of string literals alone
(a docstring, or a bare string statement) holds no code. Lines a
multi-line token spans all count. Run from anywhere:

    python tools/count_code_lines.py [DIR]

which prints one "lines  module" row per module of DIR (default
src/matchfield) and then their total.
"""

from __future__ import annotations

import io
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


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
