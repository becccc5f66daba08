#!/usr/bin/env python3
"""Count the lines of every `src/gridres` module in two source trees.

    tools/count_src_lines.py PARENT CHANGE

PARENT and CHANGE are the roots of two source trees (each with src/gridres).
For each module of either tree it prints the total lines and the code lines
of each side and the change's deltas, then the same for the whole package.
A code line holds a token that is not a comment, a docstring or white space,
as `tokenize` reads it; a string literal spanning lines counts each of them.
A module that one tree lacks counts 0 lines there.  This is the net `src/`
figure that a change reports in CHANGES.md.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) positions of the module's, each class's and each
    function's docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                doc = body[0].value
                spans.append(((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset)))
    return spans


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    spans = _docstring_spans(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and any(a <= tok.start and tok.end <= b for a, b in spans):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def modules(root: Path) -> dict[str, tuple[int, int]]:
    package = root / "src" / "gridres"
    if not package.is_dir():
        sys.exit(f"error: {package} is not a directory")
    return {path.relative_to(package).as_posix(): count(path.read_text())
            for path in sorted(package.rglob("*.py"))}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: tools/count_src_lines.py PARENT CHANGE", file=sys.stderr)
        return 2
    parent, change = (modules(Path(arg)) for arg in argv)
    header = ("module", "parent", "code", "change", "code", "delta", "code")
    print("{:<16} {:>7} {:>6} {:>7} {:>6} {:>6} {:>6}".format(*header))
    sums = [0, 0, 0, 0]
    for name in sorted(parent.keys() | change.keys()):
        (pt, pc), (ct, cc) = parent.get(name, (0, 0)), change.get(name, (0, 0))
        sums = [s + v for s, v in zip(sums, (pt, pc, ct, cc))]
        print(f"{name:<16} {pt:>7} {pc:>6} {ct:>7} {cc:>6} {ct - pt:>+6} {cc - pc:>+6}")
    pt, pc, ct, cc = sums
    print(f"{'total':<16} {pt:>7} {pc:>6} {ct:>7} {cc:>6} {ct - pt:>+6} {cc - pc:>+6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
