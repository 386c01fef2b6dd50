"""Count the code lines of each module under a tree's ``src/ptyblind/``.

A code line is a line that holds code: docstrings (the first string
statement of a module, class or function), comments and blank lines
are not counted, and a statement spanning several lines counts each of
them. Print the count of every module and their total, with
``--functions`` broken down by top-level ``def`` and ``class``
(``<module>`` for the lines outside them), and with ``--against`` next
to another tree's counts and the difference::

    python3 tools/code_lines.py
    python3 tools/code_lines.py --functions --against ../parent
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path("src") / "ptyblind"
# Tokens that hold no code by themselves.
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
# The nodes whose first string statement is a docstring.
SCOPES = (ast.Module, *DEFINITIONS)


def code_lines(source: str) -> set[int]:
    """The numbers of the lines of ``source`` that hold code."""
    docstrings = set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return lines - docstrings


def count(path: Path, functions: bool) -> dict[str, int]:
    """The code lines of the module at ``path``, keyed by its name, and
    with ``functions`` also by ``name:def`` for each top-level
    definition and ``name:<module>`` for the rest."""
    source = path.read_text(encoding="utf-8")
    lines = code_lines(source)
    counts = {path.name: len(lines)}
    if functions:
        rest = set(lines)
        for node in ast.parse(source).body:
            if isinstance(node, DEFINITIONS):
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                inside = {line for line in rest if first <= line <= node.end_lineno}
                counts[f"{path.name}:{node.name}"] = len(inside)
                rest -= inside
        counts[f"{path.name}:<module>"] = len(rest)
    return counts


def count_tree(root: Path, functions: bool) -> dict[str, int]:
    """Counts of every module of the tree at ``root``, and ``total``."""
    counts = {}
    for path in sorted((root / PACKAGE).glob("*.py")):
        counts.update(count(path, functions))
    counts["total"] = sum(value for key, value in counts.items() if ":" not in key)
    return counts


def report(counts: dict[str, int], other: dict[str, int] | None) -> list[str]:
    """One line per key: its count, and beside ``other``'s the other
    count and the difference (``-`` where a side lacks the key)."""
    lines = []
    keys = list(counts) + [key for key in other or {} if key not in counts]
    # Each definition under its module, a module's own line first (the
    # sort is stable), and the total last.
    keys.sort(key=lambda key: (key == "total", key.split(":")[0]))
    for key in keys:
        label = f"  {key.split(':', 1)[1]}" if ":" in key else key
        new = counts.get(key)
        cells = [f"{label:<32}", f"{'-' if new is None else new:>6}"]
        if other is not None:
            old = other.get(key)
            delta = "-" if new is None or old is None else f"{new - old:+d}"
            cells += [f"{'-' if old is None else old:>6}", f"{delta:>6}"]
        lines.append(" ".join(cells).rstrip())
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=".", help="the tree to count (default: .)")
    parser.add_argument("--functions", action="store_true", help="count each top-level def and class")
    parser.add_argument("--against", metavar="ROOT", help="a tree to compare the counts with")
    args = parser.parse_args()
    counts = count_tree(Path(args.root), args.functions)
    other = None if args.against is None else count_tree(Path(args.against), args.functions)
    print("\n".join(report(counts, other)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
