"""tools/code_lines.py counts only the lines that hold code."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

MODULE = '''"""A module docstring
over two lines."""

# A comment, then a blank line.

import os

TEXT = """a string that is code,
over two lines"""


@staticmethod
def f(a, b):
    """A function docstring."""
    # A comment.
    total = max(
        a,  # a trailing comment

        b,
    )
    return total


class C:
    """A class docstring."""

    x = os.sep
'''


def tree(root: Path, modules: dict[str, str]) -> Path:
    package = root / "src" / "ptyblind"
    package.mkdir(parents=True)
    for name, source in modules.items():
        (package / name).write_text(source, encoding="utf-8")
    return root


def counts(*args) -> list[list[str]]:
    run = subprocess.run(
        [sys.executable, str(TOOL), *map(str, args)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return [line.split() for line in run.stdout.splitlines()]


def test_counts_code_lines_per_module_and_definition(tmp_path):
    root = tree(tmp_path / "new", {"mod.py": MODULE, "one.py": "x = 1\n"})
    assert counts("--root", root) == [["mod.py", "12"], ["one.py", "1"], ["total", "13"]]
    # The decorator and the call's four lines count for f, the blank
    # line inside the call does not, and the string assigned to TEXT
    # counts as the module's code.
    assert counts("--root", root, "--functions") == [
        ["mod.py", "12"], ["f", "7"], ["C", "2"], ["<module>", "3"],
        ["one.py", "1"], ["<module>", "1"],
        ["total", "13"],
    ]


def test_against_prints_the_difference_per_module(tmp_path):
    new = tree(tmp_path / "new", {"mod.py": MODULE, "one.py": "x = 1\n"})
    old_mod = "import os\n\n\ndef g():\n    return 1\n"
    old = tree(tmp_path / "old", {"mod.py": old_mod, "two.py": "y = 2\nz = 3\n"})
    assert counts("--root", new, "--against", old) == [
        ["mod.py", "12", "3", "+9"],
        ["one.py", "1", "-", "-"],
        ["two.py", "-", "2", "-"],
        ["total", "13", "5", "+8"],
    ]
    # A definition only the other tree has is listed under its module.
    assert counts("--root", new, "--against", old, "--functions") == [
        ["mod.py", "12", "3", "+9"],
        ["f", "7", "-", "-"], ["C", "2", "-", "-"], ["<module>", "3", "1", "+2"],
        ["g", "-", "2", "-"],
        ["one.py", "1", "-", "-"], ["<module>", "1", "-", "-"],
        ["two.py", "-", "2", "-"], ["<module>", "-", "2", "-"],
        ["total", "13", "5", "+8"],
    ]
