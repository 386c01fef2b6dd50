"""The frame-pass engine's chunking and scatter route stay in ``_passes``.

``_passes`` alone runs the chunked passes (``_over_frames`` over
``_frame_edges``, with ``_in_flight`` chunks and their slots in flight)
and chooses how frames are scattered onto the object (``_WINDOW_PX``,
``_by_windows``, ``_add_windows``). The check parses the package source,
as ``tests/test_config_fields.py`` does: no other module imports,
reads, defines or calls these names or a ``.slot(`` method, except that
``fourier.frame_dft`` chunks its transforms with ``_over_frames`` over
``_frame_edges``. The engine imports ``operators`` only, and
``operators`` no package module, so ``fourier`` imports ``_passes``
without a cycle.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ptyblind"
ENGINE = {
    "_WINDOW_PX", "_by_windows", "_add_windows", "_over_frames", "_frame_edges",
    "_in_flight", "_CHUNK_BYTES",
}
# Where a module other than the engine may name engine parts: the top-level
# definition (or "import" for a module-level import) and the names.
FRAME_DFT_USES = {"_over_frames", "_frame_edges"}
ALLOWED = {("fourier.py", "import"): FRAME_DFT_USES, ("fourier.py", "frame_dft"): FRAME_DFT_USES}


def parse_package():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def engine_uses(tree):
    """The set of (scope, name) pairs of a module's uses of engine names,
    with ``.slot(`` for a call of a ``slot`` method. The scope is the
    top-level definition the use is in, "import" for a module-level
    import and "<module>" for any other module-level statement."""
    uses = set()
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            scope = top.name
        else:
            scope = "import" if isinstance(top, (ast.Import, ast.ImportFrom)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.alias):
                names = {node.name, node.asname}
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
            else:
                names = set()
            uses |= {(scope, name) for name in names & ENGINE}
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "slot"
            ):
                uses.add((scope, ".slot("))
    return uses


def package_imports(tree):
    """The package modules a module imports from."""
    return {
        node.module or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def test_only_the_engine_chunks_passes_and_chooses_the_scatter_route():
    trees = parse_package()
    names = {name for _, name in engine_uses(trees["_passes.py"])}
    assert names == ENGINE | {".slot("}
    outside = {
        (module, scope, name)
        for module, tree in trees.items()
        if module != "_passes.py"
        for scope, name in engine_uses(tree)
        if name not in ALLOWED.get((module, scope), set())
    }
    assert outside == set()
    assert engine_uses(trees["fourier.py"]) == {
        (scope, name) for (_, scope), allowed in ALLOWED.items() for name in allowed
    }


def test_the_engine_sits_between_fourier_and_operators():
    trees = parse_package()
    assert package_imports(trees["_passes.py"]) == {"operators"}
    assert package_imports(trees["operators.py"]) == set()
    assert "_passes" in package_imports(trees["fourier.py"])
