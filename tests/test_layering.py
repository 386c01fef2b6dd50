"""The frame-pass engine's chunking and scatter route stay in ``_passes``.

``_passes`` alone runs the chunked passes (``_over_frames`` over
``_frame_edges``, with ``_in_flight`` chunks and their slots in flight)
and adds frames onto the object (``_add_frames``, by ``_add_windows``
or ``operators._scatter_add``). The frame size decides how in one
predicate: only ``_by_windows`` reads ``_WINDOW_PX``, and only
``_add_frames`` asks it, besides ``_object_coverage``, whose window
adds read a broadcast ``|p|**2`` that ``np.add.at`` needs filled. Two
functions call ``_add_frames``: ``_stack_images``, the one pass that
scatters a frame stack, and ``_object_coverage``. The
package's one ``np.add.at`` is ``operators._scatter_add``'s, and no
module calls ``bincount``. The check parses the package source,
as ``tests/test_config_fields.py`` does: no other module imports,
reads, defines or calls these names or a ``.slot(`` or ``.scratch(``
method, except that ``fourier.frame_dft`` chunks its transforms with
``_over_frames`` over ``_frame_edges``. The engine imports ``operators`` only, and
``operators`` no package module, so ``fourier`` imports ``_passes``
without a cycle.

The engine transforms only in the frame passes, ``_magnitude_pass`` and
``_start_frames``: every per-frame sum is reduced from gathered windows,
and no image-domain correlation takes its place.

The run's scratch is an opaque handle to ``solver``: it makes a
``_Workspace`` and hands it to engine calls, but reads none of its
attributes, and it neither scatters frames nor multiplies a stack the
engine left in the scratch; each scratch handoff is one engine call.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ptyblind"
ENGINE = {
    "_WINDOW_PX", "_by_windows", "_add_frames", "_add_windows", "_over_frames", "_frame_edges",
    "_in_flight", "_CHUNK_BYTES",
}
# The workspace's methods that give a chunk its slots.
SLOTS = {"slot", "scratch"}
# Where a module other than the engine may name engine parts: the top-level
# definition (or "import" for a module-level import) and the names.
FRAME_DFT_USES = {"_over_frames", "_frame_edges"}
ALLOWED = {("fourier.py", "import"): FRAME_DFT_USES, ("fourier.py", "frame_dft"): FRAME_DFT_USES}


def parse_package():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def engine_uses(tree):
    """The set of (scope, name) pairs of a module's uses of engine names,
    with ``.slot(`` or ``.scratch(`` for a call of a method of that
    name. The scope is the top-level definition the use is in, "import"
    for a module-level import and "<module>" for any other module-level
    statement."""
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
                and node.func.attr in SLOTS
            ):
                uses.add((scope, f".{node.func.attr}("))
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
    assert names == ENGINE | {".slot(", ".scratch("}
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


def engine_readers(name):
    """The top-level scopes of ``_passes`` that name the engine name
    ``name``, less the one that defines it."""
    uses = engine_uses(parse_package()["_passes.py"])
    return {scope for scope, used in uses if used == name} - {name, "<module>"}


def test_only_add_frames_and_the_coverage_ask_how_frames_are_added():
    assert engine_readers("_by_windows") == {"_add_frames", "_object_coverage"}
    assert engine_readers("_WINDOW_PX") == {"_by_windows"}


def test_only_the_stack_images_pass_and_the_coverage_add_frames():
    # Every pass that writes frames, and a start from given frames,
    # scatters them by one ``_stack_images`` pass; the coverage is no
    # stack, and scatters its own ``|p|**2``.
    assert engine_readers("_add_frames") == {"_stack_images", "_object_coverage"}


def scatter_calls(tree):
    """The (scope, call) pair of each of a module's uses of ``np.add.at``
    and ``bincount``, by top-level definition."""
    found = []
    for top in tree.body:
        scope = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if "bincount" in (getattr(node, "attr", None), getattr(node, "id", None)):
                found.append((scope, "bincount"))
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "at"
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "add"
            ):
                found.append((scope, "add.at"))
    return found


def test_one_np_add_at_in_the_package_and_no_bincount():
    found = [
        (module, scope, call)
        for module, tree in parse_package().items()
        for scope, call in scatter_calls(tree)
    ]
    assert found == [("operators.py", "_scatter_add", "add.at")]


def fft_scopes(tree):
    """The top-level definitions of a module that name anything of
    ``fft`` (``np.fft``, a transform, an import of one)."""
    scopes = set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.alias):
                names = {node.name, node.asname or ""}
            else:
                names = set()
            if any("fft" in name for name in names):
                scopes.add(getattr(top, "name", "<module>"))
    return scopes


def test_the_engine_transforms_only_in_the_frame_passes():
    assert fft_scopes(parse_package()["_passes.py"]) == {"_magnitude_pass", "_start_frames"}


def test_the_engine_sits_between_fourier_and_operators():
    trees = parse_package()
    assert package_imports(trees["_passes.py"]) == {"operators"}
    assert package_imports(trees["operators.py"]) == set()
    assert "_passes" in package_imports(trees["fourier.py"])


# What the solver leaves to the engine besides the workspace's fields
# (``stack``, ``misfit``, ``edges``, ``slot``, ``scratch``): the
# scatters, and the pass that sums what each chunk leaves in the scratch.
ENGINE_ONLY = {"illuminate_adjoint", "embed_add_frames", "_scatter_add", "_summed_pass"}


def is_workspace(node):
    """Whether an expression is the run's workspace as the solver names
    it: ``work`` or ``<something>.work``."""
    return (isinstance(node, ast.Name) and node.id == "work") or (
        isinstance(node, ast.Attribute) and node.attr == "work"
    )


def test_the_solver_reads_no_workspace_field_and_scatters_no_frames():
    tree = parse_package()["solver.py"]
    reads = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and is_workspace(node.value)
    }
    assert reads == set()
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named |= {node.name, node.asname}
    assert named & ENGINE_ONLY == set()
    # The solver still makes the workspace and hands it on.
    assert "_Workspace" in named and "work" in named
