"""Every field of the config dataclasses is read by the library.

The CLI accepts a key for every field of these classes, so a field that
no code reads is a knob that silently does nothing. The check parses
the package source: a field counts as read when some expression whose
type is known to be the class (a parameter annotated with it, a name
assigned from an expression that builds or holds one, or an attribute
annotated with it, such as ``RunConfig.solver``) has the field read as
an attribute outside the class's own body. Writing a field, as
``dataclasses.replace`` does, is not a read.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ptyblind"
CONFIG_CLASSES = ("PhantomSpec", "ProbeSpec", "PerturbationSpec", "SolverConfig")


def config_classes_in(node):
    """Names of config classes that ``node`` mentions."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and n.id in CONFIG_CLASSES}


def parse_package():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def class_fields(trees):
    """Field names of each config class, and the config classes of every
    annotated class attribute (``RunConfig.solver`` -> SolverConfig)."""
    fields, typed_attrs = {}, {}
    for tree in trees.values():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            annotated = [s for s in cls.body if isinstance(s, ast.AnnAssign)]
            if cls.name in CONFIG_CLASSES:
                fields[cls.name] = {s.target.id for s in annotated}
            for s in annotated:
                typed_attrs.setdefault(s.target.id, set()).update(config_classes_in(s.annotation))
    return fields, {attr: classes for attr, classes in typed_attrs.items() if classes}


class FieldReads(ast.NodeVisitor):
    """Collects (class, field) pairs read on an expression of known type."""

    def __init__(self, typed_attrs):
        self.typed_attrs = typed_attrs
        self.scopes = [{}]
        self.reads = set()

    def classes_of(self, node):
        if isinstance(node, ast.Name):
            return self.scopes[-1].get(node.id, set())
        if isinstance(node, ast.Attribute):
            return self.typed_attrs.get(node.attr, set())
        return set()

    def visit_ClassDef(self, node):
        if node.name not in CONFIG_CLASSES:
            self.generic_visit(node)

    def visit_FunctionDef(self, node):
        scope = dict(self.scopes[-1])
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs:
            if arg.annotation is not None and config_classes_in(arg.annotation):
                scope[arg.arg] = config_classes_in(arg.annotation)
        self.scopes.append(scope)
        self.generic_visit(node)
        self.scopes.pop()

    def visit_Assign(self, node):
        self.generic_visit(node)
        held = config_classes_in(node.value)
        for sub in ast.walk(node.value):
            held |= self.classes_of(sub)
        if held:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.scopes[-1][target.id] = held

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.reads.update((cls, node.attr) for cls in self.classes_of(node.value))
        self.generic_visit(node)


def unread_fields():
    trees = parse_package()
    fields, typed_attrs = class_fields(trees)
    assert set(fields) == set(CONFIG_CLASSES)
    reads = set()
    for tree in trees.values():
        visitor = FieldReads(typed_attrs)
        visitor.visit(tree)
        reads |= visitor.reads
    return sorted(
        f"{cls}.{name}" for cls, names in fields.items() for name in names
        if (cls, name) not in reads
    )


def test_every_config_field_is_read_outside_its_class():
    assert unread_fields() == []

