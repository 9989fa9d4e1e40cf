"""The public surface: every name a module exports in `__all__` has a caller in src/."""

import ast
from pathlib import Path

import kolmobox

SRC = Path(kolmobox.__file__).parent

# exported names that nothing in src/ calls, each with the reason it stays
UNCALLED = {
    ("timestepper", "run"): "the benchmark tracer wraps it",
    ("fields", "max_face_gradient"): "the benchmark tracer wraps it",
    ("model", "homogeneous_state"): "the closed-form oracle of criterion 1",
    ("diagnostics", "entropy_functional"): "the entropy functional of criterion 6",
    ("scaling", "pde_residual"): "the PDE-residual oracle of the scaling tests",
}


def exported(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def references(module: str, tree) -> set:
    """The (module, name) pairs that `module` reads: `M.name` through `from . import M`,
    a name imported by `from .M import name`, or one of its own names."""
    modules, imported = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    imported[alias.asname or alias.name] = node.module
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                refs.add((modules[node.value.id], node.attr))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add((imported.get(node.id, module), node.id))
    return refs


def test_every_exported_name_has_a_caller_or_a_reason():
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    called = set().union(*(references(m, tree) for m, tree in trees.items()))
    # the package's own __all__ re-exports names that the other modules define
    uncalled = {
        (m, name)
        for m, tree in trees.items() if m != "__init__"
        for name in exported(tree) if (m, name) not in called
    }
    assert uncalled - UNCALLED.keys() == set(), "exported, but nothing in src/ calls it"
    assert UNCALLED.keys() - uncalled == set(), "listed as uncalled, but called or gone"


def test_every_error_class_is_exported():
    # a caller catches the package's errors by name from `kolmobox`
    from kolmobox import errors

    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.KolmoboxError)}
    assert classes - set(kolmobox.__all__) == set(), "an error class that kolmobox does not export"
