"""Every module-level import in the package is used by its module, every
function parameter is read by its function, and every dataclass field is
read somewhere (matched by attribute name only).

An import statement marked ``# noqa: F401`` is exempt: it is kept for its
side effect or for readers outside the module.  ``self`` and ``cls`` are
exempt from the parameter gate.
"""

import ast
from pathlib import Path

import pytest

import dephaselab

MODULES = sorted(Path(dephaselab.__file__).parent.glob("*.py"))


def unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in ln for ln in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:    # names re-exported through __all__
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in bound.items()
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_module_level_import(path):
    assert unused_imports(path) == []


def unread_parameters(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        read = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        found += [f"{path.name}:{node.lineno} {node.name}({p.arg})" for p in params
                  if p.arg not in ("self", "cls") and p.arg not in read]
    return found


def test_every_parameter_is_read():
    assert [u for path in MODULES for u in unread_parameters(path)] == []


REPO = Path(__file__).resolve().parents[1]
READERS = sorted(p for top in ("src", "tests", "perfbench") for p in (REPO / top).rglob("*.py"))


def is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(n, ast.Name) and n.id == "dataclass"
               for dec in node.decorator_list for n in ast.walk(dec))


def unread_dataclass_fields() -> list[str]:
    """Fields of the package's dataclasses that no module loads as an
    attribute.  It matches by attribute name only: ``x.name`` on any object
    anywhere in ``src/``, ``tests/`` or ``perfbench/`` counts as a read of
    every field called ``name``."""
    loaded = set()
    for path in READERS:
        loaded.update(n.attr for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
    found = []
    for path in MODULES:
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(cls, ast.ClassDef) and is_dataclass(cls):
                found += [f"{path.name}:{f.lineno} {cls.name}.{f.target.id}" for f in cls.body
                          if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                          and f.target.id not in loaded]
    return found


def test_every_dataclass_field_is_read():
    assert unread_dataclass_fields() == []
