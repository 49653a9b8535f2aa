"""Every name the package and its modules export resolves, and the
modules import each other without cycles."""

import ast
import importlib
import os
import pkgutil

import pytest

import vmsns

MODULES = sorted(m.name for m in pkgutil.iter_modules(vmsns.__path__))


@pytest.mark.parametrize("module", ["vmsns"] + [f"vmsns.{m}" for m in MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names undefined {missing}"


def _module_level_imports(module):
    """Package modules ``module`` imports outside any function or class."""
    path = os.path.join(vmsns.__path__[0], f"{module}.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = set()
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
        todo.extend(ast.iter_child_nodes(node))
    return found & set(MODULES)


def test_module_imports_form_no_cycle():
    graph = {m: _module_level_imports(m) for m in MODULES}
    state = {}

    def visit(m, path):
        if state.get(m) == "done":
            return
        assert state.get(m) != "open", f"import cycle {' -> '.join(path + [m])}"
        state[m] = "open"
        for dep in sorted(graph[m]):
            visit(dep, path + [m])
        state[m] = "done"

    for m in MODULES:
        visit(m, [])


def test_no_module_imports_the_lab_at_load():
    importers = [m for m in MODULES
                 if m != "spectral_lab" and "spectral_lab" in _module_level_imports(m)]
    assert not importers, f"{importers} import spectral_lab at module level"
