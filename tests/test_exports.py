"""Every name the package and its modules export resolves, code that
only tests call lives in the test oracles, the entry points the benchmark
times or wraps stay public functions, the calls
that read run settings take one ScenarioConfig, the modules import each
other without cycles, and a run imports neither graph routines nor the
lab."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import vmsns

MODULES = sorted(m.name for m in pkgutil.iter_modules(vmsns.__path__))


@pytest.mark.parametrize("module", ["vmsns"] + [f"vmsns.{m}" for m in MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names undefined {missing}"


#: product code that only tests called, now in tests/oracles.py
MOVED_TO_ORACLES = ["mesh.mesh_quality", "mesh.QualityReport", "mesh._facet_measures",
                    "fe._scatter_add", "diagnostics.BumpTest",
                    "diagnostics.local_energy_residual",
                    "diagnostics.MIN_SNAPSHOTS_IN_WINDOW"]


@pytest.mark.parametrize("name", MOVED_TO_ORACLES)
def test_test_only_code_is_not_in_the_package(name):
    module, _, attr = name.partition(".")
    assert not hasattr(importlib.import_module(f"vmsns.{module}"), attr)
    assert not hasattr(vmsns, attr)


#: functions the benchmark harness times or wraps, found by the public
#: function names each module defines
ENTRY_POINTS = ["solver.step", "solver.run", "spectral_lab.build_star_space",
                "spectral_lab.run_equivalence_suite", "io.write_equivalence_csv",
                "io.read_equivalence_csv", "cli.main"]


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_point_is_a_public_function_of_its_module(name):
    module, _, attr = name.partition(".")
    mod = importlib.import_module(f"vmsns.{module}")
    fn = getattr(mod, attr, None)
    assert inspect.isfunction(fn), f"vmsns.{name} is not a function"
    assert fn.__module__ == mod.__name__, f"vmsns.{name} is defined in {fn.__module__}"


#: calls that read every run setting from one ScenarioConfig, ``cfg``
CONFIG_CALLS = {"solver.step": ("state", "load", "cfg"),
                "solver.run": ("cfg",),
                "subgrid.compute_tau": ("cfg", "h", "u_linf")}


@pytest.mark.parametrize("name", sorted(CONFIG_CALLS))
def test_settings_arrive_as_one_config(name):
    module, _, attr = name.partition(".")
    fn = getattr(importlib.import_module(f"vmsns.{module}"), attr)
    assert tuple(inspect.signature(fn).parameters) == CONFIG_CALLS[name]


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


def test_a_run_imports_neither_csgraph_nor_the_lab():
    code = ("import sys\n"
            "from vmsns import solver\n"
            "from vmsns.config import ScenarioConfig\n"
            "solver.run(ScenarioConfig(n=3, T=0.02))\n"
            "print(sorted(m for m in sys.modules if m.startswith(\n"
            "    ('scipy.sparse.csgraph', 'vmsns.spectral_lab'))))\n")
    path = [os.path.dirname(vmsns.__path__[0]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"
