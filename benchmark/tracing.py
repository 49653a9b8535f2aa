"""Spans recorded from outside the package, and the per-layer metrics
derived from them.

The wrappers are installed by an import hook before ``vmsns`` is imported:
right after a ``vmsns.<module>`` finishes executing, its public functions
are replaced in the module's namespace.  Later ``from .module import f``
statements, function-local imports and calls inside the module itself all
look the name up there, so every call crosses the wrapper.  In ``solver``
and ``spectral_lab`` the names bound to ``scipy.linalg`` /
``scipy.sparse.linalg`` (or to functions from them) are swapped for
wrapped stand-ins, so factorizations and solves land in the caller's
metrics whichever library does them.  No file of the package is edited.
"""

import importlib.abc
import importlib.machinery
import inspect
import sys
import types
from time import perf_counter

#: layers of the package, in report order
LAYERS = ("cli", "config", "scenarios", "mesh", "quadrature", "fe",
          "subgrid", "solver", "diagnostics", "io", "spectral_lab")

#: modules whose scipy linear-algebra calls are traced, and the kind each
#: call is booked under
LINALG_CALLERS = ("solver", "spectral_lab")
LINALG_KIND = {
    "lu_factor": "factor", "cho_factor": "factor", "cholesky": "factor",
    "qr": "factor", "lu": "factor", "splu": "factor", "spilu": "factor",
    "factorized": "factor",
    "lu_solve": "solve", "cho_solve": "solve", "solve": "solve",
    "solve_triangular": "solve", "spsolve": "solve", "lstsq": "solve",
    "spsolve_triangular": "solve",
    "eigh": "eig", "eig": "eig", "eigvals": "eig", "eigvalsh": "eig",
    "svd": "eig", "eigsh": "eig", "eigs": "eig", "svds": "eig",
}
_LINALG_MODULES = ("scipy.linalg", "scipy.sparse.linalg")

ROOT = "workload"


class Tracer:
    """In-memory spans: [name, parent index, start, end, attrs].

    Calls are assumed to come from one thread (the benchmark runs with
    VMSNS_THREADS=1), so one stack of open spans gives every span its
    parent.
    """

    def __init__(self):
        self.spans = []
        self._open = []
        self.enabled = True

    def begin(self, name, t=None):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, perf_counter() if t is None else t,
                           None, None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index, t=None):
        self.spans[index][3] = perf_counter() if t is None else t
        self._open.pop()

    def wrap(self, name, fn, measure=None):
        """``fn`` recorded as span ``name``; ``measure(args, result)``
        may return a dict of counts to attach."""

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if measure is not None:
                self.spans[index][4] = measure(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

def _public_functions(module):
    """Functions a module defines under a name without a leading
    underscore (``__all__`` leaves some that other modules import out)."""
    for attr, obj in list(vars(module).items()):
        if (not attr.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield attr, obj


def _array_bytes(obj):
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    # scipy sparse matrices: stored arrays only (computed, not measured)
    return sum(getattr(obj, part).nbytes for part in ("data", "indices", "indptr")
               if hasattr(getattr(obj, part, None), "nbytes"))


def _linalg_measure(args, result):
    shapes = [a.shape for a in args if hasattr(a, "shape")]
    return {"bytes": sum(_array_bytes(a) for a in args if hasattr(a, "shape")),
            "n": max((s[0] for s in shapes if s), default=0)}


class _SolveProxy:
    """A sparse factorization object whose ``solve`` is traced."""

    def __init__(self, factor, solve):
        self._factor = factor
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._factor, attr)


def _linalg_stand_in(tracer, layer, name, fn):
    kind = LINALG_KIND[name]
    traced = tracer.wrap(f"{layer}.linalg.{name}", fn, _linalg_measure)
    if kind != "factor":
        return traced
    solve_name = f"{layer}.linalg.{name}.solve"

    def factor(*args, **kwargs):
        result = traced(*args, **kwargs)
        if callable(result):                       # factorized(A) -> solve
            return tracer.wrap(solve_name, result)
        if hasattr(result, "solve") and not isinstance(result, tuple):
            return _SolveProxy(result, tracer.wrap(solve_name, result.solve))
        return result

    return factor


class _LinalgStandIn:
    """A scipy linear-algebra module whose factorizations, solves and
    eigensolves are traced; every other attribute is the module's own."""

    def __init__(self, tracer, layer, module):
        self._module = module
        for name in LINALG_KIND:
            fn = getattr(module, name, None)
            if callable(fn):
                setattr(self, name, _linalg_stand_in(tracer, layer, name, fn))

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _instrument_linalg(tracer, module, layer):
    for attr, obj in list(vars(module).items()):
        if isinstance(obj, types.ModuleType) and obj.__name__ in _LINALG_MODULES:
            setattr(module, attr, _LinalgStandIn(tracer, layer, obj))
        elif (callable(obj) and attr in LINALG_KIND
              and getattr(obj, "__module__", "").startswith(_LINALG_MODULES)):
            setattr(module, attr, _linalg_stand_in(tracer, layer, attr, obj))


def _measure_star_space(args, space):
    return {"n_star": space.n_star}


def instrument_module(tracer, module, only=None):
    """Wrap a freshly executed ``vmsns.<layer>`` module in place.

    ``only`` restricts wrapping to the given ``layer.function`` names
    (the untraced run times a single boundary)."""
    layer = module.__name__.rpartition(".")[2]
    for attr, fn in _public_functions(module):
        name = f"{layer}.{attr}"
        if only is not None and name not in only:
            continue
        measure = _measure_star_space if name == "spectral_lab.build_star_space" else None
        setattr(module, attr, tracer.wrap(name, fn, measure))
    if only is None and layer in LINALG_CALLERS:
        _instrument_linalg(tracer, module, layer)


class _Hook(importlib.abc.MetaPathFinder):
    def __init__(self, on_exec):
        self.on_exec = on_exec

    def find_spec(self, fullname, path, target=None):
        if not fullname.startswith("vmsns."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        on_exec = self.on_exec

        def exec_and_instrument(module):
            exec_module(module)
            on_exec(module)

        spec.loader.exec_module = exec_and_instrument
        return spec


def install(tracer, only=None, on_exec=None):
    """Register the hook; must run before ``vmsns`` is first imported.
    ``on_exec(module)`` runs after instrumentation (result capture)."""
    if any(name == "vmsns" or name.startswith("vmsns.") for name in sys.modules):
        raise RuntimeError("vmsns is already imported; wrappers would be bypassed")

    def instrument(module):
        instrument_module(tracer, module, only)
        if on_exec is not None:
            on_exec(module)

    sys.meta_path.insert(0, _Hook(instrument))


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans):
    """Each span's duration minus the part its children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span[1] >= 0:
            children[span[1]].append((span[2], span[3]))
    return [(s[3] - s[2]) - _covered(children[i]) for i, s in enumerate(spans)]


def layer_of(name):
    if name == ROOT:
        return "unattributed"
    return name.split(".", 1)[0]


def _ancestors_named(spans, index, names):
    parent = spans[index][1]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][1]
    return False


def inclusive(spans, names):
    """Summed duration of the outermost spans among ``names``, so a
    function that calls another of the set is not counted twice."""
    names = set(names)
    return sum(s[3] - s[2] for i, s in enumerate(spans)
               if s[0] in names and not _ancestors_named(spans, i, names))


def count(spans, name):
    return sum(1 for s in spans if s[0] == name)


def _linalg_kind(name, layer):
    prefix = f"{layer}.linalg."
    if not name.startswith(prefix):
        return None
    fn, _, method = name[len(prefix):].partition(".")
    return "solve" if method == "solve" else LINALG_KIND[fn]


def _linalg(spans, layer, kind):
    return [i for i, s in enumerate(spans) if _linalg_kind(s[0], layer) == kind]


def _attr_values(spans, indices, key):
    return [spans[i][4][key] for i in indices if spans[i][4]]


FE_ASSEMBLY = ("fe.assemble_mass", "fe.assemble_stiffness",
               "fe.assemble_gradient_coupling", "fe.assemble_convection",
               "fe.assemble_load")

#: per-layer metrics, in report order; every one is reported on every
#: workload (a layer a workload never enters reads 0)
LAYER_METRICS = (
    "solver.build_discretization_s", "solver.initialize_s", "solver.step_s",
    "solver.step_self_s", "solver.factor_s", "solver.solve_s",
    "solver.factor_count", "solver.solve_count", "solver.factor_bytes",
    "solver.system_dofs", "solver.picard_iters", "solver.picard_per_step",
    "solver.useful_solve_ratio",
    "fe.advection_factor_s", "fe.scatter_cell_blocks_s", "fe.scatter_calls",
    "fe.l2_project_s", "fe.l2_project_calls", "fe.assemble_s",
    "subgrid.cross_terms_s", "subgrid.residual_field_s",
    "subgrid.advance_subscale_s", "subgrid.orthogonality_defect_s",
    "subgrid.project_orthogonal_calls",
    "diagnostics.energy_ledger_entry_s",
    "io.write_energy_ledger_s", "io.write_fields_vtk_s",
    "io.read_energy_ledger_s", "io.check_energy_ledger_s",
    "io.bytes_written", "io.files_written",
    "mesh.build_structured_s",
    "spectral_lab.build_star_space_s", "spectral_lab.spectral_decompose_s",
    "spectral_lab.wv_equivalence_s", "spectral_lab.infsup_constant_s",
    "spectral_lab.leray_star_stability_s", "spectral_lab.leray_project_calls",
    "spectral_lab.inverse_inequality_constant_s",
    "spectral_lab.eig_s", "spectral_lab.eig_count",
    "spectral_lab.solve_s", "spectral_lab.solve_count",
    "spectral_lab.factor_s", "spectral_lab.factor_count",
    "spectral_lab.dense_bytes", "spectral_lab.n_star_max",
) + tuple(f"{layer}.self_s" for layer in LAYERS + ("import",)) + (
    "unattributed_s", "trace.wall_s", "trace.overhead_s", "trace.spans",
)


def _unit(metric):
    if metric.endswith("_s"):
        return "s"
    if "bytes" in metric:
        return "B"
    return {"solver.picard_per_step": "1/step",
            "solver.useful_solve_ratio": "ratio"}.get(metric, "count")


LAYER_UNITS = {metric: _unit(metric) for metric in LAYER_METRICS}


def layer_metrics(spans):
    """Per-layer metrics of one traced workload whose root span is
    ``spans[0]``.  Counts derived from array sizes are computed, not
    measured.  Metrics not derivable from spans alone (Picard counts,
    bytes on disk, overhead) are filled in by the caller."""
    selfs = self_times(spans)
    m = {}
    for layer in LAYERS + ("import",):
        m[f"{layer}.self_s"] = sum(t for s, t in zip(spans, selfs)
                                   if layer_of(s[0]) == layer)
    m["unattributed_s"] = selfs[0]
    m["trace.wall_s"] = spans[0][3] - spans[0][2]
    m["trace.spans"] = len(spans)

    for name in ("solver.build_discretization", "solver.initialize",
                 "solver.step", "fe.advection_factor", "fe.scatter_cell_blocks",
                 "fe.l2_project", "subgrid.cross_terms",
                 "subgrid.residual_field", "subgrid.advance_subscale",
                 "subgrid.orthogonality_defect",
                 "diagnostics.energy_ledger_entry", "io.write_energy_ledger",
                 "io.write_fields_vtk", "io.read_energy_ledger",
                 "io.check_energy_ledger", "mesh.build_structured",
                 "spectral_lab.build_star_space",
                 "spectral_lab.spectral_decompose",
                 "spectral_lab.wv_equivalence", "spectral_lab.infsup_constant",
                 "spectral_lab.leray_star_stability",
                 "spectral_lab.inverse_inequality_constant"):
        m[f"{name}_s"] = inclusive(spans, (name,))
    m["fe.assemble_s"] = inclusive(spans, FE_ASSEMBLY)
    m["solver.step_self_s"] = sum(t for s, t in zip(spans, selfs)
                                  if s[0] == "solver.step")

    m["fe.scatter_calls"] = count(spans, "fe.scatter_cell_blocks")
    m["fe.l2_project_calls"] = count(spans, "fe.l2_project")
    m["subgrid.project_orthogonal_calls"] = count(spans, "subgrid.project_orthogonal")
    m["spectral_lab.leray_project_calls"] = count(spans, "spectral_lab.leray_project")

    for layer, kinds in (("solver", ("factor", "solve")),
                         ("spectral_lab", ("eig", "solve", "factor"))):
        for kind in kinds:
            idx = _linalg(spans, layer, kind)
            m[f"{layer}.{kind}_s"] = sum(spans[i][3] - spans[i][2] for i in idx)
            m[f"{layer}.{kind}_count"] = len(idx)
    factors = _linalg(spans, "solver", "factor")
    m["solver.factor_bytes"] = sum(_attr_values(spans, factors, "bytes"))
    m["solver.system_dofs"] = max(_attr_values(spans, factors, "n"), default=0)
    lab_calls = [i for i, s in enumerate(spans)
                 if s[0].startswith("spectral_lab.linalg.")]
    m["spectral_lab.dense_bytes"] = sum(_attr_values(spans, lab_calls, "bytes"))
    stars = [i for i, s in enumerate(spans) if s[0] == "spectral_lab.build_star_space"]
    m["spectral_lab.n_star_max"] = max(_attr_values(spans, stars, "n_star"), default=0)
    return {k: float(v) if LAYER_UNITS[k] == "s" else v for k, v in m.items()}
