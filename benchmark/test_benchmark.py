"""Self-tests of the benchmark's own machinery:

    python3 -m pytest benchmark/test_benchmark.py -q
"""

import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import checks  # noqa: E402
import tracing  # noqa: E402
from run import run_rep, tail_percentile  # noqa: E402
from workloads import SEED_SPREAD, WORKLOADS, config_text  # noqa: E402


# -- percentile rule ----------------------------------------------------------

def test_p90_needs_ten_samples_beyond_it():
    assert tail_percentile([float(x) for x in range(99)], 0.9) is None
    assert tail_percentile([float(x) for x in range(100)], 0.9) == 89.0
    assert tail_percentile([float(x) for x in range(300)], 0.9) == 269.0
    # ties at the percentile leave nothing strictly beyond it
    assert tail_percentile([1.0] * 200, 0.9) is None
    assert tail_percentile([], 0.9) is None


# -- self time -----------------------------------------------------------------

def _span(name, parent, start, end, attrs=None):
    return [name, parent, start, end, attrs]


NESTED = [
    _span("workload", -1, 0.0, 10.0),
    _span("solver.step", 0, 1.0, 7.0),
    _span("solver.linalg.lu_factor", 1, 2.0, 4.0, {"bytes": 800, "n": 10}),
    _span("fe.scatter_cell_blocks", 1, 4.5, 5.0),
    _span("solver.step", 0, 8.0, 9.5),
]


def test_self_time_subtracts_nested_children():
    assert tracing.self_times(NESTED) == pytest.approx([2.5, 3.5, 2.0, 0.5, 1.5])


def test_layer_self_times_add_up_to_the_wall_time():
    m = tracing.layer_metrics(NESTED)
    assert m["trace.wall_s"] == 10.0
    assert m["unattributed_s"] == pytest.approx(2.5)
    assert m["solver.self_s"] == pytest.approx(7.0)  # factor time is the caller's
    assert m["fe.self_s"] == pytest.approx(0.5)
    assert m["solver.step_self_s"] == pytest.approx(5.0)
    assert m["solver.factor_s"] == pytest.approx(2.0)
    assert (m["solver.factor_count"], m["solver.factor_bytes"],
            m["solver.system_dofs"]) == (1, 800, 10)
    assert m["fe.scatter_calls"] == 1
    parts = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS + ("import",))
    assert parts + m["unattributed_s"] == pytest.approx(m["trace.wall_s"])
    assert set(m) <= set(tracing.LAYER_UNITS)


def test_inclusive_time_does_not_count_a_nested_call_twice():
    spans = [_span("workload", -1, 0.0, 4.0),
             _span("fe.assemble_mass", 0, 0.0, 3.0),
             _span("fe.assemble_load", 1, 1.0, 2.0)]
    assert tracing.inclusive(spans, tracing.FE_ASSEMBLY) == 3.0


def test_tracer_records_parents_of_nested_calls():
    tracer = tracing.Tracer()
    inner = tracer.wrap("fe.inner", lambda: 1)
    outer = tracer.wrap("solver.outer", lambda: inner() + 1)
    assert outer() == 2
    assert [(s[0], s[1]) for s in tracer.spans] == [("solver.outer", -1),
                                                     ("fe.inner", 0)]


def test_hook_wraps_names_the_calling_module_looks_up():
    """A fresh interpreter (the hook must precede ``import vmsns``) runs
    two small steps; solver's own imports and its scipy calls are seen."""
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import tracing\n"
        "t = tracing.Tracer(); tracing.install(t)\n"
        "from vmsns.config import ScenarioConfig\n"
        "from vmsns.solver import run\n"
        "run(ScenarioConfig(n=3, T=0.02, dt=0.01))\n"
        "names = {s[0] for s in t.spans}\n"
        "need = {'solver.step', 'fe.advection_factor', 'subgrid.cross_terms',\n"
        "        'solver.linalg.lu_factor', 'solver.linalg.cho_solve',\n"
        "        'mesh.build_structured', 'diagnostics.energy_ledger_entry'}\n"
        "assert need <= names, need - names\n" % (HERE, SRC))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


# -- seeded inputs ---------------------------------------------------------------

@pytest.mark.parametrize("workload", [w for w, s in WORKLOADS.items()
                                      if s["kind"] == "stepping"])
def test_seeded_configs_are_deterministic(workload):
    from vmsns.config import parse_config

    text = config_text(workload, 7, "out")
    assert text == config_text(workload, 7, "out")
    assert text != config_text(workload, 8, "out")
    a, b = parse_config(text), parse_config(config_text(workload, 8, "out"))
    for cfg in (a, b):
        assert abs(cfg.nu / 0.01 - 1.0) <= SEED_SPREAD
        for lo, hi in cfg.box:
            assert lo == 0.0 and abs(hi - 1.0) <= SEED_SPREAD
    # the work per run does not depend on the seed
    assert (a.n, a.dt, a.T, a.formats) == (b.n, b.dt, b.T, b.formats)


# -- failure counting -------------------------------------------------------------

def test_tampered_ledger_row_fails_one_check(tmp_path):
    from vmsns.config import ScenarioConfig
    from vmsns.io import write_energy_ledger
    from vmsns.solver import run

    result = run(ScenarioConfig(n=3, nu=0.1, dt=0.02, T=0.08))
    path = tmp_path / "ledger.csv"
    write_energy_ledger(result.records, path)
    found, _ = checks.check_stepping(result, str(path), str(tmp_path), 4, {})
    assert set(found.values()) == {"ok"}

    lines = path.read_text().splitlines()
    fields = lines[2].split(",")
    fields[1] = repr(float(fields[1]) * (1.0 + 1e-6))     # ke_fe of row 2
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    found, _ = checks.check_stepping(result, str(path), str(tmp_path), 4, {})
    failed = [name for name, outcome in found.items() if outcome != "ok"]
    assert failed == ["ledger_audit"]
    assert "InvariantViolation" in found["ledger_audit"]


def test_a_killed_repetition_fails_every_operation():
    result = run_rep("mms_n8_io", 1, traced=False, index=0, timeout=0.2)
    assert result["attempted"] == result["failed"] > WORKLOADS["mms_n8_io"]["steps"]
    assert "killed" in result["error"]
