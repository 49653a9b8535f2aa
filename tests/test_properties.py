"""Property tests of the step energy identity and the ledger audit over
random physics, stabilization and time-step parameters on small meshes."""

import os
import tempfile
from dataclasses import replace

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vmsns import scenarios
from vmsns.cli import main
from vmsns.config import ScenarioConfig
from vmsns.diagnostics import energy_ledger_entry
from vmsns.errors import SolverNonconvergence
from vmsns.fe import assemble_load
from vmsns.io import (IMBALANCE_TOL, LEDGER_HEADER, check_energy_ledger,
                      read_energy_ledger, write_energy_ledger)
from vmsns.mesh import build_structured
from vmsns.solver import build_discretization, initialize, step

STEPS = 3
COLUMNS = LEDGER_HEADER.split(",")
#: columns the audit re-derives each row's imbalance from (every column
#: but t); the first row's reference state is not in the file, so of its
#: columns only those its successor reads, and its imbalance, are audited
AUDITED = COLUMNS[1:]
AUDITED_FIRST_ROW = ("ke_fe", "ke_sub", "imbalance")

tampered_entries = st.one_of(
    st.tuples(st.just(0), st.sampled_from(AUDITED_FIRST_ROW)),
    st.tuples(st.integers(1, STEPS - 1), st.sampled_from(AUDITED)),
)


def _write_cfg(directory, entries):
    cfg = os.path.join(directory, "run.cfg")
    with open(cfg, "w") as fh:
        fh.write("".join(f"{k} = {v}\n" for k, v in entries.items()))
    return ["--config", cfg, "--out", os.path.join(directory, "out")]


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(2, 6),
    nu=st.floats(1e-3, 1.0),
    dt=st.floats(1e-3, 0.05),
    C_s=st.floats(0.5, 16.0),
    C_c=st.floats(0.0, 8.0),
    tau_floor=st.floats(0.0, 1e-2),
    convection=st.booleans(),
    box=st.tuples(st.floats(-1.0, 1.0), st.floats(0.5, 2.0),
                  st.floats(-1.0, 1.0), st.floats(0.5, 2.0)),
    forcing=st.sampled_from(("none", "manufactured_poly")),
    tamper=tampered_entries,
)
def test_energy_identity_and_audit_under_random_parameters(
        n, nu, dt, C_s, C_c, tau_floor, convection, box, forcing, tamper):
    x0, lx, y0, ly = box
    entries = {
        "mesh.dim": "2", "mesh.n": str(n),
        "mesh.box": f"{x0!r},{x0 + lx!r}, {y0!r},{y0 + ly!r}",
        "physics.nu": repr(nu),
        "physics.initial": "decaying_vortex",
        "physics.forcing": forcing,
        "physics.convection": "on" if convection else "off",
        "stab.C_s": repr(C_s), "stab.C_c": repr(C_c),
        "stab.tau_floor": repr(tau_floor),
        "time.dt": repr(dt), "time.T": repr(STEPS * dt),
    }
    with tempfile.TemporaryDirectory() as tmp:
        argv = _write_cfg(tmp, entries)
        code = main(["run"] + argv)
        # Picard iteration may fail to contract for large data (the forcing
        # grows on boxes away from the unit square); that is reported with
        # its documented exit code, and the run has no ledger to audit
        assert code in (0, 3)
        assume(code == 0)

        ledger = os.path.join(tmp, "out", "ledger.csv")
        records = read_energy_ledger(ledger)
        assert len(records) == STEPS
        for r in records:
            assert abs(r.imbalance) <= IMBALANCE_TOL * r.relative_scale(dt)
        check_energy_ledger(records)
        assert main(["check"] + argv) == 0

        # one entry moved by far more than the audit's tolerances: the
        # identity-derived checks of that row or the next must catch it
        row, column = tamper
        with open(ledger) as fh:
            lines = fh.read().splitlines()
        cells = lines[1 + row].split(",")
        k = COLUMNS.index(column)
        shift = 1e-6 * records[row].relative_scale(dt) / dt
        cells[k] = repr(float(cells[k]) + shift)
        lines[1 + row] = ",".join(cells)
        with open(ledger, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        assert main(["check"] + argv) == 4


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(2, 6),
    nu=st.floats(1e-3, 1.0),
    dt=st.floats(1e-3, 0.05),
    ratios=st.lists(st.floats(0.25, 2.0), min_size=STEPS + 2, max_size=STEPS + 2),
    convection=st.booleans(),
    forcing=st.sampled_from(("none", "manufactured_poly")),
)
def test_energy_identity_and_audit_when_dt_changes_every_step(
        n, nu, dt, ratios, convection, forcing):
    """Each step's dt is the last one's times a random ratio, so each
    step's start is extrapolated through states at uneven times, or, past
    their reach, not at all; every step's identity and the audit of the
    written ledger still hold."""
    cfg = ScenarioConfig(n=n, nu=nu, dt=dt, T=2.0, convection=convection,
                         initial="decaying_vortex", forcing=forcing)
    disc = build_discretization(build_structured(2, n))
    fields = scenarios.fields_for(cfg)
    load = None if fields.forcing is None else assemble_load(disc.V, fields.forcing)
    state = initialize(fields.initial, disc)
    records = []
    for ratio in ratios:
        cfg = replace(cfg, dt=cfg.dt * ratio)
        try:
            new = step(state, load, cfg)
        except SolverNonconvergence:
            assume(False)
        r = energy_ledger_entry(state, new, load, cfg.dt, new.tau_used, nu)
        assert abs(r.imbalance) <= IMBALANCE_TOL * r.relative_scale(cfg.dt)
        records.append(r)
        state = new
    with tempfile.TemporaryDirectory() as tmp:
        ledger = os.path.join(tmp, "ledger.csv")
        write_energy_ledger(records, ledger)
        assert read_energy_ledger(ledger) == records
        check_energy_ledger(read_energy_ledger(ledger))


def test_audit_accepts_a_ledger_whose_energy_is_all_subscale():
    """On a 2 x 2 mesh of the box (0, 2)², the one interior vertex sits on
    a zero of the decaying vortex, so the resolved velocity vanishes and
    all the energy is in the subscale.  The step identity closes to about
    3e-16 of that energy, and the audit's scale counts the subscale
    energy, so the ledger passes."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = _write_cfg(tmp, {
            "mesh.dim": "2", "mesh.n": "2", "mesh.box": "0,2, 0,2",
            "physics.nu": "1.0", "physics.initial": "decaying_vortex",
            "physics.convection": "off", "stab.C_s": "1.0", "stab.C_c": "0.0",
            "time.dt": "0.03125", "time.T": "0.09375",
        })
        assert main(["run"] + argv) == 0
        records = read_energy_ledger(os.path.join(tmp, "out", "ledger.csv"))
        for r in records:
            assert r.ke_fe < 1e-30 < 0.5 < r.ke_sub
            total = r.ke_fe + r.ke_sub
            assert abs(r.imbalance) <= IMBALANCE_TOL * total
        assert main(["check"] + argv) == 0
