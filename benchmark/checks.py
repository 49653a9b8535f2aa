"""Output checks of one workload repetition.

Each check is one operation: it passes or it counts as a failed one.  The
checks run after the timed region and are not part of any metric.
"""

import glob
import json
import math
import os

#: stepping outputs agree with the reference to 100 x picard_tol
STEP_REL_TOL = 1e-6
#: lab rows agree with the reference to this relative tolerance ...
LAB_REL_TOL = 1e-8
#: ... except rows that are zero by construction, held under a ceiling
LAB_ZERO_CEILING = 1e-6
#: a reference value at or below this magnitude is zero by construction
LAB_ZERO_FLOOR = 1e-10
#: unforced runs: totals equal the data bound in exact arithmetic, so
#: domination is checked up to roundoff (as in the acceptance gate)
UNFORCED_BOUND_SLACK = 1e-12

LEDGER_FIELDS = ("t", "ke_fe", "ke_sub", "visc_diss", "sub_diss",
                 "power_in", "jump_terms")

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _run(checks, name, fn):
    """Record ``fn()`` as check ``name``: a falsy return or any exception
    fails it."""
    try:
        ok = bool(fn())
        checks[name] = "ok" if ok else "failed"
    except Exception as exc:  # a broken output must count, not abort
        checks[name] = f"failed: {type(exc).__name__}: {exc}"


def _columns_agree(got, want, rel_tol):
    """Each column of ``got`` within rel_tol of ``want`` relative to the
    column's largest reference magnitude."""
    if len(got) != len(want):
        return False
    for j in range(len(want[0]) if want else 0):
        scale = max(abs(row[j]) for row in want)
        for a, b in zip(got, want):
            if abs(a[j] - b[j]) > rel_tol * scale:
                return False
    return True


def ledger_rows(records):
    return [[getattr(r, f) for f in LEDGER_FIELDS] for r in records]


def check_stepping(result, ledger_path, out_dir, steps, ceiling,
                   reference=None):
    """Checks of a stepping workload.  ``ceiling`` bounds the final error
    norms of a forced run; ``reference`` is the workload's entry of
    reference.json, given only at the recorded seed.  Returns the checks
    and the final error norms (empty when unforced)."""
    from vmsns import io
    from vmsns.diagnostics import a_priori_bound, energy_totals, error_norms
    from vmsns.scenarios import fields_for

    checks = {}
    cfg = result.config
    forced = cfg.forcing != "none"

    def ledger():
        records = io.read_energy_ledger(ledger_path)
        io.check_energy_ledger(records)  # the unchanged 1e-10 / 1e-12 audit
        return len(records) == steps and records == result.records

    def continuity():
        return all(s.continuity_residual <= 10.0 * cfg.linear_tol
                   for s in result.states)

    def energy_bound():
        slack = 1.0 if forced else 1.0 + UNFORCED_BOUND_SLACK
        return energy_totals(result) <= a_priori_bound(result) * slack

    def vtk():
        files = sorted(glob.glob(os.path.join(out_dir, "fields_*.vtk")))
        back = io.read_fields_vtk(files[-1])
        return (len(files) == len(result.states)
                and back["velocity"].shape[0] == result.disc.mesh.n_vertices)

    _run(checks, "ledger_audit", ledger)
    _run(checks, "continuity_residual", continuity)
    _run(checks, "energy_bound", energy_bound)
    if "vtk" in cfg.formats:
        _run(checks, "vtk_outputs", vtk)

    errors = {}
    if forced:
        def error_ceiling():
            errors.update(error_norms(result.states[-1], fields_for(cfg)))
            return all(errors[k] < ceiling[k] for k in ceiling)

        _run(checks, "error_ceiling", error_ceiling)
    if reference is not None:
        _run(checks, "reference_ledger", lambda: _columns_agree(
            ledger_rows(result.records), reference["ledger"], STEP_REL_TOL))
        if "errors" in reference:
            _run(checks, "reference_errors", lambda: all(
                abs(errors[k] - v) <= STEP_REL_TOL * abs(v)
                for k, v in reference["errors"].items()))
    return checks, errors


# ---------------------------------------------------------------------------
# lab
# ---------------------------------------------------------------------------

def report_rows(report):
    return [[r.lemma, r.s, r.level, r.h, r.value, r.ratio_min, r.ratio_max]
            for r in report.rows]


def _same(a, b):
    return a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b))


def _lab_value_agrees(a, b):
    if math.isnan(b):
        return math.isnan(a)
    if abs(b) <= LAB_ZERO_FLOOR:
        return abs(a) <= LAB_ZERO_CEILING
    return abs(a - b) <= LAB_REL_TOL * abs(b)


def check_lab(report, read_back, levels, reference=None):
    checks = {}
    rows = report_rows(report)

    def leray():
        s0 = [r for r in report.rows if r.lemma == "leray_stability" and r.s == 0.0]
        return len(s0) == len(levels) and all(
            r.value <= 1.0 + 1e-10 and r.ratio_max <= 1.0 + 1e-10 for r in s0)

    def infsup():
        star = [r.value for r in report.rows if r.lemma == "infsup_star"]
        return star and all(v > 0.0 for v in star)

    def csv_roundtrip():
        back = report_rows(read_back)
        return len(back) == len(rows) and all(
            all(_same(a, b) for a, b in zip(x, y)) for x, y in zip(back, rows))

    _run(checks, "leray_contraction", leray)
    _run(checks, "infsup_star_positive", infsup)
    _run(checks, "csv_readback", csv_roundtrip)
    if reference is not None:
        def agrees():
            want = reference["rows"]
            return len(want) == len(rows) and all(
                x[:3] == y[:3] and all(_lab_value_agrees(a, b)
                                       for a, b in zip(x[3:], y[3:]))
                for x, y in zip(rows, want))

        _run(checks, "reference_rows", agrees)
    return checks
