"""On-disk formats: the energy ledger CSV, legacy-ASCII VTK field dumps,
and the small report tables (equivalence rows, convergence rates).

Floats are written with ``repr``, which round-trips every double exactly;
identical runs therefore produce byte-identical ledgers, and ``check``
can re-derive each row's imbalance from its neighbours without slack for
formatting loss.
"""

import dataclasses
import math
import os
import weakref

import numpy as np

from .diagnostics import EnergyRecord
from .errors import ConfigurationError, InvariantViolation

__all__ = [
    "LEDGER_HEADER",
    "LEDGER_NAME",
    "write_energy_ledger",
    "read_energy_ledger",
    "check_energy_ledger",
    "write_fields_vtk",
    "read_fields_vtk",
    "write_equivalence_csv",
    "read_equivalence_csv",
    "write_table_csv",
]

#: the EnergyRecord fields, in ledger column order
_LEDGER_FIELDS = tuple(f.name for f in dataclasses.fields(EnergyRecord))
LEDGER_HEADER = ",".join(_LEDGER_FIELDS)
LEDGER_NAME = "ledger.csv"

#: invariant bound on each row's relative imbalance
IMBALANCE_TOL = 1e-10
#: agreement required between a stored imbalance and its recomputation
CONSISTENCY_TOL = 1e-12


def _fmt(x):
    return repr(float(x))


def _ledger_row(r):
    """The fields of one record, in LEDGER_HEADER order."""
    return tuple(getattr(r, name) for name in _LEDGER_FIELDS)


def _read_lines(path, what):
    """The lines of the text file ``path``, without line ends; a file that
    cannot be read is a ConfigurationError, and one that is not UTF-8 an
    InvariantViolation, each naming ``what`` it was to be."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [ln.rstrip("\n") for ln in fh]
    except OSError as exc:
        raise ConfigurationError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvariantViolation(f"{path}: {what} is not UTF-8 text: {exc}") from exc


def _write_lines(path, lines, what):
    """Write ``lines`` to the text file ``path``, each ended by a newline;
    a file that cannot be written is a ConfigurationError naming ``what``
    it was to be."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ConfigurationError(f"cannot write {what} {path}: {exc}") from exc


def _read_table(path, header, what, parse):
    """``parse(*fields)`` of each data row of the CSV table ``path``.
    Empty lines are skipped; the first other line must be ``header``, and
    a later one with another field count or that ``parse`` rejects with a
    ValueError is an InvariantViolation naming ``path:line``."""
    lines = [(k, ln.split(",")) for k, ln in
             enumerate(_read_lines(path, what), start=1) if ln]
    if not lines or tuple(lines[0][1]) != tuple(header):
        lineno, got = (lines[0][0], ",".join(lines[0][1])) if lines else (1, "")
        raise InvariantViolation(
            f"{path}:{lineno}: expected header {','.join(header)!r}, got {got!r}")
    rows = []
    for lineno, parts in lines[1:]:
        if len(parts) != len(header):
            raise InvariantViolation(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(parts)}")
        try:
            rows.append(parse(*parts))
        except ValueError as exc:
            raise InvariantViolation(f"{path}:{lineno}: {exc}") from exc
    return rows


def write_energy_ledger(records, path):
    """One row per time step, strictly increasing t, repr-exact floats."""
    _write_lines(path, [LEDGER_HEADER] + [",".join(map(_fmt, _ledger_row(r)))
                                          for r in records], "ledger")


def read_energy_ledger(path):
    records = _read_table(path, _LEDGER_FIELDS, "ledger",
                          lambda *parts: EnergyRecord(*map(float, parts)))
    for a, b in zip(records, records[1:]):
        if not b.t > a.t:
            raise InvariantViolation(
                f"{path}: ledger times not strictly increasing at t={b.t!r}")
    return records


def check_energy_ledger(records, imbalance_tol=IMBALANCE_TOL,
                        consistency_tol=CONSISTENCY_TOL):
    """Audit a ledger: every field must be finite, every row's imbalance
    must sit inside the invariant band, and from the second row on it must
    be re-derivable from the neighbouring rows' energies (the first row's
    reference state is not in the file, so it is bounds-checked only)."""
    problems = []
    prev_t = 0.0
    prev = None
    for i, r in enumerate(records):
        bad = [name for name, v in zip(_LEDGER_FIELDS, _ledger_row(r))
               if not math.isfinite(v)]
        if bad:
            problems.append(f"row {i + 1}: non-finite {', '.join(bad)}")
            continue
        dt = r.t - prev_t
        if dt <= 0:
            problems.append(f"row {i + 1}: nonpositive step size {dt!r}")
            continue
        scale = r.relative_scale(dt)
        if abs(r.imbalance) > imbalance_tol * scale:
            problems.append(
                f"row {i + 1} (t={r.t!r}): imbalance {r.imbalance!r} exceeds "
                f"{imbalance_tol} x scale {scale!r}")
        if prev is not None:
            recomputed = ((r.ke_fe - prev.ke_fe) + (r.ke_sub - prev.ke_sub)
                          + r.jump_terms + dt * r.visc_diss + dt * r.sub_diss
                          - dt * r.power_in)
            if abs(recomputed - r.imbalance) > consistency_tol * scale:
                problems.append(
                    f"row {i + 1} (t={r.t!r}): stored imbalance {r.imbalance!r} "
                    f"disagrees with recomputed {recomputed!r}")
        prev, prev_t = r, r.t
    if problems:
        raise InvariantViolation(problems)


# ---------------------------------------------------------------------------
# VTK legacy ASCII fields
# ---------------------------------------------------------------------------

#: (weak reference to a mesh, its VTK mesh block): the block of the last
#: mesh written, which every later snapshot of that mesh reuses (a mesh's
#: vertices and cells do not change after it is built)
_last_mesh_block = (None, "")


def _mesh_block(mesh):
    """The POINTS, CELLS and CELL_TYPES lines of ``mesh``, joined by
    newlines, formatted once per mesh."""
    global _last_mesh_block
    ref, block = _last_mesh_block
    if ref is not None and ref() is mesh:
        return block
    pts3 = np.zeros((mesh.n_vertices, 3))
    pts3[:, :mesh.dim] = mesh.vertices
    npc = mesh.cells.shape[1]
    lines = [f"POINTS {mesh.n_vertices} double"]
    lines += [" ".join(map(repr, p)) for p in pts3.tolist()]
    lines.append(f"CELLS {mesh.n_cells} {mesh.n_cells * (npc + 1)}")
    lines += [f"{npc} " + " ".join(map(str, cell)) for cell in mesh.cells.tolist()]
    lines.append(f"CELL_TYPES {mesh.n_cells}")
    lines += [str(5 if mesh.dim == 2 else 10)] * mesh.n_cells
    block = "\n".join(lines)
    _last_mesh_block = (weakref.ref(mesh), block)
    return block


def write_fields_vtk(state, path, title="flow fields"):
    """Velocity (point vectors), pressure (point scalars), and the
    quadrature-averaged subscale magnitude (cell scalars)."""
    disc = state.disc
    mesh = disc.mesh
    # vertices are the first nodes of every space
    vel = disc.V.nodal_values(state.u)[:mesh.n_vertices]
    pres = disc.Q.nodal_values(state.p)[:mesh.n_vertices, 0]
    tab = disc.V.tabulation()
    w = tab["weights"]
    mag = np.sqrt(np.einsum("cqk,cqk->cq", state.tilde, state.tilde))
    sub_mag = np.einsum("cq,cq->c", w, mag) / w.sum(axis=1)

    vel3 = np.zeros((mesh.n_vertices, 3))
    vel3[:, :mesh.dim] = vel

    lines = ["# vtk DataFile Version 3.0", title, "ASCII",
             "DATASET UNSTRUCTURED_GRID", _mesh_block(mesh),
             f"POINT_DATA {mesh.n_vertices}", "VECTORS velocity double"]
    lines += [" ".join(map(repr, v)) for v in vel3.tolist()]
    lines.append("SCALARS pressure double 1")
    lines.append("LOOKUP_TABLE default")
    lines += map(repr, pres.tolist())
    lines.append(f"CELL_DATA {mesh.n_cells}")
    lines.append("SCALARS subscale_magnitude double 1")
    lines.append("LOOKUP_TABLE default")
    lines += map(repr, sub_mag.tolist())
    _write_lines(path, lines, "VTK file")


def read_fields_vtk(path):
    """Minimal reader for the files write_fields_vtk produces (round-trip
    checks and downstream tooling).  Malformed content raises
    InvariantViolation naming ``path:line``."""
    lines = [ln.strip() for ln in _read_lines(path, "VTK file")]
    cursor = 0                   # lines taken; the last one is line `cursor`

    def take():
        nonlocal cursor
        if cursor == len(lines):
            raise InvariantViolation(f"{path}:{cursor + 1}: unexpected end of file")
        cursor += 1
        return lines[cursor - 1]

    def expect(prefix):
        ln = take()
        if not ln.startswith(prefix):
            raise InvariantViolation(f"{path}:{cursor}: expected {prefix!r}, got {ln!r}")
        return ln

    try:
        expect("# vtk DataFile")
        take()                       # title
        expect("ASCII")
        expect("DATASET UNSTRUCTURED_GRID")
        n_pts = int(expect("POINTS").split()[1])
        points = np.array([[float(c) for c in take().split()] for _ in range(n_pts)])
        n_cells = int(expect("CELLS").split()[1])
        cells = []
        for _ in range(n_cells):
            parts = [int(v) for v in take().split()]
            cells.append(parts[1:1 + parts[0]])
        cells = np.array(cells)
        expect("CELL_TYPES")
        for _ in range(n_cells):
            take()
        expect("POINT_DATA")
        expect("VECTORS velocity")
        velocity = np.array([[float(c) for c in take().split()] for _ in range(n_pts)])
        expect("SCALARS pressure")
        expect("LOOKUP_TABLE")
        pressure = np.array([float(take()) for _ in range(n_pts)])
        expect("CELL_DATA")
        expect("SCALARS subscale_magnitude")
        expect("LOOKUP_TABLE")
        subscale = np.array([float(take()) for _ in range(n_cells)])
    except (ValueError, IndexError) as exc:
        raise InvariantViolation(f"{path}:{cursor}: {exc}") from exc
    return {"points": points, "cells": cells, "velocity": velocity,
            "pressure": pressure, "subscale_magnitude": subscale}


# ---------------------------------------------------------------------------
# report tables
# ---------------------------------------------------------------------------

def write_table_csv(header, rows, path):
    """Small-table writer: floats via repr, None as an empty cell."""
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, float):
            return "" if np.isnan(v) else _fmt(v)
        return str(v)

    _write_lines(path, [",".join(header)]
                 + [",".join(cell(v) for v in row) for row in rows], "table")


def write_equivalence_csv(report, path):
    # the lab is imported here, so that stepping runs do not load it
    from .spectral_lab import EquivalenceReport

    rows = [(r.lemma, r.s, r.level, r.h, r.value, r.ratio_min, r.ratio_max)
            for r in report.rows]
    write_table_csv(EquivalenceReport.HEADER, rows, path)


def read_equivalence_csv(path):
    """Read a report written by write_equivalence_csv; empty lines are
    skipped, and malformed content raises InvariantViolation naming
    ``path:line``."""
    from .spectral_lab import EquivalenceReport, ReportRow

    def row(lemma, s, level, h, value, rmin, rmax):
        # an empty ratio cell is a NaN
        return ReportRow(lemma, float(s), int(level), float(h), float(value),
                         float(rmin or "nan"), float(rmax or "nan"))

    return EquivalenceReport(rows=tuple(
        _read_table(path, EquivalenceReport.HEADER, "report", row)))


def ensure_dir(path):
    """Create the output directory ``path`` and its parents if missing."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot create output directory {path}: {exc}") from exc
    return path
