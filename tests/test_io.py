"""Ledger CSV, VTK field dumps, and report tables: round trips and audits."""

import numpy as np
import pytest

from vmsns.config import ScenarioConfig
from vmsns.diagnostics import EnergyRecord
from vmsns.errors import ConfigurationError, InvariantViolation
from vmsns import io
from vmsns.io import (
    LEDGER_HEADER,
    check_energy_ledger,
    read_energy_ledger,
    read_equivalence_csv,
    read_fields_vtk,
    write_energy_ledger,
    write_equivalence_csv,
    write_fields_vtk,
    write_table_csv,
)
from vmsns.mesh import build_structured
from vmsns.solver import build_discretization, initialize, run


def _run_records(**overrides):
    base = dict(n=3, nu=0.1, initial="decaying_vortex", dt=0.02, T=0.08)
    base.update(overrides)
    return run(ScenarioConfig(**base))


# ---------------------------------------------------------------------------
# energy ledger
# ---------------------------------------------------------------------------

def test_ledger_byte_exact_roundtrip(tmp_path):
    result = _run_records()
    path = tmp_path / "ledger.csv"
    write_energy_ledger(result.records, path)
    back = read_energy_ledger(path)
    assert back == result.records  # repr round-trips doubles exactly
    # writing what was read reproduces the file byte for byte
    path2 = tmp_path / "ledger2.csv"
    write_energy_ledger(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_ledger_header_is_stable(tmp_path):
    path = tmp_path / "ledger.csv"
    write_energy_ledger([], path)
    assert path.read_text().splitlines()[0] == LEDGER_HEADER
    assert LEDGER_HEADER.startswith("t,ke_fe,ke_sub")


def test_ledger_read_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,energy\n1,2\n")
    with pytest.raises(InvariantViolation):
        read_energy_ledger(path)


def test_ledger_read_rejects_short_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(LEDGER_HEADER + "\n0.1,0.2,0.3\n")
    with pytest.raises(InvariantViolation):
        read_energy_ledger(path)


def test_ledger_read_rejects_nonmonotone_times(tmp_path):
    rec = EnergyRecord(t=0.1, ke_fe=1.0, ke_sub=0.0, visc_diss=0.0,
                       sub_diss=0.0, power_in=0.0, jump_terms=0.0,
                       imbalance=0.0)
    path = tmp_path / "bad.csv"
    write_energy_ledger([rec, rec], path)
    with pytest.raises(InvariantViolation):
        read_energy_ledger(path)


def test_ledger_read_missing_file():
    with pytest.raises(ConfigurationError):
        read_energy_ledger("/nonexistent/ledger.csv")


def test_check_accepts_solver_output(tmp_path):
    result = _run_records()
    check_energy_ledger(result.records)


def test_check_catches_imbalance_out_of_band():
    result = _run_records()
    r = result.records[0]
    corrupt = [EnergyRecord(t=r.t, ke_fe=r.ke_fe, ke_sub=r.ke_sub,
                            visc_diss=r.visc_diss, sub_diss=r.sub_diss,
                            power_in=r.power_in, jump_terms=r.jump_terms,
                            imbalance=1e-3 * r.relative_scale(0.02))]
    with pytest.raises(InvariantViolation) as info:
        check_energy_ledger(corrupt)
    assert "imbalance" in str(info.value)


def test_check_catches_tampered_energy():
    result = _run_records()
    records = list(result.records)
    r = records[1]
    # bump a stored energy without fixing the imbalance column: the
    # recomputation from neighbouring rows must flag the row
    records[1] = EnergyRecord(t=r.t, ke_fe=r.ke_fe * 1.001, ke_sub=r.ke_sub,
                              visc_diss=r.visc_diss, sub_diss=r.sub_diss,
                              power_in=r.power_in, jump_terms=r.jump_terms,
                              imbalance=r.imbalance)
    with pytest.raises(InvariantViolation) as info:
        check_energy_ledger(records)
    assert "disagrees" in str(info.value)


# ---------------------------------------------------------------------------
# VTK
# ---------------------------------------------------------------------------

def test_vtk_roundtrip(tmp_path):
    result = _run_records(n=2)
    state = result.states[-1]
    path = tmp_path / "fields.vtk"
    write_fields_vtk(state, path)
    data = read_fields_vtk(path)
    mesh = result.disc.mesh
    assert data["points"].shape == (mesh.n_vertices, 3)
    assert np.array_equal(data["cells"], mesh.cells)
    assert np.max(np.abs(data["points"][:, :2] - mesh.vertices)) == 0.0
    # interior vertex values match the coefficient vector exactly
    V = result.disc.V
    for v in range(mesh.n_vertices):
        s = V.node_dof[v]
        want = (state.u[2 * s:2 * s + 2] if s >= 0 else np.zeros(2))
        assert np.array_equal(data["velocity"][v, :2], want)
    assert data["velocity"].shape == (mesh.n_vertices, 3)
    assert np.all(data["velocity"][:, 2] == 0.0)
    assert data["subscale_magnitude"].shape == (mesh.n_cells,)
    assert np.all(data["subscale_magnitude"] >= 0.0)


def test_vtk_rest_state(tmp_path):
    result = _run_records(n=2, initial="zero", T=0.0)
    path = tmp_path / "tiny.vtk"
    write_fields_vtk(result.states[0], path)
    data = read_fields_vtk(path)
    assert data["points"].shape[0] == 9
    assert data["cells"].shape == (8, 3)
    assert np.all(data["velocity"] == 0.0)
    assert np.all(data["subscale_magnitude"] == 0.0)


def _fmt_built_vtk(state, title):
    """The VTK text built value by value with ``io._fmt``."""
    disc = state.disc
    mesh = disc.mesh
    nv, nc, npc = mesh.n_vertices, mesh.n_cells, mesh.cells.shape[1]
    pts3 = np.zeros((nv, 3))
    pts3[:, :mesh.dim] = mesh.vertices
    vel3 = np.zeros((nv, 3))
    vel3[:, :mesh.dim] = disc.V.nodal_values(state.u)[:nv]
    pres = disc.Q.nodal_values(state.p)[:nv, 0]
    w = disc.V.tabulation()["weights"]
    mag = np.sqrt(np.einsum("cqk,cqk->cq", state.tilde, state.tilde))
    sub_mag = np.einsum("cq,cq->c", w, mag) / w.sum(axis=1)
    lines = ["# vtk DataFile Version 3.0", title, "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {nv} double"]
    lines += [" ".join(io._fmt(c) for c in p) for p in pts3]
    lines.append(f"CELLS {nc} {nc * (npc + 1)}")
    lines += [f"{npc} " + " ".join(str(v) for v in cell) for cell in mesh.cells]
    lines.append(f"CELL_TYPES {nc}")
    lines += [str(5 if mesh.dim == 2 else 10)] * nc
    lines += [f"POINT_DATA {nv}", "VECTORS velocity double"]
    lines += [" ".join(io._fmt(c) for c in v) for v in vel3]
    lines += ["SCALARS pressure double 1", "LOOKUP_TABLE default"]
    lines += [io._fmt(p) for p in pres]
    lines += [f"CELL_DATA {nc}", "SCALARS subscale_magnitude double 1",
              "LOOKUP_TABLE default"]
    lines += [io._fmt(v) for v in sub_mag]
    return "\n".join(lines) + "\n"


def _vortex_3d(x):
    return np.stack([np.sin(np.pi * x[:, 1]) * x[:, 2], np.cos(2.0 * x[:, 0]),
                     -x[:, 0] * x[:, 1]], axis=-1)


def test_vtk_text_is_the_value_by_value_text(tmp_path):
    states = [_run_records(n=3).states[-1],
              initialize(_vortex_3d, build_discretization(build_structured(3, 2)))]
    for k, state in enumerate(states):
        path = tmp_path / f"fields{k}.vtk"
        write_fields_vtk(state, path, title="t")
        assert path.read_bytes() == _fmt_built_vtk(state, "t").encode("utf-8")


def test_vtk_reader_rejects_foreign_files(tmp_path):
    path = tmp_path / "foreign.vtk"
    path.write_text("not a vtk file\n")
    with pytest.raises(InvariantViolation):
        read_fields_vtk(path)


def _vtk_text(tmp_path):
    path = tmp_path / "whole.vtk"
    write_fields_vtk(_run_records(n=2, T=0.0).states[0], path)
    return path.read_text()


def test_vtk_reader_names_the_line_where_an_empty_file_ends(tmp_path):
    path = tmp_path / "empty.vtk"
    path.write_text("")
    with pytest.raises(InvariantViolation, match=r"empty\.vtk:1: unexpected end"):
        read_fields_vtk(path)


def test_vtk_reader_names_the_line_where_a_truncated_file_ends(tmp_path):
    lines = _vtk_text(tmp_path).splitlines()
    path = tmp_path / "cut.vtk"
    path.write_text("\n".join(lines[:20]) + "\n")
    with pytest.raises(InvariantViolation, match=r"cut\.vtk:21: unexpected end"):
        read_fields_vtk(path)


def test_vtk_reader_names_the_line_of_an_unparsable_number(tmp_path):
    lines = _vtk_text(tmp_path).splitlines()
    lines[5] = "0.0 zero 0.0"                     # the first point
    path = tmp_path / "bad.vtk"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvariantViolation, match=r"bad\.vtk:6: "):
        read_fields_vtk(path)


def test_vtk_reader_reports_a_missing_file_as_configuration(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read VTK file"):
        read_fields_vtk(tmp_path / "absent.vtk")


# ---------------------------------------------------------------------------
# report tables
# ---------------------------------------------------------------------------

def test_equivalence_csv_roundtrip(tmp_path):
    from vmsns.spectral_lab import run_equivalence_suite

    report = run_equivalence_suite(levels=(2,), n_probes=1)
    path = tmp_path / "equivalence.csv"
    write_equivalence_csv(report, path)
    back = read_equivalence_csv(path)
    assert len(back.rows) == len(report.rows)
    for a, b in zip(back.rows, report.rows):
        assert a.lemma == b.lemma and a.s == b.s and a.level == b.level
        assert a.value == b.value  # repr-exact
        assert (a.ratio_min == b.ratio_min
                or (np.isnan(a.ratio_min) and np.isnan(b.ratio_min)))


def test_equivalence_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "eq.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(InvariantViolation):
        read_equivalence_csv(path)


_EQ_HEADER = "lemma,s,level,h,value,ratio_min,ratio_max\n"


@pytest.mark.parametrize("text, where", [
    ("", "eq.csv:1: expected header"),
    (_EQ_HEADER + "inf_sup,0.0,4,0.25,0.7\n", "eq.csv:2: expected 7 fields, got 5"),
    (_EQ_HEADER + "\ninf_sup,0.0,4,0.25,seven,,\n", "eq.csv:3: could not convert"),
], ids=["empty", "short_row", "unparsable_float"])
def test_equivalence_csv_names_the_line_of_malformed_content(tmp_path, text,
                                                              where):
    path = tmp_path / "eq.csv"
    path.write_text(text)
    with pytest.raises(InvariantViolation, match=where):
        read_equivalence_csv(path)


def test_equivalence_csv_reports_a_missing_file_as_configuration(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read report"):
        read_equivalence_csv(tmp_path / "absent.csv")


# ---------------------------------------------------------------------------
# files that are not UTF-8
# ---------------------------------------------------------------------------

#: a UTF-16 byte-order mark, which no UTF-8 file starts with
_NOT_UTF8 = b"\xff\xfe" + "t,ke_fe\n".encode("utf-16-le")


@pytest.mark.parametrize("reader, what", [
    (read_energy_ledger, "ledger"),
    (read_equivalence_csv, "report"),
    (read_fields_vtk, "VTK file"),
], ids=["ledger", "equivalence", "vtk"])
def test_readers_report_a_file_that_is_not_utf8_as_an_invariant_violation(
        tmp_path, reader, what):
    path = tmp_path / "utf16.txt"
    path.write_bytes(_NOT_UTF8)
    with pytest.raises(InvariantViolation,
                       match=rf"utf16\.txt: {what} is not UTF-8 text"):
        reader(path)


def test_table_csv_cells(tmp_path):
    path = tmp_path / "table.csv"
    write_table_csv(("a", "b", "c"),
                    [(1, 0.5, None), ("x", float("nan"), 2.0)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,0.5,"
    assert lines[2] == "x,,2.0"


# ---------------------------------------------------------------------------
# files that cannot be written
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("write, what", [
    (lambda path: write_energy_ledger([], path), "ledger"),
    (lambda path: write_fields_vtk(_run_records(n=2, T=0.0).states[0], path),
     "VTK file"),
    (lambda path: write_table_csv(("a",), [(1,)], path), "table"),
], ids=["ledger", "vtk", "table"])
def test_writers_report_a_path_that_cannot_be_written_as_configuration(
        tmp_path, write, what):
    path = tmp_path / "taken"
    path.mkdir()
    with pytest.raises(ConfigurationError, match=f"cannot write {what} .*taken"):
        write(path)


def test_vtk_mesh_block_is_formatted_once_per_mesh(tmp_path):
    """Every snapshot of a run reuses its mesh's block, a write of another
    mesh formats that one's, and every file equals freshly formatted
    text."""
    states_2d = _run_records(n=3).states
    state_3d = initialize(_vortex_3d, build_discretization(build_structured(3, 2)))
    mesh = states_2d[0].disc.mesh
    assert io._mesh_block(mesh) is io._mesh_block(mesh)
    for k, state in enumerate(states_2d + [state_3d, states_2d[-1]]):
        path = tmp_path / f"fields{k}.vtk"
        write_fields_vtk(state, path, title="t")
        assert path.read_bytes() == _fmt_built_vtk(state, "t").encode("utf-8")
