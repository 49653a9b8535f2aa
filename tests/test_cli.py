"""End-to-end command-line checks: exit codes, outputs on disk, audits."""

import importlib
import re

import numpy as np
import pytest

from vmsns.cli import main
from vmsns.io import read_energy_ledger, read_equivalence_csv, read_fields_vtk


def _write_cfg(path, **overrides):
    base = {
        "mesh.dim": "2",
        "mesh.n": "3",
        "physics.nu": "0.1",
        "physics.initial": "decaying_vortex",
        "time.dt": "0.02",
        "time.T": "0.06",
        "output.dir": "out",
    }
    base.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    return str(path)


def test_run_writes_checkable_ledger(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "run.cfg")
    out = tmp_path / "flow"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "ledger" in printed
    assert "linear solves over 3 steps: " in printed
    assert re.search(r" Picard iterations \(\d\.\d\d per step, at most \d+\), ", printed)
    assert " 1 factorizations, " in printed
    records = read_energy_ledger(out / "ledger.csv")
    assert len(records) == 3
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    assert "holds" in capsys.readouterr().out


def test_run_vtk_format(tmp_path):
    cfg = _write_cfg(tmp_path / "run.cfg", **{"output.formats": "csv,vtk",
                                              "time.T": "0.02"})
    out = tmp_path / "flow"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    data = read_fields_vtk(out / "fields_0000.vtk")
    assert data["points"].shape[0] == 16
    assert (out / "fields_0001.vtk").exists()


def test_check_flags_corrupt_ledger(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "run.cfg")
    out = tmp_path / "flow"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    ledger = out / "ledger.csv"
    lines = ledger.read_text().splitlines()
    cells = lines[1].split(",")
    cells[-1] = "1.0"  # blow the imbalance column wide open
    lines[1] = ",".join(cells)
    ledger.write_text("\n".join(lines) + "\n")
    assert main(["check", "--config", cfg, "--out", str(out)]) == 4
    assert "invariant violation" in capsys.readouterr().err


def test_check_without_ledger(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "run.cfg")
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "no")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_usage_errors(tmp_path, capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    cfg = _write_cfg(tmp_path / "run.cfg")
    assert main(["study", "--config", cfg, "--levels", "0"]) == 1
    assert main(["spectra", "--config", cfg, "--levels", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.count("usage error") == 4
    assert err.count("--levels must be >= 1") == 2


def test_missing_config_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert main(["run", "--config", missing]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command, module, work", [
    ("run", "solver", "step"),
    ("init", "solver", "initialize"),
    ("spectra", "spectral_lab", "run_equivalence_suite"),
])
def test_unwritable_output_dir_fails_before_the_run(tmp_path, capsys,
                                                    monkeypatch, command,
                                                    module, work):
    calls = []
    monkeypatch.setattr(importlib.import_module(f"vmsns.{module}"), work,
                        lambda *args, **kw: calls.append(args))
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    cfg = _write_cfg(tmp_path / "run.cfg")
    assert main([command, "--config", cfg, "--out", str(blocker / "sub")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "output directory" in err
    assert "Traceback" not in err
    assert calls == []


@pytest.mark.parametrize("command, taken", [
    ("run", "ledger.csv"),
    ("study", "totals.csv"),
    ("spectra", "equivalence.csv"),
    ("init", "init_state.vtk"),
])
def test_an_output_file_that_cannot_be_written_is_a_configuration_error(
        tmp_path, capsys, command, taken):
    cfg = _write_cfg(tmp_path / "run.cfg", **{"mesh.n": "2", "time.T": "0.02"})
    out = tmp_path / "out"
    (out / taken).mkdir(parents=True)
    argv = [command, "--config", cfg, "--out", str(out)]
    if command in ("study", "spectra"):
        argv += ["--levels", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error: cannot write" in err and taken in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "init"])
def test_a_mesh_without_interior_velocity_dofs_is_a_configuration_error(
        tmp_path, capsys, command):
    cfg = _write_cfg(tmp_path / "run.cfg", **{"mesh.n": "1"})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "no interior dof" in err


@pytest.mark.parametrize("setting,named", [
    ({"time.T": "inf"}, "bad value for time.T: must be finite"),
    # finite, but C_s nu overflows and tau underflows to 0 in the first step
    ({"physics.nu": "1e308"}, "tau = 0.0 is not positive (nu = 1e+308"),
])
def test_a_setting_that_is_not_finite_or_drives_tau_to_zero_exits_2(
        tmp_path, capsys, setting, named):
    cfg = _write_cfg(tmp_path / "run.cfg", **setting)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and named in err
    assert not (out / "ledger.csv").exists()


def test_nonconvergence_exit_code(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "run.cfg",
                     **{"solver.picard_tol": "1e-15",
                        "solver.picard_max": "1"})
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert "solver failure" in capsys.readouterr().err
    # no step finished, so there is no ledger for the audit to pass
    assert not (out / "ledger.csv").exists()
    assert main(["check", "--config", cfg, "--out", str(out)]) == 2


#: 2-D n = 8 manufactured flow from rest whose Picard loop fails in the
#: step to t = 0.4
_FAILING_RUN = {"mesh.n": "8", "physics.nu": "5e-4", "physics.initial": "zero",
                "physics.forcing": "manufactured_poly", "time.dt": "0.1",
                "time.T": "1", "solver.picard_max": "7"}


@pytest.mark.parametrize("command", ["run", "study"])
def test_a_failed_run_leaves_the_ledger_of_the_steps_it_took(tmp_path, capsys, command):
    cfg = _write_cfg(tmp_path / "run.cfg", **_FAILING_RUN)
    out = tmp_path / "flow"
    argv = [command, "--config", cfg, "--out", str(out)]
    if command == "study":
        argv += ["--levels", "1"]
        out = out / "level_0"
    assert main(argv) == 3
    assert "did not converge in the step to t = 0.4" in capsys.readouterr().err
    assert [r.t for r in read_energy_ledger(out / "ledger.csv")] == \
        pytest.approx([0.1, 0.2, 0.3])
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    assert "3 rows, energy identity holds" in capsys.readouterr().out


def test_a_failed_run_reports_its_own_error_when_the_ledger_cannot_be_written(
        tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "run.cfg", **_FAILING_RUN)
    out = tmp_path / "flow"
    (out / "ledger.csv").mkdir(parents=True)
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "solver failure" in err and "cannot write" not in err


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    from vmsns import solver
    from vmsns.errors import InternalError

    def failing_step(*args, **kwargs):
        raise InternalError("step solve at t=0: factorization failed")

    monkeypatch.setattr(solver, "step", failing_step)
    cfg = _write_cfg(tmp_path / "run.cfg")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "flow")]) == 5
    assert "internal error: step solve" in capsys.readouterr().err


def test_study_writes_totals_and_rates(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "study.cfg",
                     **{"mesh.n": "2",
                        "physics.initial": "manufactured_poly",
                        "physics.forcing": "manufactured_poly",
                        "time.dt": "0.05", "time.T": "0.1"})
    out = tmp_path / "study"
    assert main(["study", "--config", cfg, "--out", str(out),
                 "--levels", "2"]) == 0
    assert (out / "level_0" / "ledger.csv").exists()
    assert (out / "level_1" / "ledger.csv").exists()
    totals = (out / "totals.csv").read_text().splitlines()
    assert totals[0] == "level,n,h,energy_total,data_bound"
    assert len(totals) == 3
    rates = (out / "rates.csv").read_text().splitlines()
    assert rates[0].startswith("level,n,h,err_vel_l2")
    assert len(rates) == 3
    assert "rate_l2" in capsys.readouterr().out


def test_study_without_exact_fields_skips_rates(tmp_path):
    cfg = _write_cfg(tmp_path / "study.cfg", **{"mesh.n": "2"})
    out = tmp_path / "study"
    assert main(["study", "--config", cfg, "--out", str(out),
                 "--levels", "1"]) == 0
    assert (out / "totals.csv").exists()
    assert not (out / "rates.csv").exists()


def test_spectra_writes_equivalence_report(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "spec.cfg", **{"mesh.n": "2"})
    out = tmp_path / "spectra"
    assert main(["spectra", "--config", cfg, "--out", str(out),
                 "--levels", "2"]) == 0
    report = read_equivalence_csv(out / "equivalence.csv")
    assert {r.level for r in report.rows} == {0, 1}
    assert {r.h for r in report.rows} == {np.sqrt(2) / 2, np.sqrt(2) / 4}
    assert "report:" in capsys.readouterr().out


def test_check_rejects_non_finite_ledger(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "run.cfg")
    out = tmp_path / "flow"
    out.mkdir()
    (out / "ledger.csv").write_text(
        "t,ke_fe,ke_sub,visc_diss,sub_diss,power_in,jump_terms,imbalance\n"
        "0.02,nan,nan,nan,nan,nan,nan,nan\n")
    assert main(["check", "--config", cfg, "--out", str(out)]) == 4
    assert "non-finite" in capsys.readouterr().err


def test_check_rejects_a_ledger_that_is_not_utf8(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "run.cfg")
    out = tmp_path / "flow"
    out.mkdir()
    (out / "ledger.csv").write_bytes(b"\xff\xfe" + "t\n".encode("utf-16-le"))
    assert main(["check", "--config", cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "invariant violation" in err and "not UTF-8" in err


def test_init_writes_state(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "run.cfg")
    out = tmp_path / "init"
    assert main(["init", "--config", cfg, "--out", str(out)]) == 0
    data = read_fields_vtk(out / "init_state.vtk")
    assert np.any(data["velocity"] != 0.0)
    assert "kinetic energy" in capsys.readouterr().out


def test_help_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["--help"])
