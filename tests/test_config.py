"""Config grammar: strict parsing, collected errors, template round-trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmsns.config import ScenarioConfig, default_config_text, parse_config, parse_config_file
from vmsns.errors import ConfigurationError


def test_empty_text_gives_defaults():
    cfg = parse_config("")
    assert cfg == ScenarioConfig()
    assert cfg.C_s == 4.0 and cfg.C_c == 2.0
    assert cfg.snapshot_every == 1
    assert cfg.formats == ("csv",)


def test_minimal_override():
    cfg = parse_config("mesh.n = 16\nphysics.nu = 0.5\n")
    assert cfg.n == 16
    assert cfg.nu == 0.5
    assert cfg.dim == 2  # untouched defaults survive


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# a comment\n\nmesh.n = 4   # trailing comment\n\n")
    assert cfg.n == 4


def test_template_parses_back_to_defaults():
    assert parse_config(default_config_text()) == ScenarioConfig()


def test_bad_value_names_the_key_and_line():
    with pytest.raises(ConfigurationError) as info:
        parse_config("physics.nu = -1\n", source="run.cfg")
    msg = str(info.value)
    assert "physics.nu" in msg and "run.cfg:1" in msg


def test_unknown_key_gets_a_suggestion():
    with pytest.raises(ConfigurationError) as info:
        parse_config("stab.taau = 1.0\n")
    assert "stab.tau_floor" in str(info.value)


def test_all_problems_collected_at_once():
    text = "mesh.n = 0\nphysics.nu = nope\nbogus.key = 3\nmesh.n = 2\n"
    with pytest.raises(ConfigurationError) as info:
        parse_config(text)
    msg = str(info.value)
    assert "mesh.n" in msg
    assert "nope" in msg or "physics.nu" in msg
    assert "bogus.key" in msg
    assert "duplicate" in msg


def test_missing_equals_sign():
    with pytest.raises(ConfigurationError) as info:
        parse_config("mesh.n 4\n")
    assert "key = value" in str(info.value)


def test_box_parsing_forms():
    cfg = parse_config("mesh.box = 0,2, -1,1\n")
    assert cfg.box == ((0.0, 2.0), (-1.0, 1.0))
    cfg = parse_config("mesh.box = 0 2 -1 1\n")
    assert cfg.box == ((0.0, 2.0), (-1.0, 1.0))


def test_box_must_match_dimension():
    with pytest.raises(ConfigurationError) as info:
        parse_config("mesh.box = 0,1\n")  # one pair for a 2-D mesh
    assert "axis ranges" in str(info.value)


def test_box_bounds_must_increase():
    with pytest.raises(ConfigurationError):
        parse_config("mesh.box = 1,0, 0,1\n")


def test_dt_larger_than_horizon_rejected():
    with pytest.raises(ConfigurationError) as info:
        parse_config("time.dt = 0.5\ntime.T = 0.1\n")
    assert "exceeds" in str(info.value)
    # but a pure projection run (T = 0) is fine
    assert parse_config("time.dt = 0.5\ntime.T = 0\n").T == 0.0


def test_bool_switch_grammar():
    assert parse_config("physics.convection = off\n").convection is False
    assert parse_config("physics.convection = on\n").convection is True
    with pytest.raises(ConfigurationError):
        parse_config("physics.convection = yes\n")


def test_formats_grammar():
    cfg = parse_config("output.formats = csv, vtk\n")
    assert cfg.formats == ("csv", "vtk")
    with pytest.raises(ConfigurationError):
        parse_config("output.formats = hdf5\n")


def test_tolerances_must_be_in_unit_interval():
    with pytest.raises(ConfigurationError):
        parse_config("solver.picard_tol = 1.5\n")
    with pytest.raises(ConfigurationError):
        parse_config("solver.linear_tol = 0\n")


def test_dimension_choices():
    assert parse_config("mesh.dim = 3\nphysics.initial = zero\n").dim == 3
    with pytest.raises(ConfigurationError):
        parse_config("mesh.dim = 4\n")


def test_solver_settings_are_checked_when_made():
    with pytest.raises(ConfigurationError):
        ScenarioConfig(dt=0.0, T=1.0)
    with pytest.raises(ConfigurationError):
        ScenarioConfig(dt=0.1, T=-1.0)
    with pytest.raises(ConfigurationError):
        ScenarioConfig(dt=0.1, T=1.0, picard_tol=0.0)
    with pytest.raises(ConfigurationError):
        ScenarioConfig(dt=0.1, T=1.0, linear_tol=2.0)
    with pytest.raises(ConfigurationError):
        ScenarioConfig(dt=0.1, T=1.0, picard_max=0)


def test_stabilization_settings_are_checked_when_made():
    with pytest.raises(ConfigurationError):
        ScenarioConfig(nu=0.0)
    with pytest.raises(ConfigurationError):
        ScenarioConfig(nu=1.0, C_s=0.0)
    with pytest.raises(ConfigurationError):
        ScenarioConfig(nu=1.0, C_c=-1.0)
    with pytest.raises(ConfigurationError):
        ScenarioConfig(nu=1.0, tau_floor=-0.1)
    # one message per problem
    with pytest.raises(ConfigurationError) as info:
        ScenarioConfig(nu=-1.0, C_s=-1.0)
    assert "nu" in str(info.value) and "C_s" in str(info.value)


def test_scenario_names_are_checked_when_made():
    with pytest.raises(ConfigurationError):
        ScenarioConfig(nu=1.0, initial="bogus", forcing="none")
    with pytest.raises(ConfigurationError):
        ScenarioConfig(nu=1.0, initial="zero", forcing="bogus")


def test_every_broken_rule_is_reported_at_once():
    with pytest.raises(ConfigurationError) as info:
        ScenarioConfig(dt=0.0, nu=-1.0, picard_tol=2.0)
    named = [m.split(" = ")[0] for m in info.value.messages]
    assert sorted(named) == ["dt", "nu", "picard_tol"]


def test_parse_config_file_missing(tmp_path):
    with pytest.raises(ConfigurationError) as info:
        parse_config_file(tmp_path / "absent.cfg")
    assert "cannot read" in str(info.value)


def test_parse_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("mesh.n = 6\ntime.T = 0.05\n")
    cfg = parse_config_file(path)
    assert cfg.n == 6 and cfg.T == 0.05


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 64),
    nu=st.floats(1e-6, 1e3),
    cs=st.floats(1e-3, 100.0),
    dt=st.floats(1e-6, 0.1),
    horizon_steps=st.integers(1, 50),
    snap=st.integers(1, 9),
)
def test_value_roundtrip_through_text(n, nu, cs, dt, horizon_steps, snap):
    """Values written with repr survive the text round trip exactly."""
    text = (
        f"mesh.n = {n}\n"
        f"physics.nu = {nu!r}\n"
        f"stab.C_s = {cs!r}\n"
        f"time.dt = {dt!r}\n"
        f"time.T = {dt * horizon_steps!r}\n"
        f"time.snapshot_every = {snap}\n"
    )
    cfg = parse_config(text)
    assert cfg.n == n
    assert cfg.nu == nu
    assert cfg.C_s == cs
    assert cfg.dt == dt
    assert cfg.T == dt * horizon_steps
    assert cfg.snapshot_every == snap
