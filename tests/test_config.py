"""Config grammar: strict parsing, collected errors, template round-trip."""

import math
import os
import re
import runpy
from collections import Counter
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmsns.config import (KEY_TABLE, ScenarioConfig, default_config_text, parse_config,
                          parse_config_file)
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


def test_each_setting_has_one_key_and_one_template_line():
    names = Counter(name for name, _ in KEY_TABLE.values())
    assert names == Counter(f.name for f in fields(ScenarioConfig))
    text = default_config_text()
    for key in KEY_TABLE:
        lines = re.findall(rf"^(?:# )?{re.escape(key)} = .*$", text, flags=re.M)
        assert len(lines) == 1, key
    # the unset box is shown commented out, and the choice lists are noted
    assert re.search(r"^# mesh\.box = 0,1, 0,1 +# per-axis lo,hi pairs", text, flags=re.M)
    assert "zero | decaying_vortex | manufactured_poly" in text
    assert "none | manufactured_poly" in text and "csv and/or vtk" in text


#: the benchmark's config generator, read here and never written
WORKLOADS_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "benchmark", "workloads.py")

#: the settings the benchmark's stepping configs set, as pinned values
_BENCHMARK_SETTINGS = {
    ("vortex_n24", 0): dict(
        n=24, box=((0.0, 1.0349549048693267), (0.0, 1.0200151269318407)),
        nu=0.009542690155668384, initial="decaying_vortex", forcing="none",
        T=0.04, formats=("csv",)),
    ("vortex_n24", 11): dict(
        n=24, box=((0.0, 1.0041064582211279), (0.0, 0.9828237032025465)),
        nu=0.010238134217270028, initial="decaying_vortex", forcing="none",
        T=0.04, formats=("csv",)),
    ("mms_n8_io", 0): dict(
        n=8, box=((0.0, 0.979058416906829), (0.0, 0.9933817441607699)),
        nu=0.010331790139226036, initial="manufactured_poly",
        forcing="manufactured_poly", T=3.0, formats=("csv", "vtk")),
    ("mms_n8_io", 11): dict(
        n=8, box=((0.0, 0.9715831369314379), (0.0, 1.0286924285442955)),
        nu=0.009624963175983351, initial="manufactured_poly",
        forcing="manufactured_poly", T=3.0, formats=("csv", "vtk")),
}


@pytest.mark.parametrize("workload,seed", sorted(_BENCHMARK_SETTINGS))
def test_benchmark_stepping_configs_parse_to_their_pinned_settings(workload, seed):
    config_text = runpy.run_path(WORKLOADS_PY)["config_text"]
    cfg = parse_config(config_text(workload, seed, "out"))
    want = ScenarioConfig(dim=2, dt=0.01, snapshot_every=1, convection=True,
                          out_dir="out", **_BENCHMARK_SETTINGS[workload, seed])
    assert cfg == want and repr(cfg) == repr(want)


#: settings that are not finite, or whose step count T/dt is not: the
#: config text, the ScenarioConfig arguments and the key the error names
_NON_FINITE = [
    ("time.T = inf", dict(T=math.inf), "time.T"),
    ("time.dt = 1e-320\ntime.T = 1", dict(dt=1e-320, T=1.0), "time.dt and time.T"),
    ("time.T = 1\ntime.dt = inf", dict(dt=math.inf, T=1.0), "time.dt"),
    ("physics.nu = inf", dict(nu=math.inf), "physics.nu"),
    ("physics.nu = nan", dict(nu=math.nan), "physics.nu"),
    ("stab.C_s = inf", dict(C_s=math.inf), "stab.C_s"),
    ("stab.C_c = inf", dict(C_c=math.inf), "stab.C_c"),
    ("stab.tau_floor = inf", dict(tau_floor=math.inf), "stab.tau_floor"),
    ("mesh.box = 0,inf, 0,1", dict(box=((0.0, math.inf), (0.0, 1.0))), "mesh.box"),
    ("mesh.box = -inf,0, 0,1", dict(box=((-math.inf, 0.0), (0.0, 1.0))), "mesh.box"),
]


@pytest.mark.parametrize("text,kwargs,key", _NON_FINITE)
def test_non_finite_settings_are_refused(text, kwargs, key):
    with pytest.raises(ConfigurationError) as info:
        parse_config(text + "\n", source="run.cfg")
    # one broken rule, reported at the line that set its key
    [message] = info.value.messages
    lineno = text.count("\n") + 1
    assert message.startswith(f"run.cfg:{lineno}: bad value for {key}: ")
    assert "finite" in message or "overflows" in message
    with pytest.raises(ConfigurationError):
        ScenarioConfig(**kwargs)


def test_the_step_count_rule_leaves_dt_and_T_to_their_own_rules():
    for kwargs, own in ((dict(dt=0.0), "dt"), (dict(dt=-1.0), "dt"),
                        (dict(T=math.inf), "T"), (dict(dt=math.inf), "dt")):
        with pytest.raises(ConfigurationError) as info:
            ScenarioConfig(**kwargs)
        assert [m.split(" = ")[0] for m in info.value.messages] == [own]
    with pytest.raises(ConfigurationError, match="overflows"):
        ScenarioConfig(dt=1e-300, T=1e10)
    assert ScenarioConfig(dt=1e-300, T=1e-10).T == 1e-10


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


@pytest.mark.parametrize("name,value", [("dim", 2.0), ("picard_max", 2.5),
                                        ("snapshot_every", 0.5), ("n", 3.0),
                                        ("n", True)])
def test_integer_settings_must_be_integers(name, value):
    # refused when made, not later by the mesh or the step loop
    with pytest.raises(ConfigurationError) as info:
        ScenarioConfig(**dict(dict(n=3, T=0.02), **{name: value}))
    [message] = info.value.messages
    assert message.startswith(f"{name} = {value!r}: must be ")


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
