"""Flat dotted-key run configuration.

Files are line-oriented: ``section.key = value`` with ``#`` comments and
blank lines ignored.  Parsing is strict but helpful — every problem in
the file is collected (unknown keys get a nearest-match suggestion) and
reported in a single ConfigurationError rather than bailing at the first.
"""

import difflib
from dataclasses import dataclass, fields, replace

from .errors import ConfigurationError
from .scenarios import FORCING_CHOICES, INITIAL_CHOICES

__all__ = ["ScenarioConfig", "parse_config", "parse_config_file",
           "default_config_text"]


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a run needs, with working defaults (a small decaying
    vortex on the unit square)."""

    dim: int = 2
    n: int = 8
    box: tuple = None          # per-axis (lo, hi) pairs; None = unit box
    nu: float = 0.01
    initial: str = "decaying_vortex"
    forcing: str = "none"
    convection: bool = True
    C_s: float = 4.0
    C_c: float = 2.0
    tau_floor: float = 0.0
    dt: float = 0.01
    T: float = 0.1
    snapshot_every: int = 1
    picard_tol: float = 1e-8
    picard_max: int = 30
    linear_tol: float = 1e-10
    out_dir: str = "out"
    formats: tuple = ("csv",)


def _parse_bool_switch(raw):
    if raw == "on":
        return True
    if raw == "off":
        return False
    raise ValueError("expected 'on' or 'off'")


def _parse_box(raw):
    parts = [p for chunk in raw.split(",") for p in chunk.split()]
    values = tuple(float(p) for p in parts)
    if len(values) % 2 != 0 or not values:
        raise ValueError("expected an even number of bounds (per-axis lo,hi pairs)")
    pairs = tuple((values[2 * i], values[2 * i + 1])
                  for i in range(len(values) // 2))
    for lo, hi in pairs:
        if not hi > lo:
            raise ValueError(f"axis bounds ({lo}, {hi}) are not increasing")
    return pairs


def _parse_formats(raw):
    items = tuple(p.strip() for p in raw.split(",") if p.strip())
    bad = [p for p in items if p not in ("csv", "vtk")]
    if bad:
        raise ValueError(f"unknown format(s) {bad}; choose from csv, vtk")
    return items or ("csv",)


def _positive(kind, name):
    def parse(raw):
        v = kind(raw)
        if v <= 0:
            raise ValueError(f"{name} must be positive")
        return v

    return parse


def _unit_interval(raw):
    v = float(raw)
    if not 0.0 < v < 1.0:
        raise ValueError("tolerance must lie strictly between 0 and 1")
    return v


def _choice(options):
    def parse(raw):
        if raw not in options:
            raise ValueError(f"expected one of {', '.join(options)}")
        return raw

    return parse


def _dim(raw):
    v = int(raw)
    if v not in (2, 3):
        raise ValueError("dimension must be 2 or 3")
    return v


def _nonneg_float(raw):
    v = float(raw)
    if v < 0:
        raise ValueError("must be nonnegative")
    return v


#: file key -> (dataclass field, value parser)
KEY_TABLE = {
    "mesh.dim": ("dim", _dim),
    "mesh.n": ("n", _positive(int, "mesh.n")),
    "mesh.box": ("box", _parse_box),
    "physics.nu": ("nu", _positive(float, "physics.nu")),
    "physics.initial": ("initial", _choice(INITIAL_CHOICES)),
    "physics.forcing": ("forcing", _choice(FORCING_CHOICES)),
    "physics.convection": ("convection", _parse_bool_switch),
    "stab.C_s": ("C_s", _positive(float, "stab.C_s")),
    "stab.C_c": ("C_c", _nonneg_float),
    "stab.tau_floor": ("tau_floor", _nonneg_float),
    "time.dt": ("dt", _positive(float, "time.dt")),
    "time.T": ("T", _nonneg_float),
    "time.snapshot_every": ("snapshot_every", _positive(int, "time.snapshot_every")),
    "solver.picard_tol": ("picard_tol", _unit_interval),
    "solver.picard_max": ("picard_max", _positive(int, "solver.picard_max")),
    "solver.linear_tol": ("linear_tol", _unit_interval),
    "output.dir": ("out_dir", str),
    "output.formats": ("formats", _parse_formats),
}


def parse_config(text, source="<config>"):
    """Parse configuration text into a ScenarioConfig, collecting every
    syntax, key, value, and consistency problem before raising."""
    problems = []
    seen = {}
    values = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"{source}:{lineno}: expected 'key = value', got {line!r}")
            continue
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in KEY_TABLE:
            hint = difflib.get_close_matches(key, KEY_TABLE, n=1, cutoff=0.3)
            suffix = f" (did you mean {hint[0]!r}?)" if hint else ""
            problems.append(f"{source}:{lineno}: unknown key {key!r}{suffix}")
            continue
        if key in seen:
            problems.append(
                f"{source}:{lineno}: duplicate key {key!r} (first set on line {seen[key]})")
            continue
        seen[key] = lineno
        field_name, parser = KEY_TABLE[key]
        try:
            values[field_name] = parser(raw)
        except ValueError as exc:
            problems.append(f"{source}:{lineno}: bad value for {key}: {exc}")

    cfg = replace(ScenarioConfig(), **values)
    if cfg.box is not None and len(cfg.box) != cfg.dim:
        problems.append(
            f"{source}: mesh.box gives {len(cfg.box)} axis ranges for a "
            f"{cfg.dim}-D mesh")
    if cfg.T > 0 and cfg.dt > cfg.T:
        problems.append(
            f"{source}: time.dt ({cfg.dt}) exceeds the time horizon time.T ({cfg.T})")
    if problems:
        raise ConfigurationError(problems)
    return cfg


def parse_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, source=str(path))


def default_config_text():
    """Commented configuration file showing every key at its default; it
    parses back to ``ScenarioConfig()`` and is the starting point for a
    config file (README *Quickstart* prints it)."""
    cfg = ScenarioConfig()
    lines = [
        "# run configuration: flat dotted keys, '#' starts a comment",
        "",
        f"mesh.dim = {cfg.dim}",
        f"mesh.n = {cfg.n}",
        "# mesh.box = 0,1, 0,1        # per-axis lo,hi pairs (default: unit box)",
        "",
        f"physics.nu = {cfg.nu!r}",
        f"physics.initial = {cfg.initial}    # zero | decaying_vortex | manufactured_poly",
        f"physics.forcing = {cfg.forcing}    # none | manufactured_poly",
        f"physics.convection = {'on' if cfg.convection else 'off'}",
        "",
        f"stab.C_s = {cfg.C_s!r}",
        f"stab.C_c = {cfg.C_c!r}",
        f"stab.tau_floor = {cfg.tau_floor!r}",
        "",
        f"time.dt = {cfg.dt!r}",
        f"time.T = {cfg.T!r}",
        f"time.snapshot_every = {cfg.snapshot_every}",
        "",
        f"solver.picard_tol = {cfg.picard_tol!r}",
        f"solver.picard_max = {cfg.picard_max}",
        f"solver.linear_tol = {cfg.linear_tol!r}",
        "",
        f"output.dir = {cfg.out_dir}",
        f"output.formats = {','.join(cfg.formats)}   # csv and/or vtk",
    ]
    return "\n".join(lines) + "\n"


# keep the dataclass and table in sync (import-time self-check)
_FIELD_NAMES = {f.name for f in fields(ScenarioConfig)}
for _key, (_field, _) in KEY_TABLE.items():
    if _field not in _FIELD_NAMES:
        raise ImportError(f"config key {_key} maps to unknown field {_field}")
