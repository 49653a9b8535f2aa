"""The run configuration: one ScenarioConfig, read from flat dotted keys.

A ScenarioConfig holds every setting of a run, and every part of the
package reads its settings from it.  It is checked when it is made,
against one table of range rules (``RULES``), and every broken rule is
reported in a single ConfigurationError.

Files are line-oriented: ``section.key = value`` with ``#`` comments and
blank lines ignored.  Parsing is strict but helpful — every problem in
the file is collected (unknown keys get a nearest-match suggestion) and
reported in a single ConfigurationError rather than bailing at the first.
The value parsers read only the grammar of a value; its range is a rule
of ``RULES``, reported at the line that set it.
"""

import difflib
from dataclasses import dataclass, fields

from .errors import ConfigurationError
from .scenarios import FORCING_CHOICES, INITIAL_CHOICES

__all__ = ["ScenarioConfig", "parse_config", "parse_config_file",
           "default_config_text"]

FORMAT_CHOICES = ("csv", "vtk")


def _positive(v):
    return v > 0


def _nonnegative(v):
    return v >= 0


def _unit_interval(v):
    return 0 < v < 1


#: the range rules of a run: (fields, test, message).  A rule is broken
#: when its test, called with the values of its fields, is false or
#: cannot be evaluated on them.
RULES = (
    (("dim",), lambda dim: dim in (2, 3), "must be 2 or 3"),
    (("n",), _positive, "must be positive"),
    (("box",), lambda box: box is None or all(hi > lo for lo, hi in box),
     "axis bounds must increase"),
    (("box", "dim"), lambda box, dim: box is None or len(box) == dim,
     "box must give as many axis ranges as the mesh has dimensions"),
    (("nu",), _positive, "must be positive"),
    (("initial",), lambda v: v in INITIAL_CHOICES,
     f"must be one of {', '.join(INITIAL_CHOICES)}"),
    (("forcing",), lambda v: v in FORCING_CHOICES,
     f"must be one of {', '.join(FORCING_CHOICES)}"),
    (("C_s",), _positive, "must be positive"),
    (("C_c",), _nonnegative, "must be nonnegative"),
    (("tau_floor",), _nonnegative, "must be nonnegative"),
    (("dt",), _positive, "must be positive"),
    (("T",), _nonnegative, "must be nonnegative"),
    (("dt", "T"), lambda dt, T: not T > 0 or dt <= T,
     "dt exceeds the time horizon T; only T = 0 allows that"),
    (("snapshot_every",), _positive, "must be positive"),
    (("picard_tol",), _unit_interval, "must lie strictly between 0 and 1"),
    (("picard_max",), _positive, "must be positive"),
    (("linear_tol",), _unit_interval, "must lie strictly between 0 and 1"),
    (("formats",), lambda formats: all(f in FORMAT_CHOICES for f in formats),
     f"entries must be among {', '.join(FORMAT_CHOICES)}"),
)


def _broken_rules(settings):
    """The rules of ``RULES`` that ``settings`` (field name -> value)
    breaks, as (fields, message) pairs in table order."""
    broken = []
    for names, test, message in RULES:
        try:
            holds = test(*(settings[name] for name in names))
        except (TypeError, ValueError):
            holds = False
        if not holds:
            broken.append((names, message))
    return broken


def _values(names, settings):
    return ", ".join(f"{name} = {settings[name]!r}" for name in names)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a run needs, with working defaults (a small decaying
    vortex on the unit square).

    Making one checks every setting against ``RULES`` and raises one
    ConfigurationError that lists each broken rule."""

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

    def __post_init__(self):
        settings = vars(self)
        broken = _broken_rules(settings)
        if broken:
            raise ConfigurationError(
                [f"{_values(names, settings)}: {message}"
                 for names, message in broken])


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
    return tuple((values[2 * i], values[2 * i + 1])
                 for i in range(len(values) // 2))


def _parse_formats(raw):
    return tuple(p.strip() for p in raw.split(",") if p.strip()) or ("csv",)


#: file key -> (dataclass field, value parser)
KEY_TABLE = {
    "mesh.dim": ("dim", int),
    "mesh.n": ("n", int),
    "mesh.box": ("box", _parse_box),
    "physics.nu": ("nu", float),
    "physics.initial": ("initial", str),
    "physics.forcing": ("forcing", str),
    "physics.convection": ("convection", _parse_bool_switch),
    "stab.C_s": ("C_s", float),
    "stab.C_c": ("C_c", float),
    "stab.tau_floor": ("tau_floor", float),
    "time.dt": ("dt", float),
    "time.T": ("T", float),
    "time.snapshot_every": ("snapshot_every", int),
    "solver.picard_tol": ("picard_tol", float),
    "solver.picard_max": ("picard_max", int),
    "solver.linear_tol": ("linear_tol", float),
    "output.dir": ("out_dir", str),
    "output.formats": ("formats", _parse_formats),
}

_KEY_OF = {field_name: key for key, (field_name, _) in KEY_TABLE.items()}


def parse_config(text, source="<config>"):
    """Parse configuration text into a ScenarioConfig, collecting every
    syntax, key and value problem, and every broken rule of ``RULES``,
    before raising."""
    problems = []
    seen = {}
    settings = {f.name: f.default for f in fields(ScenarioConfig)}
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
            settings[field_name] = parser(raw)
        except ValueError as exc:
            problems.append(f"{source}:{lineno}: bad value for {key}: {exc}")

    # the defaults keep every rule, so a broken rule reads a key of the file
    for names, message in _broken_rules(settings):
        keys = [_KEY_OF[name] for name in names]
        problems.append(
            f"{source}:{max(seen[k] for k in keys if k in seen)}: bad value for "
            f"{' and '.join(keys)}: {message} (got {_values(names, settings)})")
    if problems:
        raise ConfigurationError(problems)
    return ScenarioConfig(**settings)


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
        f"physics.initial = {cfg.initial}    # {' | '.join(INITIAL_CHOICES)}",
        f"physics.forcing = {cfg.forcing}    # {' | '.join(FORCING_CHOICES)}",
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
        f"output.formats = {','.join(cfg.formats)}   # {' and/or '.join(FORMAT_CHOICES)}",
    ]
    return "\n".join(lines) + "\n"


# keep the dataclass and table in sync (import-time self-check)
_FIELD_NAMES = {f.name for f in fields(ScenarioConfig)}
for _key, (_field, _) in KEY_TABLE.items():
    if _field not in _FIELD_NAMES:
        raise ImportError(f"config key {_key} maps to unknown field {_field}")
