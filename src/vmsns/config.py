"""The run configuration: one ScenarioConfig, read from flat dotted keys.

Each setting is declared once, as a field of ScenarioConfig: its name,
default, file key, value parser and its own range rule.  The key table
(``KEY_TABLE``), the single-setting range rules of ``RULES`` and the
template (``default_config_text``) are read off those fields; only the
two rules that tie two settings together, box/dim and dt/T, are written
out in ``RULES``.  Every numeric setting must be finite, and the step
count T/dt too; the integer settings must be integers, not bools.

A ScenarioConfig holds every setting of a run, and every part of the
package reads its settings from it.  It is checked against ``RULES``
when it is made, and every broken rule is reported in a single
ConfigurationError.

Files are line-oriented: ``section.key = value`` with ``#`` comments and
blank lines ignored.  Parsing is strict but helpful — every problem in
the file is collected (unknown keys get a nearest-match suggestion) and
reported in a single ConfigurationError rather than bailing at the first.
The value parsers read only the grammar of a value; its range is a rule
of ``RULES``, reported at the line that set it.
"""

import difflib
import math
import numbers
from dataclasses import dataclass, field, fields

from .errors import ConfigurationError
from .scenarios import FORCING_CHOICES, INITIAL_CHOICES

__all__ = ["ScenarioConfig", "parse_config", "parse_config_file",
           "default_config_text"]

FORMAT_CHOICES = ("csv", "vtk")

# the range rule of one setting: (test, message).  A rule is broken when
# its test is false or cannot be evaluated on the value.
_POSITIVE_INTEGER = (lambda v: _is_integer(v) and v > 0,
                     "must be a positive integer")
_FINITE_POSITIVE = (lambda v: 0 < v < math.inf, "must be finite and positive")
_FINITE_NONNEGATIVE = (lambda v: 0 <= v < math.inf,
                       "must be finite and nonnegative")
_UNIT_INTERVAL = (lambda v: 0 < v < 1, "must lie strictly between 0 and 1")


def _is_integer(v):
    """An integral number that is not a bool: float and bool settings
    compare like integers but break the mesh and loop counts."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _one_of(choices):
    return (lambda v: v in choices, f"must be one of {', '.join(choices)}")


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


def _setting(key, default, parse, rule=None, show=str, note="", example=None):
    """A ScenarioConfig field: the setting's file ``key``, ``default``,
    value parser and range ``rule``.  The template writes the default as
    ``show(default)``, or comments the line out with ``example`` when
    the default is None, and ends it with ``note``."""
    return field(default=default, metadata=dict(
        key=key, parse=parse, rule=rule, show=show, note=note, example=example))


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a run needs, with working defaults (a small decaying
    vortex on the unit square).

    Making one checks every setting against ``RULES`` and raises one
    ConfigurationError that lists each broken rule."""

    dim: int = _setting("mesh.dim", 2, int,
                        (lambda d: _is_integer(d) and d in (2, 3),
                         "must be the integer 2 or 3"))
    n: int = _setting("mesh.n", 8, int, _POSITIVE_INTEGER)
    box: tuple = _setting(
        "mesh.box", None, _parse_box,
        (lambda box: box is None
         or all(-math.inf < lo < hi < math.inf for lo, hi in box),
         "axis bounds must be finite and increase"),
        note="per-axis lo,hi pairs (default: unit box)", example="0,1, 0,1")
    nu: float = _setting("physics.nu", 0.01, float, _FINITE_POSITIVE)
    initial: str = _setting("physics.initial", "decaying_vortex", str,
                            _one_of(INITIAL_CHOICES),
                            note=" | ".join(INITIAL_CHOICES))
    forcing: str = _setting("physics.forcing", "none", str,
                            _one_of(FORCING_CHOICES),
                            note=" | ".join(FORCING_CHOICES))
    convection: bool = _setting("physics.convection", True, _parse_bool_switch,
                                show=lambda on: "on" if on else "off")
    C_s: float = _setting("stab.C_s", 4.0, float, _FINITE_POSITIVE)
    C_c: float = _setting("stab.C_c", 2.0, float, _FINITE_NONNEGATIVE)
    tau_floor: float = _setting("stab.tau_floor", 0.0, float, _FINITE_NONNEGATIVE)
    dt: float = _setting("time.dt", 0.01, float, _FINITE_POSITIVE)
    T: float = _setting("time.T", 0.1, float, _FINITE_NONNEGATIVE)
    snapshot_every: int = _setting("time.snapshot_every", 1, int,
                                   _POSITIVE_INTEGER)
    picard_tol: float = _setting("solver.picard_tol", 1e-8, float, _UNIT_INTERVAL)
    picard_max: int = _setting("solver.picard_max", 30, int, _POSITIVE_INTEGER)
    linear_tol: float = _setting("solver.linear_tol", 1e-10, float, _UNIT_INTERVAL)
    out_dir: str = _setting("output.dir", "out", str)
    formats: tuple = _setting(
        "output.formats", ("csv",), _parse_formats,
        (lambda formats: all(f in FORMAT_CHOICES for f in formats),
         f"entries must be among {', '.join(FORMAT_CHOICES)}"),
        show=",".join, note=" and/or ".join(FORMAT_CHOICES))

    def __post_init__(self):
        settings = vars(self)
        broken = _broken_rules(settings)
        if broken:
            raise ConfigurationError(
                [f"{_values(names, settings)}: {message}"
                 for names, message in broken])

    @property
    def n_steps(self):
        """Steps of a run: ceil(T/dt), with T/dt shrunk by 1e-12 so that a
        whole number of steps up to roundoff takes that number."""
        return 0 if self.T == 0 else math.ceil(self.T / self.dt * (1.0 - 1e-12))


#: file key -> (dataclass field, value parser)
KEY_TABLE = {f.metadata["key"]: (f.name, f.metadata["parse"])
             for f in fields(ScenarioConfig)}

_KEY_OF = {field_name: key for key, (field_name, _) in KEY_TABLE.items()}

#: the range rules of a run: (fields, test, message), each setting's own
#: rule and then the two that tie two settings together
RULES = tuple(((f.name,), *f.metadata["rule"]) for f in fields(ScenarioConfig)
              if f.metadata["rule"]) + (
    (("box", "dim"), lambda box, dim: box is None or len(box) == dim,
     "box must give as many axis ranges as the mesh has dimensions"),
    # checked only where dt and T keep their own rules
    (("dt", "T"), lambda dt, T: not (0 < dt < math.inf and 0 < T < math.inf)
     or dt <= T and T / dt < math.inf,
     "dt exceeds the time horizon T (only T = 0 allows that) "
     "or the step count T/dt overflows"),
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
    lines = ["# run configuration: flat dotted keys, '#' starts a comment"]
    section = None
    for f in fields(ScenarioConfig):
        key, show, note, example = (f.metadata[k] for k in
                                    ("key", "show", "note", "example"))
        if key.split(".")[0] != section:
            section = key.split(".")[0]
            lines.append("")
        line = (f"{key} = {show(f.default)}" if f.default is not None
                else f"# {key} = {example}")
        lines.append(f"{line}    # {note}" if note else line)
    return "\n".join(lines) + "\n"
