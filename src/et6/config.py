"""Run configuration: INI-style files plus command-line overrides.

The file format is line-oriented ``key = value`` under ``[section]``
headers.  Three sections are the library's own dataclasses, so each of
their defaults and range checks has one home: ``[gas]`` is ``GasSpec``,
``[scenario]`` is ``Scenario`` plus the ``et6 run`` monitor tolerances, and
``[check]`` is ``QuadratureSpec`` plus the check tolerances and grid.  The
other sections hold the settings of one command each.  ``load_config``
only parses; ``apply_updates`` sets one key at a time, so an unknown
section or key, or a value that a dataclass or ``_RANGES`` rejects, is an
error that names ``[section] key``.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .gas import D_MIN, GasSpec
from .oracle import QuadratureSpec
from .solver import Scenario, SolverError


class ConfigError(ValueError):
    """Malformed configuration; the message names the key path."""


@dataclass(frozen=True)
class ScenarioConfig(Scenario):
    """A Scenario, whose gas comes from [gas] (see RunConfig.build_scenario),
    plus the `et6 run` monitor thresholds."""

    conservation_tol: float = 1e-13
    entropy_step_tol: float = 1e-10


@dataclass(frozen=True)
class CheckConfig(QuadratureSpec):
    """Kinetic-oracle verification settings: the quadrature, cross-checked
    against the adaptive rule by default, plus tolerances and the grid."""

    validate: bool = True
    moment_tol: float = 1e-10
    entropy_tol: float = 1e-8
    decomposition_tol: float = 1e-10
    equilibrium_tol: float = 1e-12
    grid_z_count: int = 7
    grid_d_values: tuple[float, ...] = (3.5, 4.0, 5.0, 6.0, 7.0, 9.0, 12.0)
    z_span: float = 0.95           # fraction of the window covered by the grid
    probe_betas: tuple[float, ...] = (0.001, 0.01, 0.05)


@dataclass(frozen=True)
class SweepConfig:
    """Eigenstructure / property sweep settings."""

    z_count: int = 21
    d_count: int = 21
    d_min: float = 3.2
    d_max: float = 12.0
    coverage: float = 0.99
    round_trip_points: int = 100
    round_trip_tol: float = 1e-12
    convexity_states: int = 50
    gradient_tol: float = 1e-6
    k_d_values: tuple[float, ...] = (4.0, 5.0, 7.0, 12.0)
    speed_tol: float = 1e-10


@dataclass(frozen=True)
class RelaxConfig:
    z0: float = 0.3
    t_end: float = 0.0             # 0: choose min(1, 10 tau) automatically
    cadence: float = 0.0           # 0: twenty outputs across the run
    tol: float = 1e-12             # measured against the pressure scale


@dataclass(frozen=True)
class NsLimitConfig:
    tau: float = 1e-3
    N: int = 400
    domain_length: float = 8.0
    cfl: float = 0.01
    t_end: float = 1.5
    amplitude: float = 1e-3
    mask_fraction: float = 0.5
    deviation_factor: float = 10.0   # pass bound: factor * tau


@dataclass(frozen=True)
class OutputConfig:
    directory: str = ""            # empty: ET6_OUTPUT_DIR, then ./et6_out
    seed: int = 2024
    quick: bool = False


@dataclass(frozen=True)
class RunConfig:
    gas: GasSpec = field(default_factory=GasSpec)
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    check: CheckConfig = field(default_factory=CheckConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    relax: RelaxConfig = field(default_factory=RelaxConfig)
    nslimit: NsLimitConfig = field(default_factory=NsLimitConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def build_scenario(self) -> Scenario:
        """The [scenario] run in the [gas] gas."""
        return Scenario(**{f.name: getattr(self.scenario, f.name) for f in fields(Scenario)
                           if f.name != "spec"}, spec=self.gas)


def _float_tuple(raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.replace(",", " ").split()]
    return tuple(float(p) for p in parts if p)


def _bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


_SECTION_TYPES = {
    "gas": GasSpec,
    "scenario": ScenarioConfig,
    "check": CheckConfig,
    "sweep": SweepConfig,
    "relax": RelaxConfig,
    "nslimit": NsLimitConfig,
    "output": OutputConfig,
}

# library fields that no key sets: the scenario's gas is [gas]
_NOT_KEYS = {("scenario", "spec")}

# parsers by declared type; the tuple fields take floats split by commas or
# blanks
_PARSERS = {"float": float, "int": int, "bool": _bool, "str": str.strip}

# ranges of the keys that no library dataclass checks
_RANGES = {
    ("scenario", "conservation_tol"): lambda v: v > 0,
    ("scenario", "entropy_step_tol"): lambda v: v > 0,
    ("check", "flux_tol"): lambda v: v > 0,
    ("check", "moment_tol"): lambda v: v > 0,
    ("check", "entropy_tol"): lambda v: v > 0,
    ("check", "grid_z_count"): lambda v: v >= 2,
    ("check", "z_span"): lambda v: 0 < v < 1,
    ("check", "grid_d_values"): lambda v: bool(v) and all(d >= D_MIN for d in v),
    ("check", "probe_betas"): lambda v: bool(v) and all(b >= 0 for b in v),
    ("sweep", "z_count"): lambda v: v >= 2,
    ("sweep", "d_count"): lambda v: v >= 2,
    ("sweep", "d_min"): lambda v: v >= D_MIN,
    ("sweep", "d_max"): lambda v: v >= D_MIN,
    ("sweep", "coverage"): lambda v: 0 < v <= 1,
    ("sweep", "convexity_states"): lambda v: v >= 1,
    ("sweep", "k_d_values"): lambda v: bool(v) and all(d >= D_MIN for d in v),
    ("relax", "t_end"): lambda v: v >= 0,
    ("relax", "cadence"): lambda v: v >= 0,
    ("relax", "tol"): lambda v: v > 0,
    ("nslimit", "tau"): lambda v: v > 0,
    ("nslimit", "N"): lambda v: v >= 4,
    ("nslimit", "cfl"): lambda v: 0 < v < 1,
    ("nslimit", "t_end"): lambda v: v > 0,
    ("nslimit", "mask_fraction"): lambda v: 0 < v < 1,
    ("output", "seed"): lambda v: v >= 0,
}


def _keys(section: str) -> dict[str, object]:
    """The keys of a config section, each with the parser of its values."""
    if section not in _SECTION_TYPES:
        raise ConfigError(f"unknown section [{section}]")
    return {f.name: _PARSERS.get(getattr(f.type, "__name__", f.type), _float_tuple)
            for f in fields(_SECTION_TYPES[section]) if (section, f.name) not in _NOT_KEYS}


def load_config(path: str | Path | None) -> RunConfig:
    """Parse a config file and apply it to the defaults; None yields all
    defaults."""
    cfg = RunConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (D vs d)
    read = parser.read(str(path))
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    updates: dict[str, dict[str, object]] = {}
    for section in parser.sections():
        keys = _keys(section)
        updates[section] = {}
        for key, raw in parser.items(section):
            # an unknown key stays text, for apply_updates to reject
            try:
                updates[section][key] = keys.get(key, str.strip)(raw)
            except ValueError as err:
                raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from err
    return apply_updates(cfg, updates)


def apply_updates(cfg: RunConfig, updates: dict[str, dict[str, object]]) -> RunConfig:
    """Apply {section: {key: value}} overrides one key at a time, so that a
    value the section's dataclass rejects is reported with its key."""
    for section, pairs in updates.items():
        keys = _keys(section)
        current = getattr(cfg, section)
        for key, value in pairs.items():
            if key not in keys:
                raise ConfigError(f"unknown key [{section}] {key}")
            check = _RANGES.get((section, key))
            if check is not None and not check(value):
                raise ConfigError(f"[{section}] {key} = {value}: out of range")
            try:
                current = replace(current, **{key: value})
            except (SolverError, ValueError) as err:
                raise ConfigError(f"[{section}] {key} = {value}: {err}") from err
        cfg = replace(cfg, **{section: current})
    return cfg
