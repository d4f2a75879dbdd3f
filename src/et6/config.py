"""Run configuration: INI-style files plus command-line overrides.

The file format is line-oriented ``key = value`` under ``[section]``
headers.  Unknown sections or keys are rejected, every value is range
checked, and the error names the offending key path.  All numeric
tolerances used by any check are surfaced here with their defaults.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .gas import GasModelError, GasSpec
from .solver import BOUNDARIES, LIMITERS, SCENARIO_KINDS, SCHEMES, Scenario, SolverError


class ConfigError(ValueError):
    """Malformed configuration; the message names the key path."""


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str = "smooth_wave"
    N: int = 200
    x_left: float = 0.0
    x_right: float = 1.0
    cfl: float = 0.45
    t_end: float = 0.5
    output_cadence: float = 0.0
    boundary: str = "periodic"
    scheme: str = "rusanov"
    limiter: str = "minmod"
    rho_left: float = 1.0
    p_left: float = 1.0
    v_left: float = 0.0
    pi_left: float = 0.0
    rho_right: float = 0.125
    p_right: float = 0.1
    v_right: float = 0.0
    pi_right: float = 0.0
    x_split: float = 0.5
    rho0: float = 1.0
    T0: float = 1.0
    amplitude: float = 1e-2
    wavelength: float = 0.0
    pi_init: str = "zero"
    z0: float = 0.3
    # run-command monitor thresholds
    conservation_tol: float = 1e-13
    entropy_step_tol: float = 1e-10


@dataclass(frozen=True)
class CheckConfig:
    """Kinetic-oracle verification settings."""

    hermite_order: int = 64
    laguerre_order: int = 128
    adaptive_tol: float = 1e-10
    validate: bool = True
    flux_tol: float = 1e-8
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
    directory: str = ""            # empty: flag, then ET6_OUTPUT_DIR, then ./et6_out
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
        monitor_keys = {"conservation_tol", "entropy_step_tol"}
        kwargs = {
            f.name: getattr(self.scenario, f.name)
            for f in fields(ScenarioConfig)
            if f.name not in monitor_keys
        }
        try:
            return Scenario(spec=self.gas, **kwargs)
        except SolverError as err:
            raise ConfigError(f"[scenario] {err}") from err


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

# ranges checked here so the error can name the key; everything else is
# validated by the dataclasses receiving the values
_RANGES = {
    ("gas", "D"): lambda v: v > 3.0,
    ("gas", "m"): lambda v: v > 0,
    ("gas", "kB"): lambda v: v > 0,
    ("gas", "tau"): lambda v: v > 0,
    ("scenario", "cfl"): lambda v: 0.0 < v < 1.0,
    ("scenario", "N"): lambda v: v >= 4,
    ("scenario", "t_end"): lambda v: v > 0,
    ("scenario", "output_cadence"): lambda v: v >= 0,
    ("scenario", "kind"): lambda v: v in SCENARIO_KINDS,
    ("scenario", "scheme"): lambda v: v in SCHEMES,
    ("scenario", "limiter"): lambda v: v in LIMITERS,
    ("scenario", "boundary"): lambda v: v in BOUNDARIES,
    ("scenario", "pi_init"): lambda v: v in ("zero", "ns"),
    ("scenario", "conservation_tol"): lambda v: v > 0,
    ("scenario", "entropy_step_tol"): lambda v: v > 0,
    ("relax", "t_end"): lambda v: v >= 0,
    ("relax", "cadence"): lambda v: v >= 0,
    ("check", "hermite_order"): lambda v: v >= 8,
    ("check", "laguerre_order"): lambda v: v >= 8,
    ("check", "adaptive_tol"): lambda v: v > 0,
    ("check", "flux_tol"): lambda v: v > 0,
    ("check", "moment_tol"): lambda v: v > 0,
    ("check", "entropy_tol"): lambda v: v > 0,
    ("check", "grid_z_count"): lambda v: v >= 2,
    ("check", "z_span"): lambda v: 0 < v < 1,
    ("sweep", "z_count"): lambda v: v >= 2,
    ("sweep", "d_count"): lambda v: v >= 2,
    ("sweep", "d_min"): lambda v: v > 3.0,
    ("sweep", "d_max"): lambda v: v > 3.0,
    ("sweep", "coverage"): lambda v: 0 < v <= 1,
    ("sweep", "convexity_states"): lambda v: v >= 1,
    ("relax", "tol"): lambda v: v > 0,
    ("nslimit", "tau"): lambda v: v > 0,
    ("nslimit", "N"): lambda v: v >= 4,
    ("nslimit", "cfl"): lambda v: 0 < v < 1,
    ("nslimit", "t_end"): lambda v: v > 0,
    ("nslimit", "mask_fraction"): lambda v: 0 < v < 1,
    ("output", "seed"): lambda v: v >= 0,
}


def _coerce(section: str, key: str, raw: str, target_type) -> object:
    try:
        if target_type is float:
            value = float(raw)
        elif target_type is int:
            value = int(raw)
        elif target_type is bool:
            value = _bool(raw)
        elif target_type is str:
            value = raw.strip()
        else:  # tuple of floats
            value = _float_tuple(raw)
    except ValueError as err:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from err
    check = _RANGES.get((section, key))
    if check is not None and not check(value):
        raise ConfigError(f"[{section}] {key} = {raw.strip()} is out of range")
    return value


def _field_types(section_cls) -> dict[str, object]:
    out = {}
    for f in fields(section_cls):
        if f.type in ("float", float):
            out[f.name] = float
        elif f.type in ("int", int):
            out[f.name] = int
        elif f.type in ("bool", bool):
            out[f.name] = bool
        elif f.type in ("str", str):
            out[f.name] = str
        else:
            out[f.name] = tuple
    return out


def load_config(path: str | Path | None) -> RunConfig:
    """Parse and validate a config file; None yields all defaults."""
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
        if section not in _SECTION_TYPES:
            raise ConfigError(f"unknown section [{section}]")
        types = _field_types(_SECTION_TYPES[section])
        for key, raw in parser.items(section):
            if key not in types:
                raise ConfigError(f"unknown key [{section}] {key}")
            updates.setdefault(section, {})[key] = _coerce(section, key, raw, types[key])
    return apply_updates(cfg, updates)


def apply_updates(cfg: RunConfig, updates: dict[str, dict[str, object]]) -> RunConfig:
    """Apply {section: {key: value}} overrides with validation."""
    out = cfg
    for section, pairs in updates.items():
        if not pairs:
            continue
        if section not in _SECTION_TYPES:
            raise ConfigError(f"unknown section [{section}]")
        types = _field_types(_SECTION_TYPES[section])
        for key, value in pairs.items():
            if key not in types:
                raise ConfigError(f"unknown key [{section}] {key}")
            check = _RANGES.get((section, key))
            if check is not None and not check(value):
                raise ConfigError(f"[{section}] {key} = {value} is out of range")
        current = getattr(out, section)
        try:
            new_section = replace(current, **pairs)
        except (GasModelError, SolverError, ValueError) as err:
            raise ConfigError(f"[{section}] {err}") from err
        out = replace(out, **{section: new_section})
    return out
