"""Run configuration: INI-style files plus command-line overrides.

The file format is line-oriented ``key = value`` under ``[section]``
headers.  Each section is one dataclass, which checks its own values in
``__post_init__``, also when built from Python.  Two of them are the
library's own: ``[gas]`` is ``GasSpec`` and ``[scenario]`` is ``Scenario``.
The other sections hold the settings of one command each; ``[check]``
holds the oracle's grid and probe.  No key sets a pass bound: each bound is
a constant beside the code that judges it (``cli``, ``eigen``, ``oracle``).
``load_config`` only parses; ``apply_updates`` sets the keys, so an unknown
section or key, or a value that its dataclass rejects, is an error that
names ``[section] key``.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .gas import GasSpec, window_bounds
from .solver import Scenario, SolverError


class ConfigError(ValueError):
    """Malformed configuration; the message names the key path."""


def _require(ok: bool, message: str) -> None:
    """A section's range check: ValueError(message) unless ok (NaN fails)."""
    if not ok:
        raise ValueError(message)


def _require_in_window(section: str, key: str, gas: GasSpec, pi: float,
                       p_key: str = "", p: float = 1.0) -> None:
    """ConfigError naming [section] key unless -p < pi < (D-3) p / 3, the
    window of the [gas] gas; without p_key, pi is Z = Pi/p.  A pressure
    p <= 0 has no window: the solver reports it."""
    lower, upper = window_bounds(p, gas.D)
    if p > 0 and not lower < pi < upper:
        at = f"{p_key} = {p:g} and " if p_key else ""
        raise ConfigError(f"[{section}] {key} = {pi}: outside the window {lower:.6g} < {key} "
                          f"< {upper:.6g} at {at}[gas] D = {gas.D:g}")


@dataclass(frozen=True)
class CheckConfig:
    """Kinetic-oracle verification settings: the (Z, D) grid and the
    optimality probe's trial amplitudes."""

    grid_z_count: int = 7
    grid_d_values: tuple[float, ...] = (3.5, 4.0, 5.0, 6.0, 7.0, 9.0, 12.0)
    z_span: float = 0.95           # fraction of the window covered by the grid
    probe_betas: tuple[float, ...] = (0.001, 0.01, 0.05)

    def __post_init__(self):
        _require(self.grid_z_count >= 2, "grid_z_count must be at least 2")
        _require(0 < self.z_span < 1, "z_span must lie in (0, 1)")
        _require(bool(self.grid_d_values), "grid_d_values must not be empty")
        for d in self.grid_d_values:
            GasSpec(D=d)   # the gas model's bound on D
        _require(bool(self.probe_betas) and all(b >= 0 for b in self.probe_betas),
                 "probe_betas must be given, each >= 0")


@dataclass(frozen=True)
class SweepConfig:
    """Eigenstructure / property sweep settings."""

    z_count: int = 21
    d_count: int = 21
    d_min: float = 3.2
    d_max: float = 12.0
    coverage: float = 0.99
    round_trip_points: int = 100
    convexity_states: int = 50
    k_d_values: tuple[float, ...] = (4.0, 5.0, 7.0, 12.0)

    def __post_init__(self):
        _require(self.z_count >= 2, "z_count must be at least 2")
        _require(self.d_count >= 2, "d_count must be at least 2")
        _require(0 < self.coverage <= 1, "coverage must lie in (0, 1]")
        _require(self.round_trip_points >= 1, "round_trip_points must be at least 1")
        _require(self.convexity_states >= 1, "convexity_states must be at least 1")
        _require(bool(self.k_d_values), "k_d_values must not be empty")
        for d in (self.d_min, self.d_max, *self.k_d_values):
            GasSpec(D=d)   # the gas model's bound on D


@dataclass(frozen=True)
class RelaxConfig:
    z0: float = 0.3
    t_end: float = 0.0             # 0: choose min(1, 10 tau) automatically
    cadence: float = 0.0           # 0: twenty outputs across the run

    def __post_init__(self):
        _require(self.t_end >= 0, "t_end must be nonnegative")
        _require(self.cadence >= 0, "cadence must be nonnegative")

    def scenario(self, gas: GasSpec) -> Scenario:
        """The homogeneous relaxation run in the given gas; ConfigError
        unless z0 lies in its window."""
        _require_in_window("relax", "z0", gas, self.z0)
        t_end = self.t_end if self.t_end > 0 else min(1.0, 10.0 * gas.tau)
        cadence = self.cadence if self.cadence > 0 else t_end / 20.0
        return Scenario(kind="uniform_relaxation", spec=gas, N=50, t_end=t_end,
                        output_cadence=cadence, z0=self.z0)


@dataclass(frozen=True)
class NsLimitConfig:
    tau: float = 1e-3
    N: int = 400
    domain_length: float = 8.0
    # the MUSCL per-stage bound that keeps the window; the closing
    # exponential update holds the stiff limit at this step size
    cfl: float = 0.25
    t_end: float = 1.5
    amplitude: float = 1e-3
    mask_fraction: float = 0.5

    def __post_init__(self):
        self.scenario(GasSpec())   # GasSpec checks tau; Scenario N, cfl, t_end and the domain
        _require(0 < self.mask_fraction < 1, "mask_fraction must lie in (0, 1)")

    def scenario(self, gas: GasSpec) -> Scenario:
        """The stiff-limit run in the given gas, at relaxation time tau."""
        return Scenario(kind="smooth_wave", spec=replace(gas, tau=self.tau), N=self.N,
                        x_left=0.0, x_right=self.domain_length, wavelength=self.domain_length,
                        cfl=self.cfl, t_end=self.t_end, amplitude=self.amplitude,
                        scheme="muscl", limiter="minmod", pi_init="ns")


@dataclass(frozen=True)
class OutputConfig:
    directory: str = ""            # empty: ET6_OUTPUT_DIR, then ./et6_out
    seed: int = 2024
    quick: bool = False

    def __post_init__(self):
        _require(self.seed >= 0, "seed must be nonnegative")


@dataclass(frozen=True)
class RunConfig:
    gas: GasSpec = field(default_factory=GasSpec)
    scenario: Scenario = field(default_factory=Scenario)
    check: CheckConfig = field(default_factory=CheckConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    relax: RelaxConfig = field(default_factory=RelaxConfig)
    nslimit: NsLimitConfig = field(default_factory=NsLimitConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def build_scenario(self) -> Scenario:
        """The [scenario] run in the [gas] gas; ConfigError unless the
        initial Pi of its kind lies in the window."""
        sc = self.scenario
        if sc.kind == "riemann":
            _require_in_window("scenario", "pi_left", self.gas, sc.pi_left, "p_left", sc.p_left)
            _require_in_window("scenario", "pi_right", self.gas, sc.pi_right, "p_right",
                               sc.p_right)
        elif sc.kind == "uniform_relaxation":
            _require_in_window("scenario", "z0", self.gas, sc.z0)
        return replace(sc, spec=self.gas)


def _float_tuple(raw: str) -> tuple[float, ...]:
    return tuple(float(p) for p in raw.replace(",", " ").split())


def _bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


_SECTION_TYPES = {
    "gas": GasSpec,
    "scenario": Scenario,
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
    """Apply {section: {key: value}} overrides.  A value that the section's
    dataclass rejects is reported with its key."""
    for section, pairs in updates.items():
        keys = _keys(section)
        for key in pairs:
            if key not in keys:
                raise ConfigError(f"unknown key [{section}] {key}")
        current = getattr(cfg, section)
        try:
            # all keys at once, so that x_right > x_left sees both new values
            current = replace(current, **pairs)
        except (SolverError, ValueError):
            # name the first key that fails on its own
            for key, value in pairs.items():
                try:
                    current = replace(current, **{key: value})
                except (SolverError, ValueError) as err:
                    raise ConfigError(f"[{section}] {key} = {value}: {err}") from err
        cfg = replace(cfg, **{section: current})
    return cfg
