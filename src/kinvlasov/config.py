"""Run configuration: domain types, validation, and the ``[section] key = value`` file format."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

# Initial distributions are momentum Gaussians with width^2 = m * temperature.
# p_max is accepted only if the initial tail value at the domain edge is below
# this fraction of the peak, so that zero extension beyond the grid is harmless.
TAIL_RATIO_LIMIT = 1e-12

# Relative tolerance on q_plus + q_minus = 0, the neutrality of the presets.
NEUTRALITY_RTOL = 1e-12

FORCE_MODES = ("modified", "standard")
PRESETS = ("free_stream", "landau", "two_stream")
SPECIES_LABELS = ("plus", "minus")

# |q| such that a single species with n0 = 1, m = 1 has unit plasma frequency
# (4 pi n0 q^2 / m = 1).
DEFAULT_CHARGE = 1.0 / math.sqrt(4.0 * math.pi)


class ConfigError(ValueError):
    """Invalid configuration; carries the full list of violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class SpeciesConfig:
    label: str
    q: float
    m: float


@dataclass(frozen=True)
class InitConfig:
    preset: str = "landau"
    n0: float = 1.0
    amplitude: float = 1e-3
    k_mode: int = 1
    temperature: float = 1.0
    drift: float = 0.0


def _default_species():
    return (
        SpeciesConfig("plus", +DEFAULT_CHARGE, 1.0),
        SpeciesConfig("minus", -DEFAULT_CHARGE, 1.0),
    )


@dataclass(frozen=True)
class Config:
    nx: int = 64
    x_max: float = 4.0 * math.pi
    np: int = 128
    p_max: float = 8.0
    c: float = 4.0
    relativistic: bool = True
    force_mode: str = "modified"
    cfl_fraction: float = 0.9
    t_end: float = 10.0
    output_every: int = 10
    kick_refine: int = 0
    species: tuple = field(default_factory=_default_species)
    init: InitConfig = field(default_factory=InitConfig)

    @property
    def plus(self) -> SpeciesConfig:
        return next(s for s in self.species if s.label == "plus")

    @property
    def minus(self) -> SpeciesConfig:
        return next(s for s in self.species if s.label == "minus")

    @property
    def forces_enabled(self) -> bool:
        """The free_stream preset runs pure transport; fields never act back on f."""
        return self.init.preset != "free_stream"


def species_peak_offset(config: Config, label: str) -> float:
    """|p| where the initial f of a species peaks (presets drift the minus species only)."""
    if label == "minus":
        return abs(config.init.drift)
    return 0.0


def initial_tail_ratio(config: Config, species: SpeciesConfig) -> float:
    """f(+-p_max) / f_peak for the species' initial momentum Gaussian."""
    offset = species_peak_offset(config, species.label)
    if config.p_max <= offset:
        return 1.0
    sigma_sq = species.m * config.init.temperature
    return math.exp(-((config.p_max - offset) ** 2) / (2.0 * sigma_sq))


def config_violations(config: Config) -> list[str]:
    """All invariant violations, each naming the offending key and value."""
    v = []
    if config.nx < 8:
        v.append(f"nx must be at least 8 (got {config.nx})")
    if config.np < 8:
        v.append(f"np must be at least 8 (got {config.np})")
    if config.x_max <= 0:
        v.append(f"x_max must be positive (got {config.x_max})")
    if config.p_max <= 0:
        v.append(f"p_max must be positive (got {config.p_max})")
    if config.c <= 0:
        v.append(f"c must be positive (got {config.c})")
    if not 0.0 < config.cfl_fraction <= 1.0:
        v.append(f"cfl_fraction must lie in (0, 1] (got {config.cfl_fraction})")
    if config.t_end <= 0:
        v.append(f"t_end must be positive (got {config.t_end})")
    if config.output_every < 1:
        v.append(f"output_every must be a positive integer (got {config.output_every})")
    if config.force_mode not in FORCE_MODES:
        v.append(f"unknown force_mode {config.force_mode!r}")
    if config.kick_refine not in (0, 1):
        v.append(f"kick_refine must be 0 or 1 (got {config.kick_refine})")

    labels = [s.label for s in config.species]
    if sorted(labels) != sorted(SPECIES_LABELS):
        v.append(f"species labels must be exactly {{plus, minus}} (got {labels})")
    else:
        # The presets give both species the same density n0, so the periodic
        # domain is neutral only if the charges cancel.
        q_plus, q_minus = config.plus.q, config.minus.q
        if abs(q_plus + q_minus) > NEUTRALITY_RTOL * max(abs(q_plus), abs(q_minus)):
            v.append(f"species charges must cancel for a neutral plasma "
                     f"(plus q = {q_plus}, minus q = {q_minus})")
    for s in config.species:
        if s.m <= 0:
            v.append(f"mass must be positive (species {s.label}: m = {s.m})")

    init = config.init
    if init.preset not in PRESETS:
        v.append(f"unknown preset {init.preset!r}")
    if init.n0 <= 0:
        v.append(f"n0 must be positive (got {init.n0})")
    if init.k_mode < 1:
        v.append(f"k_mode must be a positive integer (got {init.k_mode})")
    if init.temperature <= 0:
        v.append(f"temperature must be positive (got {init.temperature})")

    # Tail bound only makes sense once the basics hold.
    if not v:
        for s in config.species:
            ratio = initial_tail_ratio(config, s)
            if ratio >= TAIL_RATIO_LIMIT:
                v.append(
                    f"p_max too small: initial f({config.p_max})/f_peak = {ratio:.3e} "
                    f"for species {s.label} (limit {TAIL_RATIO_LIMIT:g})"
                )
    return v


def validate_config(config: Config) -> Config:
    """Return the normalized config (species in plus, minus order) or raise with all violations."""
    violations = config_violations(config)
    if violations:
        raise ConfigError(violations)
    ordered = tuple(sorted(config.species, key=lambda s: SPECIES_LABELS.index(s.label)))
    return replace(config, species=ordered)


# --- config file format -----------------------------------------------------
#
# Line-oriented "key = value" pairs under bracketed section headers.  '#'
# starts a comment.  Unknown sections or keys are errors; every key may be
# omitted, in which case the documented default applies.

_SCHEMA = {
    "grid": {"nx": int, "x_max": float, "np": int, "p_max": float},
    "time": {"cfl_fraction": float, "t_end": float, "output_every": int, "kick_refine": int},
    "physics": {"c": float, "relativistic": bool, "force_mode": str},
    "species.plus": {"q": float, "m": float},
    "species.minus": {"q": float, "m": float},
    "init": {
        "preset": str,
        "n0": float,
        "amplitude": float,
        "k_mode": int,
        "temperature": float,
        "drift": float,
    },
}

_ENUM_KEYS = {"force_mode": FORCE_MODES, "preset": PRESETS}


def _parse_value(kind, key, raw, lineno, errors):
    if kind is bool:
        word = raw.lower()
        if word in ("true", "yes", "on", "1"):
            return True
        if word in ("false", "no", "off", "0"):
            return False
        errors.append(f"invalid boolean for {key} at line {lineno}: {raw!r}")
        return None
    if kind is int:
        try:
            return int(raw)
        except ValueError:
            errors.append(f"invalid integer for {key} at line {lineno}: {raw!r}")
            return None
    if kind is float:
        try:
            return float(raw)
        except ValueError:
            errors.append(f"invalid number for {key} at line {lineno}: {raw!r}")
            return None
    if key in _ENUM_KEYS and raw not in _ENUM_KEYS[key]:
        errors.append(f"unknown {key} at line {lineno}: {raw!r} (expected one of {', '.join(_ENUM_KEYS[key])})")
        return None
    return raw


def parse_config(text: str) -> Config:
    """Parse and validate the config file format; raise ConfigError with line-numbered messages."""
    errors: list[str] = []
    values: dict[str, dict[str, object]] = {name: {} for name in _SCHEMA}
    seen: dict[tuple[str, str], int] = {}
    section = None

    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                errors.append(f"unknown section [{name}] at line {lineno}")
                section = None
            else:
                section = name
            continue
        if "=" not in line:
            errors.append(f"expected 'key = value' at line {lineno}: {rawline.strip()!r}")
            continue
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if section is None:
            errors.append(f"key {key!r} outside any section at line {lineno}")
            continue
        if key not in _SCHEMA[section]:
            errors.append(f"unknown key {key!r} in [{section}] at line {lineno}")
            continue
        if (section, key) in seen:
            errors.append(
                f"duplicate key {key!r} in [{section}] at line {lineno} "
                f"(first set at line {seen[(section, key)]})"
            )
            continue
        seen[(section, key)] = lineno
        parsed = _parse_value(_SCHEMA[section][key], key, raw, lineno, errors)
        if parsed is not None:
            values[section][key] = parsed

    if errors:
        raise ConfigError(errors)

    defaults = Config()
    species = []
    for label in SPECIES_LABELS:
        sec = values[f"species.{label}"]
        base = defaults.plus if label == "plus" else defaults.minus
        species.append(
            SpeciesConfig(label, float(sec.get("q", base.q)), float(sec.get("m", base.m)))
        )
    init = InitConfig(
        preset=values["init"].get("preset", defaults.init.preset),
        n0=values["init"].get("n0", defaults.init.n0),
        amplitude=values["init"].get("amplitude", defaults.init.amplitude),
        k_mode=values["init"].get("k_mode", defaults.init.k_mode),
        temperature=values["init"].get("temperature", defaults.init.temperature),
        drift=values["init"].get("drift", defaults.init.drift),
    )
    config = Config(
        nx=values["grid"].get("nx", defaults.nx),
        x_max=values["grid"].get("x_max", defaults.x_max),
        np=values["grid"].get("np", defaults.np),
        p_max=values["grid"].get("p_max", defaults.p_max),
        c=values["physics"].get("c", defaults.c),
        relativistic=values["physics"].get("relativistic", defaults.relativistic),
        force_mode=values["physics"].get("force_mode", defaults.force_mode),
        cfl_fraction=values["time"].get("cfl_fraction", defaults.cfl_fraction),
        t_end=values["time"].get("t_end", defaults.t_end),
        output_every=values["time"].get("output_every", defaults.output_every),
        kick_refine=values["time"].get("kick_refine", defaults.kick_refine),
        species=tuple(species),
        init=init,
    )
    return validate_config(config)


def load_config(path) -> Config:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
