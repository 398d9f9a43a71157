"""Run configuration: domain types, validation, the ``[section] key = value`` file
format, and the package's two exception types: ``ConfigError`` for what the caller
passed, ``SolverAbort`` for a step whose field, kick or f stops being finite."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields, replace
from typing import get_type_hints

import numpy as np

# Initial distributions are momentum Gaussians with width^2 = m * temperature.
# p_max is accepted only if the initial tail value at the domain edge is below
# this fraction of the peak, so that zero extension beyond the grid is harmless.
TAIL_RATIO_LIMIT = 1e-12

# Relative tolerance on q_plus + q_minus = 0, the neutrality of the presets.
NEUTRALITY_RTOL = 1e-12

FORCE_MODES = ("modified", "standard")
PRESETS = ("free_stream", "landau", "two_stream")

# |q| such that a single species with n0 = 1, m = 1 has unit plasma frequency
# (4 pi n0 q^2 / m = 1).
DEFAULT_CHARGE = 1.0 / math.sqrt(4.0 * math.pi)


class ConfigError(ValueError):
    """Invalid configuration; carries the full list of violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class SolverAbort(RuntimeError):
    """A step produced a non-finite field, kick or f, or a kick past its bound."""


def _python_scalars(self) -> None:
    """Each config's ``__post_init__``: a numpy scalar field is stored as its
    Python value, so no run constant is computed in a numpy type."""
    for f in fields(self):
        value = getattr(self, f.name)
        if isinstance(value, np.generic):
            object.__setattr__(self, f.name, value.item())


@dataclass(frozen=True)
class SpeciesConfig:
    q: float
    m: float
    __post_init__ = _python_scalars


@dataclass(frozen=True)
class InitConfig:
    preset: str = "landau"
    n0: float = 1.0
    amplitude: float = 1e-3
    k_mode: int = 1
    temperature: float = 1.0
    drift: float = 0.0
    __post_init__ = _python_scalars


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
    plus: SpeciesConfig = SpeciesConfig(+DEFAULT_CHARGE, 1.0)
    minus: SpeciesConfig = SpeciesConfig(-DEFAULT_CHARGE, 1.0)
    init: InitConfig = field(default_factory=InitConfig)
    __post_init__ = _python_scalars

    @property
    def forces_enabled(self) -> bool:
        """The free_stream preset runs pure transport; fields never act back on f."""
        return self.init.preset != "free_stream"


# Each dataclass's field types, and the types a float field accepts.  A numpy scalar
# is a Python int or float by now (``_python_scalars``); a Fraction is neither.
_TYPES = {cls: get_type_hints(cls) for cls in (Config, SpeciesConfig, InitConfig)}
_ACCEPTS = {float: (int, float)}


def _type_violations(owner, where: str, v: list) -> None:
    """Append one message to ``v`` for each field of ``owner``, or of a config
    it holds, of the wrong type, and for each non-finite float."""
    for name, kind in _TYPES[type(owner)].items():
        value = getattr(owner, name)
        is_bool = isinstance(value, bool)       # a bool is no int or float here
        if not isinstance(value, _ACCEPTS.get(kind, kind)) or (is_bool and kind is not bool):
            v.append(f"{name} must be of type {kind.__name__} ({where}got {value!r})")
        elif kind is float and not abs(value) <= sys.float_info.max:
            v.append(f"{name} must be finite ({where}got {value})")
        elif kind in _TYPES:
            _type_violations(value, f"species {name}: " if kind is SpeciesConfig else "", v)


def initial_tail_ratio(config: Config, name: str) -> float:
    """f(+-p_max) / f_peak of species ``name``'s initial Gaussian; only the minus species drifts."""
    offset = abs(config.init.drift) if name == "minus" else 0.0
    if config.p_max <= offset:
        return 1.0
    d = config.p_max - offset    # d * d may overflow to inf, where ** would raise
    return math.exp(-(d * d) / (2.0 * getattr(config, name).m * config.init.temperature))


def config_violations(config: Config) -> list[str]:
    """All invariant violations, each naming the offending key and value; a
    field of the wrong type or a non-finite float first, and alone."""
    v = []
    _type_violations(config, "", v)
    if v:
        return v
    if config.nx < 8:
        v.append(f"nx must be at least 8 (got {config.nx})")
    if config.np < 8:
        v.append(f"np must be at least 8 (got {config.np})")
    # An f of nx * np float64s must fit numpy's largest array, sys.maxsize bytes.
    if config.nx * config.np * 8 > sys.maxsize:
        v.append(f"grid too large: nx * np = {config.nx * config.np} cells exceed "
                 f"numpy's {sys.maxsize}-byte array limit")
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

    # The presets give both species the same density n0, so the periodic
    # domain is neutral only if the charges cancel.
    q_plus, q_minus = config.plus.q, config.minus.q
    if abs(q_plus + q_minus) > NEUTRALITY_RTOL * max(abs(q_plus), abs(q_minus)):
        v.append(f"species charges must cancel for a neutral plasma "
                 f"(plus q = {q_plus}, minus q = {q_minus})")
    species = (("plus", config.plus), ("minus", config.minus))
    for name, s in species:
        if s.m <= 0:
            v.append(f"mass must be positive (species {name}: m = {s.m})")

    init = config.init
    if init.preset not in PRESETS:
        v.append(f"unknown preset {init.preset!r}")
    if init.n0 <= 0:
        v.append(f"n0 must be positive (got {init.n0})")
    # f- = n0 (1 + amplitude cos kx) g(p) must stay non-negative.
    if abs(init.amplitude) > 1.0:
        v.append(f"amplitude must lie in [-1, 1] (got {init.amplitude})")
    if init.k_mode < 1:
        v.append(f"k_mode must be a positive integer (got {init.k_mode})")
    # At nx/2 the cosine vanishes at every cell centre; above it, modes alias.
    if 2 * init.k_mode >= config.nx:
        v.append(f"k_mode must be below nx/2 (got k_mode = {init.k_mode}, nx = {config.nx})")
    if init.temperature <= 0:
        v.append(f"temperature must be positive (got {init.temperature})")

    # Tail bound only makes sense once the basics hold, and the Gaussian has a width.
    if not v:
        for name, s in species:
            if not s.m * init.temperature > 0.0:
                v.append(f"species {name}: the initial Gaussian has no width: "
                         f"m * temperature = {s.m:g} * {init.temperature:g} underflows to 0")
                continue
            ratio = initial_tail_ratio(config, name)
            if ratio >= TAIL_RATIO_LIMIT:
                v.append(
                    f"p_max too small: initial f({config.p_max})/f_peak = {ratio:.3e} "
                    f"for species {name} (limit {TAIL_RATIO_LIMIT:g})"
                )
    return v


def validate_config(config: Config) -> Config:
    """Return ``config`` itself or raise with all violations."""
    violations = config_violations(config)
    if violations:
        raise ConfigError(violations)
    return config


# --- config file format -----------------------------------------------------
#
# Line-oriented "key = value" pairs under bracketed section headers.  '#'
# starts a comment.  Unknown sections or keys are errors; every key may be
# omitted, in which case the dataclass default applies.  The keys and their
# types are the dataclass fields: Config's own fields under the sections
# below, SpeciesConfig's under [species.plus] and [species.minus] (Config's
# plus and minus) and InitConfig's under [init].

_SECTIONS = {
    "grid": ("nx", "x_max", "np", "p_max"),
    "time": ("cfl_fraction", "t_end", "output_every"),
    "physics": ("c", "relativistic", "force_mode"),
}

_SCHEMA = {
    **{name: {key: _TYPES[Config][key] for key in keys} for name, keys in _SECTIONS.items()},
    **{f"species.{name}": _TYPES[SpeciesConfig] for name in ("plus", "minus")},
    "init": _TYPES[InitConfig],
}

_ENUM_KEYS = {"force_mode": FORCE_MODES, "preset": PRESETS}
_BOOLEANS = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}
_KIND_NAMES = {bool: "boolean", int: "integer", float: "number"}


def _parse_value(kind, key, raw, lineno, errors):
    if key in _ENUM_KEYS:
        if raw in _ENUM_KEYS[key]:
            return raw
        errors.append(f"unknown {key} at line {lineno}: {raw!r} (expected one of {', '.join(_ENUM_KEYS[key])})")
        return None
    try:
        return _BOOLEANS[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        errors.append(f"invalid {_KIND_NAMES[kind]} for {key} at line {lineno}: {raw!r}")
        return None


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

    return validate_config(Config(
        **{key: value for name in _SECTIONS for key, value in values[name].items()},
        plus=replace(Config().plus, **values["species.plus"]),
        minus=replace(Config().minus, **values["species.minus"]),
        init=InitConfig(**values["init"]),
    ))


def load_config(path) -> Config:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError([f"{path} is not UTF-8 ({exc.reason} at byte {exc.start})"]) from None
    except OSError as exc:   # a missing or unreadable file is an invalid config
        raise ConfigError([str(exc)]) from None
    return parse_config(text)
