import itertools
import math
import warnings
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kinvlasov.config import (
    _SCHEMA,
    _SECTIONS,
    FORCE_MODES,
    PRESETS,
    Config,
    ConfigError,
    InitConfig,
    SpeciesConfig,
    load_config,
    parse_config,
    validate_config,
)
from kinvlasov.grid import build_grid
from kinvlasov.output import manifest_payload
from kinvlasov.runner import run_simulation

from conftest import pair_species


def test_defaults_are_valid():
    config = Config()
    assert validate_config(config) is config
    assert config.nx == 64 and config.np == 128
    assert config.plus.q > 0 > config.minus.q


def test_a_config_names_its_two_species():
    assert [f.name for f in fields(SpeciesConfig)] == ["q", "m"]
    assert {"plus", "minus"} <= {f.name for f in fields(Config)}
    with pytest.raises(TypeError):
        Config(species=tuple(pair_species().values()))


def test_typical_config_accepted():
    config = validate_config(Config(nx=64, np=128))
    assert config.nx == 64


def test_zero_mass_rejected():
    bad = Config(plus=SpeciesConfig(0.3, 1.0), minus=SpeciesConfig(-0.3, 0.0))
    with pytest.raises(ConfigError, match=r"mass must be positive \(species minus: m = 0.0\)"):
        validate_config(bad)


def test_small_grid_rejected():
    with pytest.raises(ConfigError, match="nx"):
        validate_config(Config(nx=4))


def test_momentum_tail_bound():
    # Temperature at which the initial Gaussian is exactly 1e-3 of its peak
    # at |p| = p_max: far above the 1e-12 admission limit.
    p_max = 8.0
    temperature = p_max**2 / (6.0 * math.log(10.0))
    bad = Config(p_max=p_max, init=InitConfig(temperature=temperature))
    with pytest.raises(ConfigError, match="p_max too small"):
        validate_config(bad)


def test_drift_tightens_tail_bound():
    ok = Config(init=InitConfig(temperature=0.8, drift=0.0))
    validate_config(ok)
    bad = Config(init=InitConfig(temperature=0.8, drift=2.5))
    with pytest.raises(ConfigError, match="p_max too small"):
        validate_config(bad)


def test_cfl_fraction_bounds():
    validate_config(Config(cfl_fraction=1.0))
    with pytest.raises(ConfigError, match="cfl_fraction"):
        validate_config(Config(cfl_fraction=0.0))
    with pytest.raises(ConfigError, match="cfl_fraction"):
        validate_config(Config(cfl_fraction=1.1))


@pytest.mark.parametrize("nx,k_mode", [(8, 4), (8, 8), (33, 17), (64, 100)])
def test_k_mode_at_or_above_half_nx_rejected(nx, k_mode):
    # At nx/2 the cosine vanishes at every cell centre, and above it modes alias.
    with pytest.raises(ConfigError, match="k_mode must be below nx/2") as err:
        validate_config(Config(nx=nx, init=InitConfig(k_mode=k_mode)))
    assert len(err.value.violations) == 1
    validate_config(Config(nx=nx, init=InitConfig(k_mode=(nx - 1) // 2)))


@pytest.mark.parametrize("amplitude", [-1.5, 1.0 + 2**-52, 1e5])
def test_amplitude_outside_unit_interval_rejected(amplitude):
    with pytest.raises(ConfigError) as err:
        validate_config(Config(init=InitConfig(amplitude=amplitude)))
    assert err.value.violations == [f"amplitude must lie in [-1, 1] (got {amplitude})"]
    for bound in (-1.0, 1.0):
        validate_config(Config(init=InitConfig(amplitude=bound)))


def test_all_violations_reported_at_once():
    bad = Config(nx=2, np=4, c=-1.0)
    with pytest.raises(ConfigError) as err:
        validate_config(bad)
    assert len(err.value.violations) >= 3


def test_non_neutral_charges_rejected():
    bad = Config(plus=SpeciesConfig(0.3, 1.0), minus=SpeciesConfig(-0.2, 1.0))
    with pytest.raises(ConfigError) as err:
        validate_config(bad)
    assert any("neutral" in v for v in err.value.violations)
    validate_config(Config(plus=SpeciesConfig(0.3, 1.0), minus=SpeciesConfig(-0.3, 0.5)))


@pytest.mark.parametrize("change,message", [
    (dict(force_mode="magic"), "unknown force_mode 'magic'"),
    (dict(init=InitConfig(preset="plasma")), "unknown preset 'plasma'"),
], ids=["force_mode", "preset"])
def test_unknown_enum_values_rejected(change, message):
    # The file parser rejects these first; a config built in Python meets this check.
    with pytest.raises(ConfigError) as err:
        validate_config(Config(**change))
    assert err.value.violations == [message]


MINIMAL = "[species.plus]\n[species.minus]\n"


def test_parse_minimal_file_fills_defaults():
    config = parse_config(MINIMAL)
    defaults = Config()
    assert config.nx == defaults.nx
    assert config.init.preset == defaults.init.preset
    assert config.plus.q == pytest.approx(defaults.plus.q)


def test_parse_full_file():
    text = """
# full example
[grid]
nx = 32
x_max = 10.0
np = 64
p_max = 6.0
[time]
cfl_fraction = 0.5
t_end = 2.0
output_every = 5
[physics]
c = 3.0
relativistic = false
force_mode = standard
[species.plus]
q = 0.25
m = 1.5
[species.minus]
q = -0.25
m = 1.0
[init]
preset = two_stream
n0 = 1.0
amplitude = 0.01  # inline comment
k_mode = 2
temperature = 0.4
drift = 1.0
"""
    config = parse_config(text)
    assert config.nx == 32 and config.np == 64
    assert config.relativistic is False
    assert config.force_mode == "standard"
    assert config.plus.m == 1.5
    assert config.init.preset == "two_stream"
    assert config.init.amplitude == 0.01


def test_config_file_with_a_utf8_byte_order_mark_loads_as_without(tmp_path):
    # Editors that save "UTF-8 with BOM" write U+FEFF ahead of the first section.
    text = "[grid]\nnx = 32\n" + MINIMAL
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_config(marked) == load_config(plain) == parse_config(text)


def test_parse_unknown_force_mode_names_line():
    text = "[physics]\nforce_mode = magic\n"
    with pytest.raises(ConfigError, match="unknown force_mode at line 2"):
        parse_config(text)


def test_parse_duplicate_key_names_both_lines():
    text = "[grid]\nnx = 32\nnx = 64\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "line 3" in str(err.value) and "line 2" in str(err.value)


def test_parse_unknown_key():
    with pytest.raises(ConfigError, match="unknown key 'foo'"):
        parse_config("[grid]\nfoo = 1\n")


def test_parse_unknown_section():
    with pytest.raises(ConfigError, match=r"unknown section \[bar\]"):
        parse_config("[bar]\nx = 1\n")


def test_parse_bad_number():
    with pytest.raises(ConfigError, match="invalid integer for nx at line 2"):
        parse_config("[grid]\nnx = lots\n")


def test_parse_key_outside_section():
    with pytest.raises(ConfigError, match="outside any section"):
        parse_config("nx = 32\n")


def test_parsed_config_is_validated():
    with pytest.raises(ConfigError, match="nx"):
        parse_config("[grid]\nnx = 4\n")


@pytest.mark.parametrize("config", [
    Config(t_end=math.inf),
    Config(x_max=math.nan),
    Config(c=math.nan),
    Config(init=InitConfig(amplitude=math.nan)),
    Config(**pair_species(q=math.nan)),
])
def test_non_finite_values_rejected(config):
    with pytest.raises(ConfigError, match="must be finite"):
        validate_config(config)


@pytest.mark.parametrize("config,message", [
    (Config(init=InitConfig(k_mode=1.5)), "k_mode must be of type int (got 1.5)"),
    (Config(init=InitConfig(k_mode=1.3)), "k_mode must be of type int (got 1.3)"),
    (Config(output_every=2.5), "output_every must be of type int (got 2.5)"),
    (Config(nx=64.5), "nx must be of type int (got 64.5)"),
    (Config(np=128.0), "np must be of type int (got 128.0)"),
    (Config(nx="64"), "nx must be of type int (got '64')"),
    (Config(nx=True), "nx must be of type int (got True)"),
    (Config(relativistic="no"), "relativistic must be of type bool (got 'no')"),
    (Config(relativistic=1), "relativistic must be of type bool (got 1)"),
    (Config(x_max=False), "x_max must be of type float (got False)"),
    (Config(force_mode=None), "force_mode must be of type str (got None)"),
    (Config(plus=(0.2, 1.0)), "plus must be of type SpeciesConfig (got (0.2, 1.0))"),
    (Config(init="landau"), "init must be of type InitConfig (got 'landau')"),
    (Config(minus=SpeciesConfig("-0.2", 1.0)), "q must be of type float (species minus: got '-0.2')"),
    (Config(init=InitConfig(n0=np.float32("nan"))), "n0 must be finite (got nan)"),
    (Config(x_max=10**400), f"x_max must be finite (got {10**400})"),
    (Config(x_max=Fraction(4)), "x_max must be of type float (got Fraction(4, 1))"),
], ids=["k_mode=1.5", "k_mode=1.3", "output_every=2.5", "nx=64.5", "np=128.0", "nx='64'",
        "nx=True", "relativistic='no'", "relativistic=1", "x_max=False", "force_mode=None",
        "plus=tuple", "init=str", "minus.q=str", "n0=float32_nan", "x_max=10**400",
        "x_max=Fraction"])
def test_a_field_of_the_wrong_type_is_its_one_violation(config, message):
    # Checked before the numeric comparisons, which would then raise or pass it.
    with pytest.raises(ConfigError) as err:
        validate_config(config)
    assert err.value.violations == [message]


def test_numpy_scalars_of_the_declared_types_are_accepted_and_checked_as_numbers():
    config = Config(nx=np.int64(64), np=np.int32(128), x_max=np.float32(12.5),
                    relativistic=np.bool_(False), init=InitConfig(k_mode=np.int64(2)))
    assert validate_config(config) is config
    # nx * np * 8 and 2 * k_mode are taken as integers, where int64 would wrap.
    with pytest.raises(ConfigError) as err:
        validate_config(Config(nx=np.int64(2**61), init=InitConfig(k_mode=np.int64(2**62))))
    assert [v.split(":")[0] for v in err.value.violations] == [
        "grid too large", "k_mode must be below nx/2 (got k_mode = 4611686018427387904, nx = 2305843009213693952)"]


def test_numpy_scalars_are_stored_as_python_values():
    # A float32 x_max would make dx, dt and every state's time float32, and
    # overflow the run's float32 bounds.
    typed = Config(x_max=np.float32(12.566371), p_max=np.float32(8.0), nx=np.int64(64),
                   plus=SpeciesConfig(np.float32(0.25), np.float64(1.0)),
                   minus=SpeciesConfig(np.float32(-0.25), np.float64(1.0)),
                   init=InitConfig(k_mode=np.int64(2), amplitude=np.float64(0.01)))
    plain = Config(x_max=float(np.float32(12.566371)), p_max=8.0, nx=64,
                   plus=SpeciesConfig(0.25, 1.0), minus=SpeciesConfig(-0.25, 1.0),
                   init=InitConfig(k_mode=2, amplitude=0.01))
    for typed_part, plain_part in ((typed, plain), (typed.plus, plain.plus),
                                   (typed.minus, plain.minus), (typed.init, plain.init)):
        for f in fields(typed_part):
            value = getattr(typed_part, f.name)
            assert type(value) is type(getattr(plain_part, f.name)), f.name
    for name in ("dx", "dp", "dt", "v_max"):
        got, want = (getattr(build_grid(config), name) for config in (typed, plain))
        assert type(got) is float and got == want, name
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ends = [run_simulation(config, n_steps=3).final_state.time for config in (typed, plain)]
    assert type(ends[0]) is float and ends[0] == ends[1]


# Values of every kind a library caller could pass for one field.
ANY_VALUE = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.text(max_size=4), st.none(),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_))
ANY_FIELD = [(cls, f.name) for cls in (Config, InitConfig, SpeciesConfig) for f in fields(cls)]


@settings(max_examples=400)
@given(field=st.sampled_from(ANY_FIELD), value=ANY_VALUE, species=st.sampled_from(["plus", "minus"]))
def test_validate_config_returns_the_config_or_raises_config_error(field, value, species):
    cls, name = field
    config = Config()
    if cls is Config:
        config = replace(config, **{name: value})
    elif cls is InitConfig:
        config = replace(config, init=replace(config.init, **{name: value}))
    else:
        config = replace(config, **{species: replace(getattr(config, species), **{name: value})})
    try:
        assert validate_config(config) is config
    except ConfigError:
        pass


def test_parse_rejects_non_finite_number():
    with pytest.raises(ConfigError, match=r"t_end must be finite \(got inf\)"):
        parse_config("[time]\nt_end = inf\n")


def _render(config_dict) -> str:
    """A config file setting every key of a manifest's ``config`` entry."""
    section_of = {key: name for name, keys in _SECTIONS.items() for key in keys}
    sections = {}
    for key, value in config_dict.items():
        if key in ("plus", "minus"):
            sections[f"species.{key}"] = value
        elif key == "init":
            sections["init"] = value
        else:
            sections.setdefault(section_of[key], {})[key] = value
    lines = []
    for name, entries in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {str(value).lower() if isinstance(value, bool) else value}"
                  for key, value in entries.items()]
    return "\n".join(lines) + "\n"


@st.composite
def valid_configs(draw):
    """Configs that pass validation with every field off its default, so a
    key the parser dropped would come back as the default and differ."""
    defaults = Config()

    def off_default(strategy, default):
        return draw(strategy.filter(lambda value: value != default))

    nx = off_default(st.integers(8, 512), defaults.nx)
    q = off_default(st.floats(-5.0, 5.0), defaults.plus.q)
    m_plus = off_default(st.floats(0.01, 100.0), defaults.plus.m)
    m_minus = off_default(st.floats(0.01, 100.0), defaults.minus.m)
    init = InitConfig(
        preset=draw(st.sampled_from([p for p in PRESETS if p != defaults.init.preset])),
        n0=off_default(st.floats(0.01, 10.0), defaults.init.n0),
        amplitude=off_default(st.floats(-1.0, 1.0), defaults.init.amplitude),
        # k_mode must be below nx/2
        k_mode=off_default(st.integers(1, min(16, (nx - 1) // 2)), defaults.init.k_mode),
        temperature=off_default(st.floats(0.01, 10.0), defaults.init.temperature),
        drift=off_default(st.floats(-5.0, 5.0), defaults.init.drift),
    )
    # Both initial tails must fall below TAIL_RATIO_LIMIT (e^-27.6) at p_max.
    tail = math.sqrt(2.0 * 28.0 * max(m_plus, m_minus) * init.temperature)
    p_max = abs(init.drift) + tail * draw(st.floats(1.0, 3.0))
    assume(p_max != defaults.p_max)
    return Config(
        nx=nx,
        x_max=off_default(st.floats(0.1, 100.0), defaults.x_max),
        np=off_default(st.integers(8, 512), defaults.np),
        p_max=p_max,
        c=off_default(st.floats(0.1, 100.0), defaults.c),
        relativistic=not defaults.relativistic,
        force_mode=next(m for m in FORCE_MODES if m != defaults.force_mode),
        cfl_fraction=off_default(st.floats(0.01, 1.0), defaults.cfl_fraction),
        t_end=off_default(st.floats(0.01, 1000.0), defaults.t_end),
        output_every=off_default(st.integers(1, 1000), defaults.output_every),
        plus=SpeciesConfig(q, m_plus),
        minus=SpeciesConfig(-q, m_minus),
        init=init,
    )


@settings(deadline=None, max_examples=200)
@given(config=valid_configs())
def test_manifest_config_round_trips_through_the_file_format(config):
    config = validate_config(config)
    defaults = Config()
    pairs = [(config, defaults), (config.init, defaults.init),
             (config.plus, defaults.plus), (config.minus, defaults.minus)]
    for obj, default in pairs:
        for f in fields(obj):
            assert getattr(obj, f.name) != getattr(default, f.name), f.name

    payload = manifest_payload(config, build_grid(config), 1)
    assert parse_config(_render(payload["config"])) == config


def test_readme_config_block_shows_every_key_and_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.split("### Config format\n", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("    "))
    block = list(itertools.takewhile(lambda line: line.startswith("    "), lines[start:]))
    assignments = [line for line in block if "=" in line.split("#", 1)[0]]
    assert len(assignments) == sum(len(keys) for keys in _SCHEMA.values())
    assert parse_config("\n".join(block)) == validate_config(Config())
