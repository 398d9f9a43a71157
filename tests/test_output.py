import json
import math
from dataclasses import replace

import numpy as np
import pytest

from kinvlasov.config import Config, ConfigError, validate_config
from kinvlasov.diagnostics import (
    DIAGNOSTICS_FIELDS,
    EQUATION_PARTITION,
    DiagnosticsRecord,
    DivergenceRow,
)
from kinvlasov.grid import build_grid
from kinvlasov import output, runner
from kinvlasov.output import (
    DiagnosticsWriter,
    format_float,
    manifest_payload,
    write_divergence,
    write_manifest,
    write_snapshot,
)
from kinvlasov.runner import run_simulation
from kinvlasov.state import build, initialize_state
from kinvlasov.vlasov import step

from conftest import landau_config, read_snapshot


def sample_record():
    return DiagnosticsRecord(
        step=3, time=0.1931748812, n_total_plus=20.94395102393195,
        n_total_minus=20.943951023931955, charge_total=1.1e-17,
        current_total=-3.0e-18, gauge_residual_l2=1.25e-9,
        continuity_residual_l2=7.5e-8, vlasov_residual_plus_l2=2.5e-6,
        vlasov_residual_minus_l2=2.4e-6, max_abs_v_over_c=0.894,
        field_energy_proxy=4.2e-7,
    )


def written_lines(tmp_path, record):
    writer = DiagnosticsWriter(tmp_path / "diagnostics.csv")
    writer.write(record)
    writer.close()
    return (tmp_path / "diagnostics.csv").read_text().splitlines()


def test_diagnostics_header_and_row(tmp_path):
    lines = written_lines(tmp_path, sample_record())
    assert lines[0] == ",".join(DIAGNOSTICS_FIELDS)
    assert lines[0].startswith("step,time,n_total_plus")
    values = lines[1].split(",")
    assert values[0] == "3"
    assert len(values) == len(DIAGNOSTICS_FIELDS)


def test_diagnostics_round_trip(tmp_path):
    record = sample_record()
    row = written_lines(tmp_path, record)[1].split(",")
    for name, text in zip(DIAGNOSTICS_FIELDS[1:], row[1:]):
        assert float(text) == getattr(record, name)


def test_row_count_matches_cadence(tmp_path):
    config = validate_config(landau_config(nx=32, n_p=32, output_every=6,
                                           amplitude=1e-3))
    run_simulation(config, out_dir=tmp_path, n_steps=20)
    lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
    # header + initial row + floor(20 / 6) cadence rows
    assert len(lines) == 1 + 1 + 20 // 6


@pytest.mark.parametrize("n_steps", [-3, 2.5, True, "10"])
def test_n_steps_must_be_a_non_negative_integer(tmp_path, n_steps):
    with pytest.raises(ConfigError) as err:
        run_simulation(Config(nx=16, np=32), out_dir=tmp_path, n_steps=n_steps)
    assert err.value.violations == [f"n_steps must be a non-negative integer (got {n_steps!r})"]
    assert not any(tmp_path.iterdir())     # rejected before the manifest is written
    result = run_simulation(Config(nx=16, np=32), n_steps=np.int64(0))
    assert (result.n_steps, len(result.records)) == (0, 1) and not result.aborted


def test_rows_are_built_only_where_they_are_read(tmp_path, monkeypatch):
    built, real_make_record = [], runner.make_record

    def counted(state, *args):
        built.append(state.step)
        return real_make_record(state, *args)

    monkeypatch.setattr(runner, "make_record", counted)
    config = validate_config(landau_config(nx=32, n_p=32, output_every=4, amplitude=1e-2))
    written = run_simulation(config, out_dir=tmp_path, n_steps=10)
    assert built == [0, 4, 8]
    lines = (tmp_path / "diagnostics.csv").read_text().splitlines(keepends=True)[1:]
    assert [output.csv_row(record) for record in written.records] == lines
    # A library run's caller reads every row.
    built.clear()
    library = run_simulation(config, n_steps=10)
    assert built == list(range(11))
    assert written.records == library.records[::4]


def test_snapshot_round_trip(tmp_path):
    config = validate_config(landau_config(nx=16, n_p=16, amplitude=1e-2))
    grid = build_grid(config)
    state = initialize_state(config, grid)
    write_snapshot(state, grid, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "f_minus_0.dat", "f_plus_0.dat", "fields_0.dat"]
    meta, matrix = read_snapshot(tmp_path / "f_minus_0.dat")
    assert meta["nx"] == grid.nx and meta["np"] == grid.np
    assert meta["x_max"] == grid.x_max and meta["p_max"] == grid.p_max
    assert matrix.shape == (grid.nx, grid.np)
    assert np.array_equal(matrix, state.minus.f)

    meta_f, table = read_snapshot(tmp_path / "fields_0.dat")
    assert meta_f["columns"] == "x,phi,a,rho,j"
    assert np.array_equal(table[:, 3], state.rho)


def fail_on_write(monkeypatch, k):
    """Make every file that ``output`` opens raise OSError on its k-th write."""
    def open_failing(*args, **kwargs):
        fh = open(*args, **kwargs)
        real_write, count = fh.write, [0]

        def write(text):
            count[0] += 1
            if count[0] == k:
                raise OSError("no space left on device")
            return real_write(text)

        fh.write = write
        return fh

    monkeypatch.setattr(output, "open", open_failing, raising=False)


def test_interrupted_snapshot_leaves_no_file(tmp_path, monkeypatch):
    config = validate_config(landau_config(nx=16, n_p=16, amplitude=1e-2))
    grid = build_grid(config)
    state = initialize_state(config, grid)
    fail_on_write(monkeypatch, 5)   # the header and three rows of f_plus are written
    with pytest.raises(OSError, match="no space"):
        write_snapshot(state, grid, tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("target", ["manifest", "divergence"])
def test_interrupted_manifest_and_divergence_leave_no_file(tmp_path, monkeypatch, target):
    config = validate_config(landau_config(nx=16, n_p=16))
    grid = build_grid(config)
    rows = [DivergenceRow(k, 0.1 * k, 1e-3, 2e-3, 3e-3, 4e-3, 5e-3) for k in range(6)]
    fail_on_write(monkeypatch, 4)
    with pytest.raises(OSError, match="no space"):
        if target == "manifest":
            write_manifest(manifest_payload(config, grid, 10), tmp_path)
        else:
            write_divergence(rows, tmp_path / "divergence.csv")
    assert list(tmp_path.iterdir()) == []


def per_value_text(header, matrix):
    """The snapshot format written one value at a time, with no row reuse."""
    lines = [header] + [" ".join(repr(float(v)) for v in row) for row in matrix]
    return "\n".join(lines) + "\n"


def test_write_matrix_bytes_match_per_value_writer(tmp_path):
    nan, inf = math.nan, math.inf
    m = np.array([
        [0.0, 1.5, -2.25, 1e-300],
        [0.0, 1.5, -2.25, 1e-300],
        [0.0, 1.5, -2.25, 1e-300],
        [-0.0, 1.5, -2.25, 1e-300],     # == the row above, but not bitwise
        [-0.0, 1.5, -2.25, 1e-300],
        [0.0, 1.5, -2.25, 1e-300],
        [nan, nan, nan, nan],
        [nan, nan, nan, nan],
        [inf, -inf, inf, -inf],
        [inf, -inf, inf, -inf],
        [5e-324, -5e-324, 5e-324, 0.1],
        [5e-324, -5e-324, 5e-324, 0.1],
        [0.1, 1.0 / 3.0, 2.0 / 3.0, math.pi],
    ])
    views = {
        "rows": m,
        "strided": m[:, ::2],
        "transposed": m.T,
        # rows that differ only in the odd columns the view leaves out
        "odd_columns_dropped": np.array([[1.0, k, 2.0, -k] for k in range(4)])[:, ::2],
    }
    for name, matrix in views.items():
        path = tmp_path / f"{name}.dat"
        output._write_matrix(path, "# header", matrix)
        assert path.read_bytes() == per_value_text("# header", matrix).encode(), name
    assert "\n-0.0 1.5" in (tmp_path / "rows.dat").read_text()


def test_snapshot_header_value_count(tmp_path):
    config = validate_config(landau_config(nx=16, n_p=24))
    grid = build_grid(config)
    state = initialize_state(config, grid)
    write_snapshot(state, grid, tmp_path)
    meta, matrix = read_snapshot(tmp_path / "f_plus_0.dat")
    assert matrix.size == meta["nx"] * meta["np"]


def test_landau_snapshot_density_profile(tmp_path):
    config = validate_config(landau_config(nx=32, n_p=128, amplitude=1e-2))
    grid = build_grid(config)
    state = initialize_state(config, grid)
    write_snapshot(state, grid, tmp_path)
    _, matrix = read_snapshot(tmp_path / "f_minus_0.dat")
    density = matrix.sum(axis=1) * grid.dp
    k = 2.0 * np.pi * config.init.k_mode / config.x_max
    expected = config.init.n0 * (1.0 + config.init.amplitude * np.cos(k * grid.x_nodes))
    assert np.allclose(density, expected, atol=1e-8 * config.init.n0)


def test_format_float_shortest_round_trip():
    assert format_float(0.1) == "0.1"
    assert format_float(np.float64(1.0) / 3.0) == repr(1.0 / 3.0)
    assert float(format_float(math.pi)) == math.pi


def test_manifest_contents(tmp_path):
    config = validate_config(landau_config(nx=32, n_p=32))
    grid = build_grid(config)
    dt = grid.dt
    payload = manifest_payload(config, grid, 100)
    write_manifest(payload, tmp_path)
    loaded = json.loads((tmp_path / "manifest.json").read_text())
    assert loaded["config"]["nx"] == 32
    assert loaded["config"]["init"]["preset"] == "landau"
    for name in ("plus", "minus"):
        species = getattr(config, name)
        assert loaded["config"][name] == {"q": species.q, "m": species.m}
    assert loaded["derived"]["dt"] == dt
    # c = 4 exceeds every speed v(p) = p / sqrt(1 + (p/c)^2), so the light ratio
    # is the cfl_fraction and the transport ratio is v/c of it, with v at the
    # outermost momentum node.
    p_edge = config.p_max - 0.5 * grid.dp
    v_edge = p_edge / math.sqrt(1.0 + (p_edge / config.c) ** 2)
    assert loaded["derived"]["cfl_light_ratio"] == pytest.approx(config.cfl_fraction, rel=1e-12)
    assert loaded["derived"]["cfl_transport_ratio"] == pytest.approx(
        config.cfl_fraction * v_edge / config.c, rel=1e-12)
    partition = loaded["equation_partition"]
    assert partition == EQUATION_PARTITION
    assert partition["full_equation_total"] == 12
    assert partition["full_unknown_total"] == 10
    assert partition["reduced_equation_total"] == 8
    assert "1/c" in loaded["notes"]["continuity_residual_forms"]


def test_numpy_typed_config_values_write_the_plain_configs_manifest(tmp_path):
    plain = validate_config(landau_config(nx=16, n_p=16))
    typed = replace(plain, nx=np.int64(16), relativistic=np.bool_(True),
                    init=replace(plain.init, k_mode=np.int64(1)))
    for name, config in (("plain", plain), ("typed", typed)):
        run_simulation(config, out_dir=tmp_path / name, n_steps=1)
    assert ((tmp_path / "typed" / "manifest.json").read_bytes()
            == (tmp_path / "plain" / "manifest.json").read_bytes())


def test_manifest_deterministic(tmp_path):
    config = validate_config(landau_config(nx=32, n_p=32))
    grid = build_grid(config)
    payload = manifest_payload(config, grid, 50)
    for name in ("a", "b"):
        write_manifest(payload, tmp_path / name)
    assert ((tmp_path / "a" / "manifest.json").read_bytes()
            == (tmp_path / "b" / "manifest.json").read_bytes())


# Every preset's plus species is a uniform, stationary background.  With no
# force acting (free_stream), its x-advection keeps every row bitwise equal to
# the row above when nx has only the prime factors 2 and 3, so its snapshot
# files cost one formatted row each.  At a power of two the rows also stay
# bitwise equal to the initial f; a radix-3 pass rounds the constant's mean by
# an ulp or so per step, the same in every row.  An nx with a factor of 5 does
# not keep the rows equal: pocketfft's radix-5 twiddles leave x-dependent
# roundoff in them.
@pytest.mark.parametrize("relativistic", [True, False])
@pytest.mark.parametrize("nx", [24, 64])
def test_free_stream_plus_species_stays_bitwise_uniform(nx, relativistic):
    config = landau_config(nx=nx, n_p=32, relativistic=relativistic, amplitude=0.1,
                           drift=0.3)
    config = validate_config(replace(config, init=replace(config.init, preset="free_stream")))
    grid = build_grid(config)
    state = initialize_state(config, grid)
    initial = state.plus.f.copy().view(np.int64)
    for _ in range(50):
        state = build(step(state, config, grid), config, grid)
        bits = state.plus.f.view(np.int64)
        assert np.array_equal(bits, np.broadcast_to(bits[:1], bits.shape)), state.step
        if nx == 64:
            assert np.array_equal(bits, initial), state.step
