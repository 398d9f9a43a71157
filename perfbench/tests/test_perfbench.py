"""Self-test of the benchmark at a tiny grid size.

Each workload runs once untraced and once traced on a 16x32 grid against a
reference made on the spot, through the same code the full benchmark uses.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import make_references  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 5
DECLARED = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name):
    # The 32-cell momentum grid loses mass faster than the full-size grids do.
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(w, nx=16, np=32, n_steps=6, output_every=min(w.output_every, 3),
                               mass_drift_tol=1e-3)


def declared_units(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """A checkout-like directory whose src is the repository's."""
    path = tmp_path_factory.mktemp("checkout")
    (path / "src").symlink_to(REPO / "src", target_is_directory=True)
    return path


def references_for(root, workload, seed):
    variant = workloads.variant_of(seed)
    entry, _ = make_references.build_reference(
        root, workload, variant, root / ".perfbench" / f"ref-{workload.name}-{variant}")
    return {workload.name: {str(variant): entry}}


@pytest.fixture(scope="module")
def results(root):
    out = {}
    for name in sorted(workloads.WORKLOADS):
        w = tiny(name)
        refs = references_for(root, w, SEED)
        out[name] = {trace: run.run_benchmark(root, w, SEED, 0.0, trace, refs)
                     for trace in (False, True)}
    return out


def test_declared_workloads_match():
    assert {w["name"] for w in DECLARED["workloads"]} == set(workloads.WORKLOADS)
    assert declared_units("end_to_end") == run.END_TO_END
    assert declared_units("per_layer") == run.per_layer_units()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_present_with_unit_and_run_correct(results, name, trace):
    result = results[name][trace]
    assert result is not None
    assert result["problems"] == []
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = declared_units("per_layer" if trace else "end_to_end")
    assert list(result["metrics"]) == list(units)
    for metric, unit in units.items():
        value = result["metrics"][metric]
        assert value["unit"] == unit
        assert isinstance(value["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_spans_nest_and_self_time_is_non_negative(root, results, name):
    assert results[name][True] is not None
    work = root / ".perfbench" / f"{name}-seed{SEED}-trace1"
    recorded = json.loads((work / "spans.json").read_text(encoding="utf-8"))
    assert recorded
    for run_id in {s["run_id"] for s in recorded}:
        one_run = [s for s in recorded if s["run_id"] == run_id]
        assert spans.nesting_errors(one_run) == []
        roots = [s for s in one_run if s["parent"] is None]
        assert [s["name"] for s in roots] == [spans.ROOT]
        for totals in spans.layer_totals(one_run).values():
            assert totals["self_s"] >= 0
            assert totals["busy_s"] >= totals["self_s"]


def test_kick_is_traced_only_where_forces_act(results):
    landau = results["landau_256x512"][True]["metrics"]
    free = results["free_stream_snapshots_64x128"][True]["metrics"]
    assert landau["vlasov.kick_p.calls"]["value"] == 2 * 6
    assert free["vlasov.kick_p.calls"]["value"] == 0
    assert free["output.write_snapshot.calls"]["value"] == 7
    assert landau["output.bytes_written"]["value"] == 0


def test_seed_changes_inputs_but_not_metric_names(root, results):
    name = "landau_256x512"
    w = tiny(name)
    other = SEED + 1
    assert workloads.make_inputs(w, SEED) != workloads.make_inputs(w, other)
    assert workloads.make_inputs(w, SEED) == workloads.make_inputs(w, SEED)
    result = run.run_benchmark(root, w, other, 0.0, False, references_for(root, w, other))
    assert result["correct"] is True
    assert list(result["metrics"]) == list(results[name][False]["metrics"])


def test_host_speed_adjustment_divides_each_time_by_the_slowness():
    # Both probes read twice their reference time for the whole simulation.
    probes = [(0.4 + 0.25 * i, 2 * hostspeed.REF_NUMPY_MS, 2 * hostspeed.REF_PYTHON_MS)
              for i in range(10)]
    # A step call every 0.2 s from 0.4 s on; the hook holds each one for 5 ms.
    stamps = [(0.4 + 0.2 * k, 0.405 + 0.2 * k, k) for k in range(11)]
    t = run.simulation_times({"probes": probes, "step_stamps": stamps, "return_s": 2.5}, 0.3)
    assert t["setup_s"] == pytest.approx(0.4)
    assert t["setup_adjusted_s"] == pytest.approx(0.2)
    assert t["step_ms"] == pytest.approx([195.0] * 10)
    assert t["step_adjusted_ms"] == pytest.approx([97.5] * 10)
    assert t["stepping_s"] == pytest.approx(2.5 - 0.405 - 10 * 0.005)
    assert t["stepping_adjusted_s"] == pytest.approx(t["stepping_s"] / 2)


def test_wrong_reference_fails_the_run(root):
    w = tiny("landau_256x512")
    refs = references_for(root, w, SEED)
    row = refs[w.name][str(workloads.variant_of(SEED))]["final_rows"]["modified"]
    row["field_energy_proxy"] *= 1.0 + 1e-3
    result = run.run_benchmark(root, w, SEED, 0.0, False, refs)
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_tracer_restores_every_global():
    sys.path.insert(0, str(REPO / "src"))
    import kinvlasov.cli  # noqa: F401
    import kinvlasov.output as output
    import kinvlasov.runner as runner

    owners = [m for key, m in sys.modules.items() if key.startswith("kinvlasov")]
    owners.append(output.DiagnosticsWriter)
    before = [(owner, dict(vars(owner))) for owner in owners]
    tracer = spans.Tracer("restore-test")
    tracer.install()
    assert runner.step.__wrapped__ is sys.modules["kinvlasov.vlasov"].step.__wrapped__
    assert output.DiagnosticsWriter.write.__wrapped__ is not None
    assert tracer.uninstall() is True
    for owner, names in before:
        for attr, value in names.items():
            assert vars(owner)[attr] is value, f"{owner.__name__}.{attr} not restored"


def test_missing_solver_source_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "landau_256x512", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
