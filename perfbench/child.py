"""One simulation in a fresh process, driven through the solver's public API.

Usage: python3 child.py REQUEST.json

The request names the solver's source directory, the workload, its inputs and
a mode: ``setup`` stops at the first ``step`` call (the warm-up), ``time``
runs the workload with a timestamp taken at each ``step`` call and, about every
``hostspeed.PROBE_EVERY_S`` seconds, the two host-speed probes, whose time is
left out of every reported time; ``trace`` runs it with every traced function
wrapped in spans.  After
the workload returns, outside the timed region, this script reads back what
the run produced and writes its observations to the request's ``result`` path;
``run.py`` judges them.
"""

import resource  # harness-only, so imported before the clock starts
import time

from hostspeed import PROBE_EVERY_S, numpy_probe_ms, python_probe_ms

T_START = time.perf_counter()

# The solver imports these itself; the harness-only modules are imported after
# the workload returns.
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402


class SetupDone(Exception):
    """Raised at the first step call of the warm-up."""


def import_solver(src: Path):
    sys.path.insert(0, str(src))
    import kinvlasov

    origin = Path(kinvlasov.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise RuntimeError(f"kinvlasov imported from {origin}, not from {src}")
    return kinvlasov


def run_workload(req: dict):
    """The timed call: the library entry or the CLI entry the workload names."""
    w = req["workload"]
    if w["entry"] == "library":
        from kinvlasov import Config, InitConfig, run_simulation

        config = Config(
            nx=w["nx"], np=w["np"], x_max=req["x_max"], c=req["c"],
            cfl_fraction=req["cfl_fraction"], output_every=w["output_every"],
            init=InitConfig(preset=w["preset"], amplitude=req["inputs"]["amplitude"],
                            drift=req["inputs"]["drift"],
                            temperature=req["inputs"]["temperature"]),
        )
        return run_simulation(config, n_steps=w["n_steps"])
    from kinvlasov.cli import main  # binds none of the traced functions

    return main([w["entry"], "--config", req["config_path"], "--out", req["out_dir"]])


def _row(values: dict) -> dict:
    return {k: (int(v) if k == "step" else float(v)) for k, v in values.items()}


def _csv_rows(path: Path) -> list:
    """The rows of a diagnostics-style CSV file, or [] if there is none."""
    import csv

    if not path.is_file():
        return []
    with open(path, encoding="utf-8") as fh:
        return [_row(r) for r in csv.DictReader(fh)]


def _digest_files(out_dir: Path) -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _finite_matrix_file(path: Path) -> bool:
    with open(path, encoding="utf-8") as fh:
        fh.readline()  # header
        return all(math.isfinite(float(tok)) for line in fh for tok in line.split())


def observe_library(result) -> dict:
    import hashlib

    import numpy as np

    final = result.final_state
    h = hashlib.sha256()
    for arr in (final.plus.f, final.minus.f, final.fields.phi_prev, final.fields.phi_curr,
                final.fields.a_prev, final.fields.a_curr):
        h.update(np.ascontiguousarray(arr).tobytes())
    for record in result.records:
        h.update(repr([float(v) for v in asdict(record).values()]).encode())
    rows = [_row(asdict(r)) for r in result.records]
    return {
        "exit_code": 1 if result.aborted else 0,
        "abort_reason": result.abort_reason,
        "modes": {"modified": {
            "n_rows": len(rows),
            "first_row": rows[0] if rows else None,
            "final_row": rows[-1] if rows else None,
            "final_step": final.step,
            "finite": bool(np.all(np.isfinite(final.plus.f))
                           and np.all(np.isfinite(final.minus.f))),
            "missing": [],
        }},
        "divergence": None,
        "output_bytes": 0,
        "snapshot_bytes": 0,
        "digest": h.hexdigest(),
    }


def observe_mode_dir(mode_dir: Path, output_steps: list) -> dict:
    """Diagnostics rows, expected files and finiteness of one run's output directory."""
    names = ["manifest.json", "diagnostics.csv"]
    for k in output_steps:
        names += [f"f_plus_{k}.dat", f"f_minus_{k}.dat", f"fields_{k}.dat"]
    missing = [n for n in names if not (mode_dir / n).is_file()]
    rows = _csv_rows(mode_dir / "diagnostics.csv")
    last = output_steps[-1]
    finite = not missing and all(
        _finite_matrix_file(mode_dir / f"f_{label}_{last}.dat") for label in ("plus", "minus"))
    return {
        "n_rows": len(rows),
        "first_row": rows[0] if rows else None,
        "final_row": rows[-1] if rows else None,
        "final_step": rows[-1]["step"] if rows else None,
        "finite": finite,
        "missing": missing,
    }


def observe_cli(exit_code, req: dict) -> dict:
    w = req["workload"]
    out_dir = Path(req["out_dir"])
    modes = {}
    divergence = None
    if w["entry"] == "compare":
        for mode in ("modified", "standard"):
            modes[mode] = observe_mode_dir(out_dir / mode, req["output_steps"])
        if (out_dir / "divergence.csv").is_file():
            drows = _csv_rows(out_dir / "divergence.csv")
            divergence = {"n_rows": len(drows), "final_row": drows[-1] if drows else None}
    else:
        modes["modified"] = observe_mode_dir(out_dir, req["output_steps"])
    files = [p for p in out_dir.rglob("*") if p.is_file()]
    snapshot_files = [p for p in files if p.suffix == ".dat"]
    return {
        "exit_code": exit_code,
        "abort_reason": "",
        "modes": modes,
        "divergence": divergence,
        "output_bytes": sum(p.stat().st_size for p in files),
        "snapshot_bytes": sum(p.stat().st_size for p in snapshot_files),
        "digest": _digest_files(out_dir),
    }


def main() -> int:
    req = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    kinvlasov = import_solver(Path(req["src"]))  # loads every traced module
    import kinvlasov.runner as runner

    mode = req["mode"]
    report = {"mode": mode}
    stamps = []  # (perf_counter at the step call, at the return to the solver, state.step)
    probes = []  # (perf_counter, numpy probe ms, python probe ms)
    tracer = None
    if mode == "trace":
        from spans import ROOT, Tracer

        tracer = Tracer(req["run_id"])
        tracer.install()
    else:
        original_step = runner.step

        def timed_step(state, config, grid):
            t_call = time.perf_counter()
            if mode == "setup":
                raise SetupDone
            if not probes or t_call - probes[-1][0] >= PROBE_EVERY_S:
                probes.append((t_call, numpy_probe_ms(), python_probe_ms()))
            stamps.append((t_call, time.perf_counter(), state.step))
            return original_step(state, config, grid)

        runner.step = timed_step

    t_return = None
    peak_rss_kb = None
    try:
        if tracer is not None:
            root = tracer.open(ROOT)
            try:
                outcome = run_workload(req)
            finally:
                tracer.close(root)
        else:
            outcome = run_workload(req)
        t_return = time.perf_counter()
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except SetupDone:
        pass
    finally:
        if tracer is not None:
            report["restored"] = tracer.uninstall()
        else:
            runner.step = original_step
            report["restored"] = runner.step is original_step

    import platform

    import numpy
    import scipy

    report["env"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kinvlasov": kinvlasov.__version__,
    }
    if t_return is not None:
        probe_s = sum(resume - call for call, resume, _ in stamps)
        report["run_s"] = t_return - T_START - probe_s
        report["peak_rss_kb"] = peak_rss_kb
        # Times from T_START; the driver adjusts them for host speed.
        report["return_s"] = t_return - T_START
        report["step_stamps"] = [(call - T_START, resume - T_START, k)
                                 for call, resume, k in stamps]
        report["probes"] = [(t - T_START, np_ms, py_ms) for t, np_ms, py_ms in probes]
        if req["workload"]["entry"] == "library":
            report["outputs"] = observe_library(outcome)
        else:
            report["outputs"] = observe_cli(outcome, req)
    if tracer is not None:
        report["spans"] = tracer.spans
    Path(req["result"]).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
