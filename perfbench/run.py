"""The kinvlasov benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each simulation runs in a fresh single-threaded process (``child.py``), one
at a time (a closed loop), against the solver in ``./src``.  Every simulation
is checked for correctness.  With ``--trace 0`` the run measures the
end-to-end metrics, its times adjusted for the host's speed as the
``hostspeed`` probes measure it during the run (the unadjusted figures are
printed too); with ``--trace 1`` it pairs an untraced and a traced
simulation of the same inputs, requires byte-identical outputs, and reports
per-layer metrics from the traced run's spans.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Details (environment, samples, every check, the spans) go to
``.perfbench/<workload>-seed<N>-trace<T>/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from spans import COMPUTED_BYTES, ROOT, TRACED_NAMES, layer_totals, nesting_errors
from workloads import (
    C,
    CFL_FRACTION,
    WORKLOADS,
    X_MAX,
    Workload,
    config_text,
    load_references,
    make_inputs,
)

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

MIN_SIMULATIONS = 2     # per timed run, whatever --seconds says
BUDGET_S = 170.0        # no child starts, or runs on, past this many seconds

# The final diagnostics and divergence rows must match the stored reference
# to this relative tolerance, with an absolute floor for columns that sit at
# roundoff level (charge and current totals).  A 1e-14 relative perturbation
# of the initial f moves no column by more than 3e-14 absolute.
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-12

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "mcell_updates_per_s": "Mcell/s",
    "peak_rss_mb": "MB",
}

def per_layer_units() -> dict:
    units = {f"{ROOT}.busy_s": "s", "trace_overhead_frac": "fraction"}
    for name in TRACED_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.share"] = "fraction"
    for name in COMPUTED_BYTES:
        units[f"{name}.mb_computed"] = "MB"
    units["output.bytes_written"] = "bytes"
    units["output.write_snapshot.mb_per_s"] = "MB/s"
    return units


class Bench:
    """One benchmark run: its workload, inputs, working directory and children."""

    def __init__(self, root: Path, workload: Workload, seed: int, work: Path,
                 references: dict):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = work
        self.inputs = make_inputs(workload, seed)
        self.reference = references.get(workload.name, {}).get(str(self.inputs["variant"]))
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        for var in THREAD_VARS:
            self.env[var] = "1"
        self.config_path = work / "input.cfg"
        self.config_path.write_text(config_text(workload, self.inputs), encoding="utf-8")
        self.children = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def child(self, mode: str) -> dict:
        """Run one fresh process and return its report, or {"error": ...}."""
        self.children += 1
        tag = f"{self.children:03d}-{mode}"
        out_dir = self.work / tag
        request = {
            "src": str(self.root / "src"),
            "mode": mode,
            "run_id": f"{self.workload.name}/{self.seed}/{tag}",
            "workload": {k: getattr(self.workload, k) for k in
                         ("name", "entry", "preset", "nx", "np", "n_steps", "output_every")},
            "inputs": self.inputs,
            "output_steps": expected_output_steps(self.workload),
            "x_max": X_MAX,
            "c": C,
            "cfl_fraction": CFL_FRACTION,
            "config_path": str(self.config_path),
            "out_dir": str(out_dir),
            "result": str(self.work / f"{tag}.result.json"),
        }
        request_path = self.work / f"{tag}.request.json"
        request_path.write_text(json.dumps(request), encoding="utf-8")
        remaining = BUDGET_S - self.elapsed()
        try:
            proc = subprocess.run([sys.executable, str(CHILD), str(request_path)],
                                  cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            return {"error": f"{tag} did not finish within the run's {BUDGET_S:g} s budget"}
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        result_path = Path(request["result"])
        if proc.returncode != 0 or not result_path.is_file():
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
            return {"error": f"{tag} exited with {proc.returncode}: " + " | ".join(tail)}
        return json.loads(result_path.read_text(encoding="utf-8"))

    def keep_going(self, started: float, durations: list, minimum: int, seconds: float) -> bool:
        """Start another simulation (or pair) while it is expected to end within
        ``seconds`` of ``started``, and at least ``minimum`` times."""
        if self.elapsed() + (durations[-1] if durations else 0.0) > BUDGET_S:
            return False
        if len(durations) < minimum:
            return True
        return (time.perf_counter() - started) + statistics.mean(durations) <= seconds


def expected_output_steps(workload: Workload) -> list:
    return [0] + [k for k in range(1, workload.n_steps + 1) if k % workload.output_every == 0]


def _row_mismatches(label: str, got: dict, ref: dict) -> list:
    problems = []
    for column, want in ref.items():
        value = got.get(column)
        if value is None:
            problems.append(f"{label}: column {column} missing")
        elif not abs(value - want) <= REFERENCE_RTOL * abs(want) + REFERENCE_ATOL:
            problems.append(f"{label}: {column} = {value!r}, reference {want!r}")
    return problems


def check_simulation(bench: Bench, report: dict) -> list:
    """Every reason this simulation's outputs are not correct; empty if they are."""
    if "error" in report:
        return [report["error"]]
    workload = bench.workload
    problems = []
    if not report.get("restored"):
        problems.append("a wrapped solver global was not restored")
    outputs = report.get("outputs")
    if outputs is None:
        return problems + ["the workload did not return"]
    if outputs["exit_code"] != 0:
        problems.append(f"exit code {outputs['exit_code']}: {outputs['abort_reason']}")
    ref = bench.reference
    if ref is None:
        problems.append(f"no stored reference for variant {bench.inputs['variant']}")
    elif ref["inputs"] != bench.inputs:
        problems.append("stored reference was made from other inputs")
    n_rows = (workload.n_steps + 1 if workload.entry == "library"
              else len(expected_output_steps(workload)))
    for mode in workload.modes:
        m = outputs["modes"].get(mode)
        if m is None:
            problems.append(f"{mode}: no outputs")
            continue
        if m["missing"]:
            problems.append(f"{mode}: missing {', '.join(m['missing'][:5])}")
        if not m["finite"]:
            problems.append(f"{mode}: final f is not finite")
        if m["final_step"] != workload.n_steps:
            problems.append(f"{mode}: final step {m['final_step']}, expected {workload.n_steps}")
        if m["n_rows"] != n_rows:
            problems.append(f"{mode}: {m['n_rows']} diagnostics rows, expected {n_rows}")
        first, final = m["first_row"], m["final_row"]
        if first is None or final is None:
            continue
        for column in ("n_total_plus", "n_total_minus"):
            drift = abs(final[column] - first[column]) / abs(first[column])
            if not drift <= workload.mass_drift_tol:
                problems.append(f"{mode}: {column} drifted by {drift:.3e} "
                                f"(tolerance {workload.mass_drift_tol:g})")
        if ref is not None:
            problems += _row_mismatches(f"{mode} final row", final, ref["final_rows"][mode])
    if workload.entry == "compare":
        div = outputs["divergence"]
        if div is None or div["n_rows"] != len(expected_output_steps(workload)):
            problems.append("divergence.csv is missing or has the wrong number of rows")
        elif ref is not None:
            problems += _row_mismatches("divergence final row", div["final_row"],
                                        ref["divergence"])
    return problems


SETUP_NUMPY_WEIGHT = 1.0  # set-up time tracks the numpy probe best


def simulation_times(report: dict, numpy_weight: float) -> dict:
    """Set-up time, step intervals and stepping time of one timed simulation, raw
    and adjusted for host speed.

    An adjusted time is the raw time divided by the host's slowness
    (``hostspeed.slowness``): the mean over the two probes nearest the middle of
    the interval, which halves one probe's noise and still follows a change of
    host speed within half a second.  Set-up is adjusted by the first probe,
    taken at the first step call, with ``SETUP_NUMPY_WEIGHT``: in runs of the
    same code its time followed the numpy probe more closely than the python
    probe.  Probe time is in no interval.
    """
    probes = report["probes"]

    def slowness_at(t: float) -> float:
        nearest = sorted(probes, key=lambda p: abs(p[0] - t))[:2]
        return statistics.fmean(hostspeed.slowness(np_ms, py_ms, numpy_weight)
                                for _, np_ms, py_ms in nearest)

    stamps = report["step_stamps"]
    setup = stamps[0][0]
    setup_slowness = hostspeed.slowness(*probes[0][1:], SETUP_NUMPY_WEIGHT)
    raw_ms, adjusted_ms = [], []
    stepping = stepping_adjusted = 0.0
    # Every span between two step calls, and from the last one to the return.  A
    # compare workload's second run restarts at step 0: the span across the
    # restart is stepping time but not a step interval.
    ends = [(b[0], b[2]) for b in stamps[1:]] + [(report["return_s"], None)]
    for (_, resume, k), (end, next_k) in zip(stamps, ends):
        d = end - resume
        d_adjusted = d / slowness_at(0.5 * (resume + end))
        stepping += d
        stepping_adjusted += d_adjusted
        if next_k == k + 1:
            raw_ms.append(d * 1e3)
            adjusted_ms.append(d_adjusted * 1e3)
    return {"setup_s": setup, "setup_adjusted_s": setup / setup_slowness,
            "stepping_s": stepping, "stepping_adjusted_s": stepping_adjusted,
            "step_ms": raw_ms, "step_adjusted_ms": adjusted_ms}


def timing_metrics(times: list, cell_updates: int, suffix: str) -> dict:
    """End-to-end timing metrics over a run's simulations, from the raw
    (``suffix`` "") or host-speed-adjusted (``suffix`` "_adjusted") times."""
    steps = [d for t in times for d in t[f"step{suffix}_ms"]]
    return {
        "run_s": statistics.median(t[f"setup{suffix}_s"] + t[f"stepping{suffix}_s"]
                                   for t in times),
        "setup_s": statistics.median(t[f"setup{suffix}_s"] for t in times),
        "step_ms_p50": statistics.median(steps),
        "step_ms_p90": statistics.quantiles(steps, n=10)[-1],
        "mcell_updates_per_s": statistics.median(cell_updates / t[f"stepping{suffix}_s"] / 1e6
                                                 for t in times),
    }


def timed_run(bench: Bench, seconds: float, log: dict) -> dict:
    bench.child("setup")  # warm-up: bytecode and file caches, not measured
    started = time.perf_counter()
    # Simulations that failed a check are still timed; they count in ``failed``.
    good, durations = [], []
    while bench.keep_going(started, durations, MIN_SIMULATIONS, seconds):
        t0 = time.perf_counter()
        report = bench.child("time")
        durations.append(time.perf_counter() - t0)
        log["simulations"].append({"problems": check_simulation(bench, report),
                                   "run_s": report.get("run_s"),
                                   "env": report.get("env")})
        if "run_s" in report:
            good.append(report)
    if not good:
        return {}
    times = [simulation_times(r, bench.workload.numpy_weight) for r in good]
    log["samples"] = {"step_intervals": sum(len(t["step_ms"]) for t in times),
                      "simulations": len(good),
                      "probes": sum(len(r["probes"]) for r in good)}
    log["raw"] = timing_metrics(times, bench.workload.cell_updates, "")
    log["times"] = times
    log["probes"] = [r["probes"] for r in good]
    return {
        **timing_metrics(times, bench.workload.cell_updates, "_adjusted"),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024.0 for r in good),
    }


def layer_metrics(report: dict) -> dict:
    """Per-layer figures of one traced simulation (see per_layer_units)."""
    totals = layer_totals(report["spans"])
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "bytes": 0}
    root = totals[ROOT]["busy_s"]
    metrics = {f"{ROOT}.busy_s": root}
    for name in TRACED_NAMES:
        t = totals.get(name, empty)
        metrics[f"{name}.calls"] = t["calls"]
        metrics[f"{name}.busy_s"] = t["busy_s"]
        metrics[f"{name}.self_s"] = t["self_s"]
        metrics[f"{name}.share"] = t["busy_s"] / root
    for name in COMPUTED_BYTES:
        metrics[f"{name}.mb_computed"] = totals.get(name, empty)["bytes"] / 1e6
    outputs = report["outputs"]
    metrics["output.bytes_written"] = outputs["output_bytes"]
    write_busy = totals.get("output.write_snapshot", empty)["busy_s"]
    metrics["output.write_snapshot.mb_per_s"] = (
        outputs["snapshot_bytes"] / 1e6 / write_busy if write_busy else 0.0)
    return metrics


def traced_run(bench: Bench, seconds: float, log: dict) -> dict:
    bench.child("setup")  # warm-up, as in the timed run
    started = time.perf_counter()
    layers, overheads, spans, durations = [], [], [], []
    while bench.keep_going(started, durations, 1, seconds):
        t0 = time.perf_counter()
        # Alternate which of the pair runs first.
        order = ("time", "trace") if len(durations) % 2 == 0 else ("trace", "time")
        reports = {mode: bench.child(mode) for mode in order}
        durations.append(time.perf_counter() - t0)
        plain, traced = reports["time"], reports["trace"]
        pair = {mode: check_simulation(bench, r) for mode, r in reports.items()}
        if "outputs" in traced and "outputs" in plain:
            if traced["outputs"]["digest"] != plain["outputs"]["digest"]:
                pair["trace"].append("traced outputs differ from the untraced run's")
            pair["trace"] += nesting_errors(traced["spans"])
        log["simulations"] += [{"mode": mode, "problems": p, "run_s": reports[mode].get("run_s"),
                                "env": reports[mode].get("env")} for mode, p in pair.items()]
        if "run_s" not in traced or "run_s" not in plain:
            continue
        spans += traced["spans"]
        layers.append(layer_metrics(traced))
        overheads.append(traced["run_s"] / plain["run_s"] - 1.0)
    (bench.work / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
    if not layers:
        return {}
    log["samples"] = {"traced_simulations": len(layers)}
    log["layers"] = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics = {k: log["layers"][k] for k in per_layer_units() if k in log["layers"]}
    metrics["trace_overhead_frac"] = statistics.median(overheads)
    return metrics


def git_commit(root: Path):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(bench: Bench, log: dict) -> dict:
    child_env = next((s["env"] for s in log["simulations"] if s.get("env")), {})
    return {
        **child_env,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_caps": {var: bench.env.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(bench.root),
        "seed": bench.seed,
        "variant": bench.inputs["variant"],
        "inputs": bench.inputs,
    }


def run_benchmark(root: Path, workload: Workload, seed: int, seconds: float, trace: bool,
                  references: dict | None = None) -> dict | None:
    """Run the benchmark; return the result object, or None if no simulation ran to the end."""
    work = root / ".perfbench" / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if references is None:
        references = load_references()
    bench = Bench(root, workload, seed, work, references)
    log = {"simulations": []}
    metrics = (traced_run if trace else timed_run)(bench, seconds, log)
    failed = sum(1 for s in log["simulations"] if s["problems"])
    attempted = len(log["simulations"])
    units = per_layer_units() if trace else END_TO_END
    details = {"workload": workload.name, "trace": int(trace),
               "environment": environment(bench, log), **log,
               "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
               "failed_frac": failed / attempted if attempted else None}
    (work / "result.json").write_text(json.dumps(details, indent=1), encoding="utf-8")
    if not metrics:
        return None
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "environment": details["environment"],
        "problems": [p for s in log["simulations"] for p in s["problems"]],
        "raw": log.get("raw", {}),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "kinvlasov" / "__init__.py").is_file():
        print(f"error: no solver source at {root / 'src' / 'kinvlasov'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    result = run_benchmark(root, WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace))
    if result is None:
        print("error: no simulation ran to the end; see .perfbench/", file=sys.stderr)
        return 1
    for problem in result.pop("problems"):
        print(f"FAILED CHECK {problem}")
    print("environment " + json.dumps(result.pop("environment"), sort_keys=True))
    for name, value in result.pop("raw").items():
        print(f"unadjusted {name} {value} {END_TO_END[name]}")
    print(f"failed_frac {result['failed'] / result['attempted']} "
          f"({result['failed']} of {result['attempted']} simulations)")
    for name, m in result["metrics"].items():
        value = m["value"]
        if isinstance(value, float) and not math.isfinite(value):
            print(f"error: metric {name} is {value}", file=sys.stderr)
            return 1
        print(f"{name} {value} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
