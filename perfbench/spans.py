"""Spans for the traced benchmark run, recorded from outside the solver.

``Tracer.install`` replaces each traced function with a wrapper in every
loaded ``kinvlasov`` module that holds it, because ``runner``, ``vlasov`` and
``diagnostics`` import these functions by name.  Every call records a span
(id, name, start and end in integer nanoseconds, parent span, run id) in
memory; ``uninstall`` puts the original objects back.  ``layer_totals`` turns
the spans of one run into per-function calls, busy time and self time.
This module imports nothing from the solver.
"""

from __future__ import annotations

import sys
import time

# (module, attribute path) of every traced function.
TRACED = (
    ("runner", "run_simulation"),
    ("runner", "compare_simulations"),
    ("vlasov", "step"),
    ("vlasov", "advect_x"),
    ("vlasov", "kick_p"),
    ("interpolate", "periodic_shift_columns"),
    ("interpolate", "natural_spline_moments"),
    ("interpolate", "eval_natural_spline"),
    ("moments", "charge_density"),
    ("moments", "current_density"),
    ("state", "refresh_moments"),
    ("fields", "wave_step"),
    ("forces", "force_field"),
    ("diagnostics", "make_record"),
    ("diagnostics", "snapshot_state"),
    ("diagnostics", "vlasov_residual"),
    ("diagnostics", "compare_runs"),
    ("output", "write_snapshot"),
    ("output", "DiagnosticsWriter.write"),
    ("output", "write_manifest"),
    ("output", "write_divergence"),
    ("config", "validate_config"),
    ("config", "load_config"),
    ("grid", "build_grid"),
    ("state", "initialize_state"),
)

TRACED_NAMES = tuple(f"{module}.{attr}" for module, attr in TRACED)

ROOT = "workload"


def _advect_bytes(args, out):
    return args[0].nbytes + out.nbytes


def _kick_bytes(args, out):
    return args[0].nbytes + args[1].nbytes + out.nbytes


# Array bytes read and written by the two kernels, computed from shapes (f in
# and out; the kick also reads the force array).  Cache traffic is not seen.
COMPUTED_BYTES = {
    "vlasov.advect_x": _advect_bytes,
    "vlasov.kick_p": _kick_bytes,
}


class Tracer:
    """In-memory span recorder for one single-threaded simulation."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter_ns(),
            "end": None,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run_id": self.run_id,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def wrap(self, name: str, fn):
        count_bytes = COMPUTED_BYTES.get(name)

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count_bytes is not None:
                span["bytes"] = count_bytes(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a loaded ``kinvlasov`` module binds it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "kinvlasov" or key.startswith("kinvlasov."))]
        for module_name, attr_path in TRACED:
            owner = sys.modules[f"kinvlasov.{module_name}"]
            *outer, attr = attr_path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(f"{module_name}.{attr_path}", original)
            if outer:  # a method: patch the class that defines it
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> bool:
        """Restore every wrapped global; True when each one is the original again."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if getattr(owner, attr) is not original:
                return False
        return True


def layer_totals(spans) -> dict:
    """Per span name: calls, busy_s, self_s and computed bytes.

    Busy time is the sum of the name's span durations; no traced function
    calls itself, so no span of a name nests in another of the same name.
    Self time is a span's duration minus the time its child spans cover;
    spans of one run are sequential, so children never overlap.
    """
    child_ns = {}
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["end"] - s["start"]
    totals = {}
    for s in spans:
        t = totals.setdefault(s["name"], {"calls": 0, "busy_ns": 0, "self_ns": 0, "bytes": 0})
        duration = s["end"] - s["start"]
        t["calls"] += 1
        t["busy_ns"] += duration
        t["self_ns"] += duration - child_ns.get(s["id"], 0)
        t["bytes"] += s.get("bytes", 0)
    return {name: {"calls": t["calls"], "busy_s": t["busy_ns"] / 1e9,
                   "self_s": t["self_ns"] / 1e9, "bytes": t["bytes"]}
            for name, t in totals.items()}


def nesting_errors(spans) -> list:
    """Spans whose interval is not inside their parent's, or that never closed."""
    by_id = {s["id"]: s for s in spans}
    errors = []
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            errors.append(f"span {s['id']} ({s['name']}) has no valid end")
            continue
        if s["parent"] is None:
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            errors.append(f"span {s['id']} ({s['name']}) has an unknown parent")
        elif not parent["start"] <= s["start"] <= s["end"] <= parent["end"]:
            errors.append(f"span {s['id']} ({s['name']}) lies outside its parent {parent['name']}")
    return errors
