"""Regenerate ``references.json``: the final diagnostics rows each input variant
must reproduce.

Usage (from the repository root):

    python3 perfbench/make_references.py

Run it only on a commit whose outputs are known good, and only when a change
to what the solver computes is intended; the run checks compare against these
rows at ``run.REFERENCE_RTOL``.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from run import Bench
from workloads import N_VARIANTS, REFERENCES_PATH, WORKLOADS, Workload


def build_reference(root: Path, workload: Workload, variant: int, work: Path) -> tuple:
    """Run one variant untraced and return its reference entry and worst mass drift."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(root, workload, variant, work, {})
    report = bench.child("time")
    if "error" in report or report.get("outputs", {}).get("exit_code") != 0:
        raise RuntimeError(f"{workload.name} variant {variant}: {report.get('error', report)}")
    outputs = report["outputs"]
    modes = outputs["modes"]
    drift = max(abs(m["final_row"][c] - m["first_row"][c]) / abs(m["first_row"][c])
                for m in modes.values() for c in ("n_total_plus", "n_total_minus"))
    entry = {
        "inputs": bench.inputs,
        "final_rows": {mode: m["final_row"] for mode, m in modes.items()},
        "divergence": outputs["divergence"]["final_row"] if outputs["divergence"] else None,
    }
    return entry, drift


def main() -> int:
    root = Path.cwd()
    references = {}
    for name in sorted(WORKLOADS):
        entries = {}
        worst = 0.0
        for variant in range(N_VARIANTS):
            work = root / ".perfbench" / f"reference-{name}-{variant}"
            entries[str(variant)], drift = build_reference(root, WORKLOADS[name], variant, work)
            shutil.rmtree(work, ignore_errors=True)
            worst = max(worst, drift)
        references[name] = entries
        print(f"{name}: {N_VARIANTS} variants, worst mass drift {worst:.3e}", flush=True)
    REFERENCES_PATH.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n",
                               encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
