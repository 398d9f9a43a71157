"""The benchmark's tracer names solver functions by module and attribute path;
each must still resolve, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
from importlib import util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_function_resolves():
    # spans.py is loaded from its path, as a file outside the package.
    spec = util.spec_from_file_location("perfbench_spans", SPANS)
    spans = util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    unresolved = []
    for module, attr_path in spans.TRACED:
        owner = importlib.import_module(f"kinvlasov.{module}")
        for part in attr_path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(f"{module}.{attr_path}")
    assert len(spans.TRACED) >= 20 and not unresolved
