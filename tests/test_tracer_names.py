"""The names the benchmark's tracer wraps must keep resolving.

perfbench/tracer.py wraps semdisc's functions by (module, attribute) name
and lists a name it cannot find as missing; perfbench/layers.py then
drops every metric whose short name is missing anywhere, so a renamed or
no longer imported function silently empties the benchmark's per-layer
metrics. The tracer is read, not imported, so no bytecode is written
under perfbench/.
"""

import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# missing before this guard was added; the metrics built on them read absent
KNOWN_MISSING = {
    "semdisc.capacity._evaluate_subset",
    "semdisc.capacity.semantic_distance_analytic",
    "semdisc.capacity.total_variation",
}


def test_wrapped_names_resolve():
    tracer = runpy.run_path(str(TRACER), run_name="tracer")
    names = [
        *tracer["SPANS"], *tracer["GENERATOR_SPANS"], *tracer["COUNTS"], tracer["POOL"]
    ]
    missing = {
        f"{module}.{attr}"
        for module, attr in names
        if tracer["_resolve"](module, attr) is None
    }
    assert missing <= KNOWN_MISSING, sorted(missing - KNOWN_MISSING)
