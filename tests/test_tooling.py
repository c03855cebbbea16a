"""The benchmark's tracer (perfbench/tracing.py) must still find every hscl name it wraps.

The tracer replaces functions at the module bindings listed in
``tracing.BINDINGS``; a library rename that drops one of them would
silently leave that layer out of a traced run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves_to_a_callable():
    bindings = _load_tracing().BINDINGS
    assert bindings
    missing = [
        f"hscl.{module_name}.{attr}"
        for module_name, attr, _ in bindings
        if not callable(getattr(importlib.import_module(f"hscl.{module_name}"), attr, None))
    ]
    assert missing == []
