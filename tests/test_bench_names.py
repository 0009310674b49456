"""The functions the benchmark tracer names or hooks still exist in twjscc.

`bench/tracer.py` keys each traced function by the module that defines it;
a renamed or moved function makes its per-layer metrics read 0.  This
catches that without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _load_tracer()
    names = sorted(set(tracer.NAMED) | set(tracer.HOOKS))
    assert names
    missing = []
    for mod, name in names:
        full = f"{tracer.PACKAGE}.{mod}"
        obj = getattr(importlib.import_module(full), name, None)
        if not callable(obj) or obj.__module__ != full:
            missing.append(f"{mod}.{name}")
    assert missing == []
