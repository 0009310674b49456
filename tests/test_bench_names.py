"""The functions the benchmark tracer names or hooks still exist in twjscc,
and its hooks still read the results they count.

`bench/tracer.py` keys each traced function by the module that defines it;
a renamed or moved function, or a renamed result field, makes its
per-layer metrics read 0.  This catches that without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import twjscc as tw
from twjscc import markov, rate_distortion, region

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


def test_hooks_read_results():
    """The work-count hooks read fields that the traced calls still return."""
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        src, ch = tw.preset_example2_source(), tw.preset_bmc()
        d = tw.hamming(src.s1)
        rate_distortion.wz_function(src, 1, d, 0.1)
        markov.build_chain(region.uncoded_configuration(ch, src, d, d), ch, src)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert tracer.counts["rate_distortion.wz_evaluations"] > 0
    assert tracer.counts["markov.kernel_nnz"] > 0
