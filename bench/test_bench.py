"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

The traced run of each workload is made twice on one seed at the shortest
length; every count must repeat exactly, no self time may be negative, and
the module self times plus the uncovered remainder must add up to the
traced run time.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import twjscc  # noqa: E402
from twjscc import markov, simulate  # noqa: E402
from run import MODULES  # noqa: E402
from tracer import Tracer  # noqa: E402

COUNTS = (
    "markov.build_chain.calls", "markov.kernel_nnz", "markov.pair_marginal.calls",
    "markov.stationary.calls", "simulate.encode.calls", "simulate.decode.calls",
    "simulate.codewords_tested", "simulate.letters_sampled", "simulate.cover_frac",
    "simulate.decode_accuracy", "rate_distortion.wz_function.calls",
    "rate_distortion.wz_evaluations", "conditions.eval_adaptive.calls",
    "region.candidates", "region.certified_frac",
)


def _traced_run(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    return {k: m["value"] for k, m in result["metrics"].items()} | {"correct": result["correct"]}


@pytest.mark.parametrize("workload", ["sim_crit8", "search_bmc", "eval_dueck"])
def test_traced_counts_repeat_exactly(workload):
    first, second = _traced_run(workload), _traced_run(workload)
    assert first["correct"] and second["correct"]
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert any(first[k] > 0 for k in COUNTS)
    for run in (first, second):
        assert all(v >= 0 for k, v in run.items() if k.endswith(".self_s"))
        covered = sum(run[f"{m}.self_s"] for m in MODULES + ("other_modules",))
        assert covered + run["trace.uncovered_s"] == pytest.approx(run["trace.run_s"], abs=1e-9)
        assert run["trace.missing_names"] == 0


def test_missing_function_is_listed_not_fatal(monkeypatch):
    monkeypatch.delattr(markov, "pair_law")
    monkeypatch.delattr(simulate, "pair_law")
    original = twjscc.preset_bmc
    tr = Tracer()
    tr.install()
    try:
        twjscc.preset_bmc()
    finally:
        tr.uninstall()
    assert tr.missing == ["markov.pair_law"]
    assert tr.calls[("models", "preset_bmc")] == 1
    assert twjscc.preset_bmc is original


def test_changed_result_is_listed_not_fatal(monkeypatch):
    def build_chain():
        return object()  # no kernel to count

    build_chain.__module__ = "twjscc.markov"
    monkeypatch.setattr(markov, "build_chain", build_chain)
    tr = Tracer()
    tr.install()
    try:
        markov.build_chain()
    finally:
        tr.uninstall()
    assert tr.missing == ["markov.build_chain:result"]
    assert tr.calls[("markov", "build_chain")] == 1
