"""Benchmark of the twjscc toolkit: one workload per process.

    python3 bench/run.py --workload sim_crit8 --seed 1 --seconds 25 --trace 0

Run from the repository root.  The package is imported from `src/`.  The
timed phase is closed-loop: one caller, each operation starting when the
previous one returns, over a fixed number of operations (see
`workloads.Workload.cases`).  Every output is compared with
`reference.json` after the timed phase; a mismatch or an exception counts
as a failed operation.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of a traced run, in which each
case runs once untraced and once traced so the tracing overhead can be
read off.  Earlier stdout lines carry the run record and an output digest.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 120
MODULES = ("probability", "models", "coded_channel", "markov", "conditions",
           "rate_distortion", "region", "simulate", "serialization", "cli")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the inputs, print 'ready' and exit")
    return p.parse_args(argv)


def import_package():
    src = ROOT / "src"
    if not (src / "twjscc" / "__init__.py").is_file():
        sys.exit(f"bench: no twjscc package under {src}; run from a repository checkout")
    sys.path.insert(0, str(src))
    import twjscc

    if Path(twjscc.__file__).resolve().parent != (src / "twjscc").resolve():
        sys.exit(f"bench: imported twjscc from {twjscc.__file__}, not from {src}")


def _setup_s(args) -> float:
    """Median wall time, over fresh processes, from process start until the
    workload's inputs are built: interpreter start, imports, presets and
    input generation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                samples.append(time.perf_counter() - t0)
                child.stdout.read()
                code = child.wait(timeout=CHILD_TIMEOUT_S)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        if line.strip() != "ready" or code != 0:
            sys.exit(f"bench: set-up process failed (exit code {code})")
    return statistics.median(samples)


def _blas_info() -> list[dict]:
    """Version and thread count of each OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
        paths = [p for p in paths if os.path.isfile(p)]
    except OSError:
        return []
    info = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype = ctypes.c_char_p
                    entry["config"] = get_config().decode()
                    entry["threads"] = int(get_threads())
        info.append(entry)
    return info


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _run_record(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(), "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": _blas_info(),
    }


def _rounded(x):
    if isinstance(x, float):
        return round(x, 9)
    if isinstance(x, dict):
        return {k: _rounded(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_rounded(v) for v in x]
    return x


def _timed(w, state, indices):
    """Run the given cases closed-loop; returns (outputs, op seconds, wall)."""
    outputs, op_s = [], []
    start = time.perf_counter()
    for i in indices:
        t0 = time.perf_counter()
        try:
            outputs.append(w.run(state, i))
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            outputs.append(None)
        op_s.append(time.perf_counter() - t0)
    return outputs, op_s, time.perf_counter() - start


def _traced(w, state, n):
    """Run each of the first n cases once untraced and once traced, the
    two orders alternating so that warm-up favours neither.

    Returns (outputs, tracer, untraced wall, traced wall)."""
    from tracer import Tracer

    tr = Tracer()
    outputs, walls = [], {False: 0.0, True: 0.0}
    for i in range(n):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tr.install()
            try:
                out, _, wall = _timed(w, state, [i])
            finally:
                tr.uninstall()
            outputs += out
            walls[traced] += wall
    return outputs, tr, walls[False], walls[True]


def _layer_metrics(tr, plain_s: float, traced_s: float) -> dict:
    """Per-layer metrics of a traced run, as {name: (value, unit)}."""
    mods = tr.module_self_s()

    def self_s(*names):
        return sum(tr.self_s.get(tuple(n.split(".")), 0.0) for n in names)

    def calls(*names):
        return sum(tr.calls.get(tuple(n.split(".")), 0) for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    stationary = ("markov.stationary_prev_law", "markov.solve_stationary",
                  "markov.stationary_distribution")
    accuracy = tr.accuracies
    m = {f"{mod}.self_s": (mods.pop(mod, 0.0), "s") for mod in MODULES}
    m.update({
        "other_modules.self_s": (sum(mods.values()), "s"),
        "markov.build_chain.self_s": (self_s("markov.build_chain"), "s"),
        "markov.build_chain.calls": (calls("markov.build_chain"), "count"),
        "markov.kernel_nnz": (tr.counts["markov.kernel_nnz"], "count"),
        "markov.pair_marginal.self_s": (self_s("markov.pair_marginal"), "s"),
        "markov.pair_marginal.calls": (calls("markov.pair_marginal"), "count"),
        "markov.stationary.self_s": (self_s(*stationary), "s"),
        "markov.stationary.calls": (calls(*stationary), "count"),
        "markov.pair_law.self_s": (self_s("markov.pair_law"), "s"),
        "simulate.codebooks.self_s": (self_s("simulate.generate_codebooks"), "s"),
        "simulate.encode.self_s": (self_s("simulate.encode_block"), "s"),
        "simulate.encode.calls": (calls("simulate.encode_block"), "count"),
        "simulate.decode.self_s": (self_s("simulate.decode_block"), "s"),
        "simulate.decode.calls": (calls("simulate.decode_block"), "count"),
        "simulate.loop.self_s": (self_s("simulate.run_simulation"), "s"),
        "simulate.context.self_s": (self_s("simulate.SimContext"), "s"),
        "simulate.codewords_tested": (tr.counts["simulate.codewords_tested"], "count"),
        "simulate.letters_sampled": (tr.counts["simulate.letters_sampled"], "count"),
        "simulate.cover_frac": (ratio(tr.counts["simulate.covered"],
                                      calls("simulate.encode_block")), "ratio"),
        "simulate.decode_accuracy": (ratio(sum(accuracy), len(accuracy)), "ratio"),
        "rate_distortion.wz_function.calls": (calls("rate_distortion.wz_function"), "count"),
        "rate_distortion.wz_evaluations": (tr.counts["rate_distortion.wz_evaluations"], "count"),
        "conditions.eval_adaptive.calls": (calls("conditions.eval_adaptive"), "count"),
        "region.candidates": (tr.counts["region.candidates"], "count"),
        "region.certified_frac": (ratio(tr.counts["region.certified"],
                                        tr.counts["region.candidates"]), "ratio"),
        "trace.run_s": (traced_s, "s"),
        "trace.untraced_run_s": (plain_s, "s"),
        "trace.uncovered_s": (traced_s - tr.covered_s, "s"),
        "trace.overhead_frac": (ratio(traced_s, plain_s) - 1.0, "ratio"),
        "trace.missing_names": (len(tr.missing), "count"),
    })
    return m


def main(argv=None) -> int:
    args = _parse(argv)
    import_package()
    import workloads

    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    cases = w.cases(args.seed, args.seconds)
    if args.setup_only:
        w.setup(cases)
        print("ready", flush=True)
        return 0

    setup_s = _setup_s(args)
    state = w.setup(cases)
    if args.trace:
        count = max(1, len(cases) // 2)
        outputs, tr, plain_s, traced_s = _traced(w, state, count)
        ran = [c for c in cases[:count] for _ in (0, 1)]
    else:
        outputs, op_s, run_s = _timed(w, state, range(len(cases)))
        ran = cases
        print(json.dumps({"op_s": op_s}))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = json.loads(REFERENCE.read_text())[w.name]
    summaries, failed = [], 0
    for case, out in zip(ran, outputs):
        got = None if out is None else json.loads(json.dumps(w.summary(out)))
        summaries.append([case, got])
        expected = reference.get(str(case))
        if got is None or expected is None or not workloads.matches(expected, got, w.exact):
            failed += 1
            print(f"bench: case {case} of {w.name} does not match the reference",
                  file=sys.stderr)
    digest = hashlib.sha256(json.dumps(
        summaries if w.exact else _rounded(summaries), sort_keys=True).encode()).hexdigest()

    print(json.dumps({"record": _run_record(args)}))
    print(json.dumps({"cases": ran, "digest": digest}))
    if args.trace:
        print(json.dumps({"trace_missing": tr.missing}))
        metrics = _layer_metrics(tr, plain_s, traced_s)
    else:
        metrics = {
            "run_s": (run_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outputs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
