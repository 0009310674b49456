"""Self-time tracing of the twjscc package, installed from outside it.

`Tracer.install` wraps every public function and every public class
constructor defined in a `twjscc.*` module, and rebinds the wrapper in each
`twjscc` namespace that holds the original object, so calls made through
`from .markov import build_chain` are traced as well.  `uninstall` puts the
originals back.

Each wrapped call is a span.  Its self time is its duration minus the time
covered by its child spans, so the self times of all spans add up to the
time spent under top-level spans (`covered_s`).  Hooks attached to a few
named functions turn their arguments and results into work counts.  A hook
whose function no longer exists, or whose result no longer has the
expected shape, is recorded in `missing` instead of raising.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "twjscc"


def _short_module(name: str) -> str:
    return name[len(PACKAGE) + 1:] if name.startswith(PACKAGE + ".") else name


def _nnz(tracer, args, kwargs, out):
    tracer.counts["markov.kernel_nnz"] += int(out.kernel.nnz)


def _wz_evaluations(tracer, args, kwargs, out):
    tracer.counts["rate_distortion.wz_evaluations"] += int(out.evaluations)


def _letters(tracer, args, kwargs, out):
    tracer.counts["simulate.letters_sampled"] += int(
        out.u1.size + out.u2.size + len(out.init_prev[0]) + len(out.termination[0])
    )


def _codebook_arg(args, kwargs, name: str, position: int):
    return kwargs[name] if name in kwargs else args[position]


def _encode(tracer, args, kwargs, out):
    tracer.counts["simulate.codewords_tested"] += len(_codebook_arg(args, kwargs, "codebook", 4))
    tracer.counts["simulate.covered"] += bool(out[3])


def _decode(tracer, args, kwargs, out):
    tracer.counts["simulate.codewords_tested"] += len(
        _codebook_arg(args, kwargs, "codebook_prev", 3)
    )


def _simulation(tracer, args, kwargs, out):
    tracer.accuracies.append(float(out.decode_accuracy))


def _candidate(tracer, args, kwargs, out):
    if tracer.depth[("region", "search_region")] > 0:
        tracer.counts["region.candidates"] += 1
        tracer.counts["region.certified"] += bool(out.satisfied or out.boundary)


# (module, name) -> hook(tracer, args, kwargs, result) run after a successful call
HOOKS = {
    ("markov", "build_chain"): _nnz,
    ("rate_distortion", "wz_function"): _wz_evaluations,
    ("simulate", "generate_codebooks"): _letters,
    ("simulate", "encode_block"): _encode,
    ("simulate", "decode_block"): _decode,
    ("simulate", "run_simulation"): _simulation,
    ("conditions", "eval_adaptive"): _candidate,
}

# Names the per-layer metrics are built from, beyond the module totals.
NAMED = (
    ("markov", "build_chain"),
    ("markov", "pair_marginal"),
    ("markov", "pair_law"),
    ("markov", "stationary_prev_law"),
    ("markov", "solve_stationary"),
    ("markov", "stationary_distribution"),
    ("simulate", "generate_codebooks"),
    ("simulate", "encode_block"),
    ("simulate", "decode_block"),
    ("simulate", "run_simulation"),
    ("simulate", "SimContext"),
    ("rate_distortion", "wz_function"),
    ("conditions", "eval_adaptive"),
    ("region", "search_region"),
)


class Tracer:
    """Per-(module, name) self time, call counts and work counts."""

    def __init__(self):
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.depth: Counter = Counter()
        self.counts: Counter = Counter()
        self.accuracies: list[float] = []  # decode_accuracy of each simulation
        self.covered_s = 0.0
        self.missing: list[str] = []
        self._stack: list[list[float]] = []  # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the public callables of every loaded twjscc module."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        wrappers: dict[int, object] = {}
        found = set()
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__name__.startswith("_"):
                    continue
                if not obj.__module__.startswith(PACKAGE + "."):
                    continue
                key = (_short_module(obj.__module__), obj.__name__)
                found.add(key)
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(key, obj)
                self._undo.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
        for mod in modules:
            if mod.__name__ == PACKAGE:
                continue
            for cls in list(vars(mod).values()):
                if (inspect.isclass(cls) and cls.__module__ == mod.__name__
                        and not cls.__name__.startswith("_") and "__init__" in vars(cls)):
                    key = (_short_module(cls.__module__), cls.__name__)
                    found.add(key)
                    init = vars(cls)["__init__"]
                    self._undo.append((cls, "__init__", init))
                    setattr(cls, "__init__", self._wrap(key, init))
        self.missing = sorted({f"{m}.{n}" for m, n in NAMED if (m, n) not in found}
                              | set(self.missing))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    def _wrap(self, key, fn):
        hook = HOOKS.get(key)
        stack, clock = self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            tracer.depth[key] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                tracer.depth[key] -= 1
                stack.pop()
                tracer.self_s[key] += dur - child[0]
                tracer.calls[key] += 1
                if stack:
                    stack[-1][0] += dur
                else:
                    tracer.covered_s += dur
            if hook is not None:
                try:
                    hook(tracer, args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError):
                    name = f"{key[0]}.{key[1]}:result"
                    if name not in tracer.missing:
                        tracer.missing.append(name)
            return out

        traced.__wrapped__ = fn
        for attr in ("__name__", "__qualname__", "__doc__", "__module__"):
            setattr(traced, attr, getattr(fn, attr, None))
        return traced

    # -- readout ------------------------------------------------------------

    def module_self_s(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for (mod, _), s in self.self_s.items():
            out[mod] += s
        return dict(out)
