"""The three benchmark workloads: inputs, one operation, output summary.

Each workload draws its operations from a fixed pool of cases.  A case is
built from its own index, so the reference file can hold the expected
output of every case, and the run seed only chooses which cases run and in
what order.  `nominal_op_s` is the time one operation took at the commit
that defined the benchmark (2 cores, Python 3.11.7, numpy 2.4.6, scipy
1.17.1); it fixes how many operations a run of a given length performs, so
that every commit does the same work and `run_s` compares directly.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import twjscc as tw
from twjscc import conditions, markov, region, simulate
from twjscc.probability import Alphabet, ConditionalPmf

# Seed of the pool of random Dueck configurations.
DUECK_POOL_SEED = 20010261


@dataclass(frozen=True)
class Workload:
    name: str
    nominal_op_s: float
    pool: int
    setup: Callable[[list[int]], Any]  # case indices -> state holding their inputs
    run: Callable[[Any, int], Any]  # (state, position in the case list) -> output
    summary: Callable[[Any], Any]  # output -> JSON value compared with the reference
    exact: bool  # summaries must be equal, not merely within TOLERANCE

    def cases(self, seed: int, seconds: float) -> list[int]:
        """The case list of one run: a seeded ordering of the pool, long
        enough to last about `seconds` at the nominal operation time."""
        count = max(1, round(seconds / self.nominal_op_s))
        order = np.random.default_rng(seed).permutation(self.pool)
        return [int(c) for c in np.resize(order, count)]


TOLERANCE = 1e-12


# -- sim_crit8 ---------------------------------------------------------------

SIM_TRIALS = 10


def _bsc_hybrid(ch, src, d, q):
    """Identity-input hybrid scheme whose codeword is the source through a
    binary symmetric test channel with crossover q, lifted to blocks."""
    u = Alphabet(2, "u")
    rows = np.array([[1 - q, q], [q, 1 - q]])
    pu1 = ConditionalPmf((src.s1,), (u,), rows)
    pu2 = ConditionalPmf((src.s2,), (u,), rows)
    f = np.array([[0, 1], [0, 1]])
    g1, g2 = conditions.bayes_hybrid_decoders(pu1, pu2, f, f, ch, src, d, d)
    hs = conditions.HybridScheme(pu1, pu2, f, f, g1, g2, d.recon_alphabet, d.recon_alphabet)
    return conditions.lift_hybrid(hs, ch, src)


def _sim_setup(cases):
    ch = tw.preset_crossed_bitpipes()
    src = tw.preset_independent_bernoulli(0.5, 0.5)
    d = tw.hamming(src.s1)
    cfg = _bsc_hybrid(ch, src, d, 0.45)
    params = [simulate.SimParams(n=256, blocks=3, eps=0.3, eps1=0.15, rate1=0.04, rate2=0.04,
                                 seed=c, trials=SIM_TRIALS) for c in cases]
    return cfg, ch, src, d, params


def _sim_run(state, i):
    cfg, ch, src, d, params = state
    return simulate.run_simulation(cfg, ch, src, d, d, params[i])


def _sim_summary(report):
    out = report.as_dict()
    del out["wall_clock"]
    return out


# -- search_bmc --------------------------------------------------------------

def _search_setup(cases):
    src = tw.preset_example2_source()
    return tw.preset_bmc(), src, tw.hamming(src.s1), cases


def _search_run(state, i):
    ch, src, d, cases = state
    return region.search_region(ch, src, d, d, budget=100, seed=cases[i])


def _report_summary(rep):
    return {"lhs1": rep.lhs1, "rhs1": rep.rhs1, "lhs2": rep.lhs2, "rhs2": rep.rhs2,
            "margin": rep.margin, "satisfied": rep.satisfied, "boundary": rep.boundary}


def _search_summary(points):
    return [{"d1": p.d1, "d2": p.d2, "boundary": p.boundary, **_report_summary(p.report)}
            for p in points]


# -- eval_dueck --------------------------------------------------------------

def _dueck_configuration(ch, src, case):
    """Random binary-codeword configuration without a previous-block law."""
    rng = np.random.default_rng([DUECK_POOL_SEED, case])
    u1, u2 = Alphabet(2, "u1"), Alphabet(2, "u2")
    nio1, nio2 = ch.x1.size * ch.y1.size, ch.x2.size * ch.y2.size
    ns1, ns2 = src.s1.size, src.s2.size
    return tw.Configuration(
        u1=u1, u2=u2,
        pu1_given_s1=ConditionalPmf((src.s1,), (u1,), rng.dirichlet(np.ones(2), size=ns1)),
        pu2_given_s2=ConditionalPmf((src.s2,), (u2,), rng.dirichlet(np.ones(2), size=ns2)),
        prev_law=None,
        f1=rng.integers(0, ch.x1.size, size=(ns1, 2, ns1, 2, nio1)),
        f2=rng.integers(0, ch.x2.size, size=(ns2, 2, ns2, 2, nio2)),
        g1=rng.integers(0, ns2, size=(2, ns1, 2, ns1, 2, nio1, ch.y1.size)),
        g2=rng.integers(0, ns1, size=(2, ns2, 2, ns2, 2, nio2, ch.y2.size)),
        x1=ch.x1, x2=ch.x2, y1=ch.y1, y2=ch.y2,
        recon1=Alphabet(ns1), recon2=Alphabet(ns2),
    )


def _dueck_setup(cases):
    ch = tw.preset_dueck()
    src = tw.preset_independent_bernoulli(0.89, 0.89)
    return ch, src, [_dueck_configuration(ch, src, c) for c in cases]


def _dueck_run(state, i):
    ch, src, cfgs = state
    prev = markov.stationary_prev_law(cfgs[i], ch, src)
    cfg = dataclasses.replace(cfgs[i], prev_law=prev)
    return conditions.eval_adaptive(cfg, ch, src)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sim_crit8",
            nominal_op_s=2.1, pool=32,
            setup=_sim_setup, run=_sim_run, summary=_sim_summary, exact=True,
        ),
        Workload(
            "search_bmc",
            nominal_op_s=2.5, pool=28,
            setup=_search_setup, run=_search_run, summary=_search_summary, exact=False,
        ),
        Workload(
            "eval_dueck",
            nominal_op_s=1.2, pool=48,
            setup=_dueck_setup, run=_dueck_run, summary=_report_summary, exact=False,
        ),
    )
}


def matches(expected, got, exact: bool) -> bool:
    """Compare two summaries: equal structure, equal flags and integers,
    floats equal (exact) or within TOLERANCE."""
    if isinstance(expected, dict):
        return (isinstance(got, dict) and expected.keys() == got.keys()
                and all(matches(expected[k], got[k], exact) for k in expected))
    if isinstance(expected, list):
        return (isinstance(got, list) and len(expected) == len(got)
                and all(matches(a, b, exact) for a, b in zip(expected, got)))
    if isinstance(expected, float) and isinstance(got, float) and not exact:
        return math.isclose(expected, got, rel_tol=0.0, abs_tol=TOLERANCE) or expected == got
    return type(expected) is type(got) and expected == got
