"""Randomized search for distortion pairs certified by the adaptive conditions,
and Shannon's non-adaptive inner bound, read through the same hull.

`search_region` runs the phases of `PHASES` in order: structured (uncoded, two
codeword hybrids, separate coding), then random.  A phase hands each candidate
to one `evaluate`, which charges the budget, returns the verdict (a `RegionPoint`
or the reason why not) and ends the search once the budget is spent or (0, 0)
is kept.  Each candidate is measured on one chain, a structured one on the chain
its builder solved.  A candidate that a kept point dominates (`_dominates`, one
rule up to TWIN_TOL = 1e-12, also in `convexify`) has its conditions never read.

`shannon_nonadaptive_bound` reads its symmetric maximum and frontier off one
upper-right hull of the unrounded rate cloud, taken by `convexify`, so
TWIN_TOL is the bound's only tolerance.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from math import comb
from operator import attrgetter

import numpy as np

from . import rate_distortion
from .coded_channel import Configuration
from .conditions import (
    _LIFT_G_READS,
    _UNIT_SOURCE,
    AdaptiveChannelScheme,
    ConditionReport,
    HybridScheme,
    _adaptive_report,
    _lift_sscc,
    _lifted_configuration,
    embed_adaptive_scheme,
)
from .markov import (MarkovSystem, bayes_decoders, build_chain, reconstruction_distortions,
                     stationary_prev_law)
from .models import DistortionMeasure, JointSource, TwoWayChannel
from .probability import Alphabet, ConditionalPmf, _plogp, checked_int

TWIN_TOL = 1e-12  # distortions closer than this are one value: the bound they are reproduced to
SHANNON_REFINE_ROUNDS = 2  # local refinements of the non-adaptive bound's input grid
SHANNON_FRONTIER_WEIGHTS = 41  # weighted-sum directions of its frontier sweep
_pair = attrgetter("d1", "d2")  # a RegionPoint's distortion pair
_Search = namedtuple("_Search", "ch src d1 d2 rng aux")  # what a phase draws its candidates from


@dataclass(frozen=True)
class RegionPoint:
    """One certified distortion pair with its configuration certificate."""

    d1: float
    d2: float
    certificate: Configuration
    report: ConditionReport
    boundary: bool
    stationary_residual: float


def _dominates(q, p) -> bool:
    """The domination rule on distortion pairs: q is no larger than p in either coordinate,
    up to TWIN_TOL, and p is not exactly below q (of two twins the smaller, or the first, stays)."""
    return (q[0] <= p[0] + TWIN_TOL and q[1] <= p[1] + TWIN_TOL
            and not (p[0] <= q[0] and p[1] <= q[1] and p != q))


def _dirichlet_rows(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    gam = np.maximum(rng.gamma(1.0, 1.0, size=(rows, cols)), 1e-12)
    return gam / gam.sum(axis=1, keepdims=True)


def _bayes_system(cfg: Configuration, ch: TwoWayChannel, src: JointSource, d1: DistortionMeasure,
                  d2: DistortionMeasure, reads: tuple[int, ...] = tuple(range(7))) -> MarkovSystem:
    """The chain of `cfg` with its law and Bayes decoders (see `bayes_decoders`) installed."""
    sys = build_chain(cfg, ch, src)
    g1, g2 = bayes_decoders(sys, d1, d2, reads)
    out = dataclasses.replace(sys, cfg=dataclasses.replace(sys.cfg, g1=g1, g2=g2))
    out.__dict__["_views"] = sys._views  # the view laws read no g
    return out


def uncoded_configuration(ch: TwoWayChannel, src: JointSource,
                          d1: DistortionMeasure, d2: DistortionMeasure) -> Configuration:
    """Constant codewords, x_j = current s_j, and the optimal deterministic
    reconstructions under the configuration's own stationary pair law."""
    return _uncoded_system(ch, src, d1, d2).cfg


def constant_codeword_hybrid_configuration(ch: TwoWayChannel, src: JointSource,
                                           d1: DistortionMeasure, d2: DistortionMeasure) -> Configuration:
    """Single-block uncoded transmission lifted into the block framework:
    constant codewords and x_j equal to the previous block's source."""
    return _constant_codeword_hybrid_system(ch, src, d1, d2).cfg


def identity_hybrid_configuration(ch: TwoWayChannel, src: JointSource,
                                  d1: DistortionMeasure, d2: DistortionMeasure) -> Configuration:
    """Codeword equals the source, channel input equals the codeword."""
    return _identity_hybrid_system(ch, src, d1, d2).cfg


def _uncoded_system(ch, src, d1, d2) -> MarkovSystem:
    unit = Alphabet(1, "const")
    pu1 = ConditionalPmf((src.s1,), (unit,), np.ones((src.s1.size, 1)))
    pu2 = ConditionalPmf((src.s2,), (unit,), np.ones((src.s2.size, 1)))
    s1_sym = np.minimum(np.arange(src.s1.size), ch.x1.size - 1)
    s2_sym = np.minimum(np.arange(src.s2.size), ch.x2.size - 1)
    cfg = Configuration(u1=unit, u2=unit, pu1_given_s1=pu1, pu2_given_s2=pu2, prev_law=None,
                        f1=s1_sym[:, None, None, None, None], f2=s2_sym[:, None, None, None, None],
                        g1=0, g2=0, x1=ch.x1, x2=ch.x2, y1=ch.y1, y2=ch.y2,
                        recon1=d1.recon_alphabet, recon2=d2.recon_alphabet)
    return _bayes_system(cfg, ch, src, d1, d2)


def _constant_codeword_hybrid_system(ch, src, d1, d2) -> MarkovSystem:
    unit = Alphabet(1, "const")
    pu1 = ConditionalPmf((src.s1,), (unit,), np.ones((src.s1.size, 1)))
    pu2 = ConditionalPmf((src.s2,), (unit,), np.ones((src.s2.size, 1)))
    f1 = np.minimum(np.arange(src.s1.size), ch.x1.size - 1)[:, None]
    f2 = np.minimum(np.arange(src.s2.size), ch.x2.size - 1)[:, None]
    hs = HybridScheme(pu1, pu2, f1, f2, 0, 0, d1.recon_alphabet, d2.recon_alphabet)
    return _bayes_system(_lifted_configuration(hs, ch), ch, src, d1, d2, _LIFT_G_READS)


def _identity_hybrid_system(ch, src, d1, d2) -> MarkovSystem:
    u1, u2 = Alphabet(src.s1.size, "u1"), Alphabet(src.s2.size, "u2")
    pu1 = ConditionalPmf((src.s1,), (u1,), np.eye(src.s1.size))
    pu2 = ConditionalPmf((src.s2,), (u2,), np.eye(src.s2.size))
    f1 = np.minimum(np.arange(u1.size), ch.x1.size - 1)[None, :].repeat(src.s1.size, axis=0)
    f2 = np.minimum(np.arange(u2.size), ch.x2.size - 1)[None, :].repeat(src.s2.size, axis=0)
    hs = HybridScheme(pu1, pu2, f1, f2, 0, 0, d1.recon_alphabet, d2.recon_alphabet)
    return _bayes_system(_lifted_configuration(hs, ch), ch, src, d1, d2, _LIFT_G_READS)


def _sscc_candidates(ch: TwoWayChannel, src: JointSource,
                     d1: DistortionMeasure, d2: DistortionMeasure) -> list[Configuration]:
    """Separate-coding points built from a memoryless uniform channel scheme."""
    if ch.x1.size < 2 or ch.x2.size < 2:
        return []
    x_of_v = np.arange(2)[:, None, None]  # x_j = v_j
    scheme = AdaptiveChannelScheme(Alphabet(2, "v1"), Alphabet(2, "v2"), np.full(2, 0.5), np.full(2, 0.5),
                                   x_of_v, x_of_v, ch.x1, ch.x2, ch.y1, ch.y2)
    law = stationary_prev_law(embed_adaptive_scheme(scheme), ch, _UNIT_SOURCE)  # one solve, every lift
    out = []
    for frac in (0.0, 0.1, 0.25):
        try:
            wz1 = rate_distortion.wz_function(src, 1, d1, frac * d1.d_max).scheme
            wz2 = rate_distortion.wz_function(src, 2, d2, frac * d2.d_max).scheme
            out.append(_lift_sscc(scheme, law, wz1, wz2, src))
        except (rate_distortion.InfeasibleDistortion, ValueError):
            continue
    return out


def _random_candidate(s: _Search) -> Configuration:
    (aux1, aux2), ch, src, rng = s.aux, s.ch, s.src, s.rng
    u1, u2 = Alphabet(aux1, "u1"), Alphabet(aux2, "u2")
    nio1, nio2 = ch.x1.size * ch.y1.size, ch.x2.size * ch.y2.size
    pu1 = ConditionalPmf((src.s1,), (u1,), _dirichlet_rows(rng, src.s1.size, aux1))
    pu2 = ConditionalPmf((src.s2,), (u2,), _dirichlet_rows(rng, src.s2.size, aux2))
    f1 = rng.integers(0, ch.x1.size, size=(src.s1.size, aux1, src.s1.size, aux1, nio1))
    f2 = rng.integers(0, ch.x2.size, size=(src.s2.size, aux2, src.s2.size, aux2, nio2))
    g1 = rng.integers(0, s.d2.recon_alphabet.size,
                      size=(aux2, src.s1.size, aux1, src.s1.size, aux1, nio1, ch.y1.size))
    g2 = rng.integers(0, s.d1.recon_alphabet.size,
                      size=(aux1, src.s2.size, aux2, src.s2.size, aux2, nio2, ch.y2.size))
    return Configuration(u1=u1, u2=u2, pu1_given_s1=pu1, pu2_given_s2=pu2, prev_law=None,
                         f1=f1, f2=f2, g1=g1, g2=g2, x1=ch.x1, x2=ch.x2, y1=ch.y1, y2=ch.y2,
                         recon1=s.d1.recon_alphabet, recon2=s.d2.recon_alphabet)


def _structured_phase(s: _Search, evaluate) -> None:
    """The structured candidates in search order, each built when reached."""
    for build in (_uncoded_system, _constant_codeword_hybrid_system, _identity_hybrid_system,
                  _sscc_candidates):
        try:
            built = build(s.ch, s.src, s.d1, s.d2)
        except (ValueError, RuntimeError):  # a failed structured build uses no budget
            continue
        for cand in built if isinstance(built, list) else [built]:
            evaluate(cand)


def _random_phase(s: _Search, evaluate) -> None:
    """Random configurations from the seeded generator, until the search ends."""
    while True:
        evaluate(_random_candidate(s))


PHASES = (_structured_phase, _random_phase)


class _Done(Exception):
    """Ends a search: its budget is spent, or (0, 0) is kept."""


def _evaluate(cand: Configuration | MarkovSystem, ch: TwoWayChannel, src: JointSource,
              d1: DistortionMeasure, d2: DistortionMeasure,
              kept: Sequence[RegionPoint] = ()) -> RegionPoint | str:
    """Certify one candidate on its one system chain, or name why not: the message of the error
    that stopped it, "dominated" (by a kept point) or "condition violated"."""
    try:
        sys = cand if isinstance(cand, MarkovSystem) else build_chain(cand, ch, src)
        dist = reconstruction_distortions(sys, d1, d2)
        if any(_dominates(_pair(q), dist) for q in kept):
            return "dominated"
        report = _adaptive_report(sys)
    except (ValueError, RuntimeError) as exc:
        return str(exc)
    if not (report.satisfied or report.boundary):
        return "condition violated"
    return RegionPoint(d1=dist[0], d2=dist[1], certificate=sys.cfg, report=report,
                       boundary=report.boundary, stationary_residual=sys.residual)


def search_region(ch: TwoWayChannel, src: JointSource, d1: DistortionMeasure, d2: DistortionMeasure,
                  budget: int = 1000, seed: int = 0,
                  aux_sizes: tuple[int, int] | None = None) -> list[RegionPoint]:
    """Seeded candidate search returning Pareto-minimal certified points.

    Deterministic for a fixed (seed, budget): the phases of `PHASES` run in order
    until the budget is spent or (0, 0) is kept.  Boundary certificates are flagged.
    """
    budget, seed = checked_int("budget", budget, 1), checked_int("seed", seed)
    aux = aux_sizes if aux_sizes is not None else (src.s1.size, src.s2.size)
    try:
        if not isinstance(aux, (Sequence, np.ndarray)) or len(aux) != 2:
            raise ValueError
        aux = tuple(checked_int("aux_sizes", a, 1) for a in aux)
    except ValueError:
        raise ValueError(f"aux_sizes must be two auxiliary alphabet sizes, ints >= 1, got {aux!r}") from None
    search = _Search(ch, src, d1, d2, np.random.default_rng(seed), aux)
    kept, left = [], budget

    def evaluate(cand: Configuration | MarkovSystem) -> RegionPoint | str:
        nonlocal kept, left
        verdict = _evaluate(cand, ch, src, d1, d2, kept)
        if not isinstance(verdict, str):  # a str names why the candidate failed
            kept = [q for q in kept if not _dominates(_pair(verdict), _pair(q))] + [verdict]
        left -= 1
        if left == 0 or any(_dominates(_pair(q), (0.0, 0.0)) for q in kept):
            raise _Done
        return verdict

    with contextlib.suppress(_Done):
        for phase in PHASES:
            phase(search, evaluate)
    return kept


def convexify(points) -> list[tuple[float, float]]:
    """Lower-left convex hull vertices of a distortion point set.

    Vertices come back with increasing first coordinate; together with the
    segments between them (time-sharing) they bound the reported region.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape == (0,):
        return []
    if pts.ndim != 2 or pts.shape[1] != 2 or not np.isfinite(pts).all():
        raise ValueError(f"points must be finite (x, y) pairs, of shape (k, 2); got shape {pts.shape}")
    kept: list[tuple[float, float]] = []
    for p in map(tuple, np.unique(pts, axis=0).tolist()):
        if kept and _dominates(kept[-1], p):  # in this order only the last point can,
            continue
        while kept and _dominates(p, kept[-1]):  # and p dominates a tail of them
            kept.pop()
        kept.append(p)
    hull: list[tuple[float, float]] = []
    for p in kept:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
            if cross <= 0:  # b lies above the chord a-p
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _simplex_lattice(k: int, levels: int) -> np.ndarray:
    """All distributions on k symbols with masses at multiples of 1/levels: the
    gaps between k - 1 stars-and-bars cuts of levels + k - 1 slots."""
    cuts = np.array(list(itertools.combinations(range(levels + k - 1), k - 1)), dtype=np.int64)
    bounds = np.pad(cuts, ((0, 0), (1, 1)), constant_values=(-1, levels + k - 1))
    return (np.diff(bounds, axis=1) - 1) / levels


def _lattice_levels(k: int, grid: int) -> int:
    if k <= 2:
        return max(grid - 1, 1)
    levels = 1
    while comb(levels + k, k - 1) <= max(8 * grid, 64):
        levels += 1
    return levels


def _rate_tables(chp: np.ndarray, c1: np.ndarray, c2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(I(X1;Y2|X2), I(X2;Y1|X1)) for every pair of independent input laws
    (c1[i], c2[k]), as two (len(c1), len(c2)) tables.

    With independent inputs I(X1;Y2|X2) = sum_x2 p2(x2) I(X1;Y2|X2=x2), and
    the inner term depends on p1 alone, so each table is one matrix product
    of a per-letter rate table with the other side's laws.
    """
    w2 = chp.sum(axis=2)  # W(y2 | x1, x2)
    w1 = chp.sum(axis=3)  # W(y1 | x1, x2)
    # per_x2[i, x2] = I(X1;Y2|X2=x2) = H(Y2|X2=x2) - H(Y2|X1,X2=x2) under c1[i]
    per_x2 = c1 @ _plogp(w2).sum(axis=2) - _plogp(np.einsum("ix,xwy->iwy", c1, w2)).sum(axis=2)
    per_x1 = c2 @ _plogp(w1).sum(axis=2).T - _plogp(np.einsum("kw,xwy->kxy", c2, w1)).sum(axis=2)
    return np.maximum(per_x2 @ c2.T, 0.0), np.maximum(c1 @ per_x1.T, 0.0)


def shannon_nonadaptive_bound(ch: TwoWayChannel, q_size: int = 4, grid: int = 21) -> dict:
    """Optimize the non-adaptive random-coding rate pair over product inputs.

    Grid-searches independent input distributions (with local refinement
    around the symmetric incumbent); time-sharing makes the reachable set
    the convex hull of the product-input points, so any q_size >= 2
    saturates it.  One upper-right hull of the rate cloud, unrounded, decides
    the rest.  Returns the maximal symmetric rate, of the best product input
    (q_size = 1) or on the hull (its best vertex, or where an edge crosses
    R1 = R2), and the frontier: for each of SHANNON_FRONTIER_WEIGHTS weights
    lam, the hull vertex that maximizes lam R1 + (1 - lam) R2.  A weighted
    sum is maximized at a hull vertex, so the frontier is the same for every
    q_size.
    """
    q_size, grid = checked_int("q_size", q_size, 1), checked_int("grid", grid, 2)
    lat1 = _simplex_lattice(ch.x1.size, _lattice_levels(ch.x1.size, grid))
    lat2 = _simplex_lattice(ch.x2.size, _lattice_levels(ch.x2.size, grid))
    clouds = []
    best1, best2, best_sym = lat1[0], lat2[0], -np.inf  # alpha = 1 ignores the incumbent
    for r in range(SHANNON_REFINE_ROUNDS + 1):  # the full lattice, then local refinements
        alpha = 10.0 ** (-r)
        c1 = (1 - alpha) * best1[None, :] + alpha * lat1
        c2 = (1 - alpha) * best2[None, :] + alpha * lat2
        rates1, rates2 = _rate_tables(ch.law.probs, c1, c2)
        sym = np.minimum(rates1, rates2)
        i, k = np.unravel_index(np.argmax(sym), sym.shape)  # first best pair
        if sym[i, k] > best_sym:
            best1, best2, best_sym = c1[i], c2[k], float(sym[i, k])
        clouds.append(np.stack([rates1.ravel(), rates2.ravel()], axis=1))

    # upper-right hull by increasing R1: the lower-left hull of the negated cloud
    hull = -np.asarray(convexify(-np.concatenate(clouds))[::-1])
    if q_size == 1:
        symmetric_max = best_sym
    else:
        gap = hull[:, 0] - hull[:, 1]
        e = np.flatnonzero(gap[:-1] * gap[1:] < 0)  # the edges that cross R1 = R2
        t = gap[e] / (gap[e] - gap[e + 1])
        crossings = hull[e] + t[:, None] * (hull[e + 1] - hull[e])
        symmetric_max = float(np.concatenate([hull, crossings]).min(axis=1).max())

    lam = np.linspace(0.0, 1.0, SHANNON_FRONTIER_WEIGHTS)[:, None]
    picks = np.unique(np.argmax(lam * hull[:, 0] + (1 - lam) * hull[:, 1], axis=1))
    return {
        "symmetric_max": symmetric_max,
        "frontier": [tuple(p) for p in hull[picks].tolist()],
        "q_size": q_size,
    }
