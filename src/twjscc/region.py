"""Randomized search for distortion pairs certified by the adaptive conditions.

Candidates are full configurations, and each is evaluated on one system
chain: a candidate without a previous-block law gets the chain's stationary
law installed, and its decoder distortions, condition report and the
installed law's residual are all read off that same `MarkovSystem`.
Distortions come first: a candidate that a kept point covers (no larger in
either distortion) is "dominated" and its conditions are never read; any
other is kept when certified (strictly satisfied, or on the tagged boundary)
or its evaluation names the reason.  Structured candidates (uncoded, codeword
hybrids, separate coding) are built as the search reaches them, ahead of the
random draws; the search stops once (0, 0) is kept, as no distortion is
negative.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

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
from .markov import bayes_decoders, build_chain, reconstruction_distortions, stationary_prev_law
from .models import DistortionMeasure, JointSource, TwoWayChannel
from .probability import Alphabet, ConditionalPmf


@dataclass(frozen=True)
class RegionPoint:
    """One certified distortion pair with its configuration certificate."""

    d1: float
    d2: float
    certificate: Configuration
    report: ConditionReport
    boundary: bool
    stationary_residual: float


def _dirichlet_rows(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    gam = rng.gamma(1.0, 1.0, size=(rows, cols))
    gam = np.maximum(gam, 1e-12)
    return gam / gam.sum(axis=1, keepdims=True)


def _with_bayes_decoders(cfg: Configuration, ch: TwoWayChannel, src: JointSource,
                         d1: DistortionMeasure, d2: DistortionMeasure,
                         reads: tuple[int, ...] = tuple(range(7))) -> Configuration:
    """`cfg` with its chain's law and Bayes decoders (see `bayes_decoders`) installed."""
    sys = build_chain(cfg, ch, src)
    g1, g2 = bayes_decoders(sys, d1, d2, reads)
    return dataclasses.replace(sys.cfg, g1=g1, g2=g2)


def uncoded_configuration(ch: TwoWayChannel, src: JointSource,
                          d1: DistortionMeasure, d2: DistortionMeasure) -> Configuration:
    """Constant codewords, x_j = current s_j, and the optimal deterministic
    reconstructions under the configuration's own stationary pair law."""
    unit = Alphabet(1, "const")
    pu1 = ConditionalPmf((src.s1,), (unit,), np.ones((src.s1.size, 1)))
    pu2 = ConditionalPmf((src.s2,), (unit,), np.ones((src.s2.size, 1)))
    s1_sym = np.minimum(np.arange(src.s1.size), ch.x1.size - 1)
    s2_sym = np.minimum(np.arange(src.s2.size), ch.x2.size - 1)
    cfg = Configuration(
        u1=unit, u2=unit, pu1_given_s1=pu1, pu2_given_s2=pu2, prev_law=None,
        f1=s1_sym[:, None, None, None, None], f2=s2_sym[:, None, None, None, None], g1=0, g2=0,
        x1=ch.x1, x2=ch.x2, y1=ch.y1, y2=ch.y2,
        recon1=d1.recon_alphabet, recon2=d2.recon_alphabet,
    )
    return _with_bayes_decoders(cfg, ch, src, d1, d2)


def constant_codeword_hybrid_configuration(ch: TwoWayChannel, src: JointSource,
                                           d1: DistortionMeasure, d2: DistortionMeasure) -> Configuration:
    """Single-block uncoded transmission lifted into the block framework:
    constant codewords and x_j equal to the previous block's source."""
    unit = Alphabet(1, "const")
    pu1 = ConditionalPmf((src.s1,), (unit,), np.ones((src.s1.size, 1)))
    pu2 = ConditionalPmf((src.s2,), (unit,), np.ones((src.s2.size, 1)))
    f1 = np.minimum(np.arange(src.s1.size), ch.x1.size - 1)[:, None]
    f2 = np.minimum(np.arange(src.s2.size), ch.x2.size - 1)[:, None]
    hs = HybridScheme(pu1, pu2, f1, f2, 0, 0, d1.recon_alphabet, d2.recon_alphabet)
    return _with_bayes_decoders(_lifted_configuration(hs, ch), ch, src, d1, d2, _LIFT_G_READS)


def identity_hybrid_configuration(ch: TwoWayChannel, src: JointSource,
                                  d1: DistortionMeasure, d2: DistortionMeasure) -> Configuration:
    """Codeword equals the source, channel input equals the codeword."""
    u1 = Alphabet(src.s1.size, "u1")
    u2 = Alphabet(src.s2.size, "u2")
    pu1 = ConditionalPmf((src.s1,), (u1,), np.eye(src.s1.size))
    pu2 = ConditionalPmf((src.s2,), (u2,), np.eye(src.s2.size))
    f1 = np.minimum(np.arange(u1.size), ch.x1.size - 1)[None, :].repeat(src.s1.size, axis=0)
    f2 = np.minimum(np.arange(u2.size), ch.x2.size - 1)[None, :].repeat(src.s2.size, axis=0)
    hs = HybridScheme(pu1, pu2, f1, f2, 0, 0, d1.recon_alphabet, d2.recon_alphabet)
    return _with_bayes_decoders(_lifted_configuration(hs, ch), ch, src, d1, d2, _LIFT_G_READS)


def _sscc_candidates(ch: TwoWayChannel, src: JointSource,
                     d1: DistortionMeasure, d2: DistortionMeasure) -> list[Configuration]:
    """Separate-coding points built from a memoryless uniform channel scheme."""
    from .rate_distortion import InfeasibleDistortion, wz_function

    if ch.x1.size < 2 or ch.x2.size < 2:
        return []
    x_of_v = np.arange(2)[:, None, None]  # x_j = v_j
    scheme = AdaptiveChannelScheme(
        Alphabet(2, "v1"), Alphabet(2, "v2"), np.full(2, 0.5), np.full(2, 0.5),
        x_of_v, x_of_v, ch.x1, ch.x2, ch.y1, ch.y2,
    )
    law = stationary_prev_law(embed_adaptive_scheme(scheme), ch, _UNIT_SOURCE)  # one solve, every lift
    out = []
    for frac in (0.0, 0.1, 0.25):
        try:
            wz1 = wz_function(src, 1, d1, frac * d1.d_max).scheme
            wz2 = wz_function(src, 2, d2, frac * d2.d_max).scheme
            out.append(_lift_sscc(scheme, law, wz1, wz2, src))
        except (InfeasibleDistortion, ValueError):
            continue
    return out


def _structured_candidates(ch: TwoWayChannel, src: JointSource,
                           d1: DistortionMeasure, d2: DistortionMeasure):
    """The structured candidates in search order, each built when reached."""
    for build in (uncoded_configuration, constant_codeword_hybrid_configuration,
                  identity_hybrid_configuration, _sscc_candidates):
        try:
            built = build(ch, src, d1, d2)
        except (ValueError, RuntimeError):  # a failed structured build uses no budget
            continue
        yield from built if isinstance(built, list) else [built]


def _random_candidate(rng: np.random.Generator, ch: TwoWayChannel, src: JointSource,
                      d1: DistortionMeasure, d2: DistortionMeasure,
                      aux1: int, aux2: int) -> Configuration:
    u1 = Alphabet(aux1, "u1")
    u2 = Alphabet(aux2, "u2")
    pu1 = ConditionalPmf((src.s1,), (u1,), _dirichlet_rows(rng, src.s1.size, aux1))
    pu2 = ConditionalPmf((src.s2,), (u2,), _dirichlet_rows(rng, src.s2.size, aux2))
    nio1 = ch.x1.size * ch.y1.size
    nio2 = ch.x2.size * ch.y2.size
    f1 = rng.integers(0, ch.x1.size, size=(src.s1.size, aux1, src.s1.size, aux1, nio1))
    f2 = rng.integers(0, ch.x2.size, size=(src.s2.size, aux2, src.s2.size, aux2, nio2))
    g1 = rng.integers(0, d2.recon_alphabet.size,
                      size=(aux2, src.s1.size, aux1, src.s1.size, aux1, nio1, ch.y1.size))
    g2 = rng.integers(0, d1.recon_alphabet.size,
                      size=(aux1, src.s2.size, aux2, src.s2.size, aux2, nio2, ch.y2.size))
    return Configuration(
        u1=u1, u2=u2, pu1_given_s1=pu1, pu2_given_s2=pu2, prev_law=None,
        f1=f1, f2=f2, g1=g1, g2=g2,
        x1=ch.x1, x2=ch.x2, y1=ch.y1, y2=ch.y2,
        recon1=d1.recon_alphabet, recon2=d2.recon_alphabet,
    )


def _covers(kept: Sequence[RegionPoint], a: float, b: float) -> bool:
    """Whether a kept point is at most (a, b) in both coordinates."""
    return any(q.d1 <= a and q.d2 <= b for q in kept)


def _evaluate(cfg: Configuration, ch: TwoWayChannel, src: JointSource,
              d1: DistortionMeasure, d2: DistortionMeasure,
              kept: Sequence[RegionPoint] = ()) -> RegionPoint | str:
    """Certify one candidate on its one system chain, or name why not: the
    message of the error that stopped the evaluation, "dominated" (a kept
    point covers its distortions) or "condition violated"."""
    try:
        sys = build_chain(cfg, ch, src)
        dist = reconstruction_distortions(sys, d1, d2)
        if _covers(kept, *dist):
            return "dominated"
        report = _adaptive_report(sys)
    except (ValueError, RuntimeError) as exc:
        return str(exc)
    if not (report.satisfied or report.boundary):
        return "condition violated"
    return RegionPoint(d1=dist[0], d2=dist[1], certificate=sys.cfg, report=report,
                       boundary=report.boundary, stationary_residual=sys.residual)


def _pareto_min(points: list[RegionPoint]) -> list[RegionPoint]:
    kept: list[RegionPoint] = []
    for p in points:
        dominated = any(
            q.d1 <= p.d1 and q.d2 <= p.d2 and (q.d1 < p.d1 or q.d2 < p.d2) for q in points
        )
        if not dominated and not any(q.d1 == p.d1 and q.d2 == p.d2 for q in kept):
            kept.append(p)
    return kept


def search_region(
    ch: TwoWayChannel,
    src: JointSource,
    d1: DistortionMeasure,
    d2: DistortionMeasure,
    budget: int = 1000,
    seed: int = 0,
    aux_sizes: tuple[int, int] | None = None,
) -> list[RegionPoint]:
    """Seeded candidate search returning Pareto-minimal certified points.

    Deterministic for a fixed (seed, budget): structured candidates come
    first, then random configurations from the seeded generator, until the
    budget is spent or (0, 0) is kept.  Boundary certificates are flagged.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = np.random.default_rng(seed)
    aux1, aux2 = aux_sizes if aux_sizes is not None else (src.s1.size, src.s2.size)
    if min(aux1, aux2) < 1:
        raise ValueError(f"auxiliary alphabet sizes must be >= 1, got {aux1} and {aux2}")

    structured = _structured_candidates(ch, src, d1, d2)
    points: list[RegionPoint] = []
    for _ in range(budget):
        if _covers(points, 0.0, 0.0):  # distortions are >= 0: nothing can enter
            break
        cfg = next(structured, None)
        if cfg is None:
            cfg = _random_candidate(rng, ch, src, d1, d2, aux1, aux2)
        point = _evaluate(cfg, ch, src, d1, d2, points)
        if not isinstance(point, str):  # a str names why the candidate failed
            points = _pareto_min(points + [point])
    return points


def _staircase(points) -> list[tuple[float, float]]:
    """Pareto-minimal points of a point set, with increasing first coordinate."""
    kept = []
    best2 = np.inf
    for p in sorted({(float(a), float(b)) for a, b in points}):
        if p[1] < best2 - 1e-15:
            kept.append(p)
            best2 = p[1]
    return kept


def convexify(points) -> list[tuple[float, float]]:
    """Lower-left convex hull vertices of a distortion point set.

    Vertices come back with increasing first coordinate; together with the
    segments between them (time-sharing) they bound the reported region.
    """
    kept = _staircase(points)
    if len(kept) <= 2:
        return kept
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
