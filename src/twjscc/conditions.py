"""Achievability condition evaluators and the scheme-lifting maps.

Covers three condition families: the adaptive block-Markov conditions on the
stationary system chain, the single-block (non-adaptive) hybrid-coding
conditions, and the separate source-channel conditions pairing Wyner-Ziv
rates with an adaptive channel scheme.  The hybrid conditions, distortions
and Bayes decoders are read off the chain of the scheme's lift.  Shannon's
non-adaptive inner bound lives in `region`, next to its hull.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from math import isfinite

import numpy as np

from .coded_channel import Configuration, _check_table
from .markov import (MarkovSystem, bayes_decoders, build_chain, decoder_marginals,
                     reconstruction_distortions, stationary_prev_law)
from .models import DistortionMeasure, JointSource, TwoWayChannel
from .probability import (
    Alphabet,
    ConditionalPmf,
    JointPmf,
    checked_real,
    conditional_mutual_information,
    mutual_information,
)

DEFAULT_TOL = 1e-9
PREV_LAW_TOL = 1e-8  # largest residual accepted from a supplied previous-block law

_UNIT_SOURCE = JointSource(
    Alphabet(1, "unit"), Alphabet(1, "unit"), JointPmf((Alphabet(1),) * 2, np.ones((1, 1)))
)


@dataclass(frozen=True)
class ConditionReport:
    """Two-sided rate condition with strictness bookkeeping.

    satisfied requires both strict inequalities to hold with margin > tol;
    boundary flags reports whose worst margin sits within +-tol of zero.
    """

    lhs1: float
    rhs1: float
    lhs2: float
    rhs2: float
    satisfied: bool
    boundary: bool
    margin: float
    tol: float = DEFAULT_TOL

    @staticmethod
    def from_values(lhs1, rhs1, lhs2, rhs2, tol: float = DEFAULT_TOL) -> "ConditionReport":
        if not (isfinite(tol) and tol >= 0):
            raise ValueError(f"tolerance {tol} must be finite and nonnegative")
        margin = min(rhs1 - lhs1, rhs2 - lhs2)
        satisfied = (lhs1 < rhs1 - tol) and (lhs2 < rhs2 - tol)
        boundary = (not satisfied) and margin >= -tol
        return ConditionReport(
            float(lhs1), float(rhs1), float(lhs2), float(rhs2), satisfied, boundary, float(margin), tol
        )

    def as_dict(self) -> dict:
        return {
            "lhs1": self.lhs1,
            "rhs1": self.rhs1,
            "lhs2": self.lhs2,
            "rhs2": self.rhs2,
            "satisfied": self.satisfied,
            "boundary": self.boundary,
            "margin": self.margin,
        }


# ---------------------------------------------------------------------------
# Single-block hybrid coding (non-adaptive)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HybridScheme:
    """Non-adaptive single-block scheme: codeword conditionals, symbol
    encoders x_j = f_j(s_j, u_j), and decoders g_j(u_j', s_j, u_j, y_j)."""

    pu1_given_s1: ConditionalPmf
    pu2_given_s2: ConditionalPmf
    f1: np.ndarray  # (|S1|, |U1|) -> x1
    f2: np.ndarray
    g1: np.ndarray  # (|U2|, |S1|, |U1|, |Y1|) -> recon of s2
    g2: np.ndarray  # (|U1|, |S2|, |U2|, |Y2|) -> recon of s1
    recon1: Alphabet
    recon2: Alphabet

    @property
    def s1(self) -> Alphabet:
        return self.pu1_given_s1.given_axes[0]

    @property
    def s2(self) -> Alphabet:
        return self.pu2_given_s2.given_axes[0]

    @property
    def u1(self) -> Alphabet:
        return self.pu1_given_s1.out_axes[0]

    @property
    def u2(self) -> Alphabet:
        return self.pu2_given_s2.out_axes[0]


_LIFT_G_READS = (0, 3, 4, 6)  # (prev_u_other, prev_s, prev_u, y): the g arguments a lift reads


def _lifted_configuration(hs: HybridScheme, ch: TwoWayChannel) -> Configuration:
    """The lift of `hs` without a law, its tables checked in their single-block
    shapes first: f reads (prev_s, prev_u), and g the arguments `_LIFT_G_READS`."""
    f1 = _check_table("f1", hs.f1, hs.pu1_given_s1.probs.shape, ch.x1.size)
    f2 = _check_table("f2", hs.f2, hs.pu2_given_s2.probs.shape, ch.x2.size)
    g1 = _check_table("g1", hs.g1, (hs.u2.size, hs.s1.size, hs.u1.size, ch.y1.size), hs.recon2.size)
    g2 = _check_table("g2", hs.g2, (hs.u1.size, hs.s2.size, hs.u2.size, ch.y2.size), hs.recon1.size)
    return Configuration(
        u1=hs.u1, u2=hs.u2, pu1_given_s1=hs.pu1_given_s1, pu2_given_s2=hs.pu2_given_s2, prev_law=None,
        f1=f1[None, None, :, :, None], f2=f2[None, None, :, :, None],
        g1=g1[:, None, None, :, :, None, :], g2=g2[:, None, None, :, :, None, :],
        x1=ch.x1, x2=ch.x2, y1=ch.y1, y2=ch.y2, recon1=hs.recon1, recon2=hs.recon2,
    )


def lift_hybrid(hs: HybridScheme, ch: TwoWayChannel, src: JointSource) -> Configuration:
    """Embed a single-block scheme in the block-Markov framework.

    The channel encoder consumes only the previous-block pair, so the
    current block's channel output is the one produced while that pair was
    on the air; the reconstruction map therefore feeds the single-block
    decoder with the previous pair and the current output.  The stationary
    law is installed; it is unique, as a state's successor depends only on
    the fresh tuple and its (s, u), so every row of K^2 is the same.
    """
    return build_chain(_lifted_configuration(hs, ch), ch, src).cfg


@dataclass(frozen=True)
class HybridEvaluation:
    report: ConditionReport
    distortions: tuple[float, float]


def eval_hybrid(hs: HybridScheme, ch: TwoWayChannel, src: JointSource,
                d1: DistortionMeasure, d2: DistortionMeasure) -> HybridEvaluation:
    """Evaluate the single-block conditions and the decoders' distortions on
    the lifted chain: its simplified report is the single-block one."""
    sys = build_chain(_lifted_configuration(hs, ch), ch, src)
    return HybridEvaluation(_adaptive_report(sys, simplify=True), reconstruction_distortions(sys, d1, d2))


def bayes_hybrid_decoders(pu1: ConditionalPmf, pu2: ConditionalPmf, f1: np.ndarray, f2: np.ndarray,
                          ch: TwoWayChannel, src: JointSource,
                          d1: DistortionMeasure, d2: DistortionMeasure) -> tuple[np.ndarray, np.ndarray]:
    """Optimal deterministic decoders for a single-block scheme: the lifted
    chain's, on the arguments a lifted g reads.  Ties break toward the lowest
    reconstruction index.
    """
    hs = HybridScheme(pu1, pu2, f1, f2, 0, 0, d1.recon_alphabet, d2.recon_alphabet)
    sys = build_chain(_lifted_configuration(hs, ch), ch, src)
    g1, g2 = bayes_decoders(sys, d1, d2, reads=_LIFT_G_READS)
    return g1[:, 0, 0, :, :, 0, :], g2[:, 0, 0, :, :, 0, :]


# ---------------------------------------------------------------------------
# Adaptive block-Markov conditions
# ---------------------------------------------------------------------------


def eval_adaptive(
    cfg: Configuration,
    ch: TwoWayChannel,
    src: JointSource,
    tol: float = DEFAULT_TOL,
    simplify: bool = False,
) -> ConditionReport:
    """Evaluate the adaptive-coding conditions on the stationary state law.

    The raw form compares I(prev_s_j; prev_u_j) against the information the
    other terminal's whole current view carries about prev_u_j.  With
    simplify=True the quantities are reported in the reduced single-block
    form (both sides conditioned on the other previous pair, the right side
    keeping only the current channel output), which shifts both sides of
    each inequality by the same constant and so preserves margins.
    """
    return _adaptive_report(build_chain(cfg, ch, src), tol, simplify)


def _adaptive_report(sys: MarkovSystem, tol: float = DEFAULT_TOL,
                     simplify: bool = False) -> ConditionReport:
    """eval_adaptive on a built system, by one rule on each view law M_j of
    `decoder_marginals`: raw, I(M[0]; M[1]) against I(M[1]; M[2:]), the
    other terminal's view, whose input x adds nothing, being f of the rest;
    simplified, both conditioned on that terminal's (prev_s, prev_u) =
    (M[4], M[5]), and the right side keeping only its output y = M[7]."""
    if sys.residual > PREV_LAW_TOL:
        raise ValueError(
            f"configuration's previous-block law is not stationary (residual {sys.residual:.3e})"
        )
    sides = []
    for m in decoder_marginals(sys):
        if simplify:
            sides += [conditional_mutual_information(m, (0,), (1,), (4, 5)),
                      conditional_mutual_information(m, (1,), (7,), (4, 5))]
        else:
            sides += [mutual_information(m, (0,), (1,)), mutual_information(m, (1,), tuple(range(2, 8)))]
    return ConditionReport.from_values(*sides, tol)


# ---------------------------------------------------------------------------
# Separate source-channel coding: WZ compression over an adaptive channel code
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdaptiveChannelScheme:
    """Channel-only adaptive scheme with memoryless codeword variables v_j and
    encoders x_j = gamma_j(v_j, prev_v_j, prev_io_j); its stationary law is
    never an input, but solved on the chain of `embed_adaptive_scheme`."""

    v1: Alphabet
    v2: Alphabet
    pv1: np.ndarray
    pv2: np.ndarray
    gamma1: np.ndarray  # (|V1|, |V1|, |io1|) -> x1
    gamma2: np.ndarray
    x1: Alphabet
    x2: Alphabet
    y1: Alphabet
    y2: Alphabet

    def __post_init__(self):
        for nm, pv, v in (("pv1", self.pv1, self.v1), ("pv2", self.pv2, self.v2)):
            try:
                object.__setattr__(self, nm, JointPmf((v,), pv).probs)
            except ValueError as err:
                raise ValueError(f"{nm}: {err}") from None
        for nm, v, x, y in (("gamma1", self.v1, self.x1, self.y1), ("gamma2", self.v2, self.x2, self.y2)):
            shape = (v.size, v.size, x.size * y.size)
            object.__setattr__(self, nm, _check_table(nm, getattr(self, nm), shape, x.size))


@dataclass(frozen=True)
class WZScheme:
    """Side-information compression scheme for one source: the test-channel
    conditional P(t | s) and the other terminal's decoder h(s_other, t)."""

    t: Alphabet
    p_t_given_s: ConditionalPmf
    h: np.ndarray  # (|S_other|, |T|) -> reconstruction
    shat: Alphabet

    def __post_init__(self):
        if self.t.size > self.p_t_given_s.given_axes[0].size + 1:
            raise ValueError("auxiliary alphabet exceeds the |S|+1 cardinality cap")


def embed_adaptive_scheme(scheme: AdaptiveChannelScheme) -> Configuration:
    """Express a channel-only scheme as a configuration on a unit source.

    The source alphabets are singletons, the codeword variables play u_j,
    and the reconstruction maps are trivial; the system chain then reduces
    exactly to the scheme's own chain on (v, x, y), which `build_chain`
    solves, as the configuration has no law.
    """
    unit = Alphabet(1, "unit")
    pu1 = ConditionalPmf((unit,), (scheme.v1,), scheme.pv1[None, :])
    pu2 = ConditionalPmf((unit,), (scheme.v2,), scheme.pv2[None, :])
    return Configuration(
        u1=scheme.v1,
        u2=scheme.v2,
        pu1_given_s1=pu1,
        pu2_given_s2=pu2,
        prev_law=None,
        f1=scheme.gamma1[None, :, None, :, :],
        f2=scheme.gamma2[None, :, None, :, :],
        g1=0,
        g2=0,
        x1=scheme.x1,
        x2=scheme.x2,
        y1=scheme.y1,
        y2=scheme.y2,
        recon1=unit,
        recon2=unit,
    )


def eval_sscc(
    scheme: AdaptiveChannelScheme,
    rate1: float,
    rate2: float,
    ch: TwoWayChannel,
) -> ConditionReport:
    """Compare supplied compression rates with the adaptive channel rates.

    rate_j, a finite nonnegative real, is the Wyner-Ziv rate for source j;
    the right-hand sides are the adaptive conditions' right-hand sides on the
    solved embedded chain, the information the other terminal's current view
    carries about prev_v_j.  Given the rest of that view its fresh v is
    independent of prev_v_j, so this is what its (x, y, prev_v, prev_io) view carries.
    """
    for name, rate in (("rate1", rate1), ("rate2", rate2)):
        if checked_real(name, rate) < 0:
            raise ValueError(f"{name} {rate} must be nonnegative")
    rep = _adaptive_report(build_chain(embed_adaptive_scheme(scheme), ch, _UNIT_SOURCE))
    return ConditionReport.from_values(rate1, rep.rhs1, rate2, rep.rhs2)


def wz_scheme_rate(scheme: WZScheme, src: JointSource, which: int) -> float:
    """Operational rate I(S_w; T) - I(S_other; T) of a compression scheme."""
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    ps = src.law.probs if which == 1 else src.law.probs.T
    joint = ps[:, :, None] * scheme.p_t_given_s.probs[:, None, :]
    axes = (
        scheme.p_t_given_s.given_axes[0],
        Alphabet(ps.shape[1], "side"),
        scheme.t,
    )
    p = JointPmf(axes, joint)
    return mutual_information(p, (0,), (2,)) - mutual_information(p, (1,), (2,))


def lift_sscc(
    scheme: AdaptiveChannelScheme,
    wz1: WZScheme,
    wz2: WZScheme,
    ch: TwoWayChannel,
    src: JointSource,
) -> Configuration:
    """Build the configuration realizing WZ compression over the adaptive
    channel scheme: u_j packs (t_j, v_j) as t * |V_j| + v, the channel
    encoder uses only the v parts, and reconstruction applies the WZ
    decoders to (prev_s_own, prev_t_other).  The law is the source and
    test-channel law times the scheme's own stationary law, solved on `ch`;
    the lifted chain is never solved.
    """
    return _lift_sscc(scheme, stationary_prev_law(embed_adaptive_scheme(scheme), ch, _UNIT_SOURCE),
                      wz1, wz2, src)


def _lift_sscc(scheme: AdaptiveChannelScheme, law: JointPmf,
               wz1: WZScheme, wz2: WZScheme, src: JointSource) -> Configuration:
    """`lift_sscc` with `law`, the stationary law of the embedded scheme."""
    ns1, ns2 = src.s1.size, src.s2.size
    nv1, nv2 = scheme.v1.size, scheme.v2.size
    nu1, nu2 = wz1.t.size * nv1, wz2.t.size * nv2
    if wz1.p_t_given_s.given_axes[0].size != ns1 or wz2.p_t_given_s.given_axes[0].size != ns2:
        raise ValueError("WZ conditional source axes do not match the source")
    if wz1.h.shape != (ns2, wz1.t.size) or wz2.h.shape != (ns1, wz2.t.size):
        raise ValueError("WZ decoder table shapes do not match")

    u1 = Alphabet(nu1, "u1=(t1,v1)")
    u2 = Alphabet(nu2, "u2=(t2,v2)")
    pu1 = np.einsum("st,v->stv", wz1.p_t_given_s.probs, scheme.pv1).reshape(ns1, nu1)
    pu2 = np.einsum("st,v->stv", wz2.p_t_given_s.probs, scheme.pv2).reshape(ns2, nu2)

    v_of_u1 = np.arange(nu1) % nv1
    v_of_u2 = np.arange(nu2) % nv2
    t_of_u1 = np.arange(nu1) // nv1
    t_of_u2 = np.arange(nu2) // nv2

    # f_j reads (u_j, prev_u_j, prev_io_j) through their v parts
    f1 = scheme.gamma1[v_of_u1][:, v_of_u1, :][None, :, None, :, :]
    f2 = scheme.gamma2[v_of_u2][:, v_of_u2, :][None, :, None, :, :]
    # g1 estimates s2 from (prev_s1, t part of prev_u2); g2 mirrors
    a1 = wz2.h[:, t_of_u2].T  # (u2, prev_s1)
    a2 = wz1.h[:, t_of_u1].T  # (u1, prev_s2)

    st = np.einsum("ab,at,bw->abtw", src.law.probs, wz1.p_t_given_s.probs, wz2.p_t_given_s.probs)
    full = np.multiply.outer(st, law.probs[0, 0])  # (prev_v1, prev_v2, prev_io1, prev_io2)
    # axes (s1, s2, t1, t2, v1, v2, io1, io2) -> (s1, s2, (t1,v1), (t2,v2), io1, io2)
    full = np.transpose(full, (0, 1, 2, 4, 3, 5, 6, 7))
    prev_probs = np.ascontiguousarray(full).reshape(ns1, ns2, nu1, nu2, *full.shape[-2:])

    cfg = Configuration(
        u1=u1,
        u2=u2,
        pu1_given_s1=ConditionalPmf((src.s1,), (u1,), pu1),
        pu2_given_s2=ConditionalPmf((src.s2,), (u2,), pu2),
        prev_law=None,
        f1=f1,
        f2=f2,
        g1=a1[:, None, None, :, None, None, None],
        g2=a2[:, None, None, :, None, None, None],
        x1=scheme.x1,
        x2=scheme.x2,
        y1=scheme.y1,
        y2=scheme.y2,
        recon1=wz1.shat,
        recon2=wz2.shat,
    )
    prev = JointPmf(cfg.prev_axes, prev_probs)
    return dataclasses.replace(cfg, prev_law=prev)
