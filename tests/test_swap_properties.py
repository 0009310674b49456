"""Property tests: exchanging the two terminals exchanges every per-terminal result.

The swap transposes the channel law (x1, x2, y1, y2) -> (x2, x1, y2, y1)
and the source law, exchanges 1 and 2 in every field of a configuration or
scheme, and transposes a previous-block law (s1, s2, u1, u2, io1, io2) ->
(s2, s1, u2, u1, io2, io1).  The four condition sides and the two
distortions must come back exchanged, which guards the axis layouts of the
chain, its view laws and the SSCC lift.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import twjscc as tw
from twjscc.conditions import AdaptiveChannelScheme, _adaptive_report, lift_sscc
from twjscc.markov import build_chain, reconstruction_distortions
from twjscc.probability import ConditionalPmf, JointPmf

from util import (
    random_adaptive_scheme,
    random_binary_channel,
    random_configuration,
    random_joint_source,
    random_wz_scheme,
)

PREV_SWAP = (1, 0, 3, 2, 5, 4)  # (s1, s2, u1, u2, io1, io2) -> (s2, s1, u2, u1, io2, io1)
TOL = 1e-12

seeds = st.integers(0, 2 ** 32 - 1)


def swap_channel(ch: tw.TwoWayChannel) -> tw.TwoWayChannel:
    law = ch.law
    return tw.TwoWayChannel(ch.x2, ch.x1, ch.y2, ch.y1, ConditionalPmf(
        law.given_axes[::-1], law.out_axes[::-1], law.probs.transpose(1, 0, 3, 2)))


def swap_source(src: tw.JointSource) -> tw.JointSource:
    return tw.JointSource(src.s2, src.s1, JointPmf(src.law.axes[::-1], src.law.probs.T))


def swap_law(law: JointPmf) -> JointPmf:
    return JointPmf(tuple(law.axes[k] for k in PREV_SWAP), law.probs.transpose(PREV_SWAP))


def swap_configuration(cfg: tw.Configuration) -> tw.Configuration:
    return tw.Configuration(
        u1=cfg.u2, u2=cfg.u1, pu1_given_s1=cfg.pu2_given_s2, pu2_given_s2=cfg.pu1_given_s1,
        prev_law=None if cfg.prev_law is None else swap_law(cfg.prev_law),
        f1=cfg.f2, f2=cfg.f1, g1=cfg.g2, g2=cfg.g1,
        x1=cfg.x2, x2=cfg.x1, y1=cfg.y2, y2=cfg.y1, recon1=cfg.recon2, recon2=cfg.recon1,
    )


def swap_scheme(scheme: AdaptiveChannelScheme) -> AdaptiveChannelScheme:
    return AdaptiveChannelScheme(scheme.v2, scheme.v1, scheme.pv2, scheme.pv1, scheme.gamma2,
                                 scheme.gamma1, scheme.x2, scheme.x1, scheme.y2, scheme.y1)


def assert_exchanged(sys, swapped, d1, d2):
    """The swapped system's law, condition sides and distortions are the
    original's, with the terminals exchanged."""
    law = swap_law(sys.cfg.prev_law).probs
    assert np.abs(swapped.cfg.prev_law.probs - law).sum() <= TOL
    for simplify in (False, True):
        a, b = _adaptive_report(sys, simplify=simplify), _adaptive_report(swapped, simplify=simplify)
        for x, y in ((a.lhs1, b.lhs2), (a.rhs1, b.rhs2), (a.lhs2, b.lhs1), (a.rhs2, b.rhs1)):
            assert abs(x - y) <= TOL
    da, db = reconstruction_distortions(sys, d1, d2), reconstruction_distortions(swapped, d2, d1)
    assert abs(da[0] - db[1]) <= TOL and abs(da[1] - db[0]) <= TOL


@settings(deadline=None, max_examples=40)
@given(seeds, st.integers(1, 2), st.integers(1, 2))
def test_swap_exchanges_random_configuration_results(seed, aux1, aux2):
    rng = np.random.default_rng(seed)
    ch, src = random_binary_channel(rng), random_joint_source(rng)
    cfg = random_configuration(rng, ch, src, aux1, aux2)
    swapped = (swap_configuration(cfg), swap_channel(ch), swap_source(src))
    try:
        sys = build_chain(cfg, ch, src)
    except ValueError:  # a non-unique law is refused on both sides
        with pytest.raises(ValueError):
            build_chain(*swapped)
        return
    except RuntimeError:  # a solve that does not converge; see `solve_stationary`
        return
    assert_exchanged(sys, build_chain(*swapped), tw.hamming(src.s1), tw.hamming(src.s2))


@settings(deadline=None, max_examples=20)
@given(seeds)
def test_swap_exchanges_sscc_lift_results(seed):
    rng = np.random.default_rng(seed)
    ch, src = random_binary_channel(rng), random_joint_source(rng)
    scheme = random_adaptive_scheme(rng, ch)
    wz1, wz2 = random_wz_scheme(rng, src, 1), random_wz_scheme(rng, src, 2)
    sch, ssrc = swap_channel(ch), swap_source(src)
    try:
        cfg = lift_sscc(scheme, wz1, wz2, ch, src)
    except ValueError:  # a random gamma can leave the scheme's law non-unique
        with pytest.raises(ValueError):
            lift_sscc(swap_scheme(scheme), wz2, wz1, sch, ssrc)
        return
    except RuntimeError:  # a solve that does not converge, as for a rare v (p < 0.01)
        return
    lifted = lift_sscc(swap_scheme(scheme), wz2, wz1, sch, ssrc)  # the lift of the swapped scheme
    mirrored = swap_configuration(cfg)
    for name in ("f1", "f2", "g1", "g2"):
        assert np.array_equal(getattr(lifted, name), getattr(mirrored, name))
    sys = build_chain(cfg, ch, src)
    assert_exchanged(sys, build_chain(lifted, sch, ssrc), tw.hamming(src.s1), tw.hamming(src.s2))
