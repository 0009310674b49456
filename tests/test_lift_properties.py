"""Property tests: lifted single-block schemes keep their single-block margins.

Each lift solves the stationary previous-block law of the block-Markov
chain, and `eval_adaptive` reads the conditions off pair marginals of that
law; the margins must equal the single-block ones, read off the oracle law
`one_shot_hybrid_law` of `util`.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import twjscc as tw
from twjscc.conditions import (
    bayes_hybrid_decoders,
    eval_adaptive,
    eval_hybrid,
    eval_sscc,
    lift_hybrid,
    lift_sscc,
    wz_scheme_rate,
)

from util import (
    random_adaptive_scheme,
    random_binary_channel,
    random_hybrid_scheme,
    random_joint_source,
    random_wz_scheme,
    single_block_bayes_decoders,
    single_block_hybrid,
)

seeds = st.integers(0, 2 ** 32 - 1)


@settings(deadline=None, max_examples=40)
@given(seeds, st.booleans())
def test_lift_hybrid_margins_equal_single_block(seed, bayes):
    rng = np.random.default_rng(seed)
    src = random_joint_source(rng)
    ch = random_binary_channel(rng)
    d = tw.hamming(src.s1)
    hs = random_hybrid_scheme(rng, src, ch, d, d, bayes=bayes)
    single = single_block_hybrid(hs, ch, src, d, d).report
    lifted = eval_adaptive(lift_hybrid(hs, ch, src), ch, src)
    assert abs((lifted.rhs1 - lifted.lhs1) - (single.rhs1 - single.lhs1)) <= 1e-9
    assert abs((lifted.rhs2 - lifted.lhs2) - (single.rhs2 - single.lhs2)) <= 1e-9


@settings(deadline=None, max_examples=40)
@given(seeds, st.booleans())
def test_lifted_evaluator_matches_single_block_oracle(seed, bayes):
    rng = np.random.default_rng(seed)
    src = random_joint_source(rng)
    ch = random_binary_channel(rng)
    d = tw.hamming(src.s1)
    hs = random_hybrid_scheme(rng, src, ch, d, d, bayes=bayes)
    parts = (hs.pu1_given_s1, hs.pu2_given_s2, hs.f1, hs.f2, ch, src, d, d)
    for got, want in zip(bayes_hybrid_decoders(*parts), single_block_bayes_decoders(*parts)):
        assert got.shape == want.shape and np.array_equal(got, want)
    got, want = eval_hybrid(hs, ch, src, d, d), single_block_hybrid(hs, ch, src, d, d)
    for name in ("lhs1", "rhs1", "lhs2", "rhs2"):
        assert abs(getattr(got.report, name) - getattr(want.report, name)) <= 1e-12
    assert max(abs(a - b) for a, b in zip(got.distortions, want.distortions)) <= 1e-12
    assert (got.report.satisfied, got.report.boundary) == (want.report.satisfied, want.report.boundary)


@settings(deadline=None, max_examples=40)
@given(seeds, st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_lift_sscc_sides_equal_eval_sscc(seed, p1, p2):
    # the WZ rates equal the lifted left sides when the sources are independent
    rng = np.random.default_rng(seed)
    src = tw.preset_independent_bernoulli(p1, p2)
    ch = random_binary_channel(rng)
    scheme = random_adaptive_scheme(rng, ch)
    wz1, wz2 = random_wz_scheme(rng, src, 1), random_wz_scheme(rng, src, 2)
    single = eval_sscc(scheme, wz_scheme_rate(wz1, src, 1), wz_scheme_rate(wz2, src, 2), ch)
    lifted = eval_adaptive(lift_sscc(scheme, wz1, wz2, ch, src), ch, src)
    for a, b in ((lifted.lhs1, single.lhs1), (lifted.rhs1, single.rhs1),
                 (lifted.lhs2, single.lhs2), (lifted.rhs2, single.rhs2)):
        assert abs(a - b) <= 1e-9
