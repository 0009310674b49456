"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import dataclasses
import time

import numpy as np
import pytest

import twjscc as tw
from twjscc.conditions import (
    AdaptiveChannelScheme,
    eval_adaptive,
    eval_sscc,
    lift_hybrid,
    lift_sscc,
    wz_scheme_rate,
)
from twjscc.markov import (
    build_chain,
    pair_marginal,
    stationary_prev_law,
)
from twjscc.probability import Alphabet, bernoulli
from twjscc.rate_distortion import rd_function, wz_function
from twjscc.region import shannon_nonadaptive_bound, uncoded_configuration
from twjscc.simulate import SimParams, run_simulation

from util import (
    binary_entropy,
    bsc_codeword_scheme,
    check_configuration,
    conditional_entropy,
    entropy,
    random_adaptive_scheme,
    random_binary_channel,
    random_configuration,
    random_hybrid_scheme,
    random_joint_source,
    random_wz_scheme,
    single_block_hybrid,
)

def _report(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} - {desc}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {desc} {detail}"


def test_criterion_1_biased_coin_entropy():
    h = entropy(bernoulli(0.89))
    ok = abs(h - 0.4999) <= 1e-3
    _report(1, "entropy of Ber(0.89) is 0.4999 +/- 1e-3", ok, f"H={h:.6f}")


def test_criterion_2_correlated_source_rates():
    src = tw.preset_example2_source()
    h12 = conditional_entropy(src.law, 0, 1)
    h21 = conditional_entropy(src.law, 1, 0)
    wz = wz_function(src, 1, tw.hamming(src.s1), 0.0)
    ok = (
        abs(h12 - 0.666667) <= 1e-9 + 4e-7  # 2/3 to the stated decimals
        and abs(h12 - 2 / 3) <= 1e-9
        and abs(h21 - 2 / 3) <= 1e-9
        and abs(wz.rate - 0.6667) <= 1e-3
    )
    _report(2, "conditional entropies 0.666667 +/- 1e-9 and lossless WZ rate 0.6667 +/- 1e-3",
            ok, f"H(S1|S2)={h12:.9f}, R_wz(0)={wz.rate:.6f}")


@pytest.fixture(scope="module")
def uncoded_bmc_run():
    """Criterion 3's uncoded BMC pipeline and its 500-trial simulation report.

    Criterion 8's correct-decoding gate counts these trials too, so both
    tests share one run whatever order they are selected in.
    """
    ch = tw.preset_bmc()
    src = tw.preset_example2_source()
    d = tw.hamming(src.s1)
    cfg = uncoded_configuration(ch, src, d, d)
    params = SimParams(n=64, blocks=3, eps=0.3, eps1=0.15, rate1=0.0, rate2=0.0,
                       seed=7, trials=500)
    return cfg, ch, src, d, run_simulation(cfg, ch, src, d, d, params)


def test_criterion_3_uncoded_pipeline_lossless(uncoded_bmc_run):
    cfg, ch, src, d, rep = uncoded_bmc_run
    feas = check_configuration(cfg, ch, src, d, d, 0.0, 0.0)
    ok = (
        feas.feasible
        and rep.distortion1 == 0.0
        and rep.distortion2 == 0.0
        and rep.trials == 500
    )
    _report(3, "uncoded product-channel pipeline: feasible at (0,0) and exactly lossless "
               "over 500 trials", ok,
            f"residual={feas.stationary_residual:.1e}, d=({rep.distortion1},{rep.distortion2})")


def test_criterion_4_nonadaptive_symmetric_maximum():
    res = shannon_nonadaptive_bound(tw.preset_bmc(), q_size=1)
    grid = np.linspace(0.0, 1.0, 1_000_001)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = -grid * np.log2(np.where(grid > 0, grid, 1)) - (1 - grid) * np.log2(
            np.where(grid < 1, 1 - grid, 1)
        )
    oracle = float(np.max(grid * ent))
    got = res["symmetric_max"]
    ok = abs(got - oracle) <= 2e-3 and abs(got - 0.617) <= 2e-3 and got < 0.646
    _report(4, "product-channel symmetric maximum 0.617 +/- 0.002, below the 0.646 constant",
            ok, f"got={got:.6f}, oracle={oracle:.6f}")


def test_criterion_5_reduction_equalities():
    rng = np.random.default_rng(2024)
    worst_hybrid = 0.0
    for _ in range(100):
        src = tw.preset_independent_bernoulli(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
        ch = random_binary_channel(rng)
        d = tw.hamming(src.s1)
        hs = random_hybrid_scheme(rng, src, ch, d, d)
        hyb = single_block_hybrid(hs, ch, src, d, d).report
        thm = eval_adaptive(lift_hybrid(hs, ch, src), ch, src)
        worst_hybrid = max(
            worst_hybrid,
            abs(thm.lhs1 - hyb.lhs1), abs(thm.rhs1 - hyb.rhs1),
            abs(thm.lhs2 - hyb.lhs2), abs(thm.rhs2 - hyb.rhs2),
        )
    worst_margin = 0.0
    for _ in range(40):
        src = random_joint_source(rng)
        ch = random_binary_channel(rng)
        d = tw.hamming(src.s1)
        hs = random_hybrid_scheme(rng, src, ch, d, d)
        hyb = single_block_hybrid(hs, ch, src, d, d).report
        thm = eval_adaptive(lift_hybrid(hs, ch, src), ch, src)
        worst_margin = max(
            worst_margin,
            abs((thm.rhs1 - thm.lhs1) - (hyb.rhs1 - hyb.lhs1)),
            abs((thm.rhs2 - thm.lhs2) - (hyb.rhs2 - hyb.lhs2)),
        )
    worst_sscc = 0.0
    for _ in range(20):
        src = tw.preset_independent_bernoulli(rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8))
        ch = random_binary_channel(rng)
        scheme = random_adaptive_scheme(rng, ch)
        wz1 = random_wz_scheme(rng, src, 1)
        wz2 = random_wz_scheme(rng, src, 2)
        cor = eval_sscc(scheme, wz_scheme_rate(wz1, src, 1), wz_scheme_rate(wz2, src, 2), ch)
        thm = eval_adaptive(lift_sscc(scheme, wz1, wz2, ch, src), ch, src)
        worst_sscc = max(
            worst_sscc,
            abs(thm.lhs1 - cor.lhs1), abs(thm.rhs1 - cor.rhs1),
            abs(thm.lhs2 - cor.lhs2), abs(thm.rhs2 - cor.rhs2),
        )
    ok = worst_hybrid <= 1e-9 and worst_margin <= 1e-9 and worst_sscc <= 1e-9
    _report(5, "lifting reductions: 100 hybrid schemes and 20 separate-coding instances "
               "match their single-block evaluators within 1e-9", ok,
            f"hybrid={worst_hybrid:.1e}, margins={worst_margin:.1e}, sscc={worst_sscc:.1e}")


def test_criterion_6_stationarity_suite():
    rng = np.random.default_rng(7)
    worst_res = 0.0
    worst_pair = 0.0
    checked = 0

    def check(cfg, ch, src):
        nonlocal worst_res, worst_pair, checked
        prev = stationary_prev_law(cfg, ch, src)
        cfg2 = dataclasses.replace(cfg, prev_law=prev)
        sys = build_chain(cfg2, ch, src)
        worst_res = max(worst_res, sys.residual)
        pi = prev.probs.ravel()
        marg = pair_marginal(sys, pi, (4, 5, 6, 7, 8, 9)).probs
        worst_pair = max(worst_pair, float(np.abs(marg - prev.probs).sum()))
        checked += 1

    d2 = tw.hamming(Alphabet(2))
    presets = [
        (tw.preset_bmc(), tw.preset_example2_source()),
        (tw.preset_bmc(), tw.preset_independent_bernoulli(0.89, 0.89)),
        (tw.preset_crossed_bitpipes(), tw.preset_example2_source()),
        (tw.preset_crossed_bitpipes(), tw.preset_independent_bernoulli(0.89, 0.89)),
        (tw.preset_dueck(), tw.preset_independent_bernoulli(0.89, 0.89)),
    ]
    for ch, src in presets:
        check(uncoded_configuration(ch, src, d2, d2), ch, src)
    for _ in range(100):
        ch = random_binary_channel(rng)
        src = random_joint_source(rng)
        check(random_configuration(rng, ch, src), ch, src)
    ok = worst_res <= 1e-10 and worst_pair <= 1e-10
    _report(6, f"stationary previous-block laws for {checked} systems: residual and "
               "consecutive-pair identity within 1e-10", ok,
            f"residual={worst_res:.1e}, pair={worst_pair:.1e}")


def test_criterion_7_rate_distortion_oracle():
    p = bernoulli(0.5)
    d = tw.hamming(p.axes[0])
    worst = 0.0
    for target in (0.0, 0.05, 0.11, 0.25, 0.5):
        want = 1 - binary_entropy(target) if target < 0.5 else 0.0
        worst = max(worst, abs(rd_function(p, d, target) - want))
    ok = worst <= 1e-4
    _report(7, "binary symmetric rate-distortion matches 1 - h_b(D) at five targets "
               "within 1e-4", ok, f"worst={worst:.2e}")


def test_criterion_8_simulator_error_trend(uncoded_bmc_run):
    rep3 = uncoded_bmc_run[-1]
    applicable, violations = rep3.claim_applicable, rep3.claim_violations
    ch = tw.preset_crossed_bitpipes()
    src = tw.preset_independent_bernoulli(0.5, 0.5)
    d = tw.hamming(src.s1)
    cfg = lift_hybrid(bsc_codeword_scheme(ch, src, 0.45, d, d), ch, src)
    margin = eval_adaptive(cfg, ch, src).margin
    totals = {}
    for n in (64, 256):
        params = SimParams(n=n, blocks=3, eps=0.3, eps1=0.15, rate1=0.04, rate2=0.04,
                           seed=3, trials=500)
        rep = run_simulation(cfg, ch, src, d, d, params)
        totals[n] = rep.total_error_events
        applicable += rep.claim_applicable
        violations += rep.claim_violations
    ok = (
        margin >= 0.1
        and totals[256] < totals[64]
        and violations == 0
        and applicable > 0
    )
    _report(8, "error events strictly decrease from n=64 to n=256 at margin >= 0.1, and the "
               "correct-decoding implication held in every applicable trial", ok,
            f"margin={margin:.3f}, events {totals[64]} -> {totals[256]}, "
            f"claim {violations}/{applicable} violations")


def test_criterion_9_paired_input_channel_machinery():
    t0 = time.time()
    dueck = tw.preset_dueck()
    assert dueck.x1.size == 4 and dueck.y1.size == 8
    bound = shannon_nonadaptive_bound(dueck, q_size=2, grid=11)
    sym = bound["symmetric_max"]

    # user-supplied adaptive channel scheme: codeword bit on the first input
    # coordinate, second coordinate idle
    v = Alphabet(2, "v")
    nio = dueck.x1.size * dueck.y1.size
    gamma = np.ascontiguousarray(np.broadcast_to((2 * np.arange(2))[:, None, None], (2, 2, nio)))
    scheme = AdaptiveChannelScheme(v, v, np.full(2, 0.5), np.full(2, 0.5), gamma, gamma,
                                   dueck.x1, dueck.x2, dueck.y1, dueck.y2)
    rate = entropy(bernoulli(0.89))
    rep = eval_sscc(scheme, rate, rate, dueck)
    quantities = (rep.lhs1, rep.rhs1, rep.lhs2, rep.rhs2)
    ok = (
        np.isfinite(sym)
        and sym > 0.0
        and all(np.isfinite(q) for q in quantities)
        and rep.satisfied  # H(S_j) ~ 0.4999 clears the 0.5-bit adaptive rate
    )
    _report(9, "paired-input channel: preset loads, the non-adaptive optimizer emits a "
               "symmetric maximum, and the separate-coding evaluator reports all four "
               "quantities for a user-supplied scheme", ok,
            f"sym={sym:.4f}, report=({rep.lhs1:.4f},{rep.rhs1:.4f},{rep.lhs2:.4f},"
            f"{rep.rhs2:.4f}), {time.time()-t0:.0f}s")
