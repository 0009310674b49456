import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

import twjscc as tw
from twjscc.conditions import (
    AdaptiveChannelScheme,
    ConditionReport,
    HybridScheme,
    _UNIT_SOURCE,
    bayes_hybrid_decoders,
    embed_adaptive_scheme,
    eval_adaptive,
    eval_hybrid,
    eval_sscc,
    lift_hybrid,
    lift_sscc,
    wz_scheme_rate,
)
from twjscc.markov import build_chain, pair_marginal, reconstruction_distortions
from twjscc.probability import Alphabet, ConditionalPmf, mutual_information
from twjscc.region import (
    _lattice_levels,
    _rate_tables,
    _simplex_lattice,
    shannon_nonadaptive_bound,
    uncoded_configuration,
)

from util import (
    _pair_rates,
    binary_entropy,
    loop_simplex_lattice,
    bsc_codeword_scheme,
    one_shot_hybrid_law,
    random_adaptive_scheme,
    random_binary_channel,
    random_hybrid_scheme,
    random_joint_source,
    random_wz_scheme,
    single_block_hybrid,
)


def identity_copy_scheme(ch, src, d1, d2) -> HybridScheme:
    u = Alphabet(2, "u")
    pu1 = ConditionalPmf((src.s1,), (u,), np.eye(2))
    pu2 = ConditionalPmf((src.s2,), (u,), np.eye(2))
    f = np.array([[0, 1], [0, 1]])
    g1, g2 = bayes_hybrid_decoders(pu1, pu2, f, f, ch, src, d1, d2)
    return HybridScheme(pu1, pu2, f, f, g1, g2, d1.recon_alphabet, d2.recon_alphabet)


class TestConditionReport:
    def test_strictly_satisfied(self):
        r = ConditionReport.from_values(0.1, 0.5, 0.2, 0.4)
        assert r.satisfied and not r.boundary
        assert r.margin == pytest.approx(0.2)

    def test_boundary_flagged(self):
        r = ConditionReport.from_values(0.5, 0.5, 0.2, 0.4)
        assert not r.satisfied and r.boundary

    def test_violated(self):
        r = ConditionReport.from_values(0.6, 0.5, 0.2, 0.4)
        assert not r.satisfied and not r.boundary


class TestEvalHybrid:
    def test_identity_copies_on_crossed_pipes_sit_on_boundary(self):
        ch = tw.preset_crossed_bitpipes()
        src = tw.preset_independent_bernoulli(0.5, 0.5)
        d = tw.hamming(src.s1)
        hs = identity_copy_scheme(ch, src, d, d)
        ev = eval_hybrid(hs, ch, src, d, d)
        assert ev.report.lhs1 == pytest.approx(1.0, abs=1e-12)
        assert ev.report.rhs1 == pytest.approx(1.0, abs=1e-12)
        assert ev.report.boundary
        assert ev.distortions == (0.0, 0.0)

    def test_constant_codewords_zero_everything(self):
        ch = tw.preset_bmc()
        src = tw.preset_example2_source()
        d = tw.hamming(src.s1)
        one = Alphabet(1)
        pu = ConditionalPmf((src.s1,), (one,), np.ones((2, 1)))
        f = np.array([[0], [1]])  # x = s
        g1, g2 = bayes_hybrid_decoders(pu, pu, f, f, ch, src, d, d)
        hs = HybridScheme(pu, pu, f, f, g1, g2, d.recon_alphabet, d.recon_alphabet)
        ev = eval_hybrid(hs, ch, src, d, d)
        for v in (ev.report.lhs1, ev.report.rhs1, ev.report.lhs2, ev.report.rhs2):
            assert v == pytest.approx(0.0, abs=1e-12)
        # uncoded transmission decodes the product output with the own source
        assert ev.distortions == (0.0, 0.0)
        assert ev.report.boundary

    def test_simulated_bsc_scheme_decoders_are_pinned(self):
        # the benchmark's simulated scheme: crossed bit-pipes, fair coins, BSC(0.45) codewords
        ch = tw.preset_crossed_bitpipes()
        src = tw.preset_independent_bernoulli(0.5, 0.5)
        d = tw.hamming(src.s1)
        hs = bsc_codeword_scheme(ch, src, 0.45, d, d)
        want = [[[[0, 0], [0, 0]], [[0, 0], [0, 0]]], [[[0, 1], [0, 1]], [[0, 1], [0, 1]]]]
        for got in bayes_hybrid_decoders(hs.pu1_given_s1, hs.pu2_given_s2, hs.f1, hs.f2, ch, src, d, d):
            assert got.dtype == np.int64 and got.tolist() == want


class TestLiftHybrid:
    def test_report_equality_on_independent_sources(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            src = tw.preset_independent_bernoulli(rng.uniform(0.15, 0.85), rng.uniform(0.15, 0.85))
            ch = random_binary_channel(rng)
            d = tw.hamming(src.s1)
            hs = random_hybrid_scheme(rng, src, ch, d, d)
            hyb = single_block_hybrid(hs, ch, src, d, d)
            thm = eval_adaptive(lift_hybrid(hs, ch, src), ch, src)
            for a, b in (
                (thm.lhs1, hyb.report.lhs1), (thm.rhs1, hyb.report.rhs1),
                (thm.lhs2, hyb.report.lhs2), (thm.rhs2, hyb.report.rhs2),
            ):
                assert a == pytest.approx(b, abs=1e-9)

    def test_margin_equality_on_correlated_sources(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            src = random_joint_source(rng)
            ch = random_binary_channel(rng)
            d = tw.hamming(src.s1)
            hs = random_hybrid_scheme(rng, src, ch, d, d)
            hyb = single_block_hybrid(hs, ch, src, d, d)
            cfg = lift_hybrid(hs, ch, src)
            thm = eval_adaptive(cfg, ch, src)
            assert thm.rhs1 - thm.lhs1 == pytest.approx(hyb.report.rhs1 - hyb.report.lhs1, abs=1e-9)
            assert thm.rhs2 - thm.lhs2 == pytest.approx(hyb.report.rhs2 - hyb.report.lhs2, abs=1e-9)
            # the reduced report reproduces the single-block quantities
            simp = eval_adaptive(cfg, ch, src, simplify=True)
            assert simp.lhs1 == pytest.approx(hyb.report.lhs1, abs=1e-9)
            assert simp.rhs1 == pytest.approx(hyb.report.rhs1, abs=1e-9)

    def test_lifted_distortions_match_single_block(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            src = random_joint_source(rng)
            ch = random_binary_channel(rng)
            d = tw.hamming(src.s1)
            hs = random_hybrid_scheme(rng, src, ch, d, d, bayes=True)
            hyb = single_block_hybrid(hs, ch, src, d, d)
            cfg = lift_hybrid(hs, ch, src)
            lifted = reconstruction_distortions(build_chain(cfg, ch, src), d, d)
            assert lifted[0] == pytest.approx(hyb.distortions[0], abs=1e-9)
            assert lifted[1] == pytest.approx(hyb.distortions[1], abs=1e-9)

    def test_lifted_configuration_is_stationary(self):
        rng = np.random.default_rng(13)
        src = random_joint_source(rng)
        ch = random_binary_channel(rng)
        d = tw.hamming(src.s1)
        cfg = lift_hybrid(random_hybrid_scheme(rng, src, ch, d, d), ch, src)
        assert build_chain(cfg, ch, src).residual <= 1e-10

    def test_lifted_stationary_marginal_equals_single_block_law(self):
        # under the lifted dynamics, the previous pair together with the
        # current channel symbols carries exactly the single-block law
        rng = np.random.default_rng(21)
        for _ in range(5):
            src = random_joint_source(rng)
            ch = random_binary_channel(rng)
            d = tw.hamming(src.s1)
            hs = random_hybrid_scheme(rng, src, ch, d, d)
            cfg = lift_hybrid(hs, ch, src)
            sys = build_chain(cfg, ch, src)
            pi = cfg.prev_law.probs.ravel()
            marg = pair_marginal(sys, pi, (4, 5, 6, 7, 10, 11, 12, 13)).probs
            want = one_shot_hybrid_law(hs.pu1_given_s1, hs.pu2_given_s2, hs.f1, hs.f2, ch, src).probs
            assert np.abs(marg - want).sum() <= 1e-9


class TestEvalAdaptive:
    def test_constant_codeword_degenerate(self):
        ch = tw.preset_bmc()
        src = tw.preset_example2_source()
        d = tw.hamming(src.s1)
        cfg = uncoded_configuration(ch, src, d, d)
        rep = eval_adaptive(cfg, ch, src)
        assert rep.lhs1 == rep.rhs1 == rep.lhs2 == rep.rhs2 == 0.0
        assert not rep.satisfied and rep.boundary

    def test_identity_copies_on_bitpipes_saturate(self):
        ch = tw.preset_crossed_bitpipes()
        src = tw.preset_independent_bernoulli(0.5, 0.5)
        d = tw.hamming(src.s1)
        cfg = lift_hybrid(identity_copy_scheme(ch, src, d, d), ch, src)
        rep = eval_adaptive(cfg, ch, src)
        assert rep.lhs1 == pytest.approx(1.0, abs=1e-9)
        assert rep.rhs1 == pytest.approx(1.0, abs=1e-9)

    def test_rhs_monotone_in_conditioning_set(self):
        rng = np.random.default_rng(14)
        src = random_joint_source(rng)
        ch = random_binary_channel(rng)
        d = tw.hamming(src.s1)
        cfg = lift_hybrid(random_hybrid_scheme(rng, src, ch, d, d), ch, src)
        sys = build_chain(cfg, ch, src)
        pi = cfg.prev_law.probs.ravel()
        groups = [(13,), (11, 13), (5, 7, 11, 13), (1, 3, 5, 7, 9, 11, 13)]
        vals = []
        for g in groups:
            m = pair_marginal(sys, pi, (6,) + g)
            vals.append(mutual_information(m, (0,), tuple(range(1, len(g) + 1))))
        assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))

    def test_nonstationary_prev_law_rejected(self):
        ch = tw.preset_bmc()
        src = tw.preset_example2_source()
        d = tw.hamming(src.s1)
        cfg = uncoded_configuration(ch, src, d, d)
        bad = np.full(cfg.prev_law.shape, 1.0)
        bad /= bad.sum()
        cfg = dataclasses.replace(cfg, prev_law=tw.JointPmf(cfg.prev_law.axes, bad))
        with pytest.raises(ValueError, match="not stationary"):
            eval_adaptive(cfg, ch, src)

    def test_missing_prev_law_solved_internally(self):
        rng = np.random.default_rng(20)
        src = random_joint_source(rng)
        ch = random_binary_channel(rng)
        d = tw.hamming(src.s1)
        hs = random_hybrid_scheme(rng, src, ch, d, d)
        cfg = lift_hybrid(hs, ch, src)
        bare = dataclasses.replace(cfg, prev_law=None)
        a = eval_adaptive(cfg, ch, src)
        b = eval_adaptive(bare, ch, src)
        assert b.lhs1 == pytest.approx(a.lhs1, abs=1e-10)
        assert b.rhs1 == pytest.approx(a.rhs1, abs=1e-10)


def _pipes_identity_scheme():
    """Crossed bit-pipes and the memoryless scheme x_j = v_j on them."""
    ch = tw.preset_crossed_bitpipes()
    v = Alphabet(2, "v")
    gamma = np.ascontiguousarray(np.broadcast_to(np.arange(2)[:, None, None], (2, 2, 4)))
    scheme = AdaptiveChannelScheme(
        v, v, np.full(2, 0.5), np.full(2, 0.5), gamma, gamma,
        ch.x1, ch.x2, ch.y1, ch.y2,
    )
    return scheme, ch


class TestSeparateCoding:
    def test_memoryless_identity_on_bitpipes_carries_one_bit(self):
        scheme, ch = _pipes_identity_scheme()
        rep = eval_sscc(scheme, 0.5, 0.5, ch)
        assert rep.rhs1 == pytest.approx(1.0, abs=1e-9)
        assert rep.rhs2 == pytest.approx(1.0, abs=1e-9)
        assert rep.satisfied

    def test_nonstationary_prev_law_of_embedded_scheme_rejected(self):
        scheme, ch = _pipes_identity_scheme()
        cfg = embed_adaptive_scheme(scheme)
        # uniform mass on previous channel pairs that disagree with prev_v
        shape = tuple(a.size for a in cfg.prev_axes)
        bad = tw.JointPmf(cfg.prev_axes, np.full(shape, 1.0 / np.prod(shape)))
        with pytest.raises(ValueError, match="not stationary"):
            eval_adaptive(dataclasses.replace(cfg, prev_law=bad), ch, _UNIT_SOURCE)

    @pytest.mark.parametrize("field, rate1, rate2", [
        ("rate1", True, 0.5),
        ("rate2", 0.5, False),
        ("rate1", "0.5", 0.5),
        ("rate2", 0.5, None),
        ("rate1", 0.5j, 0.5),
    ])
    def test_non_real_rate_rejected(self, field, rate1, rate2):
        scheme, ch = _pipes_identity_scheme()
        with pytest.raises(ValueError, match=field):
            eval_sscc(scheme, rate1, rate2, ch)

    def test_zero_rate_always_satisfied_when_rhs_positive(self):
        scheme, ch = _pipes_identity_scheme()
        rep = eval_sscc(scheme, 0.0, 0.0, ch)
        assert rep.satisfied

    def test_bmc_cannot_carry_example2_rates(self):
        # lossless needs 2/3 bits while the product channel's symmetric
        # rates stay below the 0.646 outer-bound constant
        ch = tw.preset_bmc()
        lhs = 2 / 3
        rng = np.random.default_rng(16)
        for _ in range(5):
            scheme = random_adaptive_scheme(rng, ch)
            rep = eval_sscc(scheme, lhs, lhs, ch)
            assert max(rep.rhs1, rep.rhs2) <= 0.646
            assert not rep.satisfied

    def test_lift_sscc_matches_eval_on_independent_sources(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            src = tw.preset_independent_bernoulli(rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8))
            ch = random_binary_channel(rng)
            scheme = random_adaptive_scheme(rng, ch)
            wz1 = random_wz_scheme(rng, src, 1)
            wz2 = random_wz_scheme(rng, src, 2)
            r1 = wz_scheme_rate(wz1, src, 1)
            r2 = wz_scheme_rate(wz2, src, 2)
            cor = eval_sscc(scheme, r1, r2, ch)
            thm = eval_adaptive(lift_sscc(scheme, wz1, wz2, ch, src), ch, src)
            for a, b in ((thm.lhs1, cor.lhs1), (thm.rhs1, cor.rhs1), (thm.lhs2, cor.lhs2), (thm.rhs2, cor.rhs2)):
                assert a == pytest.approx(b, abs=1e-9)

    def test_lifted_sscc_distortions_match_wz_decoders(self):
        rng = np.random.default_rng(18)
        src = random_joint_source(rng)
        ch = random_binary_channel(rng)
        d = tw.hamming(src.s1)
        scheme = random_adaptive_scheme(rng, ch)
        wz1 = random_wz_scheme(rng, src, 1)
        wz2 = random_wz_scheme(rng, src, 2)
        cfg = lift_sscc(scheme, wz1, wz2, ch, src)
        lifted = reconstruction_distortions(build_chain(cfg, ch, src), d, d)
        # expected: E[d(S1, h(S2, T1))] under the one-shot law, and mirrored
        def expected(wz, which):
            ps = src.law.probs if which == 1 else src.law.probs.T
            joint = ps[:, :, None] * wz.p_t_given_s.probs[:, None, :]
            idx = np.indices(joint.shape, sparse=True)
            return float(np.sum(joint * d.table[idx[0], wz.h[idx[1], idx[2]]]))

        assert lifted[0] == pytest.approx(expected(wz1, 1), abs=1e-9)
        assert lifted[1] == pytest.approx(expected(wz2, 2), abs=1e-9)

    def test_margin_ordering_on_correlated_sources(self):
        # on correlated sources the separate-coding margin is the more
        # conservative one
        rng = np.random.default_rng(19)
        src = tw.preset_example2_source()
        ch = random_binary_channel(rng)
        scheme = random_adaptive_scheme(rng, ch)
        wz1 = random_wz_scheme(rng, src, 1)
        wz2 = random_wz_scheme(rng, src, 2)
        r1 = max(0.0, wz_scheme_rate(wz1, src, 1))
        r2 = max(0.0, wz_scheme_rate(wz2, src, 2))
        cor = eval_sscc(scheme, r1, r2, ch)
        thm = eval_adaptive(lift_sscc(scheme, wz1, wz2, ch, src), ch, src)
        assert thm.rhs1 - thm.lhs1 >= cor.rhs1 - cor.lhs1 - 1e-9
        assert thm.rhs2 - thm.lhs2 >= cor.rhs2 - cor.lhs2 - 1e-9


class TestShannonBound:
    def test_bmc_symmetric_point(self):
        res = shannon_nonadaptive_bound(tw.preset_bmc(), q_size=1)
        # independent oracle: fine 1-d scan of a * h_b(a)
        grid = np.linspace(0.0, 1.0, 200001)
        oracle = float(np.max(grid * np.array([binary_entropy(a) for a in grid])))
        assert res["symmetric_max"] == pytest.approx(oracle, abs=2e-3)

    def test_crossed_pipes_reach_one(self):
        res = shannon_nonadaptive_bound(tw.preset_crossed_bitpipes(), q_size=2)
        assert res["symmetric_max"] == pytest.approx(1.0, abs=1e-9)

    def test_bmc_below_outer_bound(self):
        res = shannon_nonadaptive_bound(tw.preset_bmc(), q_size=4)
        assert res["symmetric_max"] < 0.646

    def test_monotone_in_time_sharing(self):
        r1 = shannon_nonadaptive_bound(tw.preset_bmc(), q_size=1)
        r2 = shannon_nonadaptive_bound(tw.preset_bmc(), q_size=2)
        r4 = shannon_nonadaptive_bound(tw.preset_bmc(), q_size=4)
        assert r2["symmetric_max"] >= r1["symmetric_max"] - 1e-12
        assert r4["symmetric_max"] >= r2["symmetric_max"] - 1e-12

    def test_frontier_sorted_rate_pairs(self):
        res = shannon_nonadaptive_bound(tw.preset_bmc(), q_size=2, grid=11)
        fr = res["frontier"]
        assert all(fr[i][0] <= fr[i + 1][0] for i in range(len(fr) - 1))
        assert all(r1 >= 0 and r2 >= 0 for r1, r2 in fr)

    @pytest.mark.parametrize("grid", [1, 0, -5, 2.5, True, "2"])
    def test_grid_below_two_refused(self, grid):
        # a grid below 2 would otherwise search a 2-point lattice and report
        # 0.4427 on BMC, against 0.6169 at the default grid; a bool or
        # non-integer is refused by name
        match = "grid must be >= 2" if type(grid) is int else re.escape(f"grid must be an int, got {grid!r}")
        with pytest.raises(ValueError, match=match):
            shannon_nonadaptive_bound(tw.preset_bmc(), q_size=1, grid=grid)

    @pytest.mark.parametrize("q_size", [0, -2, 2.5, True, "2"])
    def test_q_size_below_one_refused(self, q_size):
        # q_size=True and 2.5 were once accepted and echoed back in the result
        match = ("q_size must be >= 1" if type(q_size) is int
                 else re.escape(f"q_size must be an int, got {q_size!r}"))
        with pytest.raises(ValueError, match=match):
            shannon_nonadaptive_bound(tw.preset_bmc(), q_size=q_size, grid=3)

    def test_deterministic_given_same_arguments(self):
        a = shannon_nonadaptive_bound(tw.preset_bmc(), q_size=2, grid=13)
        b = shannon_nonadaptive_bound(tw.preset_bmc(), q_size=2, grid=13)
        assert a == b
        # numpy integers are accepted as ints
        assert shannon_nonadaptive_bound(tw.preset_bmc(), q_size=np.int64(2), grid=np.uint8(13)) == a

    @pytest.mark.parametrize("grid", [11, 21])
    def test_bitpipes_single_law_frontier_is_the_corner(self, grid):
        res = shannon_nonadaptive_bound(tw.preset_crossed_bitpipes(), q_size=1, grid=grid)
        assert res["frontier"] == [(1.0, 1.0)]

    @pytest.mark.parametrize("q_size", [1, 2])
    @pytest.mark.parametrize("preset", ["bmc", "crossed_bitpipes", "dueck"])
    def test_frontier_has_no_dominated_point(self, preset, q_size):
        fr = shannon_nonadaptive_bound(getattr(tw, f"preset_{preset}")(), q_size=q_size)["frontier"]
        for a in fr:
            assert not any(b != a and b[0] >= a[0] and b[1] >= a[1] for b in fr), a


def _random_channel(rng, nx1, nx2, ny1, ny2) -> tw.TwoWayChannel:
    x1, x2, y1, y2 = (Alphabet(k, nm) for k, nm in ((nx1, "x1"), (nx2, "x2"), (ny1, "y1"), (ny2, "y2")))
    law = rng.gamma(0.5, 1.0, size=(nx1, nx2, ny1, ny2))
    law /= law.sum(axis=(2, 3), keepdims=True)
    return tw.TwoWayChannel(x1, x2, y1, y2, ConditionalPmf((x1, x2), (y1, y2), law))


class TestRateTables:
    """_rate_tables against the per-pair entropy oracle, over whole sweeps."""

    @staticmethod
    def _check(ch, c1, c2):
        rates1, rates2 = _rate_tables(ch.law.probs, c1, c2)
        assert rates1.shape == rates2.shape == (len(c1), len(c2))
        oracle = np.array([[_pair_rates(ch.law.probs, p1, p2) for p2 in c2] for p1 in c1])
        np.testing.assert_allclose(rates1, oracle[..., 0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(rates2, oracle[..., 1], rtol=0, atol=1e-12)

    @staticmethod
    def _lattices(ch, grid):
        return tuple(_simplex_lattice(x.size, _lattice_levels(x.size, grid)) for x in (ch.x1, ch.x2))

    @pytest.mark.parametrize("alpha", [1.0, 0.1, 0.01])
    @pytest.mark.parametrize("preset", ["bmc", "crossed_bitpipes", "dueck"])
    def test_preset_lattices_and_refined_rows(self, preset, alpha):
        ch = getattr(tw, f"preset_{preset}")()
        lat1, lat2 = self._lattices(ch, 11)
        rng = np.random.default_rng(5)
        best1, best2 = lat1[rng.integers(len(lat1))], lat2[rng.integers(len(lat2))]
        self._check(ch, (1 - alpha) * best1 + alpha * lat1, (1 - alpha) * best2 + alpha * lat2)

    @pytest.mark.parametrize("sizes", [(3, 3, 2, 4), (3, 2, 4, 3)])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_channels_with_unequal_outputs(self, sizes, seed):
        rng = np.random.default_rng(seed)
        ch = _random_channel(rng, *sizes)
        lat1, lat2 = self._lattices(ch, 5)
        c1 = np.concatenate([lat1, rng.dirichlet(np.ones(sizes[0]), size=4)])
        c2 = np.concatenate([lat2, rng.dirichlet(np.ones(sizes[1]), size=4)])
        self._check(ch, c1, c2)


SHANNON_BOUNDS = Path(__file__).with_name("shannon_bounds.json")


def _bound_channels() -> dict:
    """The three presets and six seeded random channels of 2-3 letters per alphabet
    (a 3-letter input on at most one side, which keeps the corpus under a second)."""
    chans = {name: getattr(tw, f"preset_{name}")() for name in ("bmc", "crossed_bitpipes", "dueck")}
    sizes = [(2, 2, 2, 3), (2, 2, 3, 2), (2, 2, 3, 3), (3, 2, 2, 3), (2, 3, 3, 2), (2, 2, 2, 2)]
    for seed, size in enumerate(sizes):
        chans[f"random{seed}"] = _random_channel(np.random.default_rng(300 + seed), *size)
    return chans


def _pinned_bounds() -> dict:
    """shannon_nonadaptive_bound on every `_bound_channels` channel at q_size in
    (1, 2, 4) and grid in (2, 3, 11, 21), as `SHANNON_BOUNDS` holds it."""
    return {f"{name}/q={q}/grid={grid}": shannon_nonadaptive_bound(ch, q_size=q, grid=grid)
            for name, ch in _bound_channels().items() for q in (1, 2, 4) for grid in (2, 3, 11, 21)}


class TestPinnedBound:
    def test_bounds_match_pinned_corpus(self):
        # the symmetric maximum of one product input is exact; a hull crossing
        # and the frontier's hull vertices may move by roundoff alone
        pinned = json.loads(SHANNON_BOUNDS.read_text())
        got = _pinned_bounds()
        assert len(got) == 108 and got.keys() == pinned.keys()
        for key, res in got.items():
            want = pinned[key]
            if res["q_size"] == 1:
                assert res["symmetric_max"] == want["symmetric_max"], key
            else:
                assert abs(res["symmetric_max"] - want["symmetric_max"]) <= 1e-12, key
            assert len(res["frontier"]) == len(want["frontier"]), key
            np.testing.assert_allclose(res["frontier"], want["frontier"], rtol=0, atol=1e-12, err_msg=key)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_lattice_equals_loop_oracle(self, k):
        for levels in range(1, 14):
            got, want = _simplex_lattice(k, levels), loop_simplex_lattice(k, levels)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want, err_msg=f"k={k} levels={levels}")


if __name__ == "__main__":  # rewrite the pinned file: PYTHONPATH=src python tests/test_conditions.py
    SHANNON_BOUNDS.write_text(json.dumps(_pinned_bounds(), indent=1) + "\n")
