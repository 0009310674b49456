import math

import numpy as np
import pytest

import twjscc as tw
import twjscc.rate_distortion as rd
from twjscc.conditions import wz_scheme_rate
from twjscc.probability import Alphabet, bernoulli
from twjscc.rate_distortion import (
    InfeasibleDistortion,
    rd_curve,
    rd_function,
    wz_curve,
    wz_function,
)

from util import binary_entropy, conditional_entropy, entropy


@pytest.fixture
def binary_symmetric():
    p = bernoulli(0.5)
    return p, tw.hamming(p.axes[0])


class TestRdFunction:
    def test_binary_symmetric_closed_form(self, binary_symmetric):
        p, d = binary_symmetric
        assert rd_function(p, d, 0.11) == pytest.approx(1 - binary_entropy(0.11), abs=1e-4)

    def test_zero_rate_above_constant_guess(self, binary_symmetric):
        p, d = binary_symmetric
        assert rd_function(p, d, 0.5) == 0.0
        assert rd_function(p, d, 0.75) == 0.0

    def test_lossless_limit(self, binary_symmetric):
        p, d = binary_symmetric
        assert rd_function(p, d, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_biased_source_lossless(self):
        p = bernoulli(0.89)
        d = tw.hamming(p.axes[0])
        assert rd_function(p, d, 0.0) == pytest.approx(binary_entropy(0.89), abs=1e-12)

    def test_infeasible_distortion_rejected(self, binary_symmetric):
        p, d = binary_symmetric
        with pytest.raises(InfeasibleDistortion):
            rd_function(p, d, -0.01)

    @pytest.mark.parametrize("source", [[np.nan, np.nan], [0.5, np.nan]])
    def test_nan_source_refused(self, source):
        # NaN passed the old sum and sign checks, and the rate came back inf
        with pytest.raises(ValueError, match="source: pmf entries must be finite and nonnegative"):
            rd_function(source, tw.hamming(Alphabet(2)), 0.1)

    def test_ternary_uniform_interior_point_below_entropy(self):
        p = tw.JointPmf((Alphabet(3),), np.full(3, 1 / 3))
        d = tw.hamming(p.axes[0])
        r = rd_function(p, d, 0.2)
        assert 0.0 < r < np.log2(3)


class TestRdCurve:
    def test_curve_matches_closed_form(self, binary_symmetric):
        p, d = binary_symmetric
        grid = [0.0, 0.05, 0.11, 0.25, 0.5]
        curve = rd_curve(p, d, grid)
        for (dd, rr) in curve.points:
            want = 1 - binary_entropy(dd) if dd < 0.5 else 0.0
            assert rr == pytest.approx(want, abs=1e-4)

    def test_curve_non_increasing(self, binary_symmetric):
        p, d = binary_symmetric
        curve = rd_curve(p, d, np.linspace(0, 0.6, 13))
        rates = [r for _, r in curve.points]
        assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))

    def test_endpoints_match_single_evaluations(self, binary_symmetric):
        p, d = binary_symmetric
        curve = rd_curve(p, d, [0.0, 0.3])
        assert curve.points[0][1] == pytest.approx(rd_function(p, d, 0.0), abs=1e-9)
        assert curve.points[1][1] == pytest.approx(rd_function(p, d, 0.3), abs=1e-9)


class TestWzFunction:
    def test_example2_lossless_rate(self):
        src = tw.preset_example2_source()
        res = wz_function(src, 1, tw.hamming(src.s1), 0.0)
        assert res.rate == pytest.approx(2 / 3, abs=1e-9)
        assert res.distortion == 0.0
        assert res.scheme.t.size == 3

    def test_symmetric_source_sides_agree(self):
        src = tw.preset_example2_source()
        r1 = wz_function(src, 1, tw.hamming(src.s1), 0.0).rate
        r2 = wz_function(src, 2, tw.hamming(src.s2), 0.0).rate
        assert r1 == pytest.approx(r2, abs=1e-9)

    def test_independent_side_information_matches_rd(self):
        src = tw.preset_independent_bernoulli(0.5, 0.5)
        d = tw.hamming(src.s1)
        for target in (0.05, 0.2):
            wz = wz_function(src, 1, d, target).rate
            rd = rd_function(bernoulli(0.5), d, target)
            assert wz == pytest.approx(rd, abs=1e-6)

    def test_max_distortion_needs_no_rate(self):
        src = tw.preset_example2_source()
        d = tw.hamming(src.s1)
        assert wz_function(src, 1, d, d.d_max).rate == 0.0

    def test_infeasible_target_rejected(self):
        src = tw.preset_example2_source()
        with pytest.raises(InfeasibleDistortion):
            wz_function(src, 1, tw.hamming(src.s1), -0.1)

    def test_rate_sandwich(self):
        # 0 <= R_wz <= R <= H for matching targets
        rng = np.random.default_rng(1)
        for _ in range(3):
            law = rng.dirichlet(np.ones(4)).reshape(2, 2)
            sa = Alphabet(2)
            src = tw.JointSource(sa, sa, tw.JointPmf((sa, sa), law))
            d = tw.hamming(sa)
            marg = tw.marginalize(src.law, (0,))
            target = 0.1
            r_wz = wz_function(src, 1, d, target).rate
            r_rd = rd_function(marg, d, target)
            assert -1e-12 <= r_wz <= r_rd + 1e-9
            assert r_rd <= entropy(marg) + 1e-9

    def test_lossless_rate_is_conditional_entropy(self):
        rng = np.random.default_rng(2)
        for _ in range(3):
            law = rng.dirichlet(np.ones(4)).reshape(2, 2)
            sa = Alphabet(2)
            src = tw.JointSource(sa, sa, tw.JointPmf((sa, sa), law))
            res = wz_function(src, 1, tw.hamming(sa), 0.0)
            assert res.rate == pytest.approx(conditional_entropy(src.law, 0, 1), abs=1e-9)

    def test_ternary_lossless_rate_is_conditional_entropy(self):
        rng = np.random.default_rng(3)
        sa = Alphabet(3)
        for _ in range(2):
            src = tw.JointSource(sa, sa, tw.JointPmf((sa, sa), rng.dirichlet(np.ones(9)).reshape(3, 3)))
            res = wz_function(src, 1, tw.hamming(sa), 0.0)
            assert res.rate == pytest.approx(conditional_entropy(src.law, 0, 1), abs=1e-9)
            assert res.distortion == 0.0 and res.scheme.t.size == 4


def _dsbs(p0):
    sa = Alphabet(2)
    law = np.array([[1 - p0, p0], [p0, 1 - p0]]) / 2
    return tw.JointSource(sa, sa, tw.JointPmf((sa, sa), law))


def _dsbs_rate(p0, target):
    """Wyner and Ziv (1976): the lower convex envelope of h(p0 * D) - h(D)
    and the point (p0, 0), read at target as the least value over the
    chords from (D1, g(D1)), D1 <= target, to (p0, 0)."""
    def h(x):
        return -x * np.log2(x) - (1 - x) * np.log2(1 - x)

    d1 = np.linspace(0.0, target, 200_001)[1:]
    g = h(p0 * (1 - d1) + d1 * (1 - p0)) - h(d1)
    return float(np.min(g * (p0 - target) / (p0 - d1)))


def _check_scheme(res, src, which, d, target):
    """The returned scheme's own rate and distortion, recomputed."""
    ps = src.law.probs if which == 1 else src.law.probs.T
    p_t = res.scheme.p_t_given_s.probs
    assert wz_scheme_rate(res.scheme, src, which) == pytest.approx(res.rate, abs=1e-9)
    cost = d.table[:, res.scheme.h]  # (s, s_other, t)
    dist = float(np.einsum("so,st,sot->", ps, p_t, cost))
    assert dist <= target + 1e-12
    assert res.distortion == pytest.approx(dist, abs=1e-12)


class TestWzClosedForms:
    @pytest.mark.parametrize("p0", [0.1, 0.25])
    @pytest.mark.parametrize("target", [0.02, 0.05, 0.08])
    def test_doubly_symmetric_binary_source(self, p0, target):
        src = _dsbs(p0)
        res = wz_function(src, 1, tw.hamming(src.s1), target)
        assert res.rate == pytest.approx(_dsbs_rate(p0, target), abs=1e-9)

    @pytest.mark.parametrize("p", [0.11, 0.5])
    @pytest.mark.parametrize("target", [0.02, 0.05])
    def test_independent_side_information_is_rd(self, p, target):
        src = tw.preset_independent_bernoulli(p, 0.3)
        res = wz_function(src, 1, tw.hamming(src.s1), target)
        assert res.rate == pytest.approx(binary_entropy(p) - binary_entropy(target), abs=1e-9)

    def test_constant_side_information_is_rd(self):
        src = tw.preset_independent_bernoulli(0.5, 0.0)
        d = tw.hamming(src.s1)
        assert wz_function(src, 1, d, 0.1).rate == pytest.approx(rd_function(bernoulli(0.5), d, 0.1), abs=1e-9)


class TestWzSchemes:
    @pytest.mark.parametrize("ns, seed", [(2, 0), (2, 1), (2, 2), (2, 3), (3, 4)])
    def test_scheme_recomputes_rate_and_distortion(self, ns, seed):
        rng = np.random.default_rng(seed)
        sa = Alphabet(ns)
        src = tw.JointSource(sa, sa, tw.JointPmf((sa, sa), rng.dirichlet(np.ones(ns * ns)).reshape(ns, ns)))
        d = tw.DistortionMeasure(sa, sa, rng.uniform(0.0, 1.0, (ns, ns)) * (1 - np.eye(ns)))
        for which in (1, 2):
            ps = src.law.probs if which == 1 else src.law.probs.T
            d_zero = float((ps.T @ d.table).min(axis=1).sum())  # best guess from the side alone
            for target in rng.uniform(0.0, d_zero, size=2 if ns == 2 else 1):
                _check_scheme(wz_function(src, which, d, target), src, which, d, target)

    def test_four_letter_source_alternates_from_the_constant_maps(self):
        sa = Alphabet(4)
        law = np.random.default_rng(5).dirichlet(np.ones(16)).reshape(4, 4)
        src = tw.JointSource(sa, sa, tw.JointPmf((sa, sa), law))
        d = tw.hamming(sa)
        assert math.comb(4 ** 4, 5) > rd.WZ_MAX_DECODERS
        for target in (0.0, 0.1, 0.3):
            res = wz_function(src, 1, d, target)
            assert res.rate <= rd_function(tw.marginalize(src.law, (0,)), d, target) + 1e-9
            _check_scheme(res, src, 1, d, target)


    def test_alternation_starts_from_each_letters_best_reconstruction(self):
        # |S_hat| = 6 > |T| = 5: reconstruction 5 costs nothing, so the rate is 0
        sa, ra = Alphabet(4), Alphabet(6)
        law = np.random.default_rng(5).dirichlet(np.ones(16)).reshape(4, 4)
        src = tw.JointSource(sa, sa, tw.JointPmf((sa, sa), law))
        table = np.ones((4, 6))
        table[:, 5] = 0.0
        d = tw.DistortionMeasure(sa, ra, table)
        res = wz_function(src, 1, d, 0.1)
        assert res.rate == 0.0
        _check_scheme(res, src, 1, d, 0.1)


class TestWzCurve:
    def test_non_increasing_and_endpoint(self):
        src = tw.preset_example2_source()
        d = tw.hamming(src.s1)
        curve = wz_curve(src, 1, d, [0.0, 0.1, 0.3, 1.0])
        rates = [r for _, r in curve.points]
        assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))
        assert rates[-1] == 0.0
        assert rates[0] == pytest.approx(2 / 3, abs=1e-3)
