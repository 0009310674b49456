import itertools

import numpy as np
import pytest

import twjscc as tw
import twjscc.rate_distortion as rd
from twjscc.conditions import _simplex_lattice
from twjscc.probability import Alphabet, bernoulli, binary_entropy, conditional_entropy
from twjscc.rate_distortion import (
    InfeasibleDistortion,
    _wz_batches,
    _wz_decoder,
    blahut_arimoto,
    rd_curve,
    rd_function,
    wz_curve,
    wz_function,
)

from util import dense_wz_candidates, dense_wz_evaluate


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

    def test_ternary_uniform_interior_point_below_entropy(self):
        p = tw.JointPmf((Alphabet(3),), np.full(3, 1 / 3))
        d = tw.hamming(p.axes[0])
        r = rd_function(p, d, 0.2)
        assert 0.0 < r < np.log2(3)


class TestBlahutArimoto:
    def test_objective_monotone_nonincreasing(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = rng.dirichlet(np.ones(3))
            dist = rng.uniform(0.0, 2.0, size=(3, 3))
            np.fill_diagonal(dist, 0.0)
            res = blahut_arimoto(p, dist, beta=rng.uniform(0.5, 5.0))
            hist = np.array(res.objective_history)
            assert np.all(np.diff(hist) <= 1e-12)

    def test_returns_consistent_rate_distortion(self):
        res = blahut_arimoto(np.array([0.5, 0.5]), 1.0 - np.eye(2), beta=2.0)
        assert 0.0 <= res.rate <= 1.0
        assert 0.0 <= res.distortion <= 0.5


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
        assert res.rate == pytest.approx(2 / 3, abs=1e-3)
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
            assert wz == pytest.approx(rd, abs=5e-3)

    def test_max_distortion_needs_no_rate(self):
        src = tw.preset_example2_source()
        d = tw.hamming(src.s1)
        assert wz_function(src, 1, d, d.d_max).rate == 0.0

    def test_infeasible_target_rejected(self):
        src = tw.preset_example2_source()
        with pytest.raises(InfeasibleDistortion):
            wz_function(src, 1, tw.hamming(src.s1), -0.1)

    def test_rate_sandwich(self):
        # 0 <= R_wz <= R <= H for matching targets, up to grid slack
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
            assert -1e-12 <= r_wz <= r_rd + 5e-3
            assert r_rd <= tw.entropy(marg) + 1e-9

    def test_lossless_rate_is_conditional_entropy(self):
        rng = np.random.default_rng(2)
        for _ in range(3):
            law = rng.dirichlet(np.ones(4)).reshape(2, 2)
            sa = Alphabet(2)
            src = tw.JointSource(sa, sa, tw.JointPmf((sa, sa), law))
            res = wz_function(src, 1, tw.hamming(sa), 0.0)
            assert res.rate == pytest.approx(conditional_entropy(src.law, 0, 1), abs=1e-3)

    def test_ternary_lossless_rate_is_conditional_entropy(self):
        rng = np.random.default_rng(3)
        sa = Alphabet(3)
        for _ in range(2):
            src = tw.JointSource(sa, sa, tw.JointPmf((sa, sa), rng.dirichlet(np.ones(9)).reshape(3, 3)))
            res = wz_function(src, 1, tw.hamming(sa), 0.0)
            assert res.rate == pytest.approx(conditional_entropy(src.law, 0, 1), abs=1e-3)
            assert res.distortion == 0.0 and res.scheme.t.size == 4


def _local(base, lattice, alpha):
    return (1.0 - alpha) * base[:, None, :] + alpha * lattice[None, :, :]


def _dense_batches(local, ps, dist):
    cands = dense_wz_candidates(local)
    for lo in range(0, len(cands), rd.WZ_CHUNK):
        obj, d_ach, _ = dense_wz_evaluate(cands[lo : lo + rd.WZ_CHUNK], ps, dist)
        yield lo, obj, d_ach


def _dense_decoder(rows, ps, dist):
    return dense_wz_evaluate(rows[None], ps, dist)[2][0]


class TestSeparableEvaluator:
    """The per-row evaluator against the dense (c, s, s_other, t) oracle."""

    @pytest.mark.parametrize("chunk", [rd.WZ_CHUNK, 300, 7])
    @pytest.mark.parametrize("ns, n_other, levels", [(2, 2, 15), (2, 3, 15), (3, 2, 3), (3, 3, 3)])
    def test_matches_dense_oracle(self, monkeypatch, ns, n_other, levels, chunk):
        monkeypatch.setattr(rd, "WZ_CHUNK", chunk)
        rng = np.random.default_rng(10 * ns + n_other)
        ps = rng.dirichlet(np.ones(ns * n_other)).reshape(ns, n_other)
        dist = rng.uniform(0.0, 1.0, size=(ns, ns))
        lattice = _simplex_lattice(ns + 1, levels)
        base = rng.dirichlet(np.ones(ns + 1), size=ns)
        for alpha in (1.0, 0.1, 0.01):
            local = _local(base, lattice, alpha)
            cands = dense_wz_candidates(local)
            obj, d_ach, h = dense_wz_evaluate(cands, ps, dist)
            batches = list(_wz_batches(local, ps, dist))
            sizes = [len(b[1]) for b in batches]
            assert max(sizes) <= chunk
            assert [b[0] for b in batches] == np.cumsum([0] + sizes[:-1]).tolist()
            assert np.abs(np.concatenate([b[1] for b in batches]) - obj).max() <= 1e-14
            assert np.abs(np.concatenate([b[2] for b in batches]) - d_ach).max() <= 1e-15
            cost = np.sort(np.einsum("csot,sr->cotr", ps[None, :, :, None] * cands[:, :, None, :], dist))
            clear = cost[..., 1] - cost[..., 0] > 1e-12
            assert np.array_equal(_wz_decoder(cands, ps, dist)[clear], h[clear])

    @pytest.mark.parametrize("which", [1, 2])
    @pytest.mark.parametrize("frac", [0.0, 0.1, 0.25])
    def test_example2_picks_equal_dense_run(self, monkeypatch, which, frac):
        src = tw.preset_example2_source()
        d = tw.hamming(src.s1)
        got = wz_function(src, which, d, frac * d.d_max)
        monkeypatch.setattr(rd, "_wz_batches", _dense_batches)
        monkeypatch.setattr(rd, "_wz_decoder", _dense_decoder)
        want = wz_function(src, which, d, frac * d.d_max)
        assert np.array_equal(got.scheme.p_t_given_s.probs, want.scheme.p_t_given_s.probs)
        assert np.array_equal(got.scheme.h, want.scheme.h)
        assert got.distortion == want.distortion
        assert got.evaluations == want.evaluations == 55488


class TestWzCandidates:
    @staticmethod
    def loop_candidates(base_rows, lattice, alpha):
        # one lattice point per source row, combinations in itertools.product order
        local = [(1.0 - alpha) * row[None, :] + alpha * lattice for row in base_rows]
        combos = list(itertools.product(range(len(lattice)), repeat=len(base_rows)))
        out = np.empty((len(combos), len(base_rows), lattice.shape[1]))
        for i, combo in enumerate(combos):
            for s, j in enumerate(combo):
                out[i, s] = local[s][j]
        return out

    @pytest.mark.parametrize("nt, levels, ns", [(3, 15, 2), (3, 8, 2), (4, 5, 3), (2, 7, 1)])
    def test_matches_loop_reference_bit_for_bit(self, nt, levels, ns):
        rng = np.random.default_rng(levels)
        lattice = _simplex_lattice(nt, levels)
        base = rng.dirichlet(np.ones(nt), size=ns)
        for alpha in (1.0, 0.1, 0.01):
            got = dense_wz_candidates(_local(base, lattice, alpha))
            assert np.array_equal(got, self.loop_candidates(base, lattice, alpha))
            assert got.flags.c_contiguous


class TestWzCurve:
    def test_non_increasing_and_endpoint(self):
        src = tw.preset_example2_source()
        d = tw.hamming(src.s1)
        curve = wz_curve(src, 1, d, [0.0, 0.1, 0.3, 1.0])
        rates = [r for _, r in curve.points]
        assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))
        assert rates[-1] == 0.0
        assert rates[0] == pytest.approx(2 / 3, abs=1e-3)
