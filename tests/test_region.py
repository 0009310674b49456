import numpy as np
import pytest

import twjscc as tw
from twjscc.markov import build_chain, prev_law_residual, reconstruction_distortions
from twjscc.region import convexify, search_region


@pytest.fixture(scope="module")
def bitpipes_points():
    ch = tw.preset_crossed_bitpipes()
    src = tw.preset_independent_bernoulli(0.3, 0.6)
    d = tw.hamming(src.s1)
    return ch, src, d, search_region(ch, src, d, d, budget=40, seed=5)


class TestSearchRegion:
    def test_bitpipes_reach_zero_distortion(self, bitpipes_points):
        ch, src, d, pts = bitpipes_points
        assert any(p.d1 == 0.0 and p.d2 == 0.0 for p in pts)

    def test_points_are_pareto_minimal(self, bitpipes_points):
        ch, src, d, pts = bitpipes_points
        for p in pts:
            assert not any(
                q is not p and q.d1 <= p.d1 and q.d2 <= p.d2 and (q.d1 < p.d1 or q.d2 < p.d2)
                for q in pts
            )

    def test_bmc_example2_contains_lossless_point(self):
        ch = tw.preset_bmc()
        src = tw.preset_example2_source()
        d = tw.hamming(src.s1)
        pts = search_region(ch, src, d, d, budget=10, seed=0)
        zero = [p for p in pts if p.d1 == 0.0 and p.d2 == 0.0]
        assert zero
        # the lossless certificate sits exactly on the condition boundary
        assert zero[0].boundary

    def test_certificates_reverify(self, bitpipes_points):
        ch, src, d, pts = bitpipes_points
        for p in pts:
            assert p.stationary_residual <= 1e-10
            assert p.report.satisfied or p.boundary
            sys = build_chain(p.certificate, ch, src)
            assert prev_law_residual(sys) <= 1e-10
            pi = p.certificate.prev_law.probs.ravel()
            dist = reconstruction_distortions(sys, d, d, pi_reduced=pi)
            assert dist[0] == pytest.approx(p.d1, abs=1e-12)
            assert dist[1] == pytest.approx(p.d2, abs=1e-12)

    def test_same_seed_same_output(self):
        ch = tw.preset_crossed_bitpipes()
        src = tw.preset_example2_source()
        d = tw.hamming(src.s1)
        a = search_region(ch, src, d, d, budget=15, seed=9)
        b = search_region(ch, src, d, d, budget=15, seed=9)
        assert [(p.d1, p.d2, p.report.margin) for p in a] == [
            (p.d1, p.d2, p.report.margin) for p in b
        ]

    def test_tiny_budget_returns_list(self):
        ch = tw.preset_bmc()
        src = tw.preset_example2_source()
        d = tw.hamming(src.s1)
        pts = search_region(ch, src, d, d, budget=1, seed=123)
        assert isinstance(pts, list)

    def test_invalid_budget_rejected(self):
        ch = tw.preset_bmc()
        src = tw.preset_example2_source()
        d = tw.hamming(src.s1)
        with pytest.raises(ValueError):
            search_region(ch, src, d, d, budget=0, seed=0)

    def test_auxiliary_size_below_one_rejected_before_random_candidates(self):
        # budget 5 is spent on structured candidates alone
        ch = tw.preset_bmc()
        src = tw.preset_example2_source()
        d = tw.hamming(src.s1)
        with pytest.raises(ValueError, match="auxiliary alphabet sizes"):
            search_region(ch, src, d, d, budget=5, seed=0, aux_sizes=(0, 2))


class TestConvexify:
    def test_two_point_hull_keeps_both(self):
        hull = convexify([(0.0, 1.0), (1.0, 0.0)])
        assert hull == [(0.0, 1.0), (1.0, 0.0)]
        # the time-sharing midpoint lies on the segment between the vertices
        mid = (0.5 * (hull[0][0] + hull[1][0]), 0.5 * (hull[0][1] + hull[1][1]))
        assert mid == (0.5, 0.5)

    def test_single_point(self):
        assert convexify([(0.3, 0.4)]) == [(0.3, 0.4)]

    def test_dominated_point_removed(self):
        hull = convexify([(0.2, 0.4), (0.5, 0.5), (0.3, 0.1)])
        assert (0.5, 0.5) not in hull

    def test_interior_point_above_chord_removed(self):
        hull = convexify([(0.0, 1.0), (0.5, 0.9), (1.0, 0.0)])
        assert (0.5, 0.9) not in hull

    def test_kink_below_chord_kept(self):
        hull = convexify([(0.0, 1.0), (0.5, 0.1), (1.0, 0.0)])
        assert (0.5, 0.1) in hull

    def test_vertices_sorted_by_first_coordinate(self):
        rng = np.random.default_rng(0)
        pts = [(float(a), float(b)) for a, b in rng.uniform(0, 1, size=(30, 2))]
        hull = convexify(pts)
        assert all(hull[i][0] < hull[i + 1][0] for i in range(len(hull) - 1))

    def test_empty_input(self):
        assert convexify([]) == []
