import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import twjscc as tw
from twjscc import conditions, markov, rate_distortion, region
from twjscc.conditions import eval_adaptive
from twjscc.markov import (
    build_chain,
    reconstruction_distortions,
    stationary_prev_law,
)
from twjscc.region import (
    RegionPoint,
    _evaluate,
    _sscc_candidates,
    constant_codeword_hybrid_configuration,
    convexify,
    identity_hybrid_configuration,
    search_region,
    uncoded_configuration,
)

from util import check_configuration, echo_configuration, exhaustive_search, random_configuration

SETTINGS = {
    "bmc-example2": (tw.preset_bmc, tw.preset_example2_source),
    "bmc-bernoulli:0.5": (tw.preset_bmc, lambda: tw.preset_independent_bernoulli(0.5, 0.5)),
    "bitpipes-bernoulli:0.3:0.6": (tw.preset_crossed_bitpipes,
                                   lambda: tw.preset_independent_bernoulli(0.3, 0.6)),
    "bitpipes-example2": (tw.preset_crossed_bitpipes, tw.preset_example2_source),
}


def _theta_source(theta):
    """theta * example2 + (1 - theta) * uniform, the source family of ROADMAP item 9."""
    ex2 = tw.preset_example2_source()
    law = theta * ex2.law.probs + (1 - theta) * 0.25
    return tw.JointSource(ex2.s1, ex2.s2, tw.JointPmf(ex2.law.axes, law))


PINNED = {**SETTINGS, "bmc-theta:0.8": (tw.preset_bmc, lambda: _theta_source(0.8))}
FRONTS = Path(__file__).with_name("region_fronts.json")


def _setting(name):
    ch, src = PINNED[name][0](), PINNED[name][1]()
    return ch, src, tw.hamming(src.s1)


def _pinned_fronts() -> dict:
    """search_region output on every PINNED setting at seeds 1-3 and budget 20, as
    `FRONTS` holds it: each point's distortions, boundary flag, report and residual."""
    fronts = {}
    for name in PINNED:
        ch, src, d = _setting(name)
        for seed in (1, 2, 3):
            fronts[f"{name}/seed={seed}"] = [
                {"d1": p.d1, "d2": p.d2, "boundary": p.boundary,
                 "report": dataclasses.asdict(p.report), "residual": p.stationary_residual}
                for p in search_region(ch, src, d, d, budget=20, seed=seed)]
    return fronts


def _count_chains(monkeypatch) -> list:
    """A list that gains one entry per `build_chain` call from here on."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return build_chain(*args, **kwargs)

    for mod in (markov, region, conditions):
        monkeypatch.setattr(mod, "build_chain", counted)
    return calls


@pytest.fixture(scope="module")
def bmc_example2():
    return _setting("bmc-example2")


@pytest.fixture(scope="module")
def bmc_uniform():
    return _setting("bmc-bernoulli:0.5")


def _three_call_path(cfg, ch, src, d):
    """The candidate scoring that `_evaluate` replaces: solve, report, check."""
    if cfg.prev_law is None:
        cfg = dataclasses.replace(cfg, prev_law=stationary_prev_law(cfg, ch, src))
    report = eval_adaptive(cfg, ch, src)
    if not (report.satisfied or report.boundary):
        return "condition violated"
    check = check_configuration(cfg, ch, src, d, d, np.inf, np.inf)
    return cfg, report, check


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
            assert sys.residual <= 1e-10
            dist = reconstruction_distortions(sys, d, d)
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
        # a bool or a non-integer is refused by name, before any candidate
        for field, value in (("budget", True), ("budget", 2.5), ("budget", "3"),
                             ("seed", True), ("seed", 2.5), ("seed", "1")):
            with pytest.raises(ValueError, match=f"{field} must be an int"):
                search_region(ch, src, d, d, **{"budget": 3, "seed": 0, field: value})

    def test_numpy_integer_budget_and_seed_accepted(self):
        ch = tw.preset_bmc()
        src = tw.preset_example2_source()
        d = tw.hamming(src.s1)
        got = search_region(ch, src, d, d, budget=np.int64(3), seed=np.uint8(1))
        assert [(p.d1, p.d2) for p in got] == [(p.d1, p.d2) for p in search_region(ch, src, d, d, 3, 1)]

    def test_auxiliary_size_below_one_rejected_before_random_candidates(self, bmc_uniform, monkeypatch):
        # the structured candidates alone build 7 chains at budget 8, after which
        # the random phase once refused a bool or non-integer size through Alphabet
        ch, src, d = bmc_uniform
        calls = _count_chains(monkeypatch)
        for aux in ((0, 2), (2, -1), (True, 2), (2.5, 2), ("2", 2), (2,), (2, 2, 2), 2):
            with pytest.raises(ValueError, match="aux_sizes must be two auxiliary alphabet sizes"):
                search_region(ch, src, d, d, budget=8, seed=0, aux_sizes=aux)
        assert calls == []


class TestEvaluate:
    def test_matches_three_call_path_bit_for_bit(self, bmc_example2):
        ch, src, d = bmc_example2
        rng = np.random.default_rng(11)
        cfgs = [random_configuration(rng, ch, src) for _ in range(40)]
        cfgs += [build(ch, src, d, d) for build in (uncoded_configuration,
                                                    constant_codeword_hybrid_configuration,
                                                    identity_hybrid_configuration)]
        cfgs += _sscc_candidates(ch, src, d, d)
        certified = 0
        for cfg in cfgs:
            got, want = _evaluate(cfg, ch, src, d, d), _three_call_path(cfg, ch, src, d)
            if isinstance(want, str):
                assert got == want
                continue
            certified += 1
            want_cfg, report, check = want
            assert isinstance(got, RegionPoint)
            assert got.report == report
            assert (got.d1, got.d2) == check.distortions
            assert got.boundary == report.boundary
            assert got.stationary_residual == check.stationary_residual
            assert got.certificate.prev_law.probs.tobytes() == want_cfg.prev_law.probs.tobytes()
            assert got.certificate.g1.tobytes() == want_cfg.g1.tobytes()
            assert got.certificate.g2.tobytes() == want_cfg.g2.tobytes()
        assert 10 <= certified < len(cfgs)  # both branches run

    def test_non_unique_law_is_named(self):
        cfg, ch, src = echo_configuration()
        d = tw.hamming(src.s1)
        assert "not unique" in _evaluate(cfg, ch, src, d, d)

    def test_violated_conditions_are_named(self, bmc_example2):
        ch, src, d = bmc_example2
        rng = np.random.default_rng(3)
        for _ in range(20):
            cfg = random_configuration(rng, ch, src)
            cfg = dataclasses.replace(cfg, prev_law=stationary_prev_law(cfg, ch, src))
            report = eval_adaptive(cfg, ch, src)
            if not (report.satisfied or report.boundary):
                break
        else:
            pytest.fail("no violating candidate drawn")
        assert _evaluate(cfg, ch, src, d, d) == "condition violated"

    def test_one_chain_per_candidate(self, bmc_uniform, monkeypatch):
        ch, src, d = bmc_uniform
        calls = _count_chains(monkeypatch)
        search_region(ch, src, d, d, budget=30, seed=0)
        # one per candidate (the three Bayes-decoded structured candidates are
        # evaluated on the chain their builder solved) plus the shared SSCC channel solve
        assert len(calls) == 31

    @pytest.mark.parametrize("build", [uncoded_configuration, constant_codeword_hybrid_configuration,
                                       identity_hybrid_configuration])
    def test_one_chain_per_structured_builder(self, bmc_uniform, monkeypatch, build):
        ch, src, d = bmc_uniform
        calls = _count_chains(monkeypatch)
        build(ch, src, d, d)
        assert len(calls) == 1

    def test_failed_structured_build_uses_no_budget(self, bmc_uniform, monkeypatch):
        ch, src, d = bmc_uniform
        draws = []
        draw = region._random_candidate

        def counted(*args):
            draws.append(1)
            return draw(*args)

        def fail(*args):
            raise ValueError("build failed")

        monkeypatch.setattr(region, "_random_candidate", counted)
        search_region(ch, src, d, d, budget=10, seed=0)
        base = len(draws)
        monkeypatch.setattr(region, "_uncoded_system", fail)
        search_region(ch, src, d, d, budget=10, seed=0)
        assert len(draws) - base == base + 1


def _assert_same_points(got, want):
    assert len(got) == len(want)
    for p, q in zip(got, want):
        assert (p.d1, p.d2, p.boundary) == (q.d1, q.d2, q.boundary)
        assert p.report == q.report
        assert p.stationary_residual == q.stationary_residual
        for name in ("f1", "f2", "g1", "g2"):
            assert np.asarray(getattr(p.certificate, name)).tobytes() == \
                np.asarray(getattr(q.certificate, name)).tobytes()
        assert p.certificate.prev_law.probs.tobytes() == q.certificate.prev_law.probs.tobytes()


class TestPruning:
    @pytest.mark.parametrize("seed", (1, 2, 3))
    @pytest.mark.parametrize("setting", SETTINGS)
    def test_search_equals_exhaustive_oracle(self, setting, seed):
        ch, src, d = _setting(setting)
        _assert_same_points(search_region(ch, src, d, d, budget=40, seed=seed),
                            exhaustive_search(ch, src, d, d, budget=40, seed=seed))

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_random_fronts_equal_exhaustive_oracle(self, setting, monkeypatch):
        # with every structured build failing, random candidates alone make
        # fronts of several points, and most candidates are dominated
        def fail(*args):
            raise ValueError("build failed")

        for name in ("_uncoded_system", "_constant_codeword_hybrid_system",
                     "_identity_hybrid_system", "_sscc_candidates"):
            monkeypatch.setattr(region, name, fail)
        ch, src, d = _setting(setting)
        got = search_region(ch, src, d, d, budget=40, seed=2)
        assert len(got) >= 2
        _assert_same_points(got, exhaustive_search(ch, src, d, d, budget=40, seed=2))

    def test_dominated_candidate_skips_the_conditions(self, bmc_example2, monkeypatch):
        ch, src, d = bmc_example2
        cfg = uncoded_configuration(ch, src, d, d)
        lossless = _evaluate(cfg, ch, src, d, d)
        assert (lossless.d1, lossless.d2) == (0.0, 0.0)

        def unread(*args, **kwargs):
            raise AssertionError("conditions read")

        monkeypatch.setattr(region, "_adaptive_report", unread)
        rng = np.random.default_rng(4)
        for c in [cfg] + [random_configuration(rng, ch, src) for _ in range(5)]:
            assert _evaluate(c, ch, src, d, d, [lossless]) == "dominated"
        # a kept point at (0, 0.5) does not cover (0, 0): the conditions are read
        with pytest.raises(AssertionError, match="conditions read"):
            _evaluate(cfg, ch, src, d, d, [dataclasses.replace(lossless, d2=0.5)])

    def test_lossless_search_builds_one_chain(self, bmc_example2, monkeypatch):
        ch, src, d = bmc_example2
        chains, wz, draws = [], [], []

        def counted(log, fn):
            def wrapped(*args, **kwargs):
                log.append(1)
                return fn(*args, **kwargs)
            return wrapped

        for mod in (markov, region, conditions):
            monkeypatch.setattr(mod, "build_chain", counted(chains, build_chain))
        monkeypatch.setattr(rate_distortion, "wz_function", counted(wz, rate_distortion.wz_function))
        monkeypatch.setattr(region, "_random_candidate", counted(draws, region._random_candidate))
        pts = search_region(ch, src, d, d, budget=100, seed=1)
        assert [(p.d1, p.d2) for p in pts] == [(0.0, 0.0)]
        assert (len(chains), len(wz), len(draws)) == (1, 0, 0)  # the uncoded build, evaluated on its chain

    def test_failed_lossless_build_uses_no_budget(self, bmc_example2, monkeypatch):
        # the constant-codeword hybrid takes the first budget slot, certifies
        # (0, 0), and the search stops there
        ch, src, d = bmc_example2
        draws = []
        draw = region._random_candidate

        def counted(*args):
            draws.append(1)
            return draw(*args)

        def fail(*args):
            raise ValueError("build failed")

        monkeypatch.setattr(region, "_uncoded_system", fail)
        monkeypatch.setattr(region, "_random_candidate", counted)
        hybrid = constant_codeword_hybrid_configuration(ch, src, d, d)
        for budget in (1, 100):
            pts = search_region(ch, src, d, d, budget=budget, seed=0)
            assert [(p.d1, p.d2) for p in pts] == [(0.0, 0.0)]
            assert pts[0].certificate.f1.tobytes() == hybrid.f1.tobytes()
        assert draws == []


class TestDominationRule:
    @pytest.mark.parametrize("second, want", [
        ((0.25 + 1e-15, 0.25), [0]),  # crossing twins: the first stays
        ((0.25, 0.25 - 1e-15), [1]),  # exactly below the first: it replaces it
        ((0.25 + 1e-13, 0.25 - 1e-13), [0]),  # crossing within TWIN_TOL
        ((0.25 + 1e-11, 0.25 - 1e-11), [0, 1]),  # beyond TWIN_TOL: both stay
    ])
    def test_roundoff_twins_are_one_point(self, bmc_uniform, monkeypatch, second, want):
        ch, src, d = bmc_uniform
        pairs = [(0.25, 0.25 + 1e-15), second]
        dists = iter(pairs)
        monkeypatch.setattr(region, "reconstruction_distortions", lambda *args: next(dists))

        def twice(s, evaluate):  # two certified candidates: the uncoded system, twice
            for _ in pairs:
                evaluate(region._uncoded_system(s.ch, s.src, s.d1, s.d2))

        monkeypatch.setattr(region, "PHASES", (twice,))
        got = search_region(ch, src, d, d, budget=5, seed=0)
        assert [(p.d1, p.d2) for p in got] == [pairs[k] for k in want]

    def test_convexify_merges_roundoff_twins(self):
        assert convexify([(0.3, 0.4), (0.3 + 1e-15, 0.4 - 1e-15)]) == [(0.3, 0.4)]
        assert convexify([(0.3, 0.4), (0.3 + 1e-13, 0.4 - 1e-13)]) == [(0.3, 0.4)]
        assert convexify([(0.3, 0.4), (0.3 + 1e-15, 0.4)]) == [(0.3, 0.4)]
        assert len(convexify([(0.3, 0.4), (0.3 + 1e-11, 0.4 - 1e-11)])) == 2


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


class TestPinnedFronts:
    def test_search_output_matches_the_pinned_file(self):
        # floats survive the JSON round trip exactly, so == compares bit for bit
        assert _pinned_fronts() == json.loads(FRONTS.read_text())


if __name__ == "__main__":  # rewrite the pinned file: PYTHONPATH=src python tests/test_region.py
    FRONTS.write_text(json.dumps(_pinned_fronts(), indent=1) + "\n")
