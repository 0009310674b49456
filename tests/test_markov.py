import dataclasses
import re

import numpy as np
import pytest

import twjscc as tw
from twjscc import markov
from twjscc.coded_channel import fresh_law
from twjscc.markov import (
    FactoredKernel,
    _residual,
    build_chain,
    pair_law,
    pair_marginal,
    reconstruction_distortions,
    solve_stationary,
    stationary_distribution,
    stationary_prev_law,
)
from twjscc.probability import Alphabet, ConditionalPmf, JointPmf, marginalize
from twjscc.region import identity_hybrid_configuration, uncoded_configuration

from util import (
    check_configuration,
    dense_kernel,
    dense_pair_law,
    dense_solve_stationary,
    echo_configuration,
    random_binary_channel,
    random_configuration,
    random_joint_source,
)


@pytest.fixture
def bmc_setup():
    ch = tw.preset_bmc()
    src = tw.preset_example2_source()
    d = tw.hamming(src.s1)
    return ch, src, d


class TestKernel:
    def test_binary_bmc_successor_count(self):
        # full-support binary codewords over the deterministic product
        # channel: 16 fresh draws, one output pair each
        from twjscc.conditions import lift_hybrid
        from util import bsc_codeword_scheme

        ch = tw.preset_bmc()
        src = tw.preset_independent_bernoulli(0.4, 0.6)
        d = tw.hamming(src.s1)
        cfg = lift_hybrid(bsc_codeword_scheme(ch, src, 0.3, d, d), ch, src)
        sys = build_chain(cfg, ch, src)
        per_row = np.count_nonzero(dense_kernel(sys.kernel), axis=1)
        assert np.all(per_row == 16)

    def test_rows_sum_to_one(self, bmc_setup):
        ch, src, d = bmc_setup
        cfg = uncoded_configuration(ch, src, d, d)
        sys = build_chain(cfg, ch, src)
        assert np.allclose(dense_kernel(sys.kernel).sum(axis=1), 1.0, atol=1e-12)

    def test_successor_cap_structural(self):
        # nonzeros per row never exceed (fresh draws) x (output pairs)
        rng = np.random.default_rng(0)
        ch = random_binary_channel(rng)
        src = random_joint_source(rng)
        cfg = random_configuration(rng, ch, src)
        sys = build_chain(cfg, ch, src)
        cap = 16 * 4
        assert np.max(np.count_nonzero(dense_kernel(sys.kernel), axis=1)) <= cap

    def test_input_tables_on_large_system(self):
        # 16384 states gathered at once: every input of 300 of them read
        # back from f1/f2 with scalar coordinates
        rng = np.random.default_rng(4)
        ch = tw.preset_dueck()
        src = tw.preset_independent_bernoulli(0.89, 0.89)
        cfg = random_configuration(rng, ch, src)
        sys = build_chain(cfg, ch, src)
        nx1, nx2 = sys.kernel.chan.shape[:2]
        cells = sys.kernel.cells(np.arange(sys.n_states))  # (a, x1, x2) cells
        x1n, x2n = np.divmod(cells % (nx1 * nx2), nx2)
        for prev in rng.choice(sys.n_states, size=300, replace=False):
            s1p, s2p, u1p, u2p, io1p, io2p = np.unravel_index(prev, sys.reduced_shape)
            for a, (s1, s2, u1, u2) in enumerate(np.ndindex(2, 2, 2, 2)):
                assert x1n[prev, a] == cfg.f1[s1, u1, s1p, u1p, io1p]
                assert x2n[prev, a] == cfg.f2[s2, u2, s2p, u2p, io2p]

    def test_state_cap_enforced(self, bmc_setup, monkeypatch):
        ch, src, d = bmc_setup
        cfg = uncoded_configuration(ch, src, d, d)
        monkeypatch.setattr(markov, "DEFAULT_STATE_CAP", 10)
        with pytest.raises(ValueError, match="exceeds cap 10"):
            build_chain(cfg, ch, src)

    def test_copy_structure_of_next_state(self, bmc_setup):
        # the previous-block axes of the pair law reproduce the reduced
        # stationary law exactly (the next state copies the current one)
        ch, src, d = bmc_setup
        cfg = uncoded_configuration(ch, src, d, d)
        sys = build_chain(cfg, ch, src)
        pi = sys.pi
        prev_curr = pair_marginal(sys, pi, (4, 5, 6, 7, 8, 9)).probs
        assert np.allclose(prev_curr, pi.reshape(sys.reduced_shape), atol=1e-12)


class TestStationary:
    def test_memoryless_encoder_matches_one_step_law(self, bmc_setup):
        # x depends only on the fresh block, so the chain is i.i.d. and the
        # stationary law equals the one-step construction
        ch, src, d = bmc_setup
        cfg = uncoded_configuration(ch, src, d, d)
        sys = build_chain(cfg, ch, src)
        pi = sys.pi
        psu = fresh_law(cfg, src)
        expected = np.zeros(sys.reduced_shape)
        for s1 in range(2):
            for s2 in range(2):
                x1, x2 = s1, s2
                y = x1 * x2
                expected[s1, s2, 0, 0, x1 * 2 + y, x2 * 2 + y] += psu[s1, s2, 0, 0]
        assert np.abs(pi - expected.reshape(-1)).sum() <= 1e-12

    def test_single_state_chain(self):
        one = Alphabet(1)
        law = ConditionalPmf((one, one), (one, one), np.ones((1, 1, 1, 1)))
        ch = tw.TwoWayChannel(one, one, one, one, law)
        src = tw.JointSource(one, one, JointPmf((one, one), np.ones((1, 1))))
        cfg = tw.Configuration(
            u1=one, u2=one,
            pu1_given_s1=ConditionalPmf((one,), (one,), np.ones((1, 1))),
            pu2_given_s2=ConditionalPmf((one,), (one,), np.ones((1, 1))),
            prev_law=None,
            f1=np.zeros((1, 1, 1, 1, 1), dtype=np.int64),
            f2=np.zeros((1, 1, 1, 1, 1), dtype=np.int64),
            g1=np.zeros((1, 1, 1, 1, 1, 1, 1), dtype=np.int64),
            g2=np.zeros((1, 1, 1, 1, 1, 1, 1), dtype=np.int64),
            x1=one, x2=one, y1=one, y2=one, recon1=one, recon2=one,
        )
        sys = build_chain(cfg, ch, src)
        pi = sys.pi
        assert pi.shape == (1,)
        assert pi[0] == pytest.approx(1.0)

    def test_residual_contract_on_presets(self, bmc_setup):
        ch, src, d = bmc_setup
        for cfg in (uncoded_configuration(ch, src, d, d), identity_hybrid_configuration(ch, src, d, d)):
            _, res = solve_stationary(build_chain(cfg, ch, src).kernel)
            assert res <= 1e-10

    def test_system_reads_prev_law_else_solves(self):
        rng = np.random.default_rng(12)
        ch = random_binary_channel(rng)
        src = random_joint_source(rng)
        cfg = random_configuration(rng, ch, src)
        solved = build_chain(cfg, ch, src)
        pi, res = solved.pi, solved.residual
        prev = stationary_prev_law(cfg, ch, src)
        assert res <= 1e-10 and np.all(pi >= 0)
        assert np.array_equal(pi.reshape(prev.shape), prev.probs)
        assert np.array_equal(solved.cfg.prev_law.probs.ravel(), pi)
        # a supplied law is kept as is, with its residual, stationary or not
        law = np.full(pi.shape, 1.0 / pi.size)
        cfg = dataclasses.replace(cfg, prev_law=JointPmf(prev.axes, law.reshape(prev.shape)))
        given = build_chain(cfg, ch, src)
        pi, res = given.pi, given.residual
        assert np.array_equal(pi, law) and given.cfg is cfg
        assert res == float(np.abs(given.kernel.push(law) - law).sum()) > 1e-3

    def test_state_layout_is_prev_law(self):
        # the chain's states are the cells of the previous-block law
        rng = np.random.default_rng(5)
        ch = random_binary_channel(rng)
        src = random_joint_source(rng)
        cfg = random_configuration(rng, ch, src, 1, 2)
        cfg = dataclasses.replace(cfg, prev_law=stationary_prev_law(cfg, ch, src))
        sys = build_chain(cfg, ch, src)
        assert sys.reduced_shape == cfg.prev_law.shape
        assert np.array_equal(sys.pi, cfg.prev_law.probs.ravel())
        assert sys.z_axes[4:10] == cfg.prev_law.axes == cfg.prev_axes

    def test_full_state_law_round_trip(self, bmc_setup):
        ch, src, d = bmc_setup
        cfg = uncoded_configuration(ch, src, d, d)
        sys = build_chain(cfg, ch, src)
        z = stationary_distribution(sys)
        assert z.probs.sum() == pytest.approx(1.0, abs=1e-12)
        # fresh marginal matches the source/codeword construction
        assert np.allclose(marginalize(z, (0, 1, 2, 3)).probs, fresh_law(cfg, src), atol=1e-12)

    def test_sparse_marginals_agree_with_dense_pair_law(self):
        # dense pair tensor and the factored bincount are independent index paths;
        # they must produce identical marginals
        rng = np.random.default_rng(8)
        ch = random_binary_channel(rng)
        src = random_joint_source(rng)
        cfg = random_configuration(rng, ch, src)
        sys = build_chain(cfg, ch, src)
        pi = sys.pi
        z = dense_pair_law(sys, pi)
        for keep in [(k,) for k in range(14)] + [(4, 6), (6, 1, 3, 5, 7, 9, 11, 13), (8, 13, 0)]:
            dense = marginalize(z, keep).probs
            sparse = pair_marginal(sys, pi, keep).probs
            assert np.abs(dense - sparse).max() <= 1e-13

    def test_pair_law_is_the_dense_pair_tensor(self):
        # the criterion-8 simulation set-up: crossed bit-pipes carry 0/1
        # entries, so the all-axes pair marginal is the dense tensor bit for bit
        from twjscc.conditions import lift_hybrid
        from util import bsc_codeword_scheme

        ch = tw.preset_crossed_bitpipes()
        src = tw.preset_independent_bernoulli(0.5, 0.5)
        d = tw.hamming(src.s1)
        cfg = lift_hybrid(bsc_codeword_scheme(ch, src, 0.45, d, d), ch, src)
        sys = build_chain(cfg, ch, src)
        pi = sys.pi
        assert np.array_equal(pair_law(sys, pi).probs, dense_pair_law(sys, pi).probs)
        rng = np.random.default_rng(9)
        for _ in range(5):
            ch = random_binary_channel(rng)
            src = random_joint_source(rng)
            sys = build_chain(random_configuration(rng, ch, src), ch, src)
            pi = sys.pi
            assert np.abs(pair_law(sys, pi).probs - dense_pair_law(sys, pi).probs).max() <= 1e-15


class DenseKernel:
    """A hand-written transition matrix with the operator interface the
    solver reads (n_states, push, push_uniform, image, push_image, predecessors)."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.n_states = self.matrix.shape[0]

    def push(self, pi):
        return pi @ self.matrix

    def push_uniform(self):
        return self.push(np.full(self.n_states, 1.0 / self.n_states))

    def image(self):
        return np.flatnonzero((self.matrix > 0).any(axis=0))

    def push_image(self, v):
        pi = np.zeros(self.n_states)
        pi[self.image()] = v
        return self.push(pi)[self.image()]

    def predecessors(self, mask, rows):
        return (self.matrix[rows][:, mask] > 0).any(axis=1)


class TestSolverPaths:
    def test_periodic_chain_needs_lazy_iteration(self):
        # A<->B two-cycle fed by transient C: plain iteration oscillates,
        # the half-lazy kernel settles on the cycle's stationary law
        k = DenseKernel([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        pi, res = solve_stationary(k)  # returns only a unique law
        assert res <= 1e-10
        assert np.allclose(pi, [0.5, 0.5, 0.0], atol=1e-9)

    def test_slow_chain_fails_with_reason(self, monkeypatch):
        # spectral gap far too small for three iterations from the uniform
        # start: the solve must fail and say so, not return a poor vector,
        # and name the slow mode: each step scales the residual by the second
        # eigenvalue 1 - a - b, and the chain never oscillates
        monkeypatch.setattr(markov, "SOLVE_MAX_ITER", 3)
        a, b = 1e-6, 3e-6
        k = DenseKernel([[1 - a, a], [b, 1 - b]])
        with pytest.raises(RuntimeError, match="did not converge") as err:
            solve_stationary(k)
        ratio = re.search(r"last residual ratio (\S+),", str(err.value)).group(1)
        assert abs(float(ratio) - (1 - a - b)) <= 1e-6
        assert str(err.value).endswith("half-lazy switch not fired")

    def test_oscillating_chain_fails_after_the_lazy_switch(self, monkeypatch):
        # the two-cycle's residual never falls, so the switch fires after 200
        # steps; stopped one step later, the solve fails and says it fired
        monkeypatch.setattr(markov, "SOLVE_MAX_ITER", 201)
        k = DenseKernel([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(RuntimeError, match="ratio 1, half-lazy switch fired$"):
            solve_stationary(k)

    def test_non_uniqueness_flagged_on_block_diagonal_chain(self):
        # two closed 2-state classes, each mixing fast: the solve converges
        # (a residual above RESIDUAL_TOL raises RuntimeError first) and
        # reachability finds the class that never reaches argmax pi
        block = np.array([[0.3, 0.7], [0.6, 0.4]])
        other = np.array([[0.8, 0.2], [0.5, 0.5]])
        k = DenseKernel(np.block([[block, np.zeros((2, 2))], [np.zeros((2, 2)), other]]))
        with pytest.raises(ValueError, match="not unique"):
            solve_stationary(k)


def assert_solve_is_dense_solve(kernel):
    """solve_stationary equals the dense-iterate oracle bit for bit: law and residual."""
    law, res = solve_stationary(kernel)
    want_law, want_res = dense_solve_stationary(kernel)
    assert np.array_equal(law, want_law) and res == want_res
    return law, res


def off_image_predecessor_kernel():
    """BMC with example2 sources, u1 = 0 always, x1 = 1 exactly when the
    previous u1 is 1 and x2 = s2: the states with x1 = 1 are in the one-step
    image, reached only from states off it (every previous u1 = 1)."""
    ch, src = tw.preset_bmc(), tw.preset_example2_source()
    cfg = random_configuration(np.random.default_rng(3), ch, src)
    f1 = np.zeros_like(cfg.f1)
    f1[:, :, :, 1, :] = 1
    f2 = np.broadcast_to(np.arange(2)[:, None, None, None, None], cfg.f2.shape).copy()
    pu1 = ConditionalPmf(cfg.pu1_given_s1.given_axes, cfg.pu1_given_s1.out_axes, np.eye(2)[[0, 0]])
    cfg = dataclasses.replace(cfg, f1=f1, f2=f2, pu1_given_s1=pu1)
    return FactoredKernel(cfg.f1, cfg.f2, fresh_law(cfg, src), ch.law.probs)


class TestImageHeldSolve:
    """The solve that holds its iterate on the one-step image reproduces the
    dense-iterate loop bit for bit."""

    @pytest.mark.parametrize("case", range(4))
    def test_dueck_pool_chains(self, case):
        # cases 0-3 of the benchmark's eval_dueck pool (pool seed 20010261)
        ch, src = tw.preset_dueck(), tw.preset_independent_bernoulli(0.89, 0.89)
        cfg = random_configuration(np.random.default_rng([20010261, case]), ch, src)
        kernel = FactoredKernel(cfg.f1, cfg.f2, fresh_law(cfg, src), ch.law.probs)
        assert kernel.n_states == 16384 and kernel.image().size == 1024
        assert_solve_is_dense_solve(kernel)

    def test_criterion_8_lift_keeps_its_residual(self):
        # the lifted BSC(0.45) hybrid that criterion 8 and sim_crit8 simulate
        from twjscc.conditions import lift_hybrid
        from util import bsc_codeword_scheme

        ch, src = tw.preset_crossed_bitpipes(), tw.preset_independent_bernoulli(0.5, 0.5)
        d = tw.hamming(src.s1)
        cfg = lift_hybrid(bsc_codeword_scheme(ch, src, 0.45, d, d), ch, src)
        kernel = FactoredKernel(cfg.f1, cfg.f2, fresh_law(cfg, src), ch.law.probs)
        assert kernel.n_states == 256 and kernel.image().size == 64
        _, res = assert_solve_is_dense_solve(kernel)
        assert res == 1.6653345369377348e-16

    def test_bmc_uncoded_chain(self, bmc_setup):
        ch, src, d = bmc_setup
        assert_solve_is_dense_solve(build_chain(uncoded_configuration(ch, src, d, d), ch, src).kernel)

    def test_periodic_chain_through_the_lazy_switch(self):
        assert_solve_is_dense_solve(DenseKernel([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))

    def test_image_state_reached_only_from_off_the_image(self):
        # from push 2 on the iterate holds an exact 0 inside the image, whose
        # rows add +0.0 to their cells
        kernel = off_image_predecessor_kernel()
        image = kernel.image()
        first = kernel.push_uniform()
        second = kernel.push(first / first.sum())
        assert (first[image] > 0).all() and (second[image] == 0).any()
        law, _ = assert_solve_is_dense_solve(kernel)
        assert np.array_equal(law[image] == 0, second[image] == 0)


@pytest.fixture
def echo_setup():
    return echo_configuration()


class TestUniqueness:
    def test_crossed_pipes_echo_has_several_closed_classes(self, echo_setup):
        cfg, ch, src = echo_setup
        kernel = FactoredKernel(cfg.f1, cfg.f2, fresh_law(cfg, src), ch.law.probs)
        assert kernel.n_states == 64
        with pytest.raises(ValueError, match="not unique"):
            solve_stationary(kernel)

    def test_non_unique_prev_law_refused(self, echo_setup):
        with pytest.raises(ValueError, match="not unique"):
            stationary_prev_law(*echo_setup)

    def test_eval_adaptive_refuses_non_unique_chain(self, echo_setup):
        # the solved law would be certified on the boundary with margin 0.0
        from twjscc.conditions import eval_adaptive

        with pytest.raises(ValueError, match="not unique"):
            eval_adaptive(*echo_setup)

    def test_bmc_uncoded_is_unique(self, bmc_setup):
        ch, src, d = bmc_setup
        sys = build_chain(uncoded_configuration(ch, src, d, d), ch, src)
        assert solve_stationary(sys.kernel)[1] <= 1e-10  # raises for a non-unique law

    def test_dueck_configuration_is_unique(self):
        # case 0 of the benchmark's eval_dueck pool (pool seed 20010261)
        ch = tw.preset_dueck()
        src = tw.preset_independent_bernoulli(0.89, 0.89)
        cfg = random_configuration(np.random.default_rng([20010261, 0]), ch, src)
        sys = build_chain(cfg, ch, src)  # solves: raises for a non-unique law
        assert sys.n_states == 16384
        assert sys.residual <= 1e-10


class TestOneStationaryLaw:
    def test_solve_leaves_the_supplied_law_in_place(self, bmc_setup):
        # a solve of the kernel writes nothing into the system, so every
        # reader still takes the configuration's (here non-stationary)
        # previous-block law; the system itself cannot be reassigned
        ch, src, d = bmc_setup
        cfg = uncoded_configuration(ch, src, d, d)
        law = np.full(cfg.prev_law.shape, 1.0 / cfg.prev_law.probs.size)
        sys = build_chain(dataclasses.replace(cfg, prev_law=JointPmf(cfg.prev_axes, law)), ch, src)
        solved, _ = solve_stationary(sys.kernel)
        assert not np.array_equal(solved, law.ravel())
        with pytest.raises(dataclasses.FrozenInstanceError):
            sys.pi = solved
        assert np.array_equal(sys.pi, law.ravel())
        assert sys.residual == pytest.approx(1.90625, abs=1e-12)
        assert reconstruction_distortions(sys, d, d) == (0.5, 0.5)

    def test_solve_refuses_non_unique_law(self, echo_setup):
        with pytest.raises(ValueError, match="not unique"):
            build_chain(*echo_setup)

    def test_solved_residual_is_that_of_the_solved_law(self):
        # the residual is taken after the clip and renormalization, so it is
        # the residual of the law the system carries, bit for bit
        rng = np.random.default_rng(11)
        ch, src = tw.preset_bmc(), tw.preset_example2_source()
        for _ in range(60):
            sys = build_chain(random_configuration(rng, ch, src), ch, src)
            assert np.array_equal(sys.pi, sys.cfg.prev_law.probs.ravel())
            assert sys.residual == _residual(sys.kernel, sys.pi)


class TestStationaryPrevLaw:
    def test_memoryless_encoder_pushforward(self, bmc_setup):
        ch, src, d = bmc_setup
        cfg = uncoded_configuration(ch, src, d, d)
        prev = stationary_prev_law(cfg, ch, src)
        # expected: fresh (s, u) with io = (x=s_j, y=s1*s2)
        expected = np.zeros(prev.shape)
        for s1 in range(2):
            for s2 in range(2):
                y = s1 * s2
                expected[s1, s2, 0, 0, s1 * 2 + y, s2 * 2 + y] += src.law.probs[s1, s2]
        assert np.abs(prev.probs - expected).sum() <= 1e-10

    def test_installed_prev_law_is_fixed_point(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            ch = random_binary_channel(rng)
            src = random_joint_source(rng)
            cfg = random_configuration(rng, ch, src)
            prev = stationary_prev_law(cfg, ch, src)
            cfg = dataclasses.replace(cfg, prev_law=prev)
            sys = build_chain(cfg, ch, src)
            assert sys.residual <= 1e-10
            # the stationary previous-block marginal reproduces the law itself
            pi = prev.probs.ravel()
            marg = pair_marginal(sys, pi, (4, 5, 6, 7, 8, 9)).probs
            assert np.abs(marg - prev.probs).sum() <= 1e-9

    def test_constant_chain_gives_point_mass(self):
        one = Alphabet(1)
        two = Alphabet(2)
        law = np.zeros((2, 2, 2, 2))
        law[:, :, 1, 1] = 1.0  # outputs stuck at 1
        ch = tw.TwoWayChannel(two, two, two, two, ConditionalPmf((two, two), (two, two), law))
        src = tw.JointSource(two, two, tw.JointPmf((two, two), np.array([[0.0, 0.0], [0.0, 1.0]])))
        cfg = tw.Configuration(
            u1=one, u2=one,
            pu1_given_s1=ConditionalPmf((two,), (one,), np.ones((2, 1))),
            pu2_given_s2=ConditionalPmf((two,), (one,), np.ones((2, 1))),
            prev_law=None,
            f1=np.ones((2, 1, 2, 1, 4), dtype=np.int64),
            f2=np.ones((2, 1, 2, 1, 4), dtype=np.int64),
            g1=np.zeros((1, 2, 1, 2, 1, 4, 2), dtype=np.int64),
            g2=np.zeros((1, 2, 1, 2, 1, 4, 2), dtype=np.int64),
            x1=two, x2=two, y1=two, y2=two, recon1=two, recon2=two,
        )
        prev = stationary_prev_law(cfg, ch, src)
        # all mass on s=(1,1), u=(0,0), io=(x=1,y=1) on both sides
        assert prev.probs[1, 1, 0, 0, 3, 3] == pytest.approx(1.0, abs=1e-12)


class TestReconstruction:
    def test_stored_output_read_back_is_lossless(self):
        # crossed pipes transmit the current source; the other terminal's
        # next-block state stores it verbatim inside the io symbol
        ch = tw.preset_crossed_bitpipes()
        src = tw.preset_example2_source()
        d = tw.hamming(src.s1)
        cfg = uncoded_configuration(ch, src, d, d)
        res = check_configuration(cfg, ch, src, d, d, 0.0, 0.0)
        assert res.feasible
        assert res.distortions == (0.0, 0.0)

    def test_uncoded_bmc_example2_lossless(self, bmc_setup):
        ch, src, d = bmc_setup
        cfg = uncoded_configuration(ch, src, d, d)
        sys = build_chain(cfg, ch, src)
        assert reconstruction_distortions(sys, d, d) == (0.0, 0.0)

    def test_constant_reconstruction_distortion(self, bmc_setup):
        ch, src, d = bmc_setup
        cfg = uncoded_configuration(ch, src, d, d)
        cz = dataclasses.replace(
            cfg,
            g1=np.zeros_like(cfg.g1),
            g2=np.zeros_like(cfg.g2),
        )
        dist = reconstruction_distortions(build_chain(cz, ch, src), d, d)
        # constant guess 0 misses whenever the previous source letter is 1
        assert dist[0] == pytest.approx(2 / 3, abs=1e-12)
        assert dist[1] == pytest.approx(2 / 3, abs=1e-12)


@pytest.fixture
def marginal_calls(monkeypatch):
    """Kept axes of each pair_marginal call made through markov, conditions
    or simulate, wherever those modules bind the name."""
    from twjscc import conditions, simulate

    calls = []
    real = markov.pair_marginal

    def counted(sys, pi, keep):
        calls.append(keep)
        return real(sys, pi, keep)

    for mod in (markov, conditions, simulate):
        if hasattr(mod, "pair_marginal"):
            monkeypatch.setattr(mod, "pair_marginal", counted)
    return calls


class TestDecoderMarginals:
    """Every layer reads the same two view laws, formed once per system."""

    def test_formed_once_per_system(self, bmc_setup, marginal_calls):
        ch, src, d = bmc_setup
        sys = build_chain(uncoded_configuration(ch, src, d, d), ch, src)
        marginal_calls.clear()
        first = markov.decoder_marginals(sys)
        assert markov.decoder_marginals(sys) is first
        reconstruction_distortions(sys, d, d)
        assert len(marginal_calls) == 2

    @pytest.mark.parametrize("simplify", [False, True])
    def test_eval_adaptive(self, bmc_setup, marginal_calls, simplify):
        from twjscc.conditions import eval_adaptive

        ch, src, d = bmc_setup
        cfg = uncoded_configuration(ch, src, d, d)
        marginal_calls.clear()
        eval_adaptive(cfg, ch, src, simplify=simplify)
        assert len(marginal_calls) == 2

    def test_evaluate_shares_the_pair_between_distortions_and_report(self, bmc_setup,
                                                                      marginal_calls):
        from twjscc.region import _evaluate

        ch, src, d = bmc_setup
        cfg = uncoded_configuration(ch, src, d, d)
        marginal_calls.clear()
        assert not isinstance(_evaluate(cfg, ch, src, d, d), str)  # neither dominated nor failed
        assert len(marginal_calls) == 2

    def test_search_region(self, bmc_setup, marginal_calls):
        from twjscc.region import search_region

        ch, src, d = bmc_setup
        search_region(ch, src, d, d, budget=100, seed=1)
        # the uncoded build's Bayes decoders; its evaluation reads the same views
        assert len(marginal_calls) == 2

    def test_sim_context(self, bmc_setup, marginal_calls):
        from twjscc.simulate import SimContext

        ch, src, d = bmc_setup
        cfg = uncoded_configuration(ch, src, d, d)
        marginal_calls.clear()
        SimContext(cfg, ch, src)
        assert len(marginal_calls) == 2


class TestFeasibility:
    def test_perfect_configuration_feasible_at_zero(self, bmc_setup):
        ch, src, d = bmc_setup
        cfg = uncoded_configuration(ch, src, d, d)
        assert check_configuration(cfg, ch, src, d, d, 0.0, 0.0).feasible

    def test_constant_decoder_not_feasible_at_zero(self, bmc_setup):
        ch, src, d = bmc_setup
        cfg = uncoded_configuration(ch, src, d, d)
        cz = dataclasses.replace(cfg, g1=np.zeros_like(cfg.g1), g2=np.zeros_like(cfg.g2))
        assert not check_configuration(cz, ch, src, d, d, 0.0, 0.0).feasible

    def test_nonstationary_prev_law_not_feasible(self, bmc_setup):
        ch, src, d = bmc_setup
        cfg = uncoded_configuration(ch, src, d, d)
        # a product law that ignores the chain dynamics is not a fixed point
        bad = np.full(cfg.prev_law.shape, 1.0)
        bad /= bad.sum()
        cb = dataclasses.replace(cfg, prev_law=tw.JointPmf(cfg.prev_law.axes, bad))
        res = check_configuration(cb, ch, src, d, d, 1.0, 1.0)
        assert not res.feasible
        assert res.stationary_residual > 1e-6
