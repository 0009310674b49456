import dataclasses
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

import twjscc as tw
from twjscc import markov, simulate
from twjscc.coded_channel import fresh_law
from twjscc.conditions import (
    _UNIT_SOURCE,
    AdaptiveChannelScheme,
    embed_adaptive_scheme,
    lift_hybrid,
)
from twjscc.probability import Alphabet, ConditionalPmf
from twjscc.region import uncoded_configuration
from twjscc.simulate import (
    SimContext,
    SimParams,
    codebook_size,
    decode_block,
    encode_block,
    generate_codebooks,
    run_simulation,
)

from util import (bsc_codeword_scheme, dense_pair_law, load_bench_workloads, packed_book,
                  random_binary_channel, random_configuration, random_joint_source)


@pytest.fixture(scope="module")
def bmc_example2():
    ch = tw.preset_bmc()
    src = tw.preset_example2_source()
    d = tw.hamming(src.s1)
    cfg = uncoded_configuration(ch, src, d, d)
    return ch, src, d, cfg


@pytest.fixture(scope="module")
def pipes_identity():
    ch = tw.preset_crossed_bitpipes()
    src = tw.preset_independent_bernoulli(0.5, 0.5)
    d = tw.hamming(src.s1)
    hs = bsc_codeword_scheme(ch, src, 0.0, d, d)  # u = s exactly
    cfg = lift_hybrid(hs, ch, src)
    return ch, src, d, cfg


class TestParams:
    def test_eps_ordering_enforced(self):
        with pytest.raises(ValueError):
            SimParams(n=16, blocks=1, eps=0.1, eps1=0.2, rate1=0.0, rate2=0.0)

    def test_codebook_cap_enforced(self):
        with pytest.raises(ValueError):
            SimParams(n=64, blocks=1, eps=0.2, eps1=0.1, rate1=1.0, rate2=0.0)

    @pytest.mark.parametrize("field, value", [
        ("n", 16.0), ("n", True), ("blocks", 2.0), ("blocks", True),
        ("trials", 2.0), ("trials", True), ("seed", 1.5), ("seed", True),
    ])
    def test_integer_fields_must_be_int(self, field, value):
        kwargs = dict(n=16, blocks=2, eps=0.3, eps1=0.1, rate1=0.0, rate2=0.0, seed=0, trials=1)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be an int"):
            SimParams(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("eps", "0.3"), ("eps1", True), ("rate1", True), ("rate2", None),
    ])
    def test_float_fields_must_be_real(self, field, value):
        kwargs = dict(n=16, blocks=2, eps=0.3, eps1=0.1, rate1=0.0, rate2=0.0, seed=0, trials=1)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be a real number"):
            SimParams(**kwargs)

    def test_block_length_cap(self):
        with pytest.raises(ValueError):
            SimParams(n=5000, blocks=1, eps=0.2, eps1=0.1, rate1=0.0, rate2=0.0)

    def test_codebook_size_formula(self):
        assert codebook_size(64, 0.0) == 1
        assert codebook_size(64, 0.04) == 2 ** 3
        assert codebook_size(256, 0.04) == 2 ** 11
        assert codebook_size(100, 0.1) == 2 ** 10


class TestCodebooks:
    def test_sizes_and_determinism(self, bmc_example2):
        ch, src, d, cfg = bmc_example2
        params = SimParams(n=32, blocks=2, eps=0.3, eps1=0.1, rate1=0.1, rate2=0.05)
        a = generate_codebooks(cfg, src, params, np.random.default_rng(3))
        b = generate_codebooks(cfg, src, params, np.random.default_rng(3))
        # binary codewords of 32 letters: one plane of one word each
        assert a.u1.shape == (2, codebook_size(32, 0.1), 1, 1) and a.u1.dtype == np.uint64
        assert a.u2.shape == (2, codebook_size(32, 0.05), 1, 1)
        assert np.array_equal(a.u1, b.u1) and np.array_equal(a.u2, b.u2)
        for x, y in zip(a.init_prev, b.init_prev):
            assert np.array_equal(x, y)

    def test_letter_frequencies_match_codeword_marginal(self):
        ch = tw.preset_crossed_bitpipes()
        src = tw.preset_independent_bernoulli(0.5, 0.5)
        d = tw.hamming(src.s1)
        cfg = lift_hybrid(bsc_codeword_scheme(ch, src, 0.2, d, d), ch, src)
        # rate 0.01 at n = 1000 draws 2^10 codewords, 1,024,000 letters
        params = SimParams(n=1000, blocks=1, eps=0.3, eps1=0.1, rate1=0.01, rate2=0.01)
        books = generate_codebooks(cfg, src, params, np.random.default_rng(0))
        assert books.u1.shape == (1, 1024, 1, 16)
        letters = simulate._letters(books.u1, 1000)
        freq1 = np.bincount(letters.ravel(), minlength=2) / letters.size
        assert abs(freq1[1] - 0.5) <= 0.05

    def test_init_sequences_follow_prev_law(self, bmc_example2):
        ch, src, d, cfg = bmc_example2
        params = SimParams(n=1000, blocks=1, eps=0.3, eps1=0.1, rate1=0.0, rate2=0.0)
        books = generate_codebooks(cfg, src, params, np.random.default_rng(1))
        ps1, ps2 = books.init_prev[0], books.init_prev[1]
        # the source pair (0, 0) never occurs under the stationary law
        assert not np.any((np.asarray(ps1) == 0) & (np.asarray(ps2) == 0))


class _TopDraw:
    """Generator stand-in whose every uniform draw is the largest double below 1."""

    def random(self, size=None, out=None):
        if out is None:
            return np.full(size, 1.0 - 2.0 ** -53)
        out.fill(1.0 - 2.0 ** -53)
        return out


class _ZeroDraw:
    """Generator stand-in whose every uniform draw is 0.0."""

    def random(self, size=None, out=None):
        if out is None:
            return np.zeros(size)
        out.fill(0.0)
        return out


DRAW_LAWS = [
    [1.0],
    [0.3, 0.7],
    [0.2, 0.5, 0.3],
    [0.4, 0.0, 0.6],  # a letter of probability 0
    [1 / 14] * 14,  # sums end below 1
]


def slice_formula(rng, cdf, shape):
    """The letters of `_letter_sample`, drawn one leading-axis slice at a
    time and counted by a sum of comparisons."""
    want = []
    for _ in range(shape[0]):
        r = rng.random(shape[1:])
        want.append(sum((r >= c for c in cdf[:-1]), np.zeros(shape[1:], dtype=int)))
    return np.stack(want)


class TestSampling:
    def test_top_draw_stays_in_alphabet(self):
        # uniform laws on 14 cells: the cumulative sums end at
        # 0.9999999999999997, below the top draw
        assert np.cumsum(np.full(14, 1 / 14))[-1] < 1.0 - 2.0 ** -53
        a2, a7 = Alphabet(2), Alphabet(7)
        law = np.full((2, 2, 2, 7), 1 / 14)
        ch = tw.TwoWayChannel(a2, a2, a2, a7, ConditionalPmf((a2, a2), (a2, a7), law))
        src = tw.JointSource(a2, a7, tw.JointPmf((a2, a7), np.full((2, 7), 1 / 14)))
        cfg = uncoded_configuration(ch, src, tw.hamming(a2), tw.hamming(a7))
        ctx = SimContext(cfg, ch, src)
        top = _TopDraw()
        s1, s2 = ctx.sample_source(top, 3)
        assert s1.tolist() == [1] * 3 and s2.tolist() == [6] * 3
        y1, y2 = ctx.sample_channel(top, np.array([0, 1, 1]), np.array([1, 0, 1]))
        assert y1.tolist() == [1] * 3 and y2.tolist() == [6] * 3
        params = SimParams(n=3, blocks=1, eps=0.3, eps1=0.1, rate1=0.0, rate2=0.0)
        books = generate_codebooks(cfg, src, params, top)
        assert books.u1.dtype == np.uint64 and not books.u1.any()
        for seqs, shape in ((books.init_prev, cfg.prev_law.shape),
                            (books.termination, (2, 7, 1, 1))):
            assert all(np.all(np.asarray(s) == k - 1) for s, k in zip(seqs, shape))

    def test_zero_draw_skips_zero_probability_cells(self):
        # example2 puts no mass on the source pair (0, 0), and crossed pipes
        # none on the outputs (0, 0) for inputs other than (0, 0); a draw of
        # 0.0 lands on the first cell of positive probability
        ch = tw.preset_crossed_bitpipes()
        src = tw.preset_example2_source()
        d = tw.hamming(src.s1)
        cfg = uncoded_configuration(ch, src, d, d)
        ctx = SimContext(cfg, ch, src)
        zero = _ZeroDraw()
        s1, s2 = ctx.sample_source(zero, 3)
        assert np.all(src.law.probs[s1, s2] > 0)
        x1, x2 = np.array([0, 1, 1]), np.array([1, 0, 1])
        y1, y2 = ctx.sample_channel(zero, x1, x2)
        assert np.all(ch.law.probs[x1, x2, y1, y2] > 0)
        params = SimParams(n=3, blocks=1, eps=0.3, eps1=0.1, rate1=0.0, rate2=0.0)
        books = generate_codebooks(cfg, src, params, zero)
        assert np.all(cfg.prev_law.probs[books.init_prev] > 0)
        assert np.all(fresh_law(cfg, src)[books.termination] > 0)
        # a codeword letter of probability 0: u1 copies s1, which is always 1
        src1 = tw.preset_independent_bernoulli(1.0, 0.5)
        cfg1 = lift_hybrid(bsc_codeword_scheme(ch, src1, 0.0, d, d), ch, src1)
        books = generate_codebooks(cfg1, src1, params, zero)
        assert np.all(simulate._letters(books.u1, 3) == 1) and not books.u2.any()

    @pytest.mark.parametrize("probs", DRAW_LAWS)
    def test_in_place_draw_matches_slice_formula(self, probs):
        cdf = simulate._cdf(np.array(probs))
        shape = (3, 17, 11)
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        got = simulate._letter_sample(rng, cdf, shape)
        assert got.dtype == np.uint64
        assert np.array_equal(simulate._letters(got, shape[-1]), slice_formula(ref, cdf, shape))
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("chunk", [1000, 10 ** 6])  # ends mid-book; more than the output
    @pytest.mark.parametrize("probs", DRAW_LAWS)
    def test_draw_does_not_depend_on_the_buffer_size(self, monkeypatch, chunk, probs):
        monkeypatch.setattr(simulate, "DRAW_CHUNK", chunk)
        cdf = simulate._cdf(np.array(probs))
        shape = (2, 3001, 17)
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        got = simulate._letter_sample(rng, cdf, shape)
        assert got.dtype == np.uint64
        assert np.array_equal(simulate._letters(got, shape[-1]), slice_formula(ref, cdf, shape))
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("chunk", [1000, 10 ** 6])
    # n: inside one word; one bit short of, exactly and one bit past a word; 16 words
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 1000])
    @pytest.mark.parametrize("size", range(2, 10))  # one to four planes
    def test_packed_planes_hold_the_drawn_letters(self, monkeypatch, chunk, n, size):
        # 21 codewords: at n = 63, 64 and 65 a 1000-letter chunk holds 15 of
        # them, so the second fill is partial; at n = 1000 each fill holds one
        monkeypatch.setattr(simulate, "DRAW_CHUNK", chunk)
        cdf = simulate._cdf(np.random.default_rng(size).dirichlet(np.ones(size)))
        shape = (3, 7, n)
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        got = simulate._letter_sample(rng, cdf, shape)
        want = slice_formula(ref, cdf, shape)
        assert got.shape == (3, 7, (size - 1).bit_length(), -(-n // 64)) and got.dtype == np.uint64
        assert np.array_equal(simulate._letters(got, n), want)
        assert np.array_equal(got, packed_book(want, size))  # the tail bits are zero
        assert rng.random() == ref.random()

    def test_in_place_draw_allocates_one_slice(self):
        shape = (3, 2048, 256)
        cdf = simulate._cdf(np.array([0.2, 0.5, 0.3]))
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = simulate._letter_sample(rng, cdf, shape)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the packed planes, then one chunk of doubles, letters and bools
        assert out.shape == (3, 2048, 2, 4)
        assert peak <= out.nbytes + simulate.DRAW_CHUNK * (8 + 1 + 1) + 64 * 1024


class TestTypicalCandidates:
    @staticmethod
    def codeword(rng, own, counts):
        """A codeword whose letter counts in own cell o are counts[o]."""
        row = np.zeros(len(own), dtype=np.uint8)
        for o, t in enumerate(counts):
            at = np.flatnonzero(own == o)
            row[at] = rng.permutation(np.repeat(np.arange(len(t)), t))
        return row

    @pytest.mark.parametrize("n", [1, 63, 64, 65, simulate.MAX_N])
    def test_counts_on_and_one_past_each_bound(self, n):
        # three letters over own cells 0 and 1 (cell 2 never occurs); the
        # in-bound rows hold the base counts c, which sit on lo = c under
        # the first bounds and on hi = c under the second; every other row
        # moves one letter of one cell, one count past lo or past hi
        rng = np.random.default_rng(n)
        n_own = np.array([n - n // 3, n // 3, 0])
        own = rng.permutation(np.repeat(np.arange(3), n_own))
        c = np.array([np.bincount(np.arange(k) % 3, minlength=3) for k in n_own])
        moved = []
        for o, a, b in np.ndindex(2, 3, 3):
            if a != b and c[o, a] > 0:
                t = c.copy()
                t[o, a] -= 1
                t[o, b] += 1
                moved.append(t)
        tables = [c] * 4 + moved
        order = rng.permutation(len(tables))
        book = packed_book(np.stack([self.codeword(rng, own, tables[i]) for i in order]), 3)
        expected = np.flatnonzero(order < 4)
        for bounds in ((c, np.repeat(n_own[:, None], 3, axis=1)), (np.zeros_like(c), c)):
            got = simulate._typical_candidates(own, book, bounds)
            assert got.dtype == np.intp
            assert got.tolist() == expected.tolist()


class TestEncode:
    def test_planted_codeword_always_selected(self, pipes_identity):
        ch, src, d, cfg = pipes_identity
        ctx = SimContext(cfg, ch, src)
        params = SimParams(n=64, blocks=1, eps=0.3, eps1=0.01, rate1=0.0, rate2=0.0)
        rng = np.random.default_rng(7)
        n, m = 64, 8
        for _ in range(50):
            # balanced source block makes its own empirical law exact
            s = np.repeat([0, 1], n // 2)
            rng.shuffle(s)
            book = rng.integers(0, 2, size=(m, n))
            planted = int(rng.integers(m))
            book[planted] = s
            prev = (np.zeros(n, dtype=int), np.zeros(n, dtype=int), np.zeros(n, dtype=int))
            mj, u, x, covered = encode_block(ctx, 1, s, prev, packed_book(book, 2), params, rng)
            assert covered and mj == planted and np.array_equal(u, s)

    def test_covering_failure_grows_below_rate_threshold(self):
        # codeword rate below the source-codeword information: failures
        # approach one as the block length grows
        ch = tw.preset_crossed_bitpipes()
        src = tw.preset_independent_bernoulli(0.5, 0.5)
        d = tw.hamming(src.s1)
        cfg = lift_hybrid(bsc_codeword_scheme(ch, src, 0.2145, d, d), ch, src)
        ctx = SimContext(cfg, ch, src)
        freqs = []
        for n in (64, 128, 256):
            params = SimParams(n=n, blocks=1, eps=0.8, eps1=0.7, rate1=0.05, rate2=0.05)
            rng = np.random.default_rng(123)
            fails = 0
            for _ in range(200):
                books = generate_codebooks(cfg, src, params, rng)
                s1, _ = ctx.sample_source(rng, n)
                prev = tuple(np.asarray(books.init_prev[i]) for i in (0, 2, 4))
                fails += not encode_block(ctx, 1, s1, prev, books.u1[0], params, rng)[3]
            freqs.append(fails / 200)
        assert freqs[0] < freqs[2]
        assert freqs[2] >= 0.99

    def test_encoder_ignoring_fresh_inputs(self, pipes_identity):
        # the lifted encoder reads only the previous-block pair
        ch, src, d, cfg = pipes_identity
        ctx = SimContext(cfg, ch, src)
        params = SimParams(n=16, blocks=1, eps=0.3, eps1=0.1, rate1=0.0, rate2=0.0)
        rng = np.random.default_rng(11)
        pu = rng.integers(0, 2, 16)
        prev = (rng.integers(0, 2, 16), pu, rng.integers(0, 4, 16))
        book = packed_book(rng.integers(0, 2, size=(1, 16)), 2)
        _, _, x, _ = encode_block(ctx, 1, rng.integers(0, 2, 16), prev, book, params, rng)
        assert np.array_equal(x, pu)


class TestDecode:
    def test_unique_typical_candidate_decoded(self, pipes_identity):
        ch, src, d, cfg = pipes_identity
        ctx = SimContext(cfg, ch, src)
        n, m = 64, 16
        params = SimParams(n=n, blocks=1, eps=2.5, eps1=0.5, rate1=0.0, rate2=0.0)
        rng = np.random.default_rng(99)
        correct = 0
        wrong_candidates = 0
        claim_violations = 0
        trials = 200
        for _ in range(trials):
            ps1 = rng.integers(0, 2, n)
            pu1 = ps1.copy()
            ps2 = rng.integers(0, 2, n)
            pu2 = ps2.copy()
            pio2 = rng.integers(0, 2, n) * 2 + rng.integers(0, 2, n)
            s2 = rng.integers(0, 2, n)
            own = (s2, s2.copy(), ps2, pu2, pio2, pu1.copy())
            book = rng.integers(0, 2, size=(m, n))
            truth = int(rng.integers(m))
            book[truth] = pu1
            m_hat, recon, cand = decode_block(ctx, 2, own, packed_book(book, 2), params, rng)
            correct += m_hat == truth
            wrong = bool(np.any(cand != truth))
            wrong_candidates += wrong
            if truth in cand and not wrong and m_hat != truth:
                claim_violations += 1
        assert correct / trials >= 0.95
        assert wrong_candidates == 0
        assert claim_violations == 0

    def test_single_codeword_always_decoded(self, bmc_example2):
        ch, src, d, cfg = bmc_example2
        ctx = SimContext(cfg, ch, src)
        params = SimParams(n=16, blocks=1, eps=0.3, eps1=0.1, rate1=0.0, rate2=0.0)
        rng = np.random.default_rng(0)
        n = 16
        book = packed_book(np.zeros((1, n), dtype=int), 2)
        own = (rng.integers(0, 2, n), np.zeros(n, dtype=int), rng.integers(0, 2, n),
               np.zeros(n, dtype=int), rng.integers(0, 4, n), rng.integers(0, 2, n))
        m_hat, recon, cand = decode_block(ctx, 2, own, book, params, rng)
        assert m_hat == 0


class TestRunSimulation:
    def test_uncoded_bmc_lossless(self, bmc_example2):
        ch, src, d, cfg = bmc_example2
        params = SimParams(n=64, blocks=3, eps=0.3, eps1=0.15, rate1=0.0, rate2=0.0,
                           seed=7, trials=100)
        rep = run_simulation(cfg, ch, src, d, d, params)
        assert rep.distortion1 == 0.0
        assert rep.distortion2 == 0.0
        assert rep.decode_accuracy == 1.0
        assert rep.claim_violations == 0
        assert rep.unexplained_mismatch == 0

    def test_block_average_identity(self, bmc_example2):
        ch, src, d, cfg = bmc_example2
        params = SimParams(n=32, blocks=4, eps=0.3, eps1=0.15, rate1=0.0, rate2=0.0,
                           seed=3, trials=20)
        rep = run_simulation(cfg, ch, src, d, d, params)
        assert rep.distortion1 == pytest.approx(np.mean([b[0] for b in rep.per_block]), abs=1e-15)
        assert rep.distortion2 == pytest.approx(np.mean([b[1] for b in rep.per_block]), abs=1e-15)

    def test_deterministic_for_fixed_seed(self, bmc_example2):
        ch, src, d, cfg = bmc_example2
        params = SimParams(n=32, blocks=2, eps=0.3, eps1=0.15, rate1=0.0, rate2=0.0,
                           seed=11, trials=25)
        a = run_simulation(cfg, ch, src, d, d, params)
        b = run_simulation(cfg, ch, src, d, d, params)
        assert a == b  # wall clock excluded from comparison

    def test_state_threading_via_lossless_pipes(self):
        # the io symbol stored at block b must be block b-1's (x, y) pair;
        # the uncoded crossed-pipe configuration reconstructs losslessly
        # from exactly that stored symbol
        ch = tw.preset_crossed_bitpipes()
        src = tw.preset_example2_source()
        d = tw.hamming(src.s1)
        cfg = uncoded_configuration(ch, src, d, d)
        params = SimParams(n=24, blocks=3, eps=0.5, eps1=0.25, rate1=0.0, rate2=0.0,
                           seed=2, trials=50)
        rep = run_simulation(cfg, ch, src, d, d, params)
        assert rep.distortion1 == 0.0
        assert rep.distortion2 == 0.0

    def test_error_events_decrease_with_block_length(self):
        ch = tw.preset_crossed_bitpipes()
        src = tw.preset_independent_bernoulli(0.5, 0.5)
        d = tw.hamming(src.s1)
        cfg = lift_hybrid(bsc_codeword_scheme(ch, src, 0.45, d, d), ch, src)
        reports = {}
        for n in (64, 256):
            params = SimParams(n=n, blocks=3, eps=0.3, eps1=0.15, rate1=0.04, rate2=0.04,
                               seed=3, trials=60)
            reports[n] = run_simulation(cfg, ch, src, d, d, params)
        assert reports[256].total_error_events < reports[64].total_error_events
        for rep in reports.values():
            assert rep.claim_violations == 0
            assert rep.unexplained_mismatch == 0
            # count bounds per event class
            assert rep.err_typicality <= rep.trials * 4
            assert all(c <= rep.trials * 3 for c in rep.err_cover)
            assert all(c <= rep.trials * 3 for c in rep.err_confusion)

    def test_decoder_succeeds_on_identity_channel_scheme(self):
        # each terminal sends its codeword letter uncoded over crossed pipes,
        # so the other terminal sees it in the next block and the decoder's
        # typicality test picks the sent index well above chance (1/256)
        ch = tw.preset_crossed_bitpipes()
        v = Alphabet(2, "v")
        gamma = np.broadcast_to(np.arange(2)[:, None, None], (2, 2, 4))  # x = v
        scheme = AdaptiveChannelScheme(v, v, np.full(2, 0.5), np.full(2, 0.5), gamma, gamma,
                                       ch.x1, ch.x2, ch.y1, ch.y2)
        cfg = markov.build_chain(embed_adaptive_scheme(scheme), ch, _UNIT_SOURCE).cfg
        d = tw.hamming(Alphabet(1))
        params = SimParams(n=256, blocks=3, eps=0.5, eps1=0.2, rate1=8 / 256, rate2=8 / 256,
                           seed=1, trials=5)
        rep = run_simulation(cfg, ch, _UNIT_SOURCE, d, d, params)
        assert rep.decode_accuracy >= 0.25
        assert rep.claim_violations == 0

    def test_peak_memory_is_one_trials_codebooks(self):
        ch = tw.preset_crossed_bitpipes()
        src = tw.preset_independent_bernoulli(0.5, 0.5)
        d = tw.hamming(src.s1)
        cfg = lift_hybrid(bsc_codeword_scheme(ch, src, 0.45, d, d), ch, src)
        params = SimParams(n=256, blocks=3, eps=0.3, eps1=0.15, rate1=0.04, rate2=0.04,
                           seed=5, trials=2)
        # a first run makes the imports a simulation triggers, which are not its memory
        run_simulation(cfg, ch, src, d, d, dataclasses.replace(params, trials=1))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_simulation(cfg, ch, src, d, d, params)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # both books hold one plane of n / 64 words per codeword; beyond them
        # one draw buffer (doubles, letters and bools) and 256 KiB
        books = 2 * params.blocks * codebook_size(params.n, params.rate1) * (params.n // 64) * 8
        assert peak <= books + simulate.DRAW_CHUNK * (8 + 1 + 1) + 256 * 1024

    def test_jscc_rate_reported(self, bmc_example2):
        ch, src, d, cfg = bmc_example2
        params = SimParams(n=16, blocks=3, eps=0.3, eps1=0.15, rate1=0.0, rate2=0.0, trials=2)
        rep = run_simulation(cfg, ch, src, d, d, params)
        assert rep.jscc_rate == pytest.approx(0.75)



class TestRateZeroAgreesWithChain:
    """At rate 0 each book holds one codeword, an i.i.d. q_j sequence drawn
    independently of the source, and decoding cannot fail.  When the codeword
    law does not read the source, pu_j(u | s) = q_j(u), the simulated letters
    follow the chain's law at every position (each trial starts from the
    stationary law), so a trial's block-averaged distortion is an unbiased
    estimate of `reconstruction_distortions`.  Random f and g tables read
    every argument: (s, u, prev_s, prev_u, prev_io) and (other u, own block, y)."""

    CASES = 18  # configurations: BMC, bit-pipes, random binary channels; |U| in {1, 2}
    TRIALS = 30
    ALPHA = 0.01  # family-wise error level of the 2 * CASES comparisons

    @staticmethod
    def _configurations(count):
        rng = np.random.default_rng(21)
        channels = (tw.preset_bmc, tw.preset_crossed_bitpipes, lambda: random_binary_channel(rng))
        out, k = [], 0
        while len(out) < count:
            ch, aux = channels[k % 3](), 1 + (k // 3) % 2
            k += 1
            src = random_joint_source(rng)
            cfg = random_configuration(rng, ch, src, aux, aux)
            q = rng.dirichlet(np.ones(aux), size=2)
            cfg = dataclasses.replace(
                cfg, pu1_given_s1=ConditionalPmf((src.s1,), (cfg.u1,), np.tile(q[0], (src.s1.size, 1))),
                pu2_given_s2=ConditionalPmf((src.s2,), (cfg.u2,), np.tile(q[1], (src.s2.size, 1))))
            try:
                out.append((markov.build_chain(cfg, ch, src), ch, src, aux))
            except ValueError:  # a law that is not unique
                continue
        return out

    def test_simulated_distortions_match_the_chain(self):
        cases = self._configurations(self.CASES)
        assert {aux for *_, aux in cases} == {1, 2}
        quantile = NormalDist().inv_cdf(1 - self.ALPHA / (2 * 2 * len(cases)))  # two-sided, Bonferroni
        for chain, ch, src, _ in cases:
            d = tw.hamming(src.s1)
            want = markov.reconstruction_distortions(chain, d, d)
            per_trial = []
            for seed in range(self.TRIALS):  # one trial per run: its block average
                params = SimParams(n=256, blocks=3, eps=0.3, eps1=0.15, rate1=0.0, rate2=0.0,
                                   seed=seed, trials=1)
                rep = run_simulation(chain.cfg, ch, src, d, d, params)
                assert rep.decode_accuracy == 1.0
                assert rep.claim_violations == 0
                per_trial.append((rep.distortion1, rep.distortion2))
            got = np.array(per_trial)
            err = got.std(axis=0, ddof=1) / np.sqrt(self.TRIALS)
            for j in range(2):
                assert abs(got[:, j].mean() - want[j]) <= quantile * err[j] + 1e-12, (j, want, got.mean(0))


class TestFullStateSupport:
    def test_criterion_8_context_reads_the_factors(self, monkeypatch):
        # the criterion-8 set-up: 1024 positive full-state cells, more than
        # the n = 256 letters of a block, so no block is typical
        def refuse(*args, **kwargs):
            raise AssertionError("pair_law called")

        monkeypatch.setattr(markov, "pair_law", refuse)
        monkeypatch.setattr(simulate, "pair_law", refuse)
        ch = tw.preset_crossed_bitpipes()
        src = tw.preset_independent_bernoulli(0.5, 0.5)
        d = tw.hamming(src.s1)
        cfg = lift_hybrid(bsc_codeword_scheme(ch, src, 0.45, d, d), ch, src)
        ctx = SimContext(cfg, ch, src)
        dense = dense_pair_law(markov.build_chain(cfg, ch, src), ctx.pi)
        assert ctx.support == np.count_nonzero(dense.probs) == 1024
        params = SimParams(n=256, blocks=3, eps=0.3, eps1=0.15, rate1=0.04, rate2=0.04, seed=1)
        assert run_simulation(cfg, ch, src, d, d, params).err_typicality == 4

    def test_dueck_configuration_simulates(self, monkeypatch):
        # a Dueck configuration's full-state law has 16384^2 cells, which the
        # simulator never forms; its 65536-cell support exceeds n, so every
        # block is atypical
        workloads = load_bench_workloads(monkeypatch)
        ch, src, (cfg,) = workloads.WORKLOADS["eval_dueck"].setup([0])
        cfg = dataclasses.replace(cfg, prev_law=markov.stationary_prev_law(cfg, ch, src))
        d = tw.hamming(src.s1)
        params = SimParams(n=64, blocks=2, eps=0.3, eps1=0.15, rate1=0.0, rate2=0.0, seed=0)
        assert SimContext(cfg, ch, src).support == 65536
        assert run_simulation(cfg, ch, src, d, d, params).err_typicality == 3
