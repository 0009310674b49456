import numpy as np
import pytest

import twjscc as tw
from twjscc.probability import Alphabet, JointPmf, mutual_information, marginalize

from util import conditional_entropy, entropy, expected_distortion


class TestBmcPreset:
    def test_both_ones_passes_one(self):
        ch = tw.preset_bmc()
        assert ch.law.probs[1, 1, 1, 1] == 1.0

    def test_any_zero_input_gives_zero(self):
        ch = tw.preset_bmc()
        assert ch.law.probs[0, 1, 0, 0] == 1.0

    def test_deterministic_rows(self):
        ch = tw.preset_bmc()
        rows = ch.law.probs.reshape(4, 4)
        assert np.all(np.sort(rows, axis=1)[:, -1] == 1.0)
        assert np.all((rows > 0).sum(axis=1) == 1)

    def test_row_stochastic(self):
        ch = tw.preset_bmc()
        assert np.allclose(ch.law.probs.sum(axis=(2, 3)), 1.0, atol=1e-15)


class TestDueckPreset:
    def test_alphabet_sizes(self):
        ch = tw.preset_dueck()
        assert (ch.x1.size, ch.y1.size) == (4, 8)

    def test_rows_have_four_quarter_entries(self):
        ch = tw.preset_dueck()
        rows = ch.law.probs.reshape(16, 64)
        assert np.all((rows > 0).sum(axis=1) == 4)
        assert np.allclose(rows[rows > 0], 0.25)

    def test_row_stochastic(self):
        ch = tw.preset_dueck()
        assert np.allclose(ch.law.probs.sum(axis=(2, 3)), 1.0, atol=1e-15)

    def test_first_coordinate_is_and_of_first_input_bits(self):
        ch = tw.preset_dueck()
        for x1 in range(4):
            for x2 in range(4):
                want = (x1 >> 1) & (x2 >> 1)
                slice_ = ch.law.probs[x1, x2]
                ys = np.argwhere(slice_ > 0)
                assert np.all(ys[:, 0] >> 2 == want)
                assert np.all(ys[:, 1] >> 2 == want)

    def test_noise_coordinates_consistent_across_terminals(self):
        # third bit of y1 is the same coin that, xored with the second input
        # bit of terminal 1, forms the second bit of y2
        ch = tw.preset_dueck()
        for x1 in range(4):
            x12 = x1 & 1
            for x2 in range(4):
                for y1, y2 in np.argwhere(ch.law.probs[x1, x2] > 0):
                    n2 = y1 & 1
                    assert (y2 >> 1) & 1 == (n2 ^ x12)


class TestSources:
    def test_example2_entries(self):
        src = tw.preset_example2_source()
        assert src.law.probs[0, 0] == 0.0
        assert np.allclose(src.law.probs[[0, 1, 1], [1, 0, 1]], 1 / 3)

    def test_example2_marginal(self):
        src = tw.preset_example2_source()
        assert marginalize(src.law, (0,)).probs[1] == pytest.approx(2 / 3, abs=1e-15)

    def test_example2_conditional_entropy(self):
        src = tw.preset_example2_source()
        assert conditional_entropy(src.law, 0, 1) == pytest.approx(2 / 3, abs=1e-12)

    def test_bernoulli_089_half_bit(self):
        src = tw.preset_independent_bernoulli(0.89, 0.89)
        assert entropy(marginalize(src.law, (0,))) == pytest.approx(0.4999, abs=1e-3)

    def test_bernoulli_degenerate(self):
        src = tw.preset_independent_bernoulli(0.0, 1.0)
        assert src.law.probs[0, 1] == 1.0

    def test_bernoulli_independent(self):
        src = tw.preset_independent_bernoulli(0.4, 0.7)
        assert mutual_information(src.law, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            tw.preset_independent_bernoulli(1.2, 0.5)


class TestDistortion:
    def test_hamming_entries(self):
        d = tw.hamming(Alphabet(3))
        assert d.table[0, 0] == 0.0
        assert d.table[0, 1] == 1.0
        assert d.d_max == 1.0

    def test_expected_distortion_diagonal(self):
        sa = Alphabet(2)
        joint = JointPmf((sa, sa), np.array([[0.3, 0.0], [0.0, 0.7]]))
        assert expected_distortion(joint, tw.hamming(sa)) == 0.0

    def test_expected_distortion_uniform(self):
        sa = Alphabet(2)
        joint = JointPmf((sa, sa), np.full((2, 2), 0.25))
        assert expected_distortion(joint, tw.hamming(sa)) == pytest.approx(0.5)

    def test_expected_distortion_off_diagonal_mass(self):
        sa = Alphabet(2)
        joint = JointPmf((sa, sa), np.array([[0.5, 0.11], [0.0, 0.39]]))
        assert expected_distortion(joint, tw.hamming(sa)) == pytest.approx(0.11)

    def test_linearity_in_joint(self):
        rng = np.random.default_rng(0)
        sa = Alphabet(2)
        d = tw.hamming(sa)
        a = rng.dirichlet(np.ones(4)).reshape(2, 2)
        b = rng.dirichlet(np.ones(4)).reshape(2, 2)
        lam = 0.3
        mix = JointPmf((sa, sa), lam * a + (1 - lam) * b)
        da = expected_distortion(JointPmf((sa, sa), a), d)
        db = expected_distortion(JointPmf((sa, sa), b), d)
        assert expected_distortion(mix, d) == pytest.approx(lam * da + (1 - lam) * db, abs=1e-12)

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            tw.DistortionMeasure(Alphabet(2), Alphabet(2), np.array([[0.0, -1.0], [1.0, 0.0]]))


class TestBitpipes:
    def test_crossed_pipes(self):
        ch = tw.preset_crossed_bitpipes()
        for x1 in range(2):
            for x2 in range(2):
                assert ch.law.probs[x1, x2, x2, x1] == 1.0
