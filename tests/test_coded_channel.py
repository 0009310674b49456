import numpy as np
import pytest

import twjscc as tw
from twjscc.coded_channel import coded_channel_law, input_law
from twjscc.probability import conditional_mutual_information, marginalize, mutual_information
from twjscc.region import uncoded_configuration

from util import random_binary_channel, random_configuration, random_joint_source


@pytest.fixture
def bmc_uncoded():
    ch = tw.preset_bmc()
    src = tw.preset_example2_source()
    d = tw.hamming(src.s1)
    return ch, src, uncoded_configuration(ch, src, d, d)


class TestCodedChannelLaw:
    def test_uncoded_bmc_puts_mass_on_product(self, bmc_uncoded):
        ch, src, cfg = bmc_uncoded
        law = coded_channel_law(cfg, ch)
        # s = (1, 1) drives x = (1, 1) regardless of the remaining inputs
        slice_ = law.probs[1, 1, 0, 0, 0, 0, 0, 0, 0, 0]
        assert slice_[1, 1] == 1.0

    def test_deterministic_channel_gives_point_masses(self, bmc_uncoded):
        ch, src, cfg = bmc_uncoded
        law = coded_channel_law(cfg, ch)
        flat = law.probs.reshape(-1, ch.y1.size * ch.y2.size)
        assert np.all((flat > 0).sum(axis=1) == 1)

    def test_law_constant_in_ignored_inputs(self, bmc_uncoded):
        ch, src, cfg = bmc_uncoded
        law = coded_channel_law(cfg, ch)
        # the uncoded encoders ignore everything except the fresh sources
        base = law.probs[:, :, 0:1, 0:1, 0:1, 0:1, 0:1, 0:1, 0:1, 0:1]
        assert np.allclose(law.probs, base)

    def test_slices_normalized(self, bmc_uncoded):
        ch, src, cfg = bmc_uncoded
        law = coded_channel_law(cfg, ch)
        assert np.allclose(law.probs.sum(axis=(-2, -1)), 1.0, atol=1e-12)


class TestInputLaw:
    def test_blocks_independent(self, bmc_uncoded):
        ch, src, cfg = bmc_uncoded
        p = input_law(cfg, src)
        assert mutual_information(p, (0, 1, 2, 3), (4, 5, 6, 7, 8, 9)) <= 1e-10

    def test_source_marginal_recovered(self, bmc_uncoded):
        ch, src, cfg = bmc_uncoded
        p = input_law(cfg, src)
        assert np.allclose(marginalize(p, (0, 1)).probs, src.law.probs, atol=1e-12)

    def test_codeword_factorization(self):
        rng = np.random.default_rng(0)
        ch = random_binary_channel(rng)
        src = random_joint_source(rng)
        cfg = random_configuration(rng, ch, src)
        from twjscc.markov import stationary_prev_law
        import dataclasses

        cfg = dataclasses.replace(cfg, prev_law=stationary_prev_law(cfg, ch, src))
        p = input_law(cfg, src)
        # u1 depends on s1 only; u2 on s2 only
        assert conditional_mutual_information(p, (2,), (1, 3), (0,)) <= 1e-10
        assert conditional_mutual_information(p, (3,), (0, 2), (1,)) <= 1e-10

    def test_missing_prev_law_rejected(self):
        rng = np.random.default_rng(1)
        ch = random_binary_channel(rng)
        src = random_joint_source(rng)
        cfg = random_configuration(rng, ch, src)
        with pytest.raises(ValueError):
            input_law(cfg, src)


class TestComposition:
    def test_composed_law_reproduces_channel(self):
        # pushing the input law through the coded-channel law and reading the
        # conditional of (y1, y2) given the encoder outputs recovers the
        # physical channel wherever the input has mass
        rng = np.random.default_rng(2)
        ch = random_binary_channel(rng)
        src = random_joint_source(rng)
        cfg = random_configuration(rng, ch, src)
        import dataclasses
        from twjscc.markov import stationary_prev_law

        cfg = dataclasses.replace(cfg, prev_law=stationary_prev_law(cfg, ch, src))
        inp = input_law(cfg, src)
        law = coded_channel_law(cfg, ch)
        joint = inp.probs[..., None, None] * law.probs
        shape10 = inp.probs.shape
        idx = np.indices(shape10, sparse=True)
        x1 = cfg.f1[idx[0], idx[2], idx[4], idx[6], idx[8]]
        x2 = cfg.f2[idx[1], idx[3], idx[5], idx[7], idx[9]]
        x1, x2 = np.broadcast_arrays(x1, x2)
        acc = np.zeros((2, 2, 2, 2))
        np.add.at(acc, (x1[..., None, None], x2[..., None, None],
                        np.arange(2)[:, None], np.arange(2)[None, :]), joint)
        mass = acc.sum(axis=(2, 3))
        cond = acc / np.where(mass > 0, mass, 1.0)[:, :, None, None]
        for a in range(2):
            for b in range(2):
                if mass[a, b] > 1e-12:
                    assert np.allclose(cond[a, b], ch.law.probs[a, b], atol=1e-10)

    def test_alphabet_mismatch_rejected(self, bmc_uncoded):
        ch, src, cfg = bmc_uncoded
        other = tw.preset_dueck()
        with pytest.raises(ValueError):
            coded_channel_law(cfg, other)
