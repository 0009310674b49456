import re

import numpy as np
import pytest

from twjscc.probability import (
    Alphabet,
    ConditionalPmf,
    JointPmf,
    bernoulli,
    conditional_mutual_information,
    marginalize,
    mutual_information,
)

from util import binary_entropy, conditional_entropy, entropy, joint_typicality_test, product


def example2_pmf() -> JointPmf:
    sa = Alphabet(2)
    return JointPmf((sa, sa), np.array([[0.0, 1.0], [1.0, 1.0]]) / 3.0)


def random_pmf(rng, shape):
    p = rng.gamma(1.0, 1.0, size=shape)
    p /= p.sum()
    return JointPmf(tuple(Alphabet(k) for k in shape), p)


class TestAlphabet:
    @pytest.mark.parametrize("size", [2, np.int64(2), np.int32(2), np.uint8(2)])
    def test_integer_sizes_accepted(self, size):
        assert Alphabet(size).size == 2

    @pytest.mark.parametrize("size", [True, False, 2.0, np.float64(2.0), "2", None])
    def test_non_integer_size_refused(self, size):
        with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {size!r}")):
            Alphabet(size)

    @pytest.mark.parametrize("size", [0, -1, np.int64(0)])
    def test_size_below_one_refused(self, size):
        with pytest.raises(ValueError, match=">= 1"):
            Alphabet(size)


class TestEntropy:
    def test_fair_coin(self):
        assert entropy(bernoulli(0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_biased_coin_is_half_bit(self):
        assert entropy(bernoulli(0.89)) == pytest.approx(0.4999, abs=1e-3)

    def test_uniform_ternary(self):
        p = JointPmf((Alphabet(3),), np.full(3, 1 / 3))
        assert entropy(p) == pytest.approx(np.log2(3), abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            JointPmf((Alphabet(2),), np.array([0.6, 0.5]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            JointPmf((Alphabet(2),), np.array([1.1, -0.1]))

    def test_rejects_nan(self):
        # abs(nan - 1) > tol is False, so the normalization check alone passes NaN
        with pytest.raises(ValueError, match="finite"):
            JointPmf((Alphabet(2),), np.full(2, np.nan))


class TestConditionalEntropy:
    def test_example2_conditionals(self):
        p = example2_pmf()
        assert conditional_entropy(p, 0, 1) == pytest.approx(2 / 3, abs=1e-9)
        assert conditional_entropy(p, 1, 0) == pytest.approx(2 / 3, abs=1e-9)

    def test_independent_pair_reduces_to_marginal_entropy(self):
        p = product(bernoulli(0.3), bernoulli(0.8))
        assert conditional_entropy(p, 0, 1) == pytest.approx(entropy(bernoulli(0.3)), abs=1e-12)

    def test_deterministic_copy_is_zero(self):
        sa = Alphabet(2)
        p = JointPmf((sa, sa), np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert conditional_entropy(p, 1, 0) == pytest.approx(0.0, abs=1e-12)

    def test_overlapping_axes_rejected(self):
        with pytest.raises(ValueError):
            conditional_entropy(example2_pmf(), (0,), (0,))


class TestMutualInformation:
    def test_independent_axes(self):
        p = product(bernoulli(0.3), bernoulli(0.8))
        assert mutual_information(p, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_copy_channel(self):
        sa = Alphabet(2)
        p = JointPmf((sa, sa), np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert mutual_information(p, 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_example2_value(self):
        # analytic: I(S1;S2) = h_b(1/3) - 2/3
        expected = binary_entropy(1 / 3) - 2 / 3
        assert mutual_information(example2_pmf(), 0, 1) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.251629, abs=1e-6)

    def test_bounds_on_random_pmfs(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            p = random_pmf(rng, (2, 3))
            mi = mutual_information(p, 0, 1)
            h0 = entropy(marginalize(p, (0,)))
            h1 = entropy(marginalize(p, (1,)))
            assert 0.0 <= mi <= min(h0, h1) + 1e-12


class TestConditionalMutualInformation:
    def test_empty_conditioning_reduces_to_mi(self):
        p = example2_pmf()
        assert conditional_mutual_information(p, (0,), (1,), ()) == pytest.approx(
            mutual_information(p, 0, 1), abs=1e-12
        )

    def test_conditionally_independent_product(self):
        rng = np.random.default_rng(1)
        pc = rng.dirichlet(np.ones(2))
        pa = rng.dirichlet(np.ones(2), size=2)
        pb = rng.dirichlet(np.ones(2), size=2)
        joint = pc[:, None, None] * pa[:, :, None] * pb[:, None, :]
        p = JointPmf((Alphabet(2),) * 3, joint)  # axes (c, a, b)
        assert abs(conditional_mutual_information(p, (1,), (2,), (0,))) <= 1e-12

    def test_two_link_chain_has_zero_cmi(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            pc = rng.dirichlet(np.ones(2))
            pa = rng.dirichlet(np.ones(2), size=2)
            pb = rng.dirichlet(np.ones(2), size=2)
            joint = pc[:, None, None] * pa[:, :, None] * pb[:, None, :]
            p = JointPmf((Alphabet(2),) * 3, joint)
            assert abs(conditional_mutual_information(p, (1,), (2,), (0,))) <= 1e-12

    def test_pairwise_disjoint_required(self):
        with pytest.raises(ValueError):
            conditional_mutual_information(random_pmf(np.random.default_rng(3), (2, 2, 2)), (0,), (1,), (1,))


class TestMarginalizeProduct:
    def test_keep_all_is_identity(self):
        p = example2_pmf()
        q = marginalize(p, (0, 1))
        assert np.array_equal(q.probs, p.probs)

    def test_product_factor_recovery(self):
        p = product(bernoulli(0.2), bernoulli(0.7))
        assert np.allclose(marginalize(p, (0,)).probs, [0.8, 0.2])
        assert np.allclose(marginalize(p, (1,)).probs, [0.3, 0.7])

    def test_example2_marginal(self):
        m = marginalize(example2_pmf(), (0,))
        assert np.allclose(m.probs, [1 / 3, 2 / 3])

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            marginalize(example2_pmf(), ())

    def test_product_entry(self):
        p = product(bernoulli(0.2), bernoulli(0.7))
        assert p.probs[1, 1] == pytest.approx(0.2 * 0.7, abs=1e-15)

    def test_product_entropy_additivity(self):
        a, b = bernoulli(0.2), bernoulli(0.7)
        assert entropy(product(a, b)) == pytest.approx(entropy(a) + entropy(b), abs=1e-12)

    def test_chain_rule_on_random_pmfs(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            p = random_pmf(rng, (3, 2))
            lhs = entropy(p)
            rhs = entropy(marginalize(p, (0,))) + conditional_entropy(p, 1, 0)
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestJointTypicality:
    def test_exact_match_accepted(self):
        ref = bernoulli(0.75)
        assert joint_typicality_test((np.array([1, 1, 1, 0]),), ref, 0.1)

    def test_all_zeros_rejected_for_biased_reference(self):
        ref = bernoulli(0.89)
        assert not joint_typicality_test((np.zeros(100, dtype=int),), ref, 0.1)

    def test_huge_eps_accepts_anything_on_full_support(self):
        ref = bernoulli(0.89)
        rng = np.random.default_rng(5)
        seq = rng.integers(0, 2, 50)
        assert joint_typicality_test((seq,), ref, 100.0)

    def test_eps_zero_accepts_exactly_matching_empirical(self):
        sa = Alphabet(2)
        ref = JointPmf((sa, sa), np.array([[0.25, 0.25], [0.25, 0.25]]))
        s1 = np.array([0, 0, 1, 1])
        s2 = np.array([0, 1, 0, 1])
        assert joint_typicality_test((s1, s2), ref, 0.0)
        assert not joint_typicality_test((s1, np.array([0, 1, 0, 0])), ref, 0.0)

    def test_eps_zero_accepts_exact_counts_of_rounded_product(self):
        # 0.7 * 0.1 == 0.06999999999999999: the float bound 100 * p lies
        # just below the exact count 7
        sa = Alphabet(2)
        ref = JointPmf((sa, sa), np.outer([0.7, 0.3], [0.1, 0.9]))
        counts = np.array([[7, 63], [3, 27]])
        s1, s2 = np.unravel_index(np.repeat(np.arange(4), counts.ravel()), (2, 2))
        assert joint_typicality_test((s1, s2), ref, 0.0)

    def test_zero_probability_symbol_must_not_appear(self):
        sa = Alphabet(2)
        ref = JointPmf((sa, sa), np.array([[0.5, 0.0], [0.0, 0.5]]))
        good = (np.array([0, 1, 0, 1]), np.array([0, 1, 0, 1]))
        bad = (np.array([0, 1, 0, 1]), np.array([0, 1, 0, 0]))
        assert joint_typicality_test(good, ref, 0.5)
        assert not joint_typicality_test(bad, ref, 0.5)

    def test_mismatched_lengths_rejected(self):
        sa = Alphabet(2)
        ref = JointPmf((sa, sa), np.full((2, 2), 0.25))
        with pytest.raises(ValueError):
            joint_typicality_test((np.array([0, 1]), np.array([0, 1, 1])), ref, 0.1)


class TestConditionalPmf:
    def test_slice_normalization_enforced(self):
        sa = Alphabet(2)
        with pytest.raises(ValueError):
            ConditionalPmf((sa,), (sa,), np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_rejects_nan(self):
        sa = Alphabet(2)
        with pytest.raises(ValueError, match="finite"):
            ConditionalPmf((sa,), (sa,), np.full((2, 2), np.nan))

    def test_valid_conditional(self):
        sa = Alphabet(2)
        c = ConditionalPmf((sa,), (sa,), np.array([[0.1, 0.9], [0.7, 0.3]]))
        assert c.probs.shape == (2, 2)
