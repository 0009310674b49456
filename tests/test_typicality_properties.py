"""Property tests of integer-count typicality and the simulator's candidate search."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from twjscc.probability import Alphabet, JointPmf, joint_typicality_test, typical_count_bounds
from twjscc.simulate import _typical_candidates


def float_candidates(own, book, ref, eps):
    """Reference search: per-codeword bincount over (own cell, letter) and
    the float test |count/n - p| <= eps * p in every cell."""
    m, n = book.shape
    cells = ref.size
    idx = own[None, :] * ref.shape[1] + book
    counts = np.bincount((idx + (np.arange(m) * cells)[:, None]).ravel(), minlength=m * cells)
    flat = ref.reshape(-1)
    emp = counts.reshape(m, cells) / n
    return np.flatnonzero((np.abs(emp - flat) <= eps * flat).all(axis=1))


def clear_of_integers(x, rel=1e-7):
    """True when no nonzero entry of x lies within rel (relative) of an
    integer, where the float test and the integer bounds may round apart."""
    r = np.round(x)
    return bool(np.all(((r == 0) & (x == 0)) | (np.abs(x - r) > rel * np.maximum(np.abs(r), 1))))


@st.composite
def search_instances(draw):
    """An own sequence, a codebook and a reference on (own cell, letter).

    The reference mixes the joint type k of the planted codewords with
    noise restricted to a random support, so it has zero-probability
    cells, own cells that do not occur, and exactly typical codewords.
    """
    own_cells = draw(st.integers(1, 8))
    letters = draw(st.integers(2, 3))
    n = draw(st.integers(1, 64))
    m = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (own_cells, letters)
    k = rng.multinomial(n, rng.dirichlet(np.full(own_cells * letters, 0.5))).reshape(shape)
    noise = rng.dirichlet(np.ones(own_cells * letters)).reshape(shape)
    noise *= rng.random(shape) < 0.5
    t = draw(st.sampled_from([0.0, 0.02, 0.3])) if noise.sum() > 0 else 0.0
    ref = (1 - t) * k / n + (t * noise / noise.sum() if t else 0.0)

    own = np.repeat(np.arange(own_cells), k.sum(axis=1))
    planted = np.repeat(np.tile(np.arange(letters), own_cells), k.ravel())
    order = rng.permutation(n)
    own, planted = own[order], planted[order]
    book = rng.integers(0, letters, size=(m, n))
    for row in np.flatnonzero(rng.random(m) < 0.5):
        perm = np.arange(n)
        for cell in range(own_cells):  # shuffle letters within each own cell
            at = np.flatnonzero(own == cell)
            perm[at] = rng.permutation(at)
        book[row] = planted[perm]
    if draw(st.booleans()):  # move one letter to another own cell
        own[rng.integers(n)] = rng.integers(own_cells)
    eps = draw(st.floats(0.0, 1.5))
    return own, book.astype(np.uint8), ref, n, eps


@settings(deadline=None)
@given(search_instances())
def test_candidate_search_matches_float_bincount_path(inst):
    own, book, ref, n, eps = inst
    assume(clear_of_integers(n * ref * (1 - eps)) and clear_of_integers(n * ref * (1 + eps)))
    got = _typical_candidates(own, book, typical_count_bounds(ref, n, eps))
    assert got.tolist() == float_candidates(own, book.astype(np.int64), ref, eps).tolist()


@settings(deadline=None)
@given(st.integers(1, 6), st.integers(1, 200), st.integers(0, 2 ** 32 - 1),
       st.floats(0.0, 2.0), st.floats(0.0, 2.0))
def test_typicality_monotone_in_eps(cells, n, seed, e1, e2):
    rng = np.random.default_rng(seed)
    ref = rng.dirichlet(np.ones(cells)) * (rng.random(cells) < 0.8)
    assume(ref.sum() > 0)
    ref /= ref.sum()
    small, big = sorted((e1, e2))
    lo_s, hi_s = typical_count_bounds(ref, n, small)
    lo_b, hi_b = typical_count_bounds(ref, n, big)
    assert np.all(lo_b <= lo_s) and np.all(hi_s <= hi_b)
    seq = rng.choice(cells, size=n, p=ref)
    pmf = JointPmf((Alphabet(cells),), ref)
    if joint_typicality_test((seq,), pmf, small):
        assert joint_typicality_test((seq,), pmf, big)


@settings(deadline=None)
@given(st.lists(st.integers(0, 9), min_size=1, max_size=4),
       st.lists(st.integers(0, 9), min_size=1, max_size=4), st.integers(0, 2 ** 32 - 1))
def test_exact_counts_accepted_at_eps_zero(a, b, seed):
    # reference outer(a / |a|, b / |b|) with the exact counts outer(a, b):
    # the float products round off the integers the counts hit
    a, b = np.array(a), np.array(b)
    assume(a.sum() > 0 and b.sum() > 0)
    counts = np.outer(a, b)
    ref = JointPmf((Alphabet(len(a)), Alphabet(len(b))), np.outer(a / a.sum(), b / b.sum()))
    flat = np.random.default_rng(seed).permutation(np.repeat(np.arange(counts.size), counts.ravel()))
    seqs = np.unravel_index(flat, counts.shape)
    assert joint_typicality_test(seqs, ref, 0.0)
    moved = (seqs[0], seqs[1].copy())
    moved[1][0] = (moved[1][0] + 1) % len(b)
    if len(b) > 1:
        assert not joint_typicality_test(moved, ref, 0.0)
