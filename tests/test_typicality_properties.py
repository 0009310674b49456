"""Property tests of integer-count typicality, the simulator's candidate
search and its full-state test."""

import dataclasses

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import twjscc as tw
from twjscc.markov import build_chain
from twjscc.probability import (
    Alphabet,
    ConditionalPmf,
    JointPmf,
    typical_count_bounds,
)
from twjscc.simulate import SimContext, _typical_candidates

from util import (
    dense_pair_law,
    packed_book,
    joint_typicality_test,
    random_binary_channel,
    random_configuration,
    random_joint_source,
)


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
    letters = draw(st.integers(1, 4))
    n = draw(st.integers(1, 200))
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
    got = _typical_candidates(own, packed_book(book, ref.shape[1]), typical_count_bounds(ref, n, eps))
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


def sparse_system(rng, rows):
    """A random system of tests/util.py with about a third of the channel
    entries zeroed and a previous-block law on `rows` random states."""
    ch = random_binary_channel(rng)
    law = ch.law.probs * (rng.random(ch.law.probs.shape) < 0.7)
    law[..., 0, 0] += law.sum(axis=(2, 3)) == 0
    law /= law.sum(axis=(2, 3), keepdims=True)
    ch = tw.TwoWayChannel(ch.x1, ch.x2, ch.y1, ch.y2,
                          ConditionalPmf(ch.law.given_axes, ch.law.out_axes, law))
    src = random_joint_source(rng)
    cfg = random_configuration(rng, ch, src)
    shape = tuple(a.size for a in cfg.prev_axes)
    pi = np.zeros(int(np.prod(shape)))
    pi[rng.choice(pi.size, rows, replace=False)] = rng.dirichlet(np.ones(rows))
    return dataclasses.replace(cfg, prev_law=JointPmf(cfg.prev_axes, pi.reshape(shape))), ch, src


def feasible_letters(ctx, z_shape):
    """Every (previous state, fresh tuple, y1, y2) letter with the inputs the
    encoder tables produce, as its simulator cell and its 14-axis index."""
    cfg, ny1, ny2 = ctx.cfg, ctx.ch.y1.size, ctx.ch.y2.size
    prev, a, y1, y2 = np.indices((ctx.pi.size, ctx.psu.size, ny1, ny2)).reshape(4, -1)
    ps1, ps2, pu1, pu2, pio1, pio2 = np.unravel_index(prev, ctx.state_shape)
    s1, s2, u1, u2 = np.unravel_index(a, ctx.state_shape[:4])
    x1 = cfg.f1[s1, u1, ps1, pu1, pio1].astype(np.intp)  # x1 * ny1 would wrap a uint8 entry
    x2 = cfg.f2[s2, u2, ps2, pu2, pio2].astype(np.intp)
    state = np.ravel_multi_index((s1, s2, u1, u2, x1 * ny1 + y1, x2 * ny2 + y2), ctx.state_shape)
    z = np.ravel_multi_index((s1, s2, u1, u2, ps1, ps2, pu1, pu2, pio1, pio2, x1, x2, y1, y2),
                             z_shape)
    return prev * ctx.pi.size + state, z


@settings(deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.sampled_from([64, 4096, 2 ** 18, 2 ** 20]),
       st.lists(st.sampled_from(["drop", "extra", "jitter"]), max_size=3),
       st.sampled_from([0.2, 0.5, 1.0, 1.5]))
def test_full_state_verdict_matches_dense_oracle(seed, rows, n, flaws, eps):
    # a block of about n letters at the law's type, with one positive cell
    # left out per "drop", one more letter per "extra" in a feasible cell
    # drawn uniformly (most have zero probability), and each count moved
    # by up to the number of "jitter"s
    drop, extra, jitter = (flaws.count(f) for f in ("drop", "extra", "jitter"))
    rng = np.random.default_rng(seed)
    cfg, ch, src = sparse_system(rng, rows)
    ctx = SimContext(cfg, ch, src)
    law = dense_pair_law(build_chain(cfg, ch, src), ctx.pi)
    cells, z = feasible_letters(ctx, law.shape)
    p = law.probs.ravel()[z]
    counts = np.round(n * p).astype(np.int64)
    counts[rng.permutation(np.flatnonzero(counts))[:drop]] = 0
    counts = np.clip(counts + rng.integers(-jitter, jitter + 1, counts.size) * (counts > 0), 0, None)
    np.add.at(counts, rng.integers(0, counts.size, extra), 1)
    letters = rng.permutation(np.repeat(np.arange(counts.size), counts))
    assume(len(letters) > 0)
    lo, hi = typical_count_bounds(law.probs.ravel(), len(letters), eps)
    oracle = np.bincount(z[letters], minlength=law.probs.size)
    assert ctx.full_state_typical(cells[letters], eps) == bool(((lo <= oracle) & (oracle <= hi)).all())
