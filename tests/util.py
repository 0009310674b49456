"""Shared builders for randomized test instances."""

import dataclasses
import importlib.util
import itertools
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import twjscc as tw
from twjscc import markov, region, simulate
from twjscc.coded_channel import Configuration, _check_table
from twjscc.conditions import (
    AdaptiveChannelScheme,
    ConditionReport,
    HybridEvaluation,
    HybridScheme,
    WZScheme,
    _adaptive_report,
    bayes_hybrid_decoders,
)
from twjscc.markov import RESIDUAL_TOL, MarkovSystem, build_chain, reconstruction_distortions
from twjscc.models import DistortionMeasure, JointSource, TwoWayChannel, bayes_decoder, decoder_distortion
from twjscc.probability import (
    AxisSet,
    Alphabet,
    ConditionalPmf,
    JointPmf,
    _as_axes,
    _check_disjoint,
    _plogp_sum,
    _subset_entropy,
    conditional_mutual_information,
    marginalize,
    typical_count_bounds,
)
from twjscc.region import RegionPoint, uncoded_configuration

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_workloads(monkeypatch):
    """The benchmark's `workloads` module, imported from `bench/` for one test."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    return workloads


def random_binary_channel(rng) -> tw.TwoWayChannel:
    xa, ya = Alphabet(2, "x"), Alphabet(2, "y")
    law = rng.gamma(1.0, 1.0, size=(2, 2, 2, 2))
    law /= law.sum(axis=(2, 3), keepdims=True)
    return tw.TwoWayChannel(xa, xa, ya, ya, ConditionalPmf((xa, xa), (ya, ya), law))


def random_joint_source(rng) -> tw.JointSource:
    sa = Alphabet(2, "s")
    law = rng.gamma(1.0, 1.0, size=(2, 2))
    law /= law.sum()
    return tw.JointSource(sa, sa, tw.JointPmf((sa, sa), law))


def random_hybrid_scheme(rng, src, ch, d1, d2, bayes=False) -> HybridScheme:
    u = Alphabet(2, "u")
    pu1 = ConditionalPmf((src.s1,), (u,), rng.dirichlet(np.ones(2), size=src.s1.size))
    pu2 = ConditionalPmf((src.s2,), (u,), rng.dirichlet(np.ones(2), size=src.s2.size))
    f1 = rng.integers(0, ch.x1.size, size=(src.s1.size, 2))
    f2 = rng.integers(0, ch.x2.size, size=(src.s2.size, 2))
    if bayes:
        g1, g2 = bayes_hybrid_decoders(pu1, pu2, f1, f2, ch, src, d1, d2)
    else:
        g1 = rng.integers(0, d2.recon_alphabet.size, size=(2, src.s1.size, 2, ch.y1.size))
        g2 = rng.integers(0, d1.recon_alphabet.size, size=(2, src.s2.size, 2, ch.y2.size))
    return HybridScheme(pu1, pu2, f1, f2, g1, g2, d1.recon_alphabet, d2.recon_alphabet)


# The single-block hybrid law and its readout: the independent oracle that
# the lifted chain's reports, distortions and Bayes decoders are checked against.

# Axes of the single-block law that the decoders are scored against.
_HYBRID_KEEP_1 = (0, 2, 1, 3, 7)  # s1, then g2's arguments (u1, s2, u2, y2)
_HYBRID_KEEP_2 = (1, 3, 0, 2, 6)  # s2, then g1's arguments (u2, s1, u1, y1)


def one_shot_hybrid_law(pu1: ConditionalPmf, pu2: ConditionalPmf, f1: np.ndarray, f2: np.ndarray,
                        ch: tw.TwoWayChannel, src: tw.JointSource) -> JointPmf:
    """Single-block law over (s1, s2, u1, u2, x1, x2, y1, y2) of the encoder
    half of a hybrid scheme: the codeword conditionals and x_j = f_j(s_j, u_j)."""
    f1 = _check_table("f1", f1, pu1.probs.shape, ch.x1.size)
    f2 = _check_table("f2", f2, pu2.probs.shape, ch.x2.size)
    t = src.law.probs[:, :, None, None] * pu1.probs[:, None, :, None] * pu2.probs[None, :, None, :]
    e1 = np.eye(ch.x1.size)[f1]  # (s1, u1, x1)
    e2 = np.eye(ch.x2.size)[f2]
    full = np.einsum("abcd,acx,bdw,xwyz->abcdxwyz", t, e1, e2, ch.law.probs)
    axes = (pu1.given_axes[0], pu2.given_axes[0], pu1.out_axes[0], pu2.out_axes[0],
            ch.x1, ch.x2, ch.y1, ch.y2)
    return JointPmf(axes, full)


def single_block_hybrid(hs: HybridScheme, ch, src, d1, d2) -> HybridEvaluation:
    """The single-block conditions and the decoders' distortions, read off
    `one_shot_hybrid_law`."""
    law = one_shot_hybrid_law(hs.pu1_given_s1, hs.pu2_given_s2, hs.f1, hs.f2, ch, src)
    lhs1 = conditional_mutual_information(law, (0,), (2,), (1, 3))
    rhs1 = conditional_mutual_information(law, (2,), (7,), (1, 3))
    lhs2 = conditional_mutual_information(law, (1,), (3,), (0, 2))
    rhs2 = conditional_mutual_information(law, (3,), (6,), (0, 2))
    report = ConditionReport.from_values(lhs1, rhs1, lhs2, rhs2)

    # terminal 1 rebuilds s2 via g1(u2, s1, u1, y1); terminal 2 mirrors
    m2 = marginalize(law, _HYBRID_KEEP_2).probs
    m1 = marginalize(law, _HYBRID_KEEP_1).probs
    g1 = _check_table("g1", hs.g1, m2.shape[1:], hs.recon2.size)
    g2 = _check_table("g2", hs.g2, m1.shape[1:], hs.recon1.size)
    dist2 = decoder_distortion(m2, g1, d2)
    dist1 = decoder_distortion(m1, g2, d1)
    return HybridEvaluation(report, (dist1, dist2))


def single_block_bayes_decoders(pu1, pu2, f1, f2, ch, src, d1, d2) -> tuple[np.ndarray, np.ndarray]:
    """Optimal deterministic single-block decoders, read off
    `one_shot_hybrid_law`; ties break toward the lowest reconstruction index."""
    law = one_shot_hybrid_law(pu1, pu2, f1, f2, ch, src)
    # g1(u2, s1, u1, y1) estimates s2; g2 mirrors
    g1 = bayes_decoder(marginalize(law, _HYBRID_KEEP_2).probs, d2)
    g2 = bayes_decoder(marginalize(law, _HYBRID_KEEP_1).probs, d1)
    return g1, g2


def random_configuration(rng, ch, src, aux1=2, aux2=2) -> tw.Configuration:
    """Random binary-auxiliary configuration without a previous-block law."""
    u1, u2 = Alphabet(aux1, "u1"), Alphabet(aux2, "u2")
    pu1 = ConditionalPmf((src.s1,), (u1,), rng.dirichlet(np.ones(aux1), size=src.s1.size))
    pu2 = ConditionalPmf((src.s2,), (u2,), rng.dirichlet(np.ones(aux2), size=src.s2.size))
    nio1 = ch.x1.size * ch.y1.size
    nio2 = ch.x2.size * ch.y2.size
    return tw.Configuration(
        u1=u1, u2=u2, pu1_given_s1=pu1, pu2_given_s2=pu2, prev_law=None,
        f1=rng.integers(0, ch.x1.size, size=(src.s1.size, aux1, src.s1.size, aux1, nio1)),
        f2=rng.integers(0, ch.x2.size, size=(src.s2.size, aux2, src.s2.size, aux2, nio2)),
        g1=rng.integers(0, src.s2.size, size=(aux2, src.s1.size, aux1, src.s1.size, aux1, nio1, ch.y1.size)),
        g2=rng.integers(0, src.s1.size, size=(aux1, src.s2.size, aux2, src.s2.size, aux2, nio2, ch.y2.size)),
        x1=ch.x1, x2=ch.x2, y1=ch.y1, y2=ch.y2,
        recon1=Alphabet(src.s1.size), recon2=Alphabet(src.s2.size),
    )


def echo_configuration():
    """(cfg, ch, src) with x_j = previous y_j on crossed bit-pipes and no
    previous-block law: (x1, x2) swaps every block, so (0, 0), (1, 1) and the
    {(0, 1), (1, 0)} cycle are closed classes and the stationary law is not unique."""
    ch = tw.preset_crossed_bitpipes()
    src = tw.preset_independent_bernoulli(0.5, 0.5)
    d = tw.hamming(src.s1)
    echo = np.ascontiguousarray(np.broadcast_to(np.arange(4) % 2, (2, 1, 2, 1, 4)))  # y = io % 2
    cfg = dataclasses.replace(uncoded_configuration(ch, src, d, d), prev_law=None, f1=echo, f2=echo)
    return cfg, ch, src


def exhaustive_search(ch, src, d1, d2, budget, seed) -> list[RegionPoint]:
    """search_region without pruning: the same phases and domination rule, but
    every candidate is solved and reported before its distortions are compared,
    and the budget is spent in full, past a kept (0, 0)."""
    search = region._Search(ch, src, d1, d2, np.random.default_rng(seed), (src.s1.size, src.s2.size))
    points, left = [], budget

    class Spent(Exception):
        pass

    def evaluate(cand):
        nonlocal points, left
        left -= 1
        try:
            chain = cand if isinstance(cand, MarkovSystem) else build_chain(cand, ch, src)
            report = _adaptive_report(chain)
        except (ValueError, RuntimeError) as exc:
            verdict = str(exc)
        else:
            verdict = "condition violated"
            if report.satisfied or report.boundary:
                dist = reconstruction_distortions(chain, d1, d2)
                verdict = RegionPoint(dist[0], dist[1], chain.cfg, report, report.boundary, chain.residual)
                if not any(region._dominates((q.d1, q.d2), dist) for q in points):
                    points = [q for q in points if not region._dominates(dist, (q.d1, q.d2))] + [verdict]
        if left == 0:
            raise Spent
        return verdict

    try:
        for phase in region.PHASES:
            phase(search, evaluate)
    except Spent:
        pass
    return points


def random_adaptive_scheme(rng, ch) -> AdaptiveChannelScheme:
    v = Alphabet(2, "v")
    nio1 = ch.x1.size * ch.y1.size
    nio2 = ch.x2.size * ch.y2.size
    return AdaptiveChannelScheme(
        v, v,
        rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2)),
        rng.integers(0, ch.x1.size, size=(2, 2, nio1)),
        rng.integers(0, ch.x2.size, size=(2, 2, nio2)),
        ch.x1, ch.x2, ch.y1, ch.y2,
    )


def random_wz_scheme(rng, src, which) -> WZScheme:
    s = src.s1 if which == 1 else src.s2
    other = src.s2 if which == 1 else src.s1
    t = Alphabet(2, "t")
    return WZScheme(
        t,
        ConditionalPmf((s,), (t,), rng.dirichlet(np.ones(2), size=s.size)),
        rng.integers(0, s.size, size=(other.size, 2)),
        Alphabet(s.size, "shat"),
    )


def packed_book(letters, size: int) -> np.ndarray:
    """Codeword letters (..., n) over a `size`-letter alphabet as the packed
    bit-sliced planes of `simulate.Codebooks`, (..., L, ceil(n / 64))."""
    letters = np.asarray(letters)
    bits = max(1, (size - 1).bit_length())
    return np.stack([simulate._packed_words(letters >> b & 1) for b in range(bits)], axis=-2)


def bsc_codeword_scheme(ch, src, q, d1, d2) -> HybridScheme:
    """Identity-input hybrid scheme whose codeword is the source through a
    binary symmetric test channel with crossover q."""
    u = Alphabet(2, "u")
    rows = np.array([[1 - q, q], [q, 1 - q]])
    pu1 = ConditionalPmf((src.s1,), (u,), rows)
    pu2 = ConditionalPmf((src.s2,), (u,), rows)
    f = np.array([[0, 1], [0, 1]])
    g1, g2 = bayes_hybrid_decoders(pu1, pu2, f, f, ch, src, d1, d2)
    return HybridScheme(pu1, pu2, f, f, g1, g2, d1.recon_alphabet, d2.recon_alphabet)


def all_rows_inputs(cfg, kernel):
    """x1, x2 of every state under every fresh tuple, as (states, fresh
    tuples) intp tables read from f1/f2 over the whole state grid (the
    callers compute cells from them, which a uint8 entry would wrap)."""
    prev = np.unravel_index(np.arange(kernel.n_states), kernel.state_shape)
    s1p, s2p, u1p, u2p, io1p, io2p = (c[:, None] for c in prev)
    s1, s2, u1, u2 = np.unravel_index(np.arange(kernel.psu.size), kernel.state_shape[:4])
    return (cfg.f1[s1, u1, s1p, u1p, io1p].astype(np.intp),
            cfg.f2[s2, u2, s2p, u2p, io2p].astype(np.intp))


def all_rows_image(cfg, kernel) -> np.ndarray:
    """Ascending states reached in one step from some state: the inputs of
    every (state, fresh tuple) pair with psu > 0, then every output pair
    with positive channel probability."""
    x1n, x2n = all_rows_inputs(cfg, kernel)
    psu, chan = kernel.psu, kernel.chan
    produced = np.zeros((psu.size,) + chan.shape[:2], dtype=bool)
    produced[np.arange(psu.size), x1n, x2n] = True
    produced &= (psu > 0)[:, None, None]
    return np.flatnonzero(produced[:, :, None, :, None] & (chan.transpose(0, 2, 1, 3) > 0))


def _all_rows_weights(sys, pi, outer):
    """bincount of pi[prev] psu[a] over every (state, fresh tuple) pair into
    (kept outer Z coordinates, x1, x2) cells."""
    x1n, x2n = all_rows_inputs(sys.cfg, sys.kernel)
    nx1, nx2 = sys.kernel.chan.shape[:2]
    grid = sys.reduced_shape + sys.reduced_shape[:4]
    g = np.indices(grid, sparse=True)
    coords = g[6:] + g[:6]
    flat = 0
    for k in outer:
        flat = flat * sys.z_axes[k].size + coords[k]
    flat = (flat * nx1 + x1n.reshape(grid)) * nx2 + x2n.reshape(grid)
    n_outer = int(np.prod([sys.z_axes[k].size for k in outer], dtype=np.int64))
    w = np.bincount(flat.ravel(), weights=(pi[:, None] * sys.kernel.psu).ravel(),
                    minlength=n_outer * nx1 * nx2)
    return w.reshape(n_outer, nx1, nx2)


def all_rows_push(sys, pi) -> np.ndarray:
    """pi K with the bincount over every (state, fresh tuple) pair."""
    w = _all_rows_weights(sys, pi, [0, 1, 2, 3])
    nx1, nx2 = w.shape[1:]
    return (w.reshape(-1, nx1, 1, nx2, 1) * sys.kernel.chan.transpose(0, 2, 1, 3)).ravel()


def all_rows_pair_marginal(sys, pi, keep, spread=False) -> np.ndarray:
    """pair_marginal's probabilities with the bincount over every (state,
    fresh tuple) pair.  The weights are contracted with the channel law
    summed over the dropped outputs, or with spread=True multiplied into the
    full (cells, x1, x2, y1, y2) tensor and summed over the dropped inputs
    and outputs."""
    current = (10, 11, 12, 13)
    outer = [k for k in keep if k not in current]
    w = _all_rows_weights(sys, pi, outer)
    chan = sys.kernel.chan
    if spread:
        t = w[:, :, :, None, None] * chan
        t = t.sum(axis=tuple(1 + i for i, k in enumerate(current) if k not in keep))
    else:
        xs = "".join(c for c, k in zip("ab", current[:2]) if k in keep)
        ys = "".join(c for c, k in zip("cd", current[2:]) if k in keep)
        chan = chan.sum(axis=tuple(2 + i for i, c in enumerate("cd") if c not in ys))
        t = np.einsum(f"oab,ab{ys}->o{xs}{ys}", w, chan)
    order = outer + [k for k in current if k in keep]
    t = np.transpose(t.reshape([sys.z_axes[k].size for k in order]), [order.index(k) for k in keep])
    t = np.clip(t, 0.0, None)
    return t / t.sum()


def dense_kernel(kernel) -> np.ndarray:
    """The (n_states, n_states) transition matrix of a FactoredKernel, from
    its own input tables, fresh law and channel law."""
    n, na = kernel.n_states, kernel.psu.size
    nx1, nx2, ny1, ny2 = kernel.chan.shape
    x1n, x2n = np.divmod(kernel.cells(np.arange(n)) % (nx1 * nx2), nx2)
    out = np.zeros((n, na, nx1, ny1, nx2, ny2))
    probs = kernel.psu[:, None, None] * kernel.chan[x1n, x2n]
    out[np.arange(n)[:, None], np.arange(na), x1n, :, x2n] = probs
    return out.reshape(n, n)


def dense_solve_stationary(kernel) -> tuple[np.ndarray, float]:
    """`markov.solve_stationary` with every iterate held as the dense n-vector
    and pushed by `kernel.push`: the oracle the image-held solve is checked
    against bit for bit (law, residual, errors)."""
    n = kernel.n_states
    pi = np.full(n, 1.0 / n)
    first = kernel.push_uniform()  # pi K; every later push reads only the one-step image
    best, best_res = pi, float(np.abs(first - pi).sum())
    lazy = False
    stall = 0
    it = 0
    while it < markov.SOLVE_MAX_ITER and best_res > markov.SOLVE_TARGET:
        it += 1
        nxt = first if it == 1 else kernel.push(pi)
        if lazy:
            nxt = 0.5 * (nxt + pi)
        nxt /= nxt.sum()
        res = float(np.abs(nxt - pi).sum()) * (2.0 if lazy else 1.0)
        pi = nxt
        if res < best_res:
            best_res = res
            best = nxt
            stall = 0
        else:
            stall += 1
        if not lazy and stall >= 200:
            # oscillating iterates: switch to the half-lazy kernel, which has
            # the same fixed points but is aperiodic
            lazy = True
            stall = 0
        elif lazy and stall >= 2000:
            break

    best = np.clip(best, 0.0, None)
    best /= best.sum()
    best_res = markov._residual(kernel, best)
    if best_res > markov.RESIDUAL_TOL:
        raise RuntimeError(
            f"stationary solve did not converge: residual {best_res:.3e} after {it} iterations"
        )
    rows = kernel.image()
    reach = np.arange(n) == np.argmax(best)
    while not reach[rows].all():
        grown = reach.copy()
        grown[rows] |= kernel.predecessors(reach, rows)
        if np.array_equal(grown, reach):
            raise ValueError("stationary law is not unique: some states never reach argmax pi")
        reach = grown
    return best, best_res


def dense_pair_law(sys, pi) -> JointPmf:
    """The 14-axis law of two consecutive reduced states from the dense
    pair tensor pi[prev] K[prev, next]."""
    nx1, nx2, ny1, ny2 = sys.kernel.chan.shape
    pair = dense_kernel(sys.kernel) * pi[:, None]
    t = pair.reshape(sys.reduced_shape + sys.reduced_shape[:4] + (nx1, ny1, nx2, ny2))
    # previous state on axes 0..5, current (s1, s2, u1, u2, x1, y1, x2, y2) on 6..13
    perm = (6, 7, 8, 9, 0, 1, 2, 3, 4, 5, 10, 12, 11, 13)
    return JointPmf(sys.z_axes, np.ascontiguousarray(np.transpose(t, perm)))


def _pair_rates(chp: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> tuple[float, float]:
    """(I(X1;Y2|X2), I(X2;Y1|X1)) for independent input distributions."""
    j = p1[:, None, None, None] * p2[None, :, None, None] * chp
    # I(X1;Y2|X2) = H(X1,X2) + H(Y2,X2) - H(X1,Y2,X2) - H(X2)
    h_x1x2 = -_plogp_sum(j.sum(axis=(2, 3)))
    h_x2 = -_plogp_sum(j.sum(axis=(0, 2, 3)))
    h_y2x2 = -_plogp_sum(j.sum(axis=(0, 2)))
    h_x1y2x2 = -_plogp_sum(j.sum(axis=2))
    i1 = h_x1x2 + h_y2x2 - h_x1y2x2 - h_x2
    h_x1 = -_plogp_sum(j.sum(axis=(1, 2, 3)))
    h_y1x1 = -_plogp_sum(j.sum(axis=(1, 3)))
    h_x2y1x1 = -_plogp_sum(j.sum(axis=3))
    i2 = h_x1x2 + h_y1x1 - h_x2y1x1 - h_x1
    return max(i1, 0.0), max(i2, 0.0)


def loop_simplex_lattice(k: int, levels: int) -> np.ndarray:
    """All distributions on k symbols with masses at multiples of 1/levels, one
    stars-and-bars cut tuple at a time: the oracle for `region._simplex_lattice`."""
    if k == 1:
        return np.ones((1, 1))
    out = []
    for cuts in itertools.combinations(range(levels + k - 1), k - 1):
        prev = -1
        counts = []
        for c in cuts:
            counts.append(c - prev - 1)
            prev = c
        counts.append(levels + k - 2 - prev)
        out.append(counts)
    return np.asarray(out, dtype=np.float64) / levels


# Information quantities, typicality, distortion and feasibility helpers that
# no package code calls: test oracles for the package's own readouts.


def entropy(p: JointPmf) -> float:
    """Shannon entropy of the full joint, in bits."""
    return -_plogp_sum(p.probs)


def conditional_entropy(p: JointPmf, target: AxisSet, given: AxisSet = ()) -> float:
    """H(target | given) = H(target, given) - H(given), in bits."""
    t = _as_axes(p, target, "target")
    g = _as_axes(p, given, "given")
    _check_disjoint(t, g)
    return _subset_entropy(p, tuple(sorted(t + g))) - _subset_entropy(p, g)


def product(p: JointPmf, q: JointPmf) -> JointPmf:
    """Independent product pmf over p.axes + q.axes."""
    return JointPmf(p.axes + q.axes, np.multiply.outer(p.probs, q.probs))


def binary_entropy(x: float) -> float:
    """Entropy of a Bernoulli(x) variable in bits."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1 - x) * np.log2(1 - x))


def _joint_counts(sequences: Sequence[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """Joint count tensor of per-letter symbol tuples."""
    seqs = [np.asarray(s, dtype=np.int64) for s in sequences]
    if len(seqs) != len(shape):
        raise ValueError(f"expected {len(shape)} sequences, got {len(seqs)}")
    n = len(seqs[0])
    if n < 1:
        raise ValueError("sequences must have length >= 1")
    for s in seqs:
        if len(s) != n:
            raise ValueError("sequences have mismatched lengths")
    flat = np.ravel_multi_index(tuple(seqs), shape)
    return np.bincount(flat, minlength=int(np.prod(shape))).reshape(shape)


def joint_typicality_test(sequences: Sequence[np.ndarray], reference: JointPmf, eps: float) -> bool:
    """Robust joint typicality: every cell satisfies |emp - p| <= eps * p.

    Symbols with zero reference probability must not appear (the eps * p
    bound is then zero).  With eps = 0 this accepts exactly the sequences
    whose empirical pmf equals the reference.  The test is made on integer
    counts, see `typical_count_bounds`.
    """
    counts = _joint_counts(sequences, reference.shape)
    lo, hi = typical_count_bounds(reference.probs, int(counts.sum()), eps)
    return bool(np.all((lo <= counts) & (counts <= hi)))


def expected_distortion(joint: JointPmf, d: DistortionMeasure) -> float:
    """Mean distortion of a joint (source, reconstruction) law."""
    if joint.shape != d.table.shape:
        raise ValueError(f"joint shape {joint.shape} does not match distortion table {d.table.shape}")
    return float(np.sum(joint.probs * d.table))


DISTORTION_SLACK = 1e-9  # floating-point slack of check_configuration's targets


@dataclass(frozen=True)
class ConfigurationCheck:
    """Outcome of the stationarity-plus-distortion feasibility test."""

    feasible: bool
    distortions: tuple[float, float]
    stationary_residual: float


def check_configuration(
    cfg: Configuration,
    ch: TwoWayChannel,
    src: JointSource,
    d1: DistortionMeasure,
    d2: DistortionMeasure,
    target1: float,
    target2: float,
) -> ConfigurationCheck:
    """Decide whether cfg's own previous-block law is stationary and meets
    both distortion targets (with floating-point slack at the boundary)."""
    if cfg.prev_law is None:
        raise ValueError("configuration has no previous-block law to check")
    sys = build_chain(cfg, ch, src)
    dist = reconstruction_distortions(sys, d1, d2)
    feasible = (
        sys.residual <= RESIDUAL_TOL
        and dist[0] <= target1 + DISTORTION_SLACK
        and dist[1] <= target2 + DISTORTION_SLACK
    )
    return ConfigurationCheck(feasible, dist, sys.residual)
