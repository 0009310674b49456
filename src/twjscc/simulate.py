"""Monte Carlo simulator of the block-Markov adaptive coding scheme.

Each trial runs B source blocks through B+1 transmission blocks: messages
are encoded by joint typicality against fresh random codebooks, channel
inputs are produced symbol-wise from the configuration's encoder tables fed
with the previous block's state, and each message is decoded at the end of
the following block.  Error events are logged per class: covering failures
at the encoders, atypical full-state blocks, and decoding confusion (some
wrong codeword index passing the typicality test).
"""

from __future__ import annotations

import math
import numbers
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .coded_channel import Configuration, fresh_law, io_index
from .markov import build_chain, decoder_marginals
from .markov import pair_law  # noqa: F401  unused; bench/test_bench.py deletes simulate.pair_law
from .models import DistortionMeasure, JointSource, TwoWayChannel
from .probability import typical_count_bounds

MAX_CODEBOOK = 2 ** 16  # largest codebook a simulation may draw
MAX_N = 1024  # longest block length
DRAW_CHUNK = 2 ** 15  # letters per fill of _letter_sample's uniform buffer, in whole codewords


def codebook_size(n: int, rate: float) -> int:
    """Number of codewords for a block length and rate: 2^ceil(n * rate)."""
    return 2 ** max(0, math.ceil(round(n * rate, 9)))


@dataclass(frozen=True)
class SimParams:
    """Simulation knobs; eps is the decoder slack and eps1 < eps the encoder's."""

    n: int
    blocks: int
    eps: float
    eps1: float
    rate1: float
    rate2: float
    seed: int = 0
    trials: int = 1

    def __post_init__(self):
        for name in ("n", "blocks", "trials", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        for name in ("eps", "eps1", "rate1", "rate2"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} {value} is not finite")
        if not (self.eps > self.eps1 > 0):
            raise ValueError("need eps > eps1 > 0")
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"block length must be in [1, {MAX_N}]")
        if self.blocks < 1 or self.trials < 1:
            raise ValueError("blocks and trials must be >= 1")
        if self.rate1 < 0 or self.rate2 < 0:
            raise ValueError("rates must be nonnegative")
        for r in (self.rate1, self.rate2):
            m = codebook_size(self.n, r)
            if m > MAX_CODEBOOK:
                raise ValueError(f"codebook size {m} exceeds cap {MAX_CODEBOOK}")
            if m * self.n > 2 ** 26:
                raise ValueError("codebook size times block length exceeds the work cap")


@dataclass(frozen=True)
class SimReport:
    """Aggregated outcome of a simulation run.

    Error counts are event totals over trials: covering failures per
    terminal over blocks 1..B, atypical full-state blocks over 1..B+1, and
    confusion events per decoded message stream over blocks 2..B+1.
    Equality between reports ignores wall_clock.
    """

    distortion1: float
    distortion2: float
    per_block: tuple[tuple[float, float], ...]
    err_cover: tuple[int, int]
    err_typicality: int
    err_confusion: tuple[int, int]
    decode_accuracy: float
    claim_applicable: int
    claim_violations: int
    unexplained_mismatch: int
    trials: int
    jscc_rate: float
    stationary_residual: float
    wall_clock: float = field(compare=False, default=0.0)

    @property
    def total_error_events(self) -> int:
        return sum(self.err_cover) + self.err_typicality + sum(self.err_confusion)

    def as_dict(self) -> dict:
        return {
            "distortion1": self.distortion1,
            "distortion2": self.distortion2,
            "per_block": [list(x) for x in self.per_block],
            "err_cover": list(self.err_cover),
            "err_typicality": self.err_typicality,
            "err_confusion": list(self.err_confusion),
            "decode_accuracy": self.decode_accuracy,
            "claim_applicable": self.claim_applicable,
            "claim_violations": self.claim_violations,
            "unexplained_mismatch": self.unexplained_mismatch,
            "trials": self.trials,
            "jscc_rate": self.jscc_rate,
            "stationary_residual": self.stationary_residual,
            "total_error_events": self.total_error_events,
            "wall_clock": self.wall_clock,
        }


def _cdf(probs: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis with the last entry pinned to 1,
    so that no uniform draw in [0, 1) lands past the alphabet when the sums
    fall short of 1 by roundoff."""
    cdf = np.cumsum(probs, axis=-1)
    cdf[..., -1] = 1.0
    return cdf


def _cdf_sample(rng: np.random.Generator, cdf: np.ndarray, n: int) -> np.ndarray:
    return np.searchsorted(cdf, rng.random(n), side="right")


def _letter_sample(rng: np.random.Generator, cdf: np.ndarray, shape: tuple) -> np.ndarray:
    """Codewords of shape[-1] letters drawn from a short CDF, as the packed
    bit-sliced planes of `Codebooks`: (*shape[:-1], L, W) uint64 words.

    Each letter counts the CDF entries at or below its uniform draw, which
    is the index `_cdf_sample` returns for the same draw.  The draws fill
    one reused buffer of doubles, max(1, DRAW_CHUNK // n) whole codewords at
    a time (the same stream as one draw of the whole shape); the counts go
    to a letter buffer, and each of their L bits is packed straight into its
    plane, so beyond the planes only the chunk's buffers are allocated.
    With one letter `cdf[0]` is the pinned 1.0 and every count is 0.
    """
    n, bits = shape[-1], max(1, (len(cdf) - 1).bit_length())
    out = np.empty((*shape[:-1], bits, -(-n // 64)), dtype=np.uint64)
    rows = out.reshape(-1, bits, out.shape[-1])
    step = max(1, DRAW_CHUNK // n)
    r = np.empty(min(step, len(rows)) * n)
    letters, hit = np.empty(len(r), dtype=np.min_scalar_type(len(cdf) - 1)), np.empty(len(r), dtype=bool)
    for start in range(0, len(rows), step):
        part = rows[start:start + step]
        u, let, h = (buf[:len(part) * n] for buf in (r, letters, hit))
        rng.random(out=u)
        np.greater_equal(u, cdf[0], out=let, casting="unsafe")
        for c in cdf[1:-1]:
            let += np.greater_equal(u, c, out=h)
        for b in range(bits):  # with one plane the letters are its bits
            plane = let if bits == 1 else np.bitwise_and(let, 1 << b, out=h, casting="unsafe")
            part[:, b] = _packed_words(plane.reshape(-1, n))
    return out


def _letters(planes: np.ndarray, n: int) -> np.ndarray:
    """The n letters of each bit-sliced codeword in `planes` (..., L, W)."""
    bits = np.unpackbits(planes.view(np.uint8), axis=-1, count=n)
    return (1 << np.arange(bits.shape[-2])) @ bits


def _in_bounds(counts, bounds) -> np.ndarray:
    lo, hi = bounds
    return (lo <= counts) & (counts <= hi)


def _packed_words(bits: np.ndarray) -> np.ndarray:
    """Boolean rows packed along the last axis into 64-bit words; the tail
    of the last word is zero, so it adds nothing to a popcount."""
    packed = np.packbits(bits, axis=-1)
    words = np.zeros(packed.shape[:-1] + (-(-packed.shape[-1] // 8) * 8,), dtype=np.uint8)
    words[..., :packed.shape[-1]] = packed
    return words.view(np.uint64)


def _typical_candidates(own: np.ndarray, book: np.ndarray, bounds) -> np.ndarray:
    """Ascending indices of the codewords jointly typical with `own`.

    `own` holds each letter's own-sequence cell and `book` is one (m, L, W)
    block of bit-sliced codewords (see `Codebooks`); `bounds` are the
    integer count bounds over (own cell, codeword letter).  A codeword's
    letter counts in own cell o sum to N_o, the count of o in `own`, so if
    some N_o lies outside [sum_a lo, sum_a hi] no codeword is typical; this
    also decides every own cell that does not occur, since all lo share the
    sign of 1 - eps.  Otherwise each occurring cell's positions are packed
    into words like the planes.  A cell's count of letter a >= 1 is the
    popcount of its mask AND, over l, plane l where bit l of a is set and
    ~plane l where it is not; letter 0's count is N_o less the others.  Every
    count is exact at n <= MAX_N, and no plane is re-packed.
    """
    lo, hi = bounds
    n_own = np.bincount(own, minlength=len(lo))
    if np.any(n_own < lo.sum(axis=1)) or np.any(n_own > hi.sum(axis=1)):
        return np.empty(0, dtype=np.intp)
    cells = np.flatnonzero(n_own)
    masks = _packed_words(own == cells[:, None])
    planes = book.transpose(1, 2, 0)  # (L, W, m)
    ok = np.ones(len(book), dtype=bool)
    rest = n_own[cells, None]
    for a in range(1, lo.shape[1]):
        is_a = np.bitwise_and.reduce([p if a >> b & 1 else ~p for b, p in enumerate(planes)])
        count = np.stack([np.bitwise_count(is_a & w[:, None]).sum(axis=0, dtype=np.int64) for w in masks])
        ok &= _in_bounds(count, (lo[cells, a, None], hi[cells, a, None])).all(axis=0)
        rest = rest - count
    ok &= _in_bounds(rest, (lo[cells, 0, None], hi[cells, 0, None])).all(axis=0)
    return np.flatnonzero(ok)


@dataclass
class Codebooks:
    """Per-block codebooks plus the fixed boundary sequences of one trial.

    A book is stored only packed and bit-sliced, in L = max(1, (|U| - 1).bit_length()) planes
    of ceil(n / 64) words: [b, m, l] holds bit l of codeword m's letters, as `_packed_words` packs."""

    u1: np.ndarray  # (B, M1, L1, ceil(n / 64)) uint64; `_letters` unpacks codewords
    u2: np.ndarray
    init_prev: tuple  # (prev_s1, prev_s2, prev_u1, prev_u2, prev_io1, prev_io2)
    termination: tuple  # (s1, s2, u1, u2)


def generate_codebooks(
    cfg: Configuration, src: JointSource, params: SimParams, rng: np.random.Generator
) -> Codebooks:
    """Draw all codebooks plus initialization/termination sequences.

    Codewords are i.i.d. per letter from each terminal's codeword marginal;
    the block-b codebook doubles as the previous-block codebook of block
    b+1.  The initialization sextuple is i.i.d. from the previous-block law
    and the termination quadruple from the fresh-block law.
    """
    if cfg.prev_law is None:
        raise ValueError("codebook generation needs a previous-block law")
    psu = fresh_law(cfg, src)
    m1 = codebook_size(params.n, params.rate1)
    m2 = codebook_size(params.n, params.rate2)
    b, n = params.blocks, params.n
    u1 = _letter_sample(rng, _cdf(psu.sum(axis=(0, 1, 3))), (b, m1, n))
    u2 = _letter_sample(rng, _cdf(psu.sum(axis=(0, 1, 2))), (b, m2, n))
    init_flat = _cdf_sample(rng, _cdf(cfg.prev_law.probs.reshape(-1)), n)
    init_prev = np.unravel_index(init_flat, cfg.prev_law.shape)
    term_flat = _cdf_sample(rng, _cdf(psu.reshape(-1)), n)
    termination = np.unravel_index(term_flat, psu.shape)
    return Codebooks(u1, u2, init_prev, termination)


class SimContext:
    """Reference laws, tables, and samplers shared by encode/decode steps.

    Typicality references are held as (own cell, codeword letter) tables
    under ("enc", j) and ("dec", j); `count_bounds` turns them into integer
    count bounds once per (n, eps).  The decoder reference at terminal j is
    the other terminal's view law (`decoder_marginals`) summed over its
    source, codeword axis last, on own cells (s, u, prev_s, prev_u, prev_io,
    y) of shape `own_shape[j]`.  The full-state law is never formed:
    `full_state_typical` reads the visited cells off `pi`, `psu` and the
    channel law, and `support` counts the law's positive cells.
    """

    def __init__(self, cfg: Configuration, ch: TwoWayChannel, src: JointSource):
        if cfg.prev_law is None:
            raise ValueError("simulation needs a configuration with a previous-block law")
        self.cfg, self.ch, self.src = cfg, ch, src
        sys = build_chain(cfg, ch, src)
        self.pi, self.residual = sys.pi, sys.residual
        self.state_shape = sys.reduced_shape
        self.support = sys.kernel.support(np.flatnonzero(self.pi != 0))

        psu = fresh_law(cfg, src)
        self.psu = psu.reshape(-1)
        dec = {j: np.moveaxis(m.probs.sum(axis=0), 0, -1) for j, m in zip((2, 1), decoder_marginals(sys))}
        self.own_shape = {j: m.shape[:-1] for j, m in dec.items()}
        self.refs = {
            ("enc", 1): psu.sum(axis=(1, 3)),
            ("enc", 2): psu.sum(axis=(0, 2)),
            ("dec", 1): dec[1].reshape(-1, cfg.u2.size),
            ("dec", 2): dec[2].reshape(-1, cfg.u1.size),
        }
        self._bounds = {}
        self.src_cdf = _cdf(src.law.probs.reshape(-1))
        nyy = ch.y1.size * ch.y2.size
        self.chan_cdf = _cdf(ch.law.probs.reshape(-1, nyy))

    def count_bounds(self, key, n: int, eps: float):
        """Integer count bounds (lo, hi) of reference `key` at (n, eps)."""
        if (key, n, eps) not in self._bounds:
            self._bounds[key, n, eps] = typical_count_bounds(self.refs[key], n, eps)
        return self._bounds[key, n, eps]

    def full_state_typical(self, cells: np.ndarray, eps: float) -> bool:
        """Whether a block is typical, its letters' full-state cells being
        prev * n_states + state over `state_shape`.  A visited cell has
        probability (pi[prev] * psu[a]) * W[x1, x2, y1, y2], as in `pair_law`,
        and must hold a count within its bounds.  For eps < 1 every positive
        cell has lo >= 1, so all `support` of them must be visited too."""
        visited, counts = np.unique(cells, return_counts=True)
        prev, a, io1, io2 = np.unravel_index(
            visited, (self.pi.size, self.psu.size) + self.state_shape[4:])
        (x1, y1), (x2, y2) = np.divmod(io1, self.ch.y1.size), np.divmod(io2, self.ch.y2.size)
        p = self.pi[prev] * self.psu[a] * self.ch.law.probs[x1, x2, y1, y2]
        in_bounds = _in_bounds(counts, typical_count_bounds(p, len(cells), eps)).all()
        return bool(in_bounds) and (eps >= 1 or len(visited) == self.support)

    def sample_source(self, rng, n):
        flat = _cdf_sample(rng, self.src_cdf, n)
        return np.unravel_index(flat, self.src.law.shape)

    def sample_channel(self, rng, x1, x2):
        x1 = np.asarray(x1, dtype=np.intp)  # a narrow table entry would wrap in x1 * |X2|
        rows = self.chan_cdf[x1 * self.ch.x2.size + x2]
        r = rng.random(len(x1))
        y_flat = (rows <= r[:, None]).sum(axis=1)
        return y_flat // self.ch.y2.size, y_flat % self.ch.y2.size


def _pick(rng: np.random.Generator, cand: np.ndarray, m: int) -> int:
    """The one typical candidate, a uniform one of several, or with none a
    uniform index of all m codewords."""
    if len(cand) == 1:
        return int(cand[0])
    return int(cand[rng.integers(len(cand))]) if len(cand) else int(rng.integers(m))


def encode_block(ctx: SimContext, j: int, s_block: np.ndarray, prev: tuple,
                 codebook: np.ndarray, params: SimParams, rng: np.random.Generator):
    """Select a codeword index by joint typicality and emit channel inputs.

    prev holds this terminal's previous-block (s, u, io) sequences.
    Returns (index, codeword, x, covered); on covering failure the index is
    uniform over the whole codebook.
    """
    n = len(s_block)
    cand = _typical_candidates(s_block, codebook, ctx.count_bounds(("enc", j), n, params.eps1))
    mj = _pick(rng, cand, len(codebook))
    u = _letters(codebook[mj], n)
    f = ctx.cfg.f1 if j == 1 else ctx.cfg.f2
    ps, pu, pio = prev
    x = f[s_block, u, ps, pu, pio]
    return mj, u, x, len(cand) > 0


def decode_block(ctx: SimContext, j: int, own: tuple, codebook_prev: np.ndarray,
                 params: SimParams, rng: np.random.Generator):
    """Decode the other terminal's previous-block index at terminal j.

    own is terminal j's view, g_j's arguments after the codeword: the
    current-block (s, u, prev_s, prev_u, prev_io, y) sequences.  Returns
    (index, reconstruction, candidates); with no candidate it is uniform.
    """
    cfg = ctx.cfg
    own_flat = np.ravel_multi_index(own, ctx.own_shape[j])
    n = len(own_flat)
    cand = _typical_candidates(own_flat, codebook_prev,
                               ctx.count_bounds(("dec", j), n, params.eps))
    m_hat = _pick(rng, cand, len(codebook_prev))
    g = cfg.g1 if j == 1 else cfg.g2
    recon = g[(_letters(codebook_prev[m_hat], n), *own)]
    return m_hat, recon, cand


def _run_trial(ctx: SimContext, dists: dict, params: SimParams, rng: np.random.Generator,
               dist_sum: np.ndarray, tally: Counter) -> None:
    """Run one trial's B+1 blocks, adding its per-block distortions (terminal
    j's source under `dists[j]`) to `dist_sum` and its event counts to
    `tally`.  The trial's codebooks and every view into them die on return."""
    cfg, ch, blocks = ctx.cfg, ctx.ch, params.blocks
    books = generate_codebooks(cfg, ctx.src, params, rng)
    prev1, prev2 = books.init_prev[0::2], books.init_prev[1::2]  # each (s, u, io)
    prev_state = np.ravel_multi_index(books.init_prev, ctx.state_shape)
    sent = [None]  # sent[b] = (m1, m2), the indices encoded in block b

    for b in range(1, blocks + 2):
        if b <= blocks:
            s1, s2 = ctx.sample_source(rng, params.n)
            m1, u1, x1, cov1 = encode_block(ctx, 1, s1, prev1, books.u1[b - 1], params, rng)
            m2, u2, x2, cov2 = encode_block(ctx, 2, s2, prev2, books.u2[b - 1], params, rng)
            tally["cover1"] += not cov1
            tally["cover2"] += not cov2
            sent.append((m1, m2))
        else:
            s1, s2, u1, u2 = (np.asarray(a) for a in books.termination)
            x1 = cfg.f1[s1, u1, prev1[0], prev1[1], prev1[2]]
            x2 = cfg.f2[s2, u2, prev2[0], prev2[1], prev2[2]]
        y1, y2 = ctx.sample_channel(rng, x1, x2)
        io1, io2 = io_index(x1, y1, ch.y1.size), io_index(x2, y2, ch.y2.size)
        state = np.ravel_multi_index((s1, s2, u1, u2, io1, io2), ctx.state_shape)
        block_typical = ctx.full_state_typical(prev_state * ctx.pi.size + state, params.eps)
        tally["typicality"] += not block_typical

        if b >= 2:
            own1, own2 = (s1, u1, *prev1, y1), (s2, u2, *prev2, y2)
            # the other terminal's previous-block source is its prev[0]
            for j, own, other, s_other in ((1, own1, 2, prev2[0]), (2, own2, 1, prev1[0])):
                book = (books.u2 if other == 2 else books.u1)[b - 2]
                m_hat, recon, cand = decode_block(ctx, j, own, book, params, rng)
                truth = sent[b - 1][other - 1]
                wrong_typical = bool(np.any(cand != truth))
                tally[f"confusion{other}"] += wrong_typical
                tally["decodes"] += 1
                tally["correct"] += m_hat == truth
                if block_typical and not wrong_typical:
                    tally["claim_app"] += 1
                    tally["claim_bad"] += m_hat != truth
                    g = cfg.g1 if j == 1 else cfg.g2
                    genie = g[(_letters(book[truth], params.n), *own)]
                    tally["unexplained"] += bool(np.any(recon != genie))
                dist_sum[b - 2, other - 1] += dists[other].table[s_other, recon].mean()

        prev1, prev2, prev_state = (s1, u1, io1), (s2, u2, io2), state


def run_simulation(
    cfg: Configuration,
    ch: TwoWayChannel,
    src: JointSource,
    d1: DistortionMeasure,
    d2: DistortionMeasure,
    params: SimParams,
) -> SimReport:
    """Simulate the full B+1-block scheme over independent seeded trials.

    Each trial runs in `_run_trial` on its own generator, so only one
    trial's codebooks are alive at a time."""
    t0 = time.perf_counter()
    ctx = SimContext(cfg, ch, src)
    blocks = params.blocks
    dist_sum = np.zeros((blocks, 2))
    tally = Counter()
    for child in np.random.SeedSequence(params.seed).spawn(params.trials):
        _run_trial(ctx, {1: d1, 2: d2}, params, np.random.default_rng(child), dist_sum, tally)

    per_block = dist_sum / params.trials
    return SimReport(
        distortion1=float(per_block[:, 0].mean()),
        distortion2=float(per_block[:, 1].mean()),
        per_block=tuple((float(a), float(b)) for a, b in per_block),
        err_cover=(tally["cover1"], tally["cover2"]),
        err_typicality=tally["typicality"],
        err_confusion=(tally["confusion1"], tally["confusion2"]),
        decode_accuracy=tally["correct"] / tally["decodes"] if tally["decodes"] else 1.0,
        claim_applicable=tally["claim_app"],
        claim_violations=tally["claim_bad"],
        unexplained_mismatch=tally["unexplained"],
        trials=params.trials,
        jscc_rate=blocks / (blocks + 1),
        stationary_residual=ctx.residual,
        wall_clock=time.perf_counter() - t0,
    )
