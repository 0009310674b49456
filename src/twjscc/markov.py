"""System Markov chain: kernel construction, stationary laws, pair marginals.

The full per-block state has 14 components: the fresh (s1, s2, u1, u2),
the previous block's (s, u) pairs, the previous flattened channel
input/output pairs, and the current (x1, x2, y1, y2).  Because the
previous-block components are verbatim copies of the prior step, the chain
is represented internally on the reduced state (s1, s2, u1, u2, io1, io2),
laid out as a previous-block law (`Configuration.prev_axes`), so a
stationary vector is that law raveled; the 14-axis law is recovered as the
law of two consecutive reduced states.  `build_chain` returns a frozen
system that carries its law: the configuration's prev_law, or else the
chain's unique stationary law from `solve_stationary`, installed as prev_law.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coded_channel import Configuration, fresh_law
from .models import DistortionMeasure, JointSource, TwoWayChannel, bayes_decoder, decoder_distortion
from .probability import NORM_TOL, Alphabet, JointPmf

# Axis order of the full per-block state law.
Z_AXES = (
    "s1", "s2", "u1", "u2",
    "prev_s1", "prev_s2", "prev_u1", "prev_u2",
    "prev_io1", "prev_io2",
    "x1", "x2", "y1", "y2",
)

DEFAULT_STATE_CAP = 2 ** 24
RESIDUAL_TOL = 1e-10  # largest residual a solve may return
SOLVE_TARGET = 1e-13  # residual at which power iteration stops
SOLVE_MAX_ITER = 100_000


class FactoredKernel:
    """Transition law of the reduced chain, held as its three factors.

    From the previous state `prev`, the fresh tuple `a` = (s1, s2, u1, u2)
    is drawn from `psu`; terminal j's input is read from its table as
    `tj[(s_j', u_j', io_j') of prev, (s_j, u_j) of a]`, and the outputs are
    drawn from the channel law, so the successor (a, io1, io2) =
    (a, x1, y1, x2, y2) has probability psu[a] * chan[x1, x2, y1, y2].
    `push` reads only the states a vector occupies, `predecessors` the given rows.
    """

    def __init__(self, f1: np.ndarray, f2: np.ndarray, fresh: np.ndarray, chan: np.ndarray):
        ns1, ns2, nu1, nu2 = fresh.shape
        nx1, nx2, ny1, ny2 = chan.shape
        self.state_shape = (ns1, ns2, nu1, nu2, nx1 * ny1, nx2 * ny2)
        self.n_states = int(np.prod(self.state_shape, dtype=np.int64))
        # tj[(s_j', u_j', io_j'), (s_j, u_j)] = fj[s_j, u_j, s_j', u_j', io_j']
        self.t1, self.t2 = f1.reshape(ns1 * nu1, -1).T, f2.reshape(ns2 * nu2, -1).T
        self.psu = fresh.reshape(-1)  # flat law of (s1, s2, u1, u2)
        self.chan = chan  # (nx1, nx2, ny1, ny2)
        s1, s2, u1, u2 = np.unravel_index(np.arange(self.psu.size), fresh.shape)
        self._col1, self._col2 = s1 * nu1 + u1, s2 * nu2 + u2  # table column of each fresh tuple
        self._gathered = (None, None)  # the last rows passed to `cells`, and their cells
        # counts[a, x1, x2]: number of states whose inputs under fresh tuple a are (x1, x2)
        c1 = (self.t1[:, :, None] == np.arange(nx1)).sum(axis=0)[self._col1]
        c2 = (self.t2[:, :, None] == np.arange(nx2)).sum(axis=0)[self._col2]
        self.counts = c1[:, :, None] * c2[:, None, :]

    def cells(self, rows: np.ndarray) -> np.ndarray:
        """(fresh tuple, x1, x2) cell of each (state of `rows`, fresh tuple) pair;
        those of the last `rows` are kept.  `rows` is ascending and 1-D: numpy
        2.4.6 unravels a large (n, 1) index wrongly."""
        if not np.array_equal(rows, self._gathered[0]):
            s1, s2, u1, u2, io1, io2 = np.unravel_index(rows, self.state_shape)
            _, _, nu1, nu2, nio1, nio2 = self.state_shape
            nx1, nx2 = self.chan.shape[:2]
            # the cell (a * nx1 + x1) * nx2 + x2 as a sum of per-terminal parts
            part1 = (np.arange(self.psu.size) * nx1 + self.t1[:, self._col1]) * nx2
            self._gathered = (rows, part1[(s1 * nu1 + u1) * nio1 + io1]
                              + self.t2[:, self._col2][(s2 * nu2 + u2) * nio2 + io2])
        return self._gathered[1]

    def _live(self) -> np.ndarray:
        """(fresh tuple, x1, y1, x2, y2) cells with psu[a] > 0 and chan > 0."""
        return (self.psu > 0)[:, None, None, None, None] & (self.chan.transpose(0, 2, 1, 3) > 0)

    @property
    def nnz(self) -> int:
        """Number of (state, successor) pairs with positive probability."""
        return int((self.counts * self._live().sum(axis=(2, 4))).sum())

    def support(self, rows: np.ndarray) -> int:
        """Number of (state of `rows`, successor) pairs with positive probability."""
        return int(self._live().sum(axis=(2, 4)).ravel()[self.cells(rows)].sum())

    @cached_property
    def _image(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The image, and the (fresh tuple, x1, x2) cell and channel entry of each of its states."""
        hit = self._live() & (self.counts > 0)[:, :, None, :, None]
        rows = np.flatnonzero(hit)
        a, x1, y1, x2, y2 = np.unravel_index(rows, hit.shape)
        return rows, np.ravel_multi_index((a, x1, x2), self.counts.shape), self.chan[x1, x2, y1, y2]

    def image(self) -> np.ndarray:
        """Ascending states that some state reaches in one step."""
        return self._image[0]

    def predecessors(self, mask: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """States of `rows` with a positive-probability successor in the boolean `mask`."""
        live = self._live()
        hit = (live & mask.reshape(live.shape)).any(axis=(2, 4))  # (fresh tuple, x1, x2)
        return hit.ravel()[self.cells(rows)].any(axis=1)

    def push(self, pi: np.ndarray) -> np.ndarray:
        """The row vector pi K, summed over the nonzero entries of pi."""
        rows = np.flatnonzero(pi != 0)  # faster than flatnonzero(pi) on floats
        return self._spread(self._weights(rows, pi[rows]))

    def push_image(self, v: np.ndarray) -> np.ndarray:
        """push(pi) at the image, bit for bit, for the pi that is v there and 0 elsewhere."""
        rows, cell, chan = self._image
        return self._weights(rows, v)[cell] * chan

    def _weights(self, rows: np.ndarray, v: np.ndarray) -> np.ndarray:
        """(fresh tuple, x1, x2) weights of the pi that is v on `rows`; a 0 in v adds +0.0."""
        return np.bincount(self.cells(rows).ravel(), weights=(v[:, None] * self.psu).ravel(),
                           minlength=self.counts.size)

    def push_uniform(self) -> np.ndarray:
        """push(np.full(n, 1/n)) without the (state, fresh tuple) cells, bit for bit:
        `push` adds k copies of psu[a] / n into a cell that k states reach, one by
        one, so the cell holds the k-th sequential prefix sum of those copies."""
        k = self.counts.reshape(self.psu.size, -1)
        steps = np.zeros((self.psu.size, k.max() + 1))
        steps[:, 1:] = (1.0 / self.n_states) * self.psu[:, None]
        return self._spread(np.take_along_axis(np.cumsum(steps, axis=1), k, axis=1))

    def _spread(self, w: np.ndarray) -> np.ndarray:
        """Successor law from the (fresh tuple, x1, x2) weights w: w times the channel law."""
        nx1, nx2 = self.chan.shape[:2]
        chan_io = self.chan.transpose(0, 2, 1, 3)  # (x1, y1, x2, y2)
        return (w.reshape(self.psu.size, nx1, 1, nx2, 1) * chan_io).ravel()


@dataclass(frozen=True)
class MarkovSystem:
    """Reduced-state chain for one configuration over one channel/source,
    with its vector pi (cfg.prev_law raveled) and the L1 residual of pi K - pi."""

    cfg: Configuration
    kernel: FactoredKernel
    pi: np.ndarray
    residual: float

    @property
    def n_states(self) -> int:
        return self.kernel.n_states

    @property
    def reduced_shape(self) -> tuple[int, ...]:  # (s1, s2, u1, u2, io1, io2), the prev_law shape
        return self.kernel.state_shape

    @property
    def z_axes(self) -> tuple[Alphabet, ...]:
        c = self.cfg
        return (c.s1, c.s2, c.u1, c.u2) + c.prev_axes + (c.x1, c.x2, c.y1, c.y2)

    @cached_property
    def _views(self) -> tuple[JointPmf, JointPmf]:  # see decoder_marginals
        return (pair_marginal(self, self.pi, (4, 6, 1, 3, 5, 7, 9, 13)),
                pair_marginal(self, self.pi, (5, 7, 0, 2, 4, 6, 8, 12)))


def build_chain(cfg: Configuration, ch: TwoWayChannel, src: JointSource) -> MarkovSystem:
    """Assemble the factored row-stochastic transition kernel and the law.

    From a state (s', u', io'), the successor draws a fresh (s, u) pair,
    sets x_j deterministically through f_j fed with the copied previous
    components, and draws (y1, y2) from the channel.  A supplied prev_law is
    kept whatever its residual: each caller decides which residual it
    accepts.  Without one the chain is solved (see solve_stationary).
    """
    cfg.check_against(ch, src)
    chan = ch.law.probs  # (nx1, nx2, ny1, ny2)
    kernel = FactoredKernel(cfg.f1, cfg.f2, fresh_law(cfg, src), chan)
    if kernel.n_states > DEFAULT_STATE_CAP:
        raise ValueError(
            f"state space of {kernel.n_states} reduced states exceeds cap {DEFAULT_STATE_CAP}"
        )

    # a row sums psu[a] times the channel row sums of the (x1, x2) it reaches
    reached = ((kernel.counts > 0) & (kernel.psu > 0)[:, None, None]).any(axis=0)
    off = np.abs(chan.sum(axis=(2, 3)) - 1.0)[reached]
    if abs(kernel.psu.sum() - 1.0) > NORM_TOL or np.any(off > NORM_TOL):
        raise AssertionError("kernel rows failed to normalize")

    if cfg.prev_law is None:
        pi, residual = solve_stationary(kernel)
        law = JointPmf(cfg.prev_axes, pi.reshape(kernel.state_shape))
        return MarkovSystem(dataclasses.replace(cfg, prev_law=law), kernel, law.probs.ravel(),
                            residual)
    pi = cfg.prev_law.probs.ravel()
    return MarkovSystem(cfg, kernel, pi, _residual(kernel, pi))


def solve_stationary(kernel) -> tuple[np.ndarray, float]:
    """The chain's stationary vector by power iteration from the uniform
    start, with a half-lazy fallback, and the L1 residual of pi K - pi.

    `kernel` offers `n_states`, `push` (pi -> pi K), `push_uniform` (the
    push of the uniform vector), `image`, `push_image` (pi K on the image)
    and `predecessors`, as FactoredKernel does.  Later iterates live on the
    image; only the normalizer and the L1 step sum the dense vector.
    Negative solver noise is clipped and the vector renormalized before the
    residual is taken, so the residual is that of the returned vector.
    Raises RuntimeError when it exceeds RESIDUAL_TOL, naming the last
    residual ratio and whether the half-lazy switch fired, and then
    ValueError when the law is not unique: that is, unless every state of
    the image (so every state) reaches r = argmax pi, since r is recurrent
    and a second closed class would be a set of states that never reach it.
    """
    n = kernel.n_states
    rows, dense = kernel.image(), np.zeros(n)  # dense: exact zeros off the image
    pi = np.full(n, 1.0 / n)
    first = kernel.push_uniform()  # pi K; every later push reads only the one-step image
    best, best_res = pi, float(np.abs(first - pi).sum())
    res = last = best_res
    lazy = False
    stall = 0
    it = 0
    while it < SOLVE_MAX_ITER and best_res > SOLVE_TARGET:
        it += 1
        nxt = first[rows] if it == 1 else kernel.push_image(pi)
        if lazy:
            nxt = 0.5 * (nxt + pi)
        dense[rows] = nxt
        nxt /= dense.sum()
        dense[rows] = nxt if it == 1 else np.abs(nxt - pi)
        step = np.abs(dense - pi) if it == 1 else dense  # the uniform start fills every state
        last, res = res, float(step.sum()) * (2.0 if lazy else 1.0)
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

    if best.size < n:  # held on the image
        dense[rows], best = best, dense
    best = np.clip(best, 0.0, None)
    best /= best.sum()
    best_res = _residual(kernel, best)
    if best_res > RESIDUAL_TOL:
        raise RuntimeError(
            f"stationary solve did not converge: residual {best_res:.3e} after {it} iterations, "
            f"last residual ratio {res / last:.6g}, half-lazy switch {'fired' if lazy else 'not fired'}"
        )
    reach = np.arange(n) == np.argmax(best)
    while not reach[rows].all():
        grown = reach.copy()
        grown[rows] |= kernel.predecessors(reach, rows)
        if np.array_equal(grown, reach):
            raise ValueError("stationary law is not unique: some states never reach argmax pi")
        reach = grown
    return best, best_res


def pair_law(sys: MarkovSystem, pi_reduced: np.ndarray) -> JointPmf:
    """Joint law of two consecutive reduced states, as the 14-axis state pmf:
    the pair marginal over every state axis.  Refuses when the full state
    space exceeds the materialization cap (use pair_marginal for large systems).
    """
    if sys.n_states ** 2 > DEFAULT_STATE_CAP:
        raise ValueError(
            f"full state space of {sys.n_states ** 2} entries is too large to materialize"
        )
    return pair_marginal(sys, pi_reduced, tuple(range(14)))


def pair_marginal(sys: MarkovSystem, pi_reduced: np.ndarray, keep: tuple[int, ...]) -> JointPmf:
    """Marginal of the consecutive-pair state law over selected state axes.

    Sums the weights pi[prev] psu[a] over the (state, fresh tuple) grid of
    the nonzero entries of pi into cells of the kept previous/fresh axes and
    the current inputs, then contracts them with the channel law summed over
    the dropped outputs, so it never forms the pair tensor.  Axis indices
    follow Z_AXES; the result axes follow the order of `keep`.
    """
    if len(set(keep)) != len(keep) or not set(keep) <= set(range(14)):
        raise ValueError(f"state axes {keep} repeat or lie outside 0..13")
    kern = sys.kernel
    nx1, nx2 = kern.chan.shape[:2]
    rows = np.flatnonzero(pi_reduced != 0)
    prev = np.unravel_index(rows, sys.reduced_shape)
    fresh = np.unravel_index(np.arange(kern.psu.size), sys.reduced_shape[:4])
    coords = [c[None, :] for c in fresh] + [c[:, None] for c in prev]  # Z axes 0..9
    axes = sys.z_axes
    current = (10, 11, 12, 13)  # x1, x2, y1, y2 of the current state
    outer = [k for k in keep if k not in current]
    flat = 0
    for k in outer:
        flat = flat * axes[k].size + coords[k]
    flat = flat * (nx1 * nx2) + kern.cells(rows) % (nx1 * nx2)
    n_outer = int(np.prod([axes[k].size for k in outer], dtype=np.int64))
    w = np.bincount(flat.ravel(), weights=(pi_reduced[rows][:, None] * kern.psu).ravel(),
                    minlength=n_outer * nx1 * nx2)
    kept = "".join(c for c, k in zip("abcd", current) if k in keep)  # of x1, x2, y1, y2
    chan = kern.chan.sum(axis=tuple(2 + i for i, c in enumerate("cd") if c not in kept))
    t = np.einsum(f"oab,ab{kept.lstrip('ab')}->o{kept}", w.reshape(n_outer, nx1, nx2), chan)
    order = outer + [k for k in current if k in keep]
    t = t.reshape([axes[k].size for k in order])
    probs = np.transpose(t, [order.index(k) for k in keep])
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    return JointPmf(tuple(axes[k] for k in keep), probs)


def stationary_distribution(sys: MarkovSystem) -> JointPmf:
    """Stationary 14-axis state law: the pair law of the system's vector."""
    return pair_law(sys, sys.pi)


def stationary_prev_law(cfg: Configuration, ch: TwoWayChannel, src: JointSource) -> JointPmf:
    """Find a previous-block law that makes the system chain stationary.

    Only the codeword conditionals and the f tables of `cfg` matter; any
    prev_law already present is ignored.  The result is the reduced chain's
    fixed point reached from the uniform start, which is laid out on the
    previous-block axes already.  A chain whose stationary law is not
    unique raises ValueError.
    """
    if cfg.prev_law is not None:
        cfg = dataclasses.replace(cfg, prev_law=None)
    return build_chain(cfg, ch, src).cfg.prev_law


def _residual(kernel, pi: np.ndarray) -> float:
    """L1 norm of pi K - pi."""
    return float(np.abs(kernel.push(pi) - pi).sum())


def decoder_marginals(sys: MarkovSystem) -> tuple[JointPmf, JointPmf]:
    """The view laws (M_1, M_2) that the decoders, the rate conditions and
    the simulator read, formed once per system.  M_1 = (prev_s1, prev_u1,
    s2, u2, prev_s2, prev_u2, prev_io2, y2) is the source terminal 2
    rebuilds, then g2's arguments; M_2 mirrors it.  Terminal j's input x_j
    is left out, being f_j of the other letters of its view."""
    return sys._views


def reconstruction_distortions(sys: MarkovSystem, d1: DistortionMeasure,
                               d2: DistortionMeasure) -> tuple[float, float]:
    """Expected distortions of the g-map reconstructions under the system's
    stationary vector.

    Terminal 2 rebuilds terminal 1's previous-block source through g2 (fed
    the true previous codeword of terminal 1), and symmetrically; the
    distortion for source j is measured against the previous-block source.
    """
    m1, m2 = decoder_marginals(sys)
    return decoder_distortion(m1.probs, sys.cfg.g2, d1), decoder_distortion(m2.probs, sys.cfg.g1, d2)


def bayes_decoders(sys: MarkovSystem, d1: DistortionMeasure, d2: DistortionMeasure,
                   reads: tuple[int, ...] = tuple(range(7))) -> tuple[np.ndarray, np.ndarray]:
    """Decoder tables (g1, g2) minimizing the reconstruction distortions among
    tables that read only the g arguments `reads`: each view law is summed over
    the others, which keep size 1.  Ties break toward the lowest index."""
    drop = tuple(1 + k for k in range(7) if k not in reads)  # view axis 0 is the source
    m1, m2 = (m.probs.sum(axis=drop, keepdims=True) for m in decoder_marginals(sys))
    return bayes_decoder(m2, d2), bayes_decoder(m1, d1)
