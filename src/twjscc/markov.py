"""System Markov chain: kernel construction, stationary laws, feasibility.

The full per-block state has 14 components: the fresh (s1, s2, u1, u2),
the previous block's (s, u) pairs, the previous flattened channel
input/output pairs, and the current (x1, x2, y1, y2).  Because the
previous-block components are verbatim copies of the prior step, the chain
is represented internally on the reduced state (s1, s2, u1, u2, x1, x2,
y1, y2); the 14-axis law is recovered as the law of two consecutive
reduced states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .coded_channel import Configuration, fresh_law, io_index
from .models import DistortionMeasure, JointSource, TwoWayChannel, decoder_distortion
from .probability import Alphabet, JointPmf

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


@dataclass
class MarkovSystem:
    """Reduced-state chain for one configuration over one channel/source."""

    cfg: Configuration
    channel: TwoWayChannel
    source: JointSource
    reduced_shape: tuple[int, ...]
    kernel: sp.csr_matrix
    fresh: np.ndarray  # flat law of (s1, s2, u1, u2)
    # cached by stationary_vector / solve_stationary
    reduced_stationary: np.ndarray | None = None
    residual: float | None = None
    stationary_unique: bool | None = None
    iterations: int = 0

    @property
    def n_states(self) -> int:
        return self.kernel.shape[0]

    @property
    def z_axes(self) -> tuple[Alphabet, ...]:
        c = self.cfg
        return (
            c.s1, c.s2, c.u1, c.u2,
            Alphabet(c.s1.size, "prev_s1"), Alphabet(c.s2.size, "prev_s2"),
            Alphabet(c.u1.size, "prev_u1"), Alphabet(c.u2.size, "prev_u2"),
            Alphabet(c.io1_size, "prev_io1"), Alphabet(c.io2_size, "prev_io2"),
            c.x1, c.x2, c.y1, c.y2,
        )


def build_chain(
    cfg: Configuration,
    ch: TwoWayChannel,
    src: JointSource,
    state_cap: int = DEFAULT_STATE_CAP,
) -> MarkovSystem:
    """Assemble the sparse row-stochastic transition kernel.

    From a state (s', u', x', y'), the successor draws a fresh (s, u) pair,
    sets x_j deterministically through f_j fed with the copied previous
    components, and draws (y1, y2) from the channel.
    """
    cfg.check_against(ch, src)
    ns1, ns2 = cfg.s1.size, cfg.s2.size
    nu1, nu2 = cfg.u1.size, cfg.u2.size
    nx1, nx2 = ch.x1.size, ch.x2.size
    ny1, ny2 = ch.y1.size, ch.y2.size
    shape8 = (ns1, ns2, nu1, nu2, nx1, nx2, ny1, ny2)
    n_states = int(np.prod(shape8, dtype=np.int64))
    if n_states > state_cap:
        raise ValueError(f"state space of {n_states} reduced states exceeds cap {state_cap}")
    na = ns1 * ns2 * nu1 * nu2
    nxy = nx1 * nx2 * ny1 * ny2

    psu = fresh_law(cfg, src).reshape(na)

    prev = np.arange(n_states)
    s1p, s2p, u1p, u2p, x1p, x2p, y1p, y2p = np.unravel_index(prev, shape8)
    io1p = io_index(x1p, y1p, ny1)
    io2p = io_index(x2p, y2p, ny2)

    a = np.arange(na)
    s1a, s2a, u1a, u2a = np.unravel_index(a, (ns1, ns2, nu1, nu2))

    # (n_states, na) tables of the deterministic channel inputs.
    x1n = cfg.f1[s1a[None, :], u1a[None, :], s1p[:, None], u1p[:, None], io1p[:, None]]
    x2n = cfg.f2[s2a[None, :], u2a[None, :], s2p[:, None], u2p[:, None], io2p[:, None]]

    chan = ch.law.probs  # (nx1, nx2, ny1, ny2)
    probs = psu[None, :, None, None] * chan[x1n, x2n]  # (n_states, na, ny1, ny2)

    y1g = np.arange(ny1)[None, None, :, None]
    y2g = np.arange(ny2)[None, None, None, :]
    cols = (
        ((a[None, :, None, None] * nx1 + x1n[:, :, None, None]) * nx2 + x2n[:, :, None, None])
        * ny1
        + y1g
    ) * ny2 + y2g
    cols = np.broadcast_to(cols, probs.shape)
    rows = np.broadcast_to(prev[:, None, None, None], probs.shape)

    mask = probs > 0
    kernel = sp.coo_matrix(
        (probs[mask], (rows[mask], cols[mask])), shape=(n_states, n_states)
    ).tocsr()

    row_sums = np.asarray(kernel.sum(axis=1)).ravel()
    if np.any(np.abs(row_sums - 1.0) > 1e-12):
        raise AssertionError("kernel rows failed to normalize")

    return MarkovSystem(cfg, ch, src, shape8, kernel, psu)


def _null_space_solve(kernel: sp.csr_matrix, hint: np.ndarray):
    """Dense fixed-point solve; returns (pi, unique_flag) or (None, None)."""
    n = kernel.shape[0]
    a = kernel.toarray().T - np.eye(n)
    basis = scipy.linalg.null_space(a, rcond=1e-9)
    if basis.shape[1] == 0:
        return None, None
    unique = basis.shape[1] == 1
    coeff = basis.T @ hint
    pi = basis @ coeff
    if pi.sum() < 0:
        pi = -pi
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if total <= 0:
        pi = np.clip(basis[:, 0] * np.sign(basis[:, 0].sum() or 1.0), 0.0, None)
        total = pi.sum()
        if total <= 0:
            return None, None
    return pi / total, unique


def _solve_stationary(kernel: sp.csr_matrix, tol: float, target: float, max_iter: int):
    """Power iteration from the uniform start with lazy/null-space fallbacks.

    Returns (pi, residual, unique_flag_or_None, iterations).  The residual
    is the L1 norm of pi K - pi for the returned vector.
    """
    n = kernel.shape[0]
    kt = kernel.T.tocsr()

    def residual_of(v: np.ndarray) -> float:
        return float(np.abs(kt @ v - v).sum())

    pi = np.full(n, 1.0 / n)
    best = pi
    best_res = residual_of(pi)
    lazy = False
    stall = 0
    it = 0
    while it < max_iter and best_res > target:
        it += 1
        nxt = kt @ pi
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

    best_res = residual_of(best)
    unique = None
    if best_res > target and n <= 4096:
        pi_ns, unique = _null_space_solve(kernel, best)
        if pi_ns is not None:
            res_ns = residual_of(pi_ns)
            if res_ns < best_res:
                best, best_res = pi_ns, res_ns
    if best_res > tol:
        raise RuntimeError(
            f"stationary solve did not converge: residual {best_res:.3e} after {it} iterations"
        )
    return best, best_res, unique, it


def solve_stationary(sys: MarkovSystem) -> np.ndarray:
    """Solve the chain from the uniform start, ignoring any prev_law.

    Negative solver noise is clipped and the vector renormalized on the
    previous-block axes, so the law built from it is exactly normalized.
    The vector and the solver diagnostics are cached on `sys`.
    """
    pi, res, unique, it = _solve_stationary(sys.kernel, RESIDUAL_TOL, SOLVE_TARGET, SOLVE_MAX_ITER)
    prev = np.clip(reduced_to_prev(sys, pi), 0.0, None)
    sys.reduced_stationary = prev_to_reduced(sys.reduced_shape, prev / prev.sum())
    sys.residual = res
    sys.stationary_unique = unique
    sys.iterations = it
    return sys.reduced_stationary


def stationary_vector(sys: MarkovSystem) -> tuple[np.ndarray, float]:
    """The system's stationary reduced-state vector and its L1 residual.

    With a prev_law in the configuration the vector is that law, whatever
    its residual: each caller decides which residual it accepts.  Without
    one the chain is solved (see solve_stationary).  Both are cached on
    `sys`, and a vector already solved there is reused.
    """
    if sys.reduced_stationary is None:
        if sys.cfg.prev_law is None:
            solve_stationary(sys)
        else:
            pi = prev_to_reduced(sys.reduced_shape, sys.cfg.prev_law.probs)
            sys.reduced_stationary, sys.residual = pi, _residual(sys, pi)
    return sys.reduced_stationary, sys.residual


def pair_law(sys: MarkovSystem, pi_reduced: np.ndarray) -> JointPmf:
    """Joint law of two consecutive reduced states, as the 14-axis state pmf.

    Materializes the dense pair tensor; refuse when the full state space
    exceeds the materialization cap (use pair_marginal for large systems).
    """
    n = sys.n_states
    if n ** 2 > DEFAULT_STATE_CAP:
        raise ValueError(
            f"full state space of {n ** 2} entries is too large to materialize"
        )
    pair = sys.kernel.multiply(pi_reduced[:, None]).toarray()
    shape8 = sys.reduced_shape
    t = pair.reshape(shape8 + shape8)
    # prev axes 0..7 = (s1', s2', u1', u2', x1', x2', y1', y2'); cur axes 8..15.
    perm = (8, 9, 10, 11, 0, 1, 2, 3, 4, 6, 5, 7, 12, 13, 14, 15)
    t = np.ascontiguousarray(np.transpose(t, perm))
    ns1, ns2, nu1, nu2, nx1, nx2, ny1, ny2 = shape8
    z_shape = (
        ns1, ns2, nu1, nu2,
        ns1, ns2, nu1, nu2,
        nx1 * ny1, nx2 * ny2,
        nx1, nx2, ny1, ny2,
    )
    return JointPmf(sys.z_axes, t.reshape(z_shape))


def pair_marginal(sys: MarkovSystem, pi_reduced: np.ndarray, keep: tuple[int, ...]) -> JointPmf:
    """Marginal of the consecutive-pair state law over selected state axes.

    Works directly on the sparse kernel, so it scales to systems whose full
    pair tensor would be too large to materialize.  Axis indices follow
    Z_AXES; the result axes follow the order of `keep`.
    """
    shape8 = sys.reduced_shape
    strides = np.ones(8, dtype=np.int64)
    for k in range(6, -1, -1):
        strides[k] = strides[k + 1] * shape8[k + 1]
    coo = sys.kernel.tocoo()
    weights = pi_reduced[coo.row] * coo.data

    def coord(state: np.ndarray, k: int) -> np.ndarray:
        return (state // strides[k]) % shape8[k]

    ny1, ny2 = shape8[6], shape8[7]
    axes = sys.z_axes

    def component(z_axis: int) -> np.ndarray:
        if 0 <= z_axis <= 3:
            return coord(coo.col, z_axis)
        if 4 <= z_axis <= 7:
            return coord(coo.row, z_axis - 4)
        if z_axis == 8:
            return coord(coo.row, 4) * ny1 + coord(coo.row, 6)
        if z_axis == 9:
            return coord(coo.row, 5) * ny2 + coord(coo.row, 7)
        if 10 <= z_axis <= 13:
            return coord(coo.col, z_axis - 6)
        raise ValueError(f"state axis {z_axis} out of range")

    sizes = [axes[k].size for k in keep]
    flat = np.zeros(len(weights), dtype=np.int64)
    for k, size in zip(keep, sizes):
        flat = flat * size + component(k)
    probs = np.bincount(flat, weights=weights, minlength=int(np.prod(sizes)))
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    return JointPmf(tuple(axes[k] for k in keep), probs.reshape(sizes))


def reduced_to_prev(sys_or_shape, reduced: np.ndarray) -> np.ndarray:
    """Reshape a reduced-state law into previous-block axes (s, u, io pairs)."""
    shape8 = sys_or_shape.reduced_shape if isinstance(sys_or_shape, MarkovSystem) else sys_or_shape
    ns1, ns2, nu1, nu2, nx1, nx2, ny1, ny2 = shape8
    t = reduced.reshape(shape8)
    t = np.ascontiguousarray(np.transpose(t, (0, 1, 2, 3, 4, 6, 5, 7)))
    return t.reshape(ns1, ns2, nu1, nu2, nx1 * ny1, nx2 * ny2)


def prev_to_reduced(shape8: tuple[int, ...], prev: np.ndarray) -> np.ndarray:
    """Inverse of reduced_to_prev; returns a flat reduced-state vector."""
    ns1, ns2, nu1, nu2, nx1, nx2, ny1, ny2 = shape8
    t = prev.reshape(ns1, ns2, nu1, nu2, nx1, ny1, nx2, ny2)
    t = np.transpose(t, (0, 1, 2, 3, 4, 6, 5, 7))
    return np.ascontiguousarray(t).reshape(-1)


def prev_axes_of(cfg: Configuration) -> tuple[Alphabet, ...]:
    return (
        Alphabet(cfg.s1.size, "prev_s1"),
        Alphabet(cfg.s2.size, "prev_s2"),
        Alphabet(cfg.u1.size, "prev_u1"),
        Alphabet(cfg.u2.size, "prev_u2"),
        Alphabet(cfg.io1_size, "prev_io1"),
        Alphabet(cfg.io2_size, "prev_io2"),
    )


def stationary_distribution(sys: MarkovSystem) -> JointPmf:
    """Stationary 14-axis state law (see stationary_vector)."""
    return pair_law(sys, stationary_vector(sys)[0])


def stationary_prev_law(cfg: Configuration, ch: TwoWayChannel, src: JointSource) -> JointPmf:
    """Find a previous-block law that makes the system chain stationary.

    Only the codeword conditionals and the f tables of `cfg` matter; any
    prev_law already present is ignored.  The result is the reduced chain's
    fixed point reached from the uniform start, reshaped onto the
    previous-block axes.
    """
    sys = build_chain(cfg, ch, src)
    return JointPmf(prev_axes_of(cfg), reduced_to_prev(sys, solve_stationary(sys)))


def _residual(sys: MarkovSystem, pi: np.ndarray) -> float:
    return float(np.abs(sys.kernel.T @ pi - pi).sum())


def prev_law_residual(sys: MarkovSystem, prev_law: JointPmf | None = None) -> float:
    """L1 one-step invariance defect of a previous-block law."""
    law = prev_law if prev_law is not None else sys.cfg.prev_law
    if law is None:
        raise ValueError("no previous-block law supplied")
    return _residual(sys, prev_to_reduced(sys.reduced_shape, law.probs))


# Z-axis index groups used by evaluators and the reconstruction path.
_RECON_KEEP_1 = (4, 6, 1, 3, 5, 7, 9, 13)  # prev_s1, prev_u1, then g2's arguments
_RECON_KEEP_2 = (5, 7, 0, 2, 4, 6, 8, 12)  # prev_s2, prev_u2, then g1's arguments


def reconstruction_distortions(
    sys: MarkovSystem,
    d1: DistortionMeasure,
    d2: DistortionMeasure,
    pi_reduced: np.ndarray | None = None,
) -> tuple[float, float]:
    """Expected distortions of the g-map reconstructions under a stationary law.

    Terminal 2 rebuilds terminal 1's previous-block source through g2 (fed
    the true previous codeword of terminal 1), and symmetrically; the
    distortion for source j is measured against the previous-block source.
    The law defaults to the system's stationary vector.
    """
    if pi_reduced is None:
        pi_reduced, _ = stationary_vector(sys)
    marg1 = pair_marginal(sys, pi_reduced, _RECON_KEEP_1).probs
    marg2 = pair_marginal(sys, pi_reduced, _RECON_KEEP_2).probs
    return decoder_distortion(marg1, sys.cfg.g2, d1), decoder_distortion(marg2, sys.cfg.g1, d2)


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
    residual_tol: float = RESIDUAL_TOL,
    slack: float = 1e-9,
) -> ConfigurationCheck:
    """Decide whether cfg's own previous-block law is stationary and meets
    both distortion targets (with floating-point slack at the boundary)."""
    if cfg.prev_law is None:
        raise ValueError("configuration has no previous-block law to check")
    sys = build_chain(cfg, ch, src)
    _, residual = stationary_vector(sys)
    dist = reconstruction_distortions(sys, d1, d2)
    feasible = (
        residual <= residual_tol
        and dist[0] <= target1 + slack
        and dist[1] <= target2 + slack
    )
    return ConfigurationCheck(feasible, dist, residual)
