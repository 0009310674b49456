"""Rate-distortion and Wyner-Ziv rate-distortion on finite alphabets.

The plain function is computed by Blahut-Arimoto iterations with a
bisection on the Lagrange multiplier; the side-information function is a
deterministic brute-force search over test-channel conditionals on a
simplex lattice.  A candidate picks one lattice row per source symbol, so
its decoder costs and entropies are sums of per-row tables, scored over the
grid of picks without forming any candidate's joint law.  For a fixed
decoder h the rate I(S; T | S_other) is convex in the conditional P(t | s),
but the objective is non-convex jointly in (P(t | s), h), so a grid plus
local refinement is preferred over alternating minimization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .conditions import WZScheme, _simplex_lattice
from .models import DistortionMeasure, JointSource
from .probability import Alphabet, ConditionalPmf, JointPmf, _plogp, _plogp_sum


WZ_LEVELS = 15  # finest simplex lattice of the Wyner-Ziv search
WZ_REFINE_ROUNDS = 2  # local refinements around the lattice's best point
WZ_CHUNK = 20000  # candidates evaluated per batch


class InfeasibleDistortion(ValueError):
    """Requested distortion lies below the minimum any scheme can achieve."""


def _as_vector(source) -> np.ndarray:
    if isinstance(source, JointPmf):
        if source.naxes != 1:
            raise ValueError("rate-distortion source must be a one-axis pmf")
        return source.probs
    arr = np.asarray(source, dtype=np.float64)
    if arr.ndim != 1 or abs(arr.sum() - 1.0) > 1e-12 or np.any(arr < 0):
        raise ValueError("source must be a probability vector")
    return arr


@dataclass(frozen=True)
class BaResult:
    rate: float
    distortion: float
    iterations: int
    objective_history: tuple[float, ...]


def blahut_arimoto(
    p: np.ndarray,
    dist_table: np.ndarray,
    beta: float,
    max_iter: int = 5000,
    tol: float = 1e-13,
) -> BaResult:
    """Fixed-slope Blahut-Arimoto: minimizes I + beta * D.

    Returns the converged (rate, distortion) point together with the
    per-iteration Lagrangian values, which are non-increasing.
    """
    p = _as_vector(p)
    dist = np.asarray(dist_table, dtype=np.float64)
    ns, nr = dist.shape
    # stabilized exponent keeps rows alive for very steep slopes
    expo = np.exp(-beta * (dist - dist.min(axis=1, keepdims=True)))
    q = np.full((ns, nr), 1.0 / nr)
    history = []
    rate = dist_val = 0.0
    it = 0
    prev_obj = np.inf
    for it in range(1, max_iter + 1):
        out = p @ q
        q = out[None, :] * expo
        q /= q.sum(axis=1, keepdims=True)
        joint = p[:, None] * q
        out = joint.sum(axis=0)
        rate = -_plogp_sum(out) + float(np.sum(joint[joint > 0] * np.log2(q[joint > 0])))
        dist_val = float(np.sum(joint * dist))
        obj = rate + beta * dist_val
        history.append(obj)
        if abs(prev_obj - obj) <= tol:
            break
        prev_obj = obj
    return BaResult(max(rate, 0.0), dist_val, it, tuple(history))


def _min_distortion_rate(p: np.ndarray, dist: np.ndarray) -> float:
    """Rate of the per-symbol argmin reconstruction map (exact when the
    argmin is unique for every source symbol)."""
    assign = np.argmin(dist, axis=1)
    out = np.bincount(assign, weights=p, minlength=dist.shape[1])
    return -_plogp_sum(out)


def _rd_point(source, d: DistortionMeasure, target: float):
    if not math.isfinite(target):
        raise ValueError(f"distortion target {target} is not finite")
    p = _as_vector(source)
    dist = d.table
    d_min = float(np.sum(p * dist.min(axis=1)))
    d_const = float(np.min(p @ dist))
    if target < d_min - 1e-12:
        raise InfeasibleDistortion(
            f"distortion {target} below the minimum achievable {d_min}"
        )
    if target >= d_const - 1e-12:
        return 0.0, 0, 0.0
    if target <= d_min + 1e-12:
        return _min_distortion_rate(p, dist), 0, 0.0

    # expand the slope until the target is bracketed, then bisect
    lo, hi = 0.0, 1.0
    iters = 0
    for _ in range(80):
        res = blahut_arimoto(p, dist, hi)
        iters += res.iterations
        if res.distortion <= target:
            break
        lo, hi = hi, hi * 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        res = blahut_arimoto(p, dist, mid)
        iters += res.iterations
        if res.distortion > target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, hi):
            break
    res = blahut_arimoto(p, dist, hi)
    iters += res.iterations
    # tangent-line step to the exact target distortion
    rate = res.rate + hi * (res.distortion - target)
    residual = abs(res.distortion - target)
    return max(rate, 0.0), iters, residual


def rd_function(source, d: DistortionMeasure, target: float) -> float:
    """Minimum coding rate (bits/symbol) at mean distortion <= target."""
    rate, _, _ = _rd_point(source, d, target)
    return rate


@dataclass(frozen=True)
class RdCurve:
    """Sampled rate-distortion curve with solver metadata per point."""

    points: tuple[tuple[float, float], ...]
    iterations: tuple[int, ...]
    residuals: tuple[float, ...]


def _isotonic_curve(d_grid, point) -> RdCurve:
    """Curve over the sorted grid, each rate clipped to the one before it
    to remove floating-point bumps; `point(target)` returns (rate,
    iterations, residual)."""
    pts, its, ress = [], [], []
    rate = np.inf
    for target in sorted(float(x) for x in d_grid):
        r, it, res = point(target)
        rate = min(r, rate)
        pts.append((target, rate))
        its.append(it)
        ress.append(res)
    return RdCurve(tuple(pts), tuple(its), tuple(ress))


def rd_curve(source, d: DistortionMeasure, d_grid) -> RdCurve:
    """Pointwise curve with isotonic clipping of floating-point bumps."""
    return _isotonic_curve(d_grid, lambda target: _rd_point(source, d, target))


# ---------------------------------------------------------------------------
# Wyner-Ziv with decoder side information
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WzResult:
    rate: float
    scheme: WZScheme
    distortion: float
    evaluations: int


def _grid_sum(tab: np.ndarray, lead: tuple) -> np.ndarray:
    """Per-row tables tab (ns, L, ...) summed over the source rows, in row
    order: rows 0..k-1 take the row indices lead (k arrays of n), the others
    range over all L, giving (n * L ** (ns - k), ...) in row-major order."""
    out = tab[0, lead[0]]
    for s in range(1, len(tab)):
        if s < len(lead):
            out = out + tab[s, lead[s]]
        else:
            out = (out[:, None] + tab[s]).reshape((-1,) + tab.shape[2:])
    return out


def _wz_batches(local: np.ndarray, ps: np.ndarray, dist: np.ndarray):
    """Objective I(S;T) - I(S_other;T) and distortion of every candidate
    that picks one row of local (ns, L, t) per source symbol, in the
    row-major order of those picks.  Both are sums of per-row tables over
    the grid, and H(T) cancels.  Yields (first flat index, objective,
    distortion) per batch of at most WZ_CHUNK candidates."""
    ns, n_lat = local.shape[:2]
    pso = ps[:, None, :, None] * local[:, :, None, :]  # (s, row, s_other, t)
    cost = pso[None] * dist.T[:, :, None, None, None]  # (r, s, row, s_other, t)
    h_st = -_plogp(pso.sum(axis=2)).sum(axis=-1)  # (s, row): H(S, T) = sum over rows
    h_s_minus_so = _plogp_sum(ps.sum(axis=0)) - _plogp_sum(ps.sum(axis=1))
    k = next(k for k in range(1, ns + 1) if n_lat ** (ns - k) <= WZ_CHUNK)
    tail = n_lat ** (ns - k)
    step = WZ_CHUNK // tail
    for lo in range(0, n_lat ** k, step):
        lead = np.unravel_index(np.arange(lo, min(lo + step, n_lat ** k)), (n_lat,) * k)
        d_min = functools.reduce(np.minimum, (_grid_sum(c, lead) for c in cost))
        h_sot = -_plogp(_grid_sum(pso, lead)).sum(axis=(1, 2))
        yield lo * tail, h_s_minus_so - _grid_sum(h_st, lead) + h_sot, d_min.sum(axis=(1, 2))


def _wz_decoder(rows: np.ndarray, ps: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Per-(side, t) argmin reconstruction of test channels rows (..., s, t),
    lowest index on ties, from the costs _wz_batches minimizes."""
    terms = ps[:, :, None, None] * rows[..., :, None, :, None] * dist[:, None, None, :]
    return np.argmin(terms.sum(axis=-4), axis=-1)


def wz_function(
    src: JointSource,
    which: int,
    d: DistortionMeasure,
    target: float,
) -> WzResult:
    """Minimum side-information coding rate for one source of the pair.

    which selects the compressed source (the other one is the decoder's
    side information).  Searches conditionals P(t | s) on a simplex lattice
    with |T| = |S| + 1 (capped at 8), pairs each with its optimal
    deterministic decoder, and keeps the best rate among candidates meeting
    the distortion target.
    """
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    if not math.isfinite(target):
        raise ValueError(f"distortion target {target} is not finite")
    if target < 0:
        raise InfeasibleDistortion("negative distortion target")
    ps = src.law.probs if which == 1 else np.ascontiguousarray(src.law.probs.T)
    ns, nso = ps.shape
    nt = min(ns + 1, 8)
    if d.source_alphabet.size != ns:
        raise ValueError("distortion table does not match the compressed source")
    dist = d.table

    levels = (lv for lv in range(WZ_LEVELS, 2, -1) if math.comb(lv + nt - 1, nt - 1) ** ns <= 300_000)
    lattice = _simplex_lattice(nt, next(levels, 2))

    best = None  # (objective, distortion, rows)
    evaluations = 0
    base_rows = np.full((ns, nt), 1.0 / nt)
    for r in range(WZ_REFINE_ROUNDS + 1):  # the full lattice, then local refinements
        alpha = 10.0 ** (-r)
        local = (1.0 - alpha) * base_rows[:, None, :] + alpha * lattice[None, :, :]
        for lo, obj, d_ach in _wz_batches(local, ps, dist):
            evaluations += len(obj)
            ok = d_ach <= target + 1e-12
            k = int(np.argmin(np.where(ok, obj, np.inf)))  # first best feasible candidate
            if ok[k] and (best is None or obj[k] < best[0] - 1e-15):
                rows = local[np.arange(ns), np.unravel_index(lo + k, (len(lattice),) * ns)]
                best = (float(obj[k]), float(d_ach[k]), rows)
        if best is None:
            d_min = float(np.sum(ps.sum(axis=1) * dist.min(axis=1)))
            raise InfeasibleDistortion(
                f"no test channel meets distortion {target} (minimum achievable {d_min})"
            )
        base_rows = best[2]

    obj, d_ach, rows = best
    h = _wz_decoder(rows, ps, dist)
    t_alpha = Alphabet(nt, "t")
    s_alpha = src.s1 if which == 1 else src.s2
    scheme = WZScheme(
        t=t_alpha,
        p_t_given_s=ConditionalPmf((s_alpha,), (t_alpha,), rows),
        h=h.astype(np.int64),
        shat=d.recon_alphabet,
    )
    return WzResult(max(obj, 0.0), scheme, d_ach, evaluations)


def wz_curve(
    src: JointSource,
    which: int,
    d: DistortionMeasure,
    d_grid,
) -> RdCurve:
    """Wyner-Ziv curve with the isotonic clipping of rd_curve."""
    def point(target):
        res = wz_function(src, which, d, target)
        return res.rate, res.evaluations, abs(res.distortion - target)

    return _isotonic_curve(d_grid, point)
