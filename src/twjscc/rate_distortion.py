"""Rate-distortion and Wyner-Ziv rate-distortion on finite alphabets.

The plain function is computed by Blahut-Arimoto iterations with a
bisection on the Lagrange multiplier; the side-information function is a
deterministic brute-force search over test-channel conditionals on a
simplex lattice.  For a fixed decoder h the rate I(S; T | S_other) is convex
in the conditional P(t | s), but the objective is non-convex jointly in
(P(t | s), h), so a grid plus local refinement is preferred over
alternating minimization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conditions import WZScheme, _simplex_lattice
from .models import DistortionMeasure, JointSource
from .probability import Alphabet, ConditionalPmf, JointPmf, _plogp_sum


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


def _wz_candidates(base_rows: np.ndarray, lattice: np.ndarray, alpha: float) -> np.ndarray:
    """Per-row local lattices combined over all source symbols, in the
    row-major order of the choice of one lattice point per row."""
    ns = base_rows.shape[0]
    local = (1.0 - alpha) * base_rows[:, None, :] + alpha * lattice[None, :, :]
    choice = np.indices((len(lattice),) * ns).reshape(ns, -1).T  # (combos, ns)
    return local[np.arange(ns), choice]


def _wz_evaluate(cands: np.ndarray, ps: np.ndarray, dist: np.ndarray):
    """Vectorized decoder optimization for a batch of test channels.

    Returns (objective, distortion, decoder) arrays; the decoder is the
    per-(side, t) argmin reconstruction with lowest-index tie-breaking.
    """
    joint = ps[None, :, :, None] * cands[:, :, None, :]  # (c, s, so, t)
    cost = np.einsum("csot,sr->cotr", joint, dist)
    h = np.argmin(cost, axis=-1)
    d_ach = np.min(cost, axis=-1).sum(axis=(1, 2))

    pst = joint.sum(axis=2)  # (c, s, t)
    psot = joint.sum(axis=1)  # (c, so, t)
    pt = pst.sum(axis=1)  # (c, t)

    def h_rows(a):
        with np.errstate(divide="ignore", invalid="ignore"):
            lg = np.where(a > 0, np.log2(np.where(a > 0, a, 1.0)), 0.0)
        return -(a * lg).reshape(a.shape[0], -1).sum(axis=1)

    h_t = h_rows(pt)
    # I(S;T) - I(Sother;T) = H(S) - H(S,T) - H(Sother) + H(Sother,T) + constants cancel
    i1 = h_rows(pst.sum(axis=2)) + h_t - h_rows(pst)
    i2 = h_rows(psot.sum(axis=2)) + h_t - h_rows(psot)
    return i1 - i2, d_ach, h


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
    if target < 0:
        raise InfeasibleDistortion("negative distortion target")
    ps = src.law.probs if which == 1 else np.ascontiguousarray(src.law.probs.T)
    ns, nso = ps.shape
    nt = min(ns + 1, 8)
    if d.source_alphabet.size != ns:
        raise ValueError("distortion table does not match the compressed source")
    dist = d.table

    lat_levels = WZ_LEVELS
    while len(_simplex_lattice(nt, lat_levels)) ** ns > 300_000 and lat_levels > 2:
        lat_levels -= 1
    lattice = _simplex_lattice(nt, lat_levels)

    uniform = np.full((ns, nt), 1.0 / nt)
    best = None  # (objective, dist, pt_rows, h)
    evaluations = 0

    def consider(cands: np.ndarray):
        nonlocal best, evaluations
        for lo in range(0, len(cands), WZ_CHUNK):
            batch = cands[lo : lo + WZ_CHUNK]
            obj, d_ach, h = _wz_evaluate(batch, ps, dist)
            evaluations += len(batch)
            ok = d_ach <= target + 1e-12
            if not np.any(ok):
                continue
            idx = np.where(ok)[0]
            k = idx[int(np.argmin(obj[idx]))]
            if best is None or obj[k] < best[0] - 1e-15:
                best = (float(obj[k]), float(d_ach[k]), batch[k].copy(), h[k].copy())

    consider(_wz_candidates(uniform, lattice, 1.0))
    if best is None:
        d_min = float(np.sum(ps.sum(axis=1) * dist.min(axis=1)))
        raise InfeasibleDistortion(
            f"no test channel meets distortion {target} (minimum achievable {d_min})"
        )
    for r in range(1, WZ_REFINE_ROUNDS + 1):
        consider(_wz_candidates(best[2], lattice, 10.0 ** (-r)))

    obj, d_ach, rows, h = best
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
