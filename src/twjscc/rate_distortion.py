"""Rate-distortion and Wyner-Ziv rate-distortion on finite alphabets.

One Blahut-Arimoto engine serves both: for a fixed decoder h(s', t) the rate
I(S; T | S') is convex in the test channel P(t | s) and the distortion is
linear in it, so the alternating minimization of Dupuis, Yu and Willems (ISIT
2004), with its slope refit at every update so that the distortion meets the
target, reaches the decoder's optimum; R(D) is the case of a one-letter side
alphabet and the identity decoder.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .conditions import WZScheme
from .models import DistortionMeasure, JointSource
from .probability import Alphabet, ConditionalPmf, JointPmf, _plogp


WZ_MAX_DECODERS = 20_000  # enumerated decoders (17,550 on ternary pairs); above, Bayes alternation
_D_TOL = 1e-12  # distortion slack: feasibility, and the zero-cost cells of a tight target
_R_TOL = 1e-10  # rate accuracy certified by the gaps, in bits
_ROUND = 16  # updates between two exact slope fits and prunings of the decoders
_FLOOR = 1e-300  # keeps log2 q(t | s') finite for an unused letter


class InfeasibleDistortion(ValueError):
    """Requested distortion lies below the minimum any scheme can achieve."""


def _as_vector(source) -> np.ndarray:
    """The law of a one-axis JointPmf, or of a vector checked as one."""
    if not isinstance(source, JointPmf):
        arr = np.asarray(source, dtype=np.float64)
        try:
            source = JointPmf((Alphabet(arr.size),), arr)
        except ValueError as err:
            raise ValueError(f"source: {err}") from None
    if source.naxes != 1:
        raise ValueError("rate-distortion source must be a one-axis pmf")
    return source.probs


def _law(ps: np.ndarray):
    """(P(s), P(s' | s), P(s | s'), P(s')) of ps (s, s'), zero where undefined."""
    w, po = ps.sum(axis=1), ps.sum(axis=0)
    fwd = np.divide(ps, w[:, None], out=np.zeros_like(ps), where=w[:, None] > 0)
    back = np.divide(ps.T, po[:, None], out=np.zeros_like(ps.T), where=po[:, None] > 0)
    return w, fwd, back, po


def _rate(p_t: np.ndarray, law) -> np.ndarray:
    """I(S; T | S') = H(T | S') - H(T | S) in bits of test channels (..., s, t)."""
    w, _, back, po = law
    return _plogp(p_t).sum(axis=-1) @ w - _plogp(back @ p_t).sum(axis=-1) @ po


def _ba_step(p_t, law, excess, beta, slack=None, fits=64):
    """One update P(t | s) ~ prod_s' q(t | s') ** P(s' | s) * 2 ** -(beta excess(s, t)).
    With slack given, beta is refit first by at most `fits` safeguarded Newton
    steps from the given slope, so that the channels' mean excess is slack.
    Returns the channels, the slopes, the value they attain (the Lagrangian
    less beta * slack) and its Frank-Wolfe gap, a bound on how far the value
    lies above the minimum when the fit is exact."""
    w, fwd, back, po = law
    q = np.maximum(back @ p_t, _FLOOR)
    a = fwd @ np.log2(q)
    beta, lo, hi = beta.copy(), np.zeros_like(beta), np.full_like(beta, np.inf)
    p_t, top, z = np.empty_like(a), np.empty(a.shape[:-1] + (1,)), np.empty(a.shape[:-1] + (1,))
    rows = np.arange(len(beta))
    for fit in range(fits + 1):
        logits = a[rows] - beta[rows, None, None] * excess[rows]
        top[rows] = logits.max(axis=-1, keepdims=True)
        p = np.exp2(logits - top[rows])
        z[rows] = p.sum(axis=-1, keepdims=True)
        p_t[rows] = p = p / z[rows]
        if slack is None or fit == fits:
            break
        m = (p * excess[rows]).sum(axis=-1)
        f = m @ w - slack[rows]
        go = (np.abs(f) > 1e-13 * slack[rows]) & ((beta[rows] > 0) | (f > 0))
        rows, f, m, p = rows[go], f[go], m[go], p[go]
        if not rows.size:
            break
        b = beta[rows]
        lo[rows], hi[rows] = np.where(f > 0, b, lo[rows]), np.where(f > 0, hi[rows], b)
        var = ((p * excess[rows] ** 2).sum(axis=-1) - m * m) @ w * math.log(2)  # -df / dbeta
        step, l, h = b + f / np.maximum(var, _FLOOR), lo[rows], hi[rows]
        bisect = np.where(np.isinf(h), 2 * b + 1, (l + h) / 2)
        beta[rows] = np.where((l < step) & (step < h), step, bisect)
    value = -(top + np.log2(z))[..., 0] @ w - (0 if slack is None else beta * slack)
    gap = ((back @ p_t) / q).max(axis=-1) @ po - po.sum()
    return p_t, beta, value, gap / math.log(2)


def _alternate(p_t, law, excess, beta, slack=None, max_iter=5000):
    """Updates per leading index of excess (k, s, t), with slack one Newton
    step of the slope each, each pair extrapolated (SQUAREM, Varadhan and
    Roland 2008) where that lowers the value, until every gap is at most
    _R_TOL / 10: the channels, slopes, the value after each plain update and
    the gaps."""
    history = []
    while True:
        p1, beta, g0, _ = _ba_step(p_t, law, excess, beta, slack, 1)
        p2, beta, g1, gap = _ba_step(p1, law, excess, beta, slack, 1)
        history += [g0, g1]
        if np.all(gap <= _R_TOL / 10) or len(history) >= max_iter:
            return p2, beta, history, gap
        r, v = p1 - p_t, p2 - 2 * p1 + p_t
        a = np.sqrt((r * r).sum(axis=(-2, -1)) / np.maximum((v * v).sum(axis=(-2, -1)), _FLOOR))
        a = np.maximum(a, 1.0)[:, None, None]
        jump = np.maximum(p_t + 2 * a * r + a * a * v, p2 / 16)  # a dying letter drops 16x
        jump /= jump.sum(axis=-1, keepdims=True)
        p3, b3, g3, _ = _ba_step(jump, law, excess, beta, slack, 1)
        keep = g3 <= g1
        p_t, beta = np.where(keep[:, None, None], p3, p2), np.where(keep, b3, beta)


def _constrained(law, excess, slack, p_t):
    """Least-rate channels whose mean excess over the row minima of the costs
    is slack, per decoder (k, s, t), with the slope refit at every update:
    one Newton step within a round of _ROUND updates, then an exact fit that
    gives feasible channels and a certified value.  A decoder stops once its
    gap is at most _R_TOL / 10 or its lower bound (value - gap) reaches the
    best value.  Returns the channels and the decoder x iteration updates."""
    k = len(excess)
    beta, value, todo, evaluations = np.ones(k), np.full(k, np.inf), np.arange(k), 0
    for _ in range(300):
        p, b, history, _ = _alternate(p_t[todo], law, excess[todo], beta[todo], slack[todo],
                                      _ROUND)
        p, b, v, gap = _ba_step(p, law, excess[todo], b, slack[todo])
        evaluations += todo.size * (len(history) + 1)
        p_t[todo], beta[todo], value[todo] = p, b, v
        todo = todo[(gap > _R_TOL / 10) & (v - gap < value.min() - _R_TOL / 10)]
        if not todo.size:
            break
    return p_t, evaluations


def _solve(law, cost: np.ndarray, target: float):
    """Least-rate channels at distortion <= target, their rates (inf below the
    minimum), distortions and the updates made, for decoder costs
    cost[k, s, t] = E[d(s, h_k(S', t)) | s]."""
    w, (k, _, nt) = law[0], cost.shape
    excess = cost - cost.min(axis=-1, keepdims=True)
    d_min = cost.min(axis=-1) @ w
    col = np.einsum("s,kst->kt", w, cost)
    p_t = np.zeros(cost.shape)
    p_t[np.arange(k), :, col.argmin(axis=-1)] = 1.0  # zero-rate channels
    feasible = d_min <= target + _D_TOL
    open_ = feasible & (col.min(axis=-1) > target)
    tight = open_ & (d_min >= target - _D_TOL)
    evaluations = 0
    if tight.any():  # solved on the zero-cost cells only
        masked = np.where(excess[tight] > _D_TOL, 1e4, 0.0)  # 2 ** -1e4 underflows to 0
        p_t[tight], _, history, _ = _alternate(np.full_like(cost[tight], 1.0 / nt), law, masked,
                                               np.ones(int(tight.sum())))
        evaluations += len(history) * int(tight.sum())
    steep = open_ & ~tight
    if steep.any():
        p_t[steep], n = _constrained(law, excess[steep], target - d_min[steep],
                                     np.full_like(cost[steep], 1.0 / nt))
        evaluations += n
    rate = np.where(open_, np.maximum(_rate(p_t, law), 0.0), np.where(feasible, 0.0, np.inf))
    return p_t, rate, np.einsum("s,kst,kst->k", w, p_t, cost), evaluations


def _check_target(target: float, p: np.ndarray, dist: np.ndarray) -> None:
    if not math.isfinite(target):
        raise ValueError(f"distortion target {target} is not finite")
    if target < (d_min := float(p @ dist.min(axis=1))) - _D_TOL:
        raise InfeasibleDistortion(f"distortion {target} below the minimum achievable {d_min}")


def _rd_point(source, d: DistortionMeasure, target: float):
    p = _as_vector(source)
    _check_target(target, p, d.table)
    _, rate, dist, evaluations = _solve(_law(p[:, None]), d.table[None], target)
    return float(rate[0]), evaluations, abs(float(dist[0]) - target)


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


@dataclass(frozen=True)
class WzResult:
    rate: float
    scheme: WZScheme
    distortion: float
    evaluations: int  # decoder x iteration updates of the Blahut-Arimoto engine


def _decoder_costs(h: np.ndarray, law, dist: np.ndarray) -> np.ndarray:
    """cost[k, s, t] = sum_s' P(s' | s) d(s, h_k(s', t)) of decoders h (k, s', t)."""
    return np.einsum("so,skot->kst", law[1], dist[:, h])


def wz_function(src: JointSource, which: int, d: DistortionMeasure, target: float) -> WzResult:
    """Minimum side-information coding rate for source which (the other is
    the decoder's side information), |T| = |S| + 1 (at most 8).  It solves the
    |T|-subsets of the maps s' -> s_hat (merging two letters t with one map
    never raises the rate, and an unused letter costs nothing); above
    WZ_MAX_DECODERS it starts from the constant maps (all of them when
    |S_hat| <= |T|, so the rate never exceeds R(D)) and alternates with the
    Bayes decoder until one repeats."""
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    ps = src.law.probs if which == 1 else np.ascontiguousarray(src.law.probs.T)
    (ns, nso), nt = ps.shape, min(ps.shape[0] + 1, 8)
    if d.source_alphabet.size != ns:
        raise ValueError("distortion table does not match the compressed source")
    _check_target(target, ps.sum(axis=1), d.table)
    dist, nr, law = d.table, d.table.shape[1], _law(ps)
    n_maps = nr ** nso
    alternate = math.comb(n_maps, min(nt, n_maps)) > WZ_MAX_DECODERS
    if alternate:  # constant maps, each source letter's best reconstruction first
        first = list(dict.fromkeys([*dist.argmin(axis=1), *range(nr)]))[:nt]
        h = np.broadcast_to(first, (1, nso, len(first)))
    else:
        maps = np.array(list(itertools.product(range(nr), repeat=nso)))
        h = maps[list(itertools.combinations(range(n_maps), min(nt, n_maps)))].transpose(0, 2, 1)
    p_t, rate, dist_t, evaluations = _solve(law, _decoder_costs(h, law, dist), target)
    while alternate and np.isfinite(rate[-1]):
        bayes = np.einsum("so,st,sr->otr", ps, p_t[-1], dist).argmin(axis=-1)[None]
        if any(np.array_equal(bayes[0], x) for x in h):
            break
        p, r, dt, n = _solve(law, _decoder_costs(bayes, law, dist), target)
        h, p_t = np.concatenate([h, bayes]), np.concatenate([p_t, p])
        rate, dist_t, evaluations = np.append(rate, r), np.append(dist_t, dt), evaluations + n
    best = int(np.argmin(rate))
    pad = ((0, 0), (0, nt - h.shape[-1]))  # zero-mass letters up to |T|
    t_alpha, s_alpha = Alphabet(nt, "t"), (src.s1 if which == 1 else src.s2)
    scheme = WZScheme(t_alpha, ConditionalPmf((s_alpha,), (t_alpha,), np.pad(p_t[best], pad)),
                      np.pad(h[best], pad).astype(np.int64), d.recon_alphabet)
    return WzResult(float(rate[best]), scheme, float(dist_t[best]), evaluations)


def wz_curve(src: JointSource, which: int, d: DistortionMeasure, d_grid) -> RdCurve:
    """Wyner-Ziv curve with the isotonic clipping of rd_curve."""
    def point(target):
        res = wz_function(src, which, d, target)
        return res.rate, res.evaluations, abs(res.distortion - target)
    return _isotonic_curve(d_grid, point)
