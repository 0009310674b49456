"""Exact discrete probability on finite alphabets.

Distributions are stored as dense numpy tensors with one axis per random
variable.  All information measures are in bits (log base 2) and use the
convention 0*log(0) = 0.  Everything here is immutable after construction
and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

# Normalization tolerance for constructed distributions.
NORM_TOL = 1e-12


@dataclass(frozen=True)
class Alphabet:
    """A finite alphabet whose symbols are the indices 0..size-1."""

    size: int
    label: str = ""

    def __post_init__(self):
        if type(self.size) is not int and not isinstance(self.size, np.integer):  # bool is refused
            raise ValueError(f"alphabet size must be an integer, got {self.size!r}")
        if self.size < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.size}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class JointPmf:
    """Joint probability mass function over an ordered tuple of alphabets."""

    axes: tuple[Alphabet, ...]
    probs: np.ndarray

    def __post_init__(self):
        axes = tuple(self.axes)
        object.__setattr__(self, "axes", axes)
        probs = np.asarray(self.probs, dtype=np.float64)
        shape = tuple(a.size for a in axes)
        if probs.shape != shape:
            raise ValueError(f"pmf shape {probs.shape} does not match axes {shape}")
        if np.any(probs < 0) or not np.all(np.isfinite(probs)):
            raise ValueError("pmf entries must be finite and nonnegative")
        total = probs.sum()
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"pmf sums to {total!r}, violates normalization tolerance")
        object.__setattr__(self, "probs", _freeze(probs))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.probs.shape

    @property
    def naxes(self) -> int:
        return len(self.axes)


@dataclass(frozen=True)
class ConditionalPmf:
    """Conditional law P(out | given); given axes come first in the tensor."""

    given_axes: tuple[Alphabet, ...]
    out_axes: tuple[Alphabet, ...]
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "given_axes", tuple(self.given_axes))
        object.__setattr__(self, "out_axes", tuple(self.out_axes))
        probs = np.asarray(self.probs, dtype=np.float64)
        shape = tuple(a.size for a in self.given_axes) + tuple(a.size for a in self.out_axes)
        if probs.shape != shape:
            raise ValueError(f"conditional shape {probs.shape} does not match {shape}")
        if np.any(probs < 0) or not np.all(np.isfinite(probs)):
            raise ValueError("conditional pmf entries must be finite and nonnegative")
        sums = probs.reshape(int(np.prod([a.size for a in self.given_axes], initial=1)), -1).sum(axis=1)
        if np.any(np.abs(sums - 1.0) > NORM_TOL):
            worst = float(np.max(np.abs(sums - 1.0)))
            raise ValueError(f"conditional slices violate normalization (max dev {worst:.3e})")
        object.__setattr__(self, "probs", _freeze(probs))


AxisSet = int | Iterable[int]


def _as_axes(p: JointPmf, axes: AxisSet, name: str) -> tuple[int, ...]:
    if isinstance(axes, (int, np.integer)):
        axes = (int(axes),)
    out = tuple(int(a) for a in axes)
    for a in out:
        if not 0 <= a < p.naxes:
            raise ValueError(f"{name} axis {a} out of range for {p.naxes}-axis pmf")
    if len(set(out)) != len(out):
        raise ValueError(f"{name} axes contain duplicates: {out}")
    return out


def _check_disjoint(*groups: tuple[int, ...]):
    seen: set[int] = set()
    for g in groups:
        for a in g:
            if a in seen:
                raise ValueError(f"axis sets overlap on axis {a}")
            seen.add(a)


def _plogp(a: np.ndarray) -> np.ndarray:
    """Elementwise a log2 a, zero where a is zero."""
    return a * np.log2(a, out=np.zeros_like(a), where=a > 0)


def _plogp_sum(probs: np.ndarray) -> float:
    p = probs[probs > 0]
    return float(np.sum(p * np.log2(p)))


def _subset_entropy(p: JointPmf, axes: tuple[int, ...]) -> float:
    if not axes:
        return 0.0
    drop = tuple(a for a in range(p.naxes) if a not in axes)
    return -_plogp_sum(p.probs.sum(axis=drop) if drop else p.probs)


def mutual_information(p: JointPmf, a: AxisSet, b: AxisSet) -> float:
    """I(a; b) in bits, clamped at 0 to absorb roundoff."""
    aa = _as_axes(p, a, "a")
    bb = _as_axes(p, b, "b")
    _check_disjoint(aa, bb)
    mi = _subset_entropy(p, aa) + _subset_entropy(p, bb) - _subset_entropy(p, tuple(sorted(aa + bb)))
    return max(mi, 0.0)


def conditional_mutual_information(p: JointPmf, a: AxisSet, b: AxisSet, c: AxisSet) -> float:
    """I(a; b | c) = H(a,c) + H(b,c) - H(a,b,c) - H(c), in bits."""
    aa = _as_axes(p, a, "a")
    bb = _as_axes(p, b, "b")
    cc = _as_axes(p, c, "c")
    _check_disjoint(aa, bb, cc)
    return (
        _subset_entropy(p, tuple(sorted(aa + cc)))
        + _subset_entropy(p, tuple(sorted(bb + cc)))
        - _subset_entropy(p, tuple(sorted(aa + bb + cc)))
        - _subset_entropy(p, cc)
    )


def marginalize(p: JointPmf, keep: AxisSet) -> JointPmf:
    """Sum out all axes not in `keep`; result axes follow the order of `keep`."""
    kk = _as_axes(p, keep, "keep")
    if not kk:
        raise ValueError("keep set must be nonempty")
    drop = tuple(a for a in range(p.naxes) if a not in kk)
    reduced = p.probs.sum(axis=drop) if drop else p.probs
    kept_sorted = tuple(a for a in range(p.naxes) if a in kk)
    perm = tuple(kept_sorted.index(a) for a in kk)
    return JointPmf(tuple(p.axes[a] for a in kk), np.transpose(reduced, perm))


# Relative distance within which n * p * (1 +- eps) is taken to be an integer.
SNAP_TOL = 1e-9


def _snap(x: np.ndarray) -> np.ndarray:
    r = np.round(x)
    return np.where(np.abs(x - r) <= SNAP_TOL * np.abs(r), r, x)


def typical_count_bounds(ref: np.ndarray, n: int, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Integer count bounds (lo, hi) of robust typicality at block length n.

    A cell of reference probability p holding c of the n letters satisfies
    |c/n - p| <= eps * p iff lo <= c <= hi, with lo = ceil(n p (1 - eps))
    and hi = floor(n p (1 + eps)).  A product within SNAP_TOL relative of an
    integer is snapped to it before rounding, so float roundoff in p (e.g.
    0.7 * 0.1 == 0.06999999999999999) cannot push a bound past an exact
    count.  Zero-probability cells get lo = hi = 0.
    """
    base = n * np.asarray(ref, dtype=np.float64)
    lo = np.ceil(_snap(base * (1.0 - eps))).astype(np.int64)
    hi = np.floor(_snap(base * (1.0 + eps))).astype(np.int64)
    return lo, hi


def bernoulli(p: float, label: str = "") -> JointPmf:
    """One-axis pmf (1-p, p) on a binary alphabet."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    return JointPmf((Alphabet(2, label),), np.array([1.0 - p, p]))
