"""Channel, source, and distortion models, including the worked presets.

Composite symbols (bit pairs/triples) are flattened to integer indices in
row-major order, e.g. the pair (b1, b2) becomes 2*b1 + b2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .probability import Alphabet, ConditionalPmf, JointPmf


@dataclass(frozen=True)
class TwoWayChannel:
    """Memoryless two-way channel P(y1, y2 | x1, x2) on finite alphabets."""

    x1: Alphabet
    x2: Alphabet
    y1: Alphabet
    y2: Alphabet
    law: ConditionalPmf  # given (x1, x2), out (y1, y2)

    def __post_init__(self):
        expected = ((self.x1, self.x2), (self.y1, self.y2))
        got = (self.law.given_axes, self.law.out_axes)
        if tuple(a.size for a in got[0]) != tuple(a.size for a in expected[0]) or tuple(
            a.size for a in got[1]
        ) != tuple(a.size for a in expected[1]):
            raise ValueError("channel law axes do not match declared alphabets")


@dataclass(frozen=True)
class JointSource:
    """Memoryless correlated source pair with per-letter law P(s1, s2)."""

    s1: Alphabet
    s2: Alphabet
    law: JointPmf

    def __post_init__(self):
        if self.law.shape != (self.s1.size, self.s2.size):
            raise ValueError("source law shape does not match alphabets")


@dataclass(frozen=True)
class DistortionMeasure:
    """Single-letter distortion table d(s, s_hat) >= 0."""

    source_alphabet: Alphabet
    recon_alphabet: Alphabet
    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.float64)
        if table.shape != (self.source_alphabet.size, self.recon_alphabet.size):
            raise ValueError("distortion table shape does not match alphabets")
        if np.any(table < 0) or not np.all(np.isfinite(table)):
            raise ValueError("distortion entries must be finite and nonnegative")
        table = np.ascontiguousarray(table)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    @property
    def d_max(self) -> float:
        return float(self.table.max())


def decoder_distortion(marg: np.ndarray, table: np.ndarray, d: DistortionMeasure) -> float:
    """E[d(source, table(args))], where marg holds the source on axis 0 and
    the decoder table's arguments on the remaining axes."""
    idx = np.indices(marg.shape[2:], sparse=True)
    # this loop order fixes the float summation order; search_region compares
    # distortions with ==, so another order can change the points it keeps
    total = 0.0
    for s in range(marg.shape[0]):
        for a in range(marg.shape[1]):
            total += float(np.sum(marg[s, a] * d.table[s, table[(a, *idx)]]))
    return total


def bayes_decoder(marg: np.ndarray, d: DistortionMeasure) -> np.ndarray:
    """Decoder table minimizing decoder_distortion for the marginal `marg`;
    ties break toward the lowest reconstruction index."""
    return np.argmin(np.einsum("s...,sr->...r", marg, d.table), axis=-1).astype(np.int64)


def _pack3(b1: int, b2: int, b3: int) -> int:
    return 4 * b1 + 2 * b2 + b3


def preset_bmc() -> TwoWayChannel:
    """Binary multiplying channel: both terminals receive y = x1 * x2."""
    xa = Alphabet(2, "x")
    ya = Alphabet(2, "y")
    law = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            y = x1 * x2
            law[x1, x2, y, y] = 1.0
    return TwoWayChannel(xa, xa, ya, ya, ConditionalPmf((xa, xa), (ya, ya), law))


def preset_crossed_bitpipes() -> TwoWayChannel:
    """Noiseless crossed binary pipes: y1 = x2 and y2 = x1."""
    xa = Alphabet(2, "x")
    ya = Alphabet(2, "y")
    law = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            law[x1, x2, x2, x1] = 1.0
    return TwoWayChannel(xa, xa, ya, ya, ConditionalPmf((xa, xa), (ya, ya), law))


def preset_dueck() -> TwoWayChannel:
    """Two-way channel with paired inputs and tripled noisy outputs.

    Inputs are bit pairs x_j = (x_{j,1}, x_{j,2}) flattened to 0..3; outputs
    are bit triples flattened to 0..7.  Terminal j receives
    (x_{1,1} * x_{2,1},  n_j xor x_{j',2},  n_{j'}) where n_1, n_2 are
    independent fair coins, marginalized out of the law.
    """
    xa = Alphabet(4, "x-pair")
    ya = Alphabet(8, "y-triple")
    law = np.zeros((4, 4, 8, 8))
    for x1 in range(4):
        x11, x12 = x1 >> 1, x1 & 1
        for x2 in range(4):
            x21, x22 = x2 >> 1, x2 & 1
            for n1 in range(2):
                for n2 in range(2):
                    y1 = _pack3(x11 * x21, n1 ^ x22, n2)
                    y2 = _pack3(x11 * x21, n2 ^ x12, n1)
                    law[x1, x2, y1, y2] += 0.25
    return TwoWayChannel(xa, xa, ya, ya, ConditionalPmf((xa, xa), (ya, ya), law))


def preset_example2_source() -> JointSource:
    """Binary pair with P(0,0) = 0 and the three remaining pairs at 1/3."""
    sa = Alphabet(2, "s")
    law = np.array([[0.0, 1.0], [1.0, 1.0]]) / 3.0
    return JointSource(sa, sa, JointPmf((sa, sa), law))


def preset_independent_bernoulli(p1: float, p2: float) -> JointSource:
    """Independent Bernoulli(p1) x Bernoulli(p2) source pair."""
    for p in (p1, p2):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p} outside [0, 1]")
    sa = Alphabet(2, "s")
    law = np.outer([1.0 - p1, p1], [1.0 - p2, p2])
    return JointSource(sa, sa, JointPmf((sa, sa), law))


def hamming(alphabet: Alphabet) -> DistortionMeasure:
    """Hamming distortion d(s, s_hat) = 1{s != s_hat} on a common alphabet."""
    n = alphabet.size
    return DistortionMeasure(alphabet, alphabet, 1.0 - np.eye(n))
