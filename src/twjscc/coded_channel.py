"""Configurations and the one shaper of their encoder/decoder tables.

A configuration couples fresh per-block variables (s_j, u_j) with the
previous block's state: its source/codeword pair and the channel
input/output pair observed there.  The input/output pair at terminal j is
flattened to a single "io" symbol io = x * |Y_j| + y; that indexing is used
everywhere, including file formats.  A table handed to a constructor may
leave out the arguments it ignores: size-1 or missing leading axes are
broadcast to the full argument tuple by `_check_table`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import JointSource, TwoWayChannel
from .probability import Alphabet, ConditionalPmf, JointPmf


def io_index(x: np.ndarray | int, y: np.ndarray | int, y_size: int):
    """Flatten a channel (input, output) pair to one symbol; x is promoted to
    intp first, since a table read gives it in the table's narrow type."""
    return np.asarray(x, dtype=np.intp) * y_size + y


def _check_table(name: str, table, shape: tuple[int, ...], out_size: int) -> np.ndarray:
    """Expand an integer table to `shape` and check its entries.

    The table broadcasts to `shape` by numpy's rule: a missing leading axis
    or an axis of size 1 means the table ignores that argument.  Returns a
    contiguous, read-only copy in the narrowest unsigned type that holds
    out_size - 1 (uint8 up to 256 letters), so arithmetic on an entry must
    promote it to intp first; raises ValueError naming the table when it does
    not broadcast, does not hold integers, or has an entry outside [0, out_size).
    """
    arr = np.asarray(table)
    try:
        arr = np.broadcast_to(arr, shape)
    except ValueError:
        raise ValueError(f"{name} table shape {arr.shape}, expected {shape}") from None
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"{name} table must hold integers")
    if arr.size and (arr.min() < 0 or arr.max() >= out_size):
        raise ValueError(f"{name} entries must lie in [0, {out_size})")
    arr = np.array(arr, dtype=np.min_scalar_type(out_size - 1), order="C")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Configuration:
    """Full parameter set of the coded channel.

    f_j maps (s_j, u_j, prev_s_j, prev_u_j, prev_io_j) to a channel input.
    g_j maps (prev_u_j', s_j, u_j, prev_s_j, prev_u_j, prev_io_j, y_j) to a
    reconstruction of the other terminal's previous-block source.  Both are
    stored as dense tables of the narrowest unsigned type that holds their
    output letters, indexed row-major over their argument tuples (on Dueck's
    channel with binary sources and codewords the four take 17,408 bytes);
    the constructor accepts any table that broadcasts to that shape
    (see `_check_table`), so a table may leave out the arguments it ignores.
    prev_law may be None while a stationary previous-block law is still to
    be computed (markov.build_chain solves and installs it).
    """

    u1: Alphabet
    u2: Alphabet
    pu1_given_s1: ConditionalPmf
    pu2_given_s2: ConditionalPmf
    prev_law: JointPmf | None
    f1: np.ndarray
    f2: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    x1: Alphabet
    x2: Alphabet
    y1: Alphabet
    y2: Alphabet
    recon1: Alphabet
    recon2: Alphabet

    def __post_init__(self):
        s1, s2 = self.s1, self.s2
        for cond, u, nm in ((self.pu1_given_s1, self.u1, "pu1"), (self.pu2_given_s2, self.u2, "pu2")):
            if len(cond.given_axes) != 1 or len(cond.out_axes) != 1:
                raise ValueError(f"{nm} must condition one source axis on one codeword axis")
            if cond.out_axes[0].size != u.size:
                raise ValueError(f"{nm} output alphabet does not match u")
        nio1, nio2 = self.io1_size, self.io2_size
        if self.prev_law is not None:
            expect = tuple(a.size for a in self.prev_axes)
            if self.prev_law.shape != expect:
                raise ValueError(f"prev_law shape {self.prev_law.shape}, expected {expect}")
        object.__setattr__(
            self,
            "f1",
            _check_table("f1", self.f1, (s1.size, self.u1.size, s1.size, self.u1.size, nio1), self.x1.size),
        )
        object.__setattr__(
            self,
            "f2",
            _check_table("f2", self.f2, (s2.size, self.u2.size, s2.size, self.u2.size, nio2), self.x2.size),
        )
        g1_shape = (self.u2.size, s1.size, self.u1.size, s1.size, self.u1.size, nio1, self.y1.size)
        g2_shape = (self.u1.size, s2.size, self.u2.size, s2.size, self.u2.size, nio2, self.y2.size)
        object.__setattr__(self, "g1", _check_table("g1", self.g1, g1_shape, self.recon2.size))
        object.__setattr__(self, "g2", _check_table("g2", self.g2, g2_shape, self.recon1.size))

    @property
    def s1(self) -> Alphabet:
        return self.pu1_given_s1.given_axes[0]

    @property
    def s2(self) -> Alphabet:
        return self.pu2_given_s2.given_axes[0]

    @property
    def io1_size(self) -> int:
        return self.x1.size * self.y1.size

    @property
    def io2_size(self) -> int:
        return self.x2.size * self.y2.size

    @property
    def prev_axes(self) -> tuple[Alphabet, ...]:
        """Axes of a previous-block law, which are also the system chain's
        state: the two sources, the two codewords and the two flattened
        input/output pairs."""
        return (
            Alphabet(self.s1.size, "prev_s1"),
            Alphabet(self.s2.size, "prev_s2"),
            Alphabet(self.u1.size, "prev_u1"),
            Alphabet(self.u2.size, "prev_u2"),
            Alphabet(self.io1_size, "prev_io1"),
            Alphabet(self.io2_size, "prev_io2"),
        )

    def check_against(self, ch: TwoWayChannel, src: JointSource) -> None:
        """Raise when the configuration's alphabets disagree with a model pair."""
        pairs = [
            (self.s1.size, src.s1.size, "s1"),
            (self.s2.size, src.s2.size, "s2"),
            (self.x1.size, ch.x1.size, "x1"),
            (self.x2.size, ch.x2.size, "x2"),
            (self.y1.size, ch.y1.size, "y1"),
            (self.y2.size, ch.y2.size, "y2"),
        ]
        for got, want, nm in pairs:
            if got != want:
                raise ValueError(f"configuration {nm} size {got} does not match model size {want}")


def fresh_law(cfg: Configuration, src: JointSource) -> np.ndarray:
    """Per-block law of (s1, s2, u1, u2) as a 4-axis tensor."""
    return (
        src.law.probs[:, :, None, None]
        * cfg.pu1_given_s1.probs[:, None, :, None]
        * cfg.pu2_given_s2.probs[None, :, None, :]
    )
