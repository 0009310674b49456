"""Structured-text (JSON) file formats for models, schemes, configurations.

Every document carries version "v1" and a "kind" discriminator, then the
alphabet sizes, then the laws as nested arrays in row-major axis order, then
the encoder/decoder tables as flat integer arrays raveled row-major over
their argument tuples (the same index convention used by the in-memory
tables).  `_save` is the one writer of that rule; `_alphabets`, `_law` and
`_table` read it back.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import tempfile

import numpy as np

from .coded_channel import Configuration
from .conditions import AdaptiveChannelScheme, HybridScheme, WZScheme
from .models import (
    DistortionMeasure,
    JointSource,
    TwoWayChannel,
    hamming,
    preset_bmc,
    preset_crossed_bitpipes,
    preset_dueck,
    preset_example2_source,
    preset_independent_bernoulli,
)
from .probability import Alphabet, ConditionalPmf, JointPmf

VERSION = "v1"

CHANNEL_PRESETS = {
    "bmc": preset_bmc,
    "dueck": preset_dueck,
    "bitpipes": preset_crossed_bitpipes,
}


def source_preset(name: str) -> JointSource | None:
    """The source a preset name gives ("example2", "bernoulli:p" or
    "bernoulli:p1:p2"), or None for any other name."""
    if name == "example2":
        return preset_example2_source()
    kind, *probs = name.split(":")
    if kind != "bernoulli" or len(probs) not in (1, 2):
        return None
    try:
        p = [float(x) for x in probs]
    except ValueError:
        return None
    return preset_independent_bernoulli(p[0], p[-1])


def preset_names() -> dict:
    return {
        "channels": sorted(CHANNEL_PRESETS),
        "sources": ["example2", "bernoulli:p", "bernoulli:p1:p2"],
    }


def write_atomic(path: str, text: str) -> None:
    """Write via a temporary file in the same directory plus rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _save(kind: str, path: str | None, sizes: dict, laws: dict, tables: dict | None = None) -> str:
    """The v1 rule, the one writer of every kind: the header, the alphabet
    sizes, the laws as nested arrays and the integer tables raveled
    row-major, in that key order; written atomically when `path` is given."""
    doc = {"version": VERSION, "kind": kind, **{k: int(n) for k, n in sizes.items()},
           **{k: np.asarray(law).tolist() for k, law in laws.items()},
           **{k: np.asarray(t).ravel().tolist() for k, t in (tables or {}).items()}}
    text = json.dumps(doc, indent=2)
    if path is not None:
        write_atomic(path, text)
    return text


def _load(path: str, kind: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read {kind} file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, found {type(doc).__name__}")
    if doc.get("version") != VERSION:
        raise ValueError(f"{path}: unsupported version {doc.get('version')!r}")
    if doc.get("kind") != kind:
        raise ValueError(f"{path}: expected kind {kind!r}, found {doc.get('kind')!r}")
    return doc


def _loader(kind: str):
    """Turn `parse(doc)` into `load(path)`: `_load` reads the v1 file of
    `kind` (its messages name the path), then a missing field, a field of
    the wrong type or a value the model classes refuse is reported as a
    ValueError that names the path once."""
    def wrap(parse):
        @functools.wraps(parse)
        def load(path: str):
            doc = _load(path, kind)
            try:
                return parse(doc)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}: malformed v1 file ({type(exc).__name__}: {exc})") from exc
        del load.__wrapped__  # the public signature is load(path), not parse(doc)
        return load
    return wrap


def _alphabets(doc: dict, *names: str) -> list[Alphabet]:
    return [Alphabet(doc[name], name) for name in names]


def _law(doc: dict, key: str) -> np.ndarray:
    return np.asarray(doc[key], dtype=np.float64)


def _table(doc: dict, key: str, *shape: int) -> np.ndarray:
    if not isinstance(doc[key], list) or any(type(v) is not int for v in doc[key]):  # bool is refused
        raise ValueError(f"table {key} must be a flat list of integers")
    try:
        return np.asarray(doc[key], dtype=np.int64).reshape(shape)
    except OverflowError:
        raise ValueError(f"table {key} has an entry beyond int64") from None


def save_channel(ch: TwoWayChannel, path: str | None = None) -> str:
    sizes = {"x1": ch.x1.size, "x2": ch.x2.size, "y1": ch.y1.size, "y2": ch.y2.size}
    return _save("channel", path, sizes, {"law": ch.law.probs})


@_loader("channel")
def load_channel(doc: dict) -> TwoWayChannel:
    x1, x2, y1, y2 = _alphabets(doc, "x1", "x2", "y1", "y2")
    return TwoWayChannel(x1, x2, y1, y2, ConditionalPmf((x1, x2), (y1, y2), _law(doc, "law")))


def save_source(src: JointSource, path: str | None = None) -> str:
    return _save("source", path, {"s1": src.s1.size, "s2": src.s2.size}, {"law": src.law.probs})


@_loader("source")
def load_source(doc: dict) -> JointSource:
    s1, s2 = _alphabets(doc, "s1", "s2")
    return JointSource(s1, s2, JointPmf((s1, s2), _law(doc, "law")))


def save_distortion(d: DistortionMeasure, path: str | None = None) -> str:
    sizes = {"source": d.source_alphabet.size, "recon": d.recon_alphabet.size}
    return _save("distortion", path, sizes, {"table": d.table})


@_loader("distortion")
def load_distortion(doc: dict) -> DistortionMeasure:
    return DistortionMeasure(*_alphabets(doc, "source", "recon"), _law(doc, "table"))


_CONFIGURATION_SIZES = ("s1", "s2", "u1", "u2", "x1", "x2", "y1", "y2", "recon1", "recon2")


def save_configuration(cfg: Configuration, path: str | None = None) -> str:
    if cfg.prev_law is None:
        raise ValueError("cannot serialize a configuration without its previous-block law")
    sizes = {name: getattr(cfg, name).size for name in _CONFIGURATION_SIZES}
    laws = {"pu1_given_s1": cfg.pu1_given_s1.probs, "pu2_given_s2": cfg.pu2_given_s2.probs,
            "prev_law": cfg.prev_law.probs}
    tables = {"f1": cfg.f1, "f2": cfg.f2, "g1": cfg.g1, "g2": cfg.g2}
    return _save("configuration", path, sizes, laws, tables)


@_loader("configuration")
def load_configuration(doc: dict) -> Configuration:
    s1, s2, u1, u2, x1, x2, y1, y2, recon1, recon2 = _alphabets(doc, *_CONFIGURATION_SIZES)
    nio1, nio2 = x1.size * y1.size, x2.size * y2.size
    cfg = Configuration(
        u1=u1, u2=u2,
        pu1_given_s1=ConditionalPmf((s1,), (u1,), _law(doc, "pu1_given_s1")),
        pu2_given_s2=ConditionalPmf((s2,), (u2,), _law(doc, "pu2_given_s2")),
        prev_law=None,
        f1=_table(doc, "f1", s1.size, u1.size, s1.size, u1.size, nio1),
        f2=_table(doc, "f2", s2.size, u2.size, s2.size, u2.size, nio2),
        g1=_table(doc, "g1", u2.size, s1.size, u1.size, s1.size, u1.size, nio1, y1.size),
        g2=_table(doc, "g2", u1.size, s2.size, u2.size, s2.size, u2.size, nio2, y2.size),
        x1=x1, x2=x2, y1=y1, y2=y2, recon1=recon1, recon2=recon2,
    )
    return dataclasses.replace(cfg, prev_law=JointPmf(cfg.prev_axes, _law(doc, "prev_law")))


def save_hybrid_scheme(hs: HybridScheme, path: str | None = None) -> str:
    # the file stores every entry of a table, and the y sizes are read off the g tables
    for name, axes in (("f1", ("s1", "u1")), ("f2", ("s2", "u2")),
                       ("g1", ("u2", "s1", "u1", "y1")), ("g2", ("u1", "s2", "u2", "y2"))):
        shape = np.shape(getattr(hs, name))
        fits = [n == getattr(hs, a).size for n, a in zip(shape, axes) if a[0] != "y"]
        if len(shape) != len(axes) or not all(fits):
            raise ValueError(f"{name} has shape {shape}; the file needs a full ({', '.join(axes)}) table")
    sizes = {"s1": hs.s1.size, "s2": hs.s2.size, "u1": hs.u1.size, "u2": hs.u2.size,
             "y1": np.shape(hs.g1)[-1], "y2": np.shape(hs.g2)[-1],
             "recon1": hs.recon1.size, "recon2": hs.recon2.size}
    laws = {"pu1_given_s1": hs.pu1_given_s1.probs, "pu2_given_s2": hs.pu2_given_s2.probs}
    return _save("hybrid_scheme", path, sizes, laws, {"f1": hs.f1, "f2": hs.f2, "g1": hs.g1, "g2": hs.g2})


@_loader("hybrid_scheme")
def load_hybrid_scheme(doc: dict) -> HybridScheme:
    s1, s2, u1, u2, y1, y2, recon1, recon2 = _alphabets(
        doc, "s1", "s2", "u1", "u2", "y1", "y2", "recon1", "recon2")
    return HybridScheme(
        pu1_given_s1=ConditionalPmf((s1,), (u1,), _law(doc, "pu1_given_s1")),
        pu2_given_s2=ConditionalPmf((s2,), (u2,), _law(doc, "pu2_given_s2")),
        f1=_table(doc, "f1", s1.size, u1.size),
        f2=_table(doc, "f2", s2.size, u2.size),
        g1=_table(doc, "g1", u2.size, s1.size, u1.size, y1.size),
        g2=_table(doc, "g2", u1.size, s2.size, u2.size, y2.size),
        recon1=recon1, recon2=recon2,
    )


def save_adaptive_scheme(scheme: AdaptiveChannelScheme, path: str | None = None) -> str:
    sizes = {name: getattr(scheme, name).size for name in ("v1", "v2", "x1", "x2", "y1", "y2")}
    return _save("adaptive_scheme", path, sizes, {"pv1": scheme.pv1, "pv2": scheme.pv2},
                 {"gamma1": scheme.gamma1, "gamma2": scheme.gamma2})


@_loader("adaptive_scheme")
def load_adaptive_scheme(doc: dict) -> AdaptiveChannelScheme:
    v1, v2, x1, x2, y1, y2 = _alphabets(doc, "v1", "v2", "x1", "x2", "y1", "y2")
    return AdaptiveChannelScheme(
        v1, v2, _law(doc, "pv1"), _law(doc, "pv2"),
        _table(doc, "gamma1", v1.size, v1.size, x1.size * y1.size),
        _table(doc, "gamma2", v2.size, v2.size, x2.size * y2.size),
        x1, x2, y1, y2,
    )


def save_wz_scheme(scheme: WZScheme, path: str | None = None) -> str:
    sizes = {"s": scheme.p_t_given_s.given_axes[0].size, "side": np.shape(scheme.h)[0],
             "t": scheme.t.size, "shat": scheme.shat.size}
    return _save("wz_scheme", path, sizes, {"p_t_given_s": scheme.p_t_given_s.probs}, {"h": scheme.h})


@_loader("wz_scheme")
def load_wz_scheme(doc: dict) -> WZScheme:
    s, side, t, shat = _alphabets(doc, "s", "side", "t", "shat")
    return WZScheme(t, ConditionalPmf((s,), (t,), _law(doc, "p_t_given_s")),
                    _table(doc, "h", side.size, t.size), shat)


def resolve_channel(spec: str) -> TwoWayChannel:
    """Interpret a CLI channel argument as a preset name or a file path."""
    if spec in CHANNEL_PRESETS:
        return CHANNEL_PRESETS[spec]()
    if os.path.exists(spec):
        return load_channel(spec)
    raise ValueError(f"channel {spec!r} is neither a preset nor an existing file")


def resolve_source(spec: str) -> JointSource:
    """Interpret a CLI source argument as a preset name or a file path."""
    src = source_preset(spec)
    if src is not None:
        return src
    if os.path.exists(spec):
        return load_source(spec)
    raise ValueError(f"source {spec!r} is neither a preset nor an existing file")


def resolve_distortion(spec: str | None, alphabet: Alphabet) -> DistortionMeasure:
    if spec is None or spec == "hamming":
        return hamming(alphabet)
    if os.path.exists(spec):
        return load_distortion(spec)
    raise ValueError(f"distortion {spec!r} is neither 'hamming' nor an existing file")
