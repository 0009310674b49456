"""Structured-text (JSON) file formats for models, schemes, configurations.

Every document carries version "v1" and a "kind" discriminator.  Laws are
nested arrays in row-major axis order; encoder/decoder tables are flat
integer arrays raveled row-major over their argument tuples (the same
index convention used by the in-memory tables).
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


def _dump(doc: dict, path: str | None) -> str:
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


def save_channel(ch: TwoWayChannel, path: str | None = None) -> str:
    doc = {
        "version": VERSION,
        "kind": "channel",
        "x1": ch.x1.size, "x2": ch.x2.size, "y1": ch.y1.size, "y2": ch.y2.size,
        "law": ch.law.probs.tolist(),
    }
    return _dump(doc, path)


@_loader("channel")
def load_channel(doc: dict) -> TwoWayChannel:
    x1, x2 = Alphabet(doc["x1"], "x1"), Alphabet(doc["x2"], "x2")
    y1, y2 = Alphabet(doc["y1"], "y1"), Alphabet(doc["y2"], "y2")
    law = ConditionalPmf((x1, x2), (y1, y2), np.asarray(doc["law"], dtype=np.float64))
    return TwoWayChannel(x1, x2, y1, y2, law)


def save_source(src: JointSource, path: str | None = None) -> str:
    doc = {
        "version": VERSION,
        "kind": "source",
        "s1": src.s1.size, "s2": src.s2.size,
        "law": src.law.probs.tolist(),
    }
    return _dump(doc, path)


@_loader("source")
def load_source(doc: dict) -> JointSource:
    s1, s2 = Alphabet(doc["s1"], "s1"), Alphabet(doc["s2"], "s2")
    return JointSource(s1, s2, JointPmf((s1, s2), np.asarray(doc["law"], dtype=np.float64)))


def save_distortion(d: DistortionMeasure, path: str | None = None) -> str:
    doc = {
        "version": VERSION,
        "kind": "distortion",
        "source": d.source_alphabet.size,
        "recon": d.recon_alphabet.size,
        "table": d.table.tolist(),
    }
    return _dump(doc, path)


@_loader("distortion")
def load_distortion(doc: dict) -> DistortionMeasure:
    return DistortionMeasure(
        Alphabet(doc["source"], "s"),
        Alphabet(doc["recon"], "recon"),
        np.asarray(doc["table"], dtype=np.float64),
    )


def save_configuration(cfg: Configuration, path: str | None = None) -> str:
    if cfg.prev_law is None:
        raise ValueError("cannot serialize a configuration without its previous-block law")
    doc = {
        "version": VERSION,
        "kind": "configuration",
        "s1": cfg.s1.size, "s2": cfg.s2.size,
        "u1": cfg.u1.size, "u2": cfg.u2.size,
        "x1": cfg.x1.size, "x2": cfg.x2.size,
        "y1": cfg.y1.size, "y2": cfg.y2.size,
        "recon1": cfg.recon1.size, "recon2": cfg.recon2.size,
        "pu1_given_s1": cfg.pu1_given_s1.probs.tolist(),
        "pu2_given_s2": cfg.pu2_given_s2.probs.tolist(),
        "prev_law": cfg.prev_law.probs.tolist(),
        "f1": cfg.f1.ravel().tolist(),
        "f2": cfg.f2.ravel().tolist(),
        "g1": cfg.g1.ravel().tolist(),
        "g2": cfg.g2.ravel().tolist(),
    }
    return _dump(doc, path)


@_loader("configuration")
def load_configuration(doc: dict) -> Configuration:
    s1, s2 = Alphabet(doc["s1"], "s1"), Alphabet(doc["s2"], "s2")
    u1, u2 = Alphabet(doc["u1"], "u1"), Alphabet(doc["u2"], "u2")
    x1, x2 = Alphabet(doc["x1"], "x1"), Alphabet(doc["x2"], "x2")
    y1, y2 = Alphabet(doc["y1"], "y1"), Alphabet(doc["y2"], "y2")
    nio1, nio2 = x1.size * y1.size, x2.size * y2.size

    def table(key, shape):
        return np.asarray(doc[key], dtype=np.int64).reshape(shape)

    cfg = Configuration(
        u1=u1,
        u2=u2,
        pu1_given_s1=ConditionalPmf((s1,), (u1,), np.asarray(doc["pu1_given_s1"], dtype=np.float64)),
        pu2_given_s2=ConditionalPmf((s2,), (u2,), np.asarray(doc["pu2_given_s2"], dtype=np.float64)),
        prev_law=None,
        f1=table("f1", (s1.size, u1.size, s1.size, u1.size, nio1)),
        f2=table("f2", (s2.size, u2.size, s2.size, u2.size, nio2)),
        g1=table("g1", (u2.size, s1.size, u1.size, s1.size, u1.size, nio1, y1.size)),
        g2=table("g2", (u1.size, s2.size, u2.size, s2.size, u2.size, nio2, y2.size)),
        x1=x1, x2=x2, y1=y1, y2=y2,
        recon1=Alphabet(doc["recon1"], "recon1"),
        recon2=Alphabet(doc["recon2"], "recon2"),
    )
    prev = JointPmf(cfg.prev_axes, np.asarray(doc["prev_law"], dtype=np.float64))
    return dataclasses.replace(cfg, prev_law=prev)


def save_hybrid_scheme(hs: HybridScheme, path: str | None = None) -> str:
    doc = {
        "version": VERSION,
        "kind": "hybrid_scheme",
        "s1": hs.s1.size, "s2": hs.s2.size,
        "u1": hs.u1.size, "u2": hs.u2.size,
        "y1": hs.g1.shape[-1], "y2": hs.g2.shape[-1],
        "recon1": hs.recon1.size, "recon2": hs.recon2.size,
        "pu1_given_s1": hs.pu1_given_s1.probs.tolist(),
        "pu2_given_s2": hs.pu2_given_s2.probs.tolist(),
        "f1": np.asarray(hs.f1).ravel().tolist(),
        "f2": np.asarray(hs.f2).ravel().tolist(),
        "g1": np.asarray(hs.g1).ravel().tolist(),
        "g2": np.asarray(hs.g2).ravel().tolist(),
    }
    return _dump(doc, path)


@_loader("hybrid_scheme")
def load_hybrid_scheme(doc: dict) -> HybridScheme:
    s1, s2 = Alphabet(doc["s1"], "s1"), Alphabet(doc["s2"], "s2")
    u1, u2 = Alphabet(doc["u1"], "u1"), Alphabet(doc["u2"], "u2")
    return HybridScheme(
        pu1_given_s1=ConditionalPmf((s1,), (u1,), np.asarray(doc["pu1_given_s1"], dtype=np.float64)),
        pu2_given_s2=ConditionalPmf((s2,), (u2,), np.asarray(doc["pu2_given_s2"], dtype=np.float64)),
        f1=np.asarray(doc["f1"], dtype=np.int64).reshape(s1.size, u1.size),
        f2=np.asarray(doc["f2"], dtype=np.int64).reshape(s2.size, u2.size),
        g1=np.asarray(doc["g1"], dtype=np.int64).reshape(u2.size, s1.size, u1.size, doc["y1"]),
        g2=np.asarray(doc["g2"], dtype=np.int64).reshape(u1.size, s2.size, u2.size, doc["y2"]),
        recon1=Alphabet(doc["recon1"], "recon1"),
        recon2=Alphabet(doc["recon2"], "recon2"),
    )


def save_adaptive_scheme(scheme: AdaptiveChannelScheme, path: str | None = None) -> str:
    doc = {
        "version": VERSION,
        "kind": "adaptive_scheme",
        "v1": scheme.v1.size, "v2": scheme.v2.size,
        "x1": scheme.x1.size, "x2": scheme.x2.size,
        "y1": scheme.y1.size, "y2": scheme.y2.size,
        "pv1": scheme.pv1.tolist(),
        "pv2": scheme.pv2.tolist(),
        "gamma1": np.asarray(scheme.gamma1).ravel().tolist(),
        "gamma2": np.asarray(scheme.gamma2).ravel().tolist(),
    }
    return _dump(doc, path)


@_loader("adaptive_scheme")
def load_adaptive_scheme(doc: dict) -> AdaptiveChannelScheme:
    v1, v2 = Alphabet(doc["v1"], "v1"), Alphabet(doc["v2"], "v2")
    x1, x2 = Alphabet(doc["x1"], "x1"), Alphabet(doc["x2"], "x2")
    y1, y2 = Alphabet(doc["y1"], "y1"), Alphabet(doc["y2"], "y2")
    nio1, nio2 = x1.size * y1.size, x2.size * y2.size
    return AdaptiveChannelScheme(
        v1=v1, v2=v2,
        pv1=np.asarray(doc["pv1"], dtype=np.float64),
        pv2=np.asarray(doc["pv2"], dtype=np.float64),
        gamma1=np.asarray(doc["gamma1"], dtype=np.int64).reshape(v1.size, v1.size, nio1),
        gamma2=np.asarray(doc["gamma2"], dtype=np.int64).reshape(v2.size, v2.size, nio2),
        x1=x1, x2=x2, y1=y1, y2=y2,
    )


def save_wz_scheme(scheme: WZScheme, path: str | None = None) -> str:
    doc = {
        "version": VERSION,
        "kind": "wz_scheme",
        "s": scheme.p_t_given_s.given_axes[0].size,
        "side": scheme.h.shape[0],
        "t": scheme.t.size,
        "shat": scheme.shat.size,
        "p_t_given_s": scheme.p_t_given_s.probs.tolist(),
        "h": np.asarray(scheme.h).ravel().tolist(),
    }
    return _dump(doc, path)


@_loader("wz_scheme")
def load_wz_scheme(doc: dict) -> WZScheme:
    s = Alphabet(doc["s"], "s")
    t = Alphabet(doc["t"], "t")
    return WZScheme(
        t=t,
        p_t_given_s=ConditionalPmf((s,), (t,), np.asarray(doc["p_t_given_s"], dtype=np.float64)),
        h=np.asarray(doc["h"], dtype=np.int64).reshape(doc["side"], doc["t"]),
        shat=Alphabet(doc["shat"], "shat"),
    )


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
