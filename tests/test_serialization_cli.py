import copy
import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import twjscc as tw
from twjscc import serialization as ser
from twjscc.cli import _emit, main, parse_args
from twjscc.conditions import _adaptive_report, bayes_hybrid_decoders
from twjscc.region import uncoded_configuration

from util import (
    binary_entropy,
    random_adaptive_scheme,
    random_binary_channel,
    random_hybrid_scheme,
    random_joint_source,
    random_wz_scheme,
)


class TestRoundTrips:
    def test_channel_presets(self, tmp_path):
        for name, build in ser.CHANNEL_PRESETS.items():
            ch = build()
            path = str(tmp_path / f"{name}.json")
            ser.save_channel(ch, path)
            back = ser.load_channel(path)
            assert np.array_equal(back.law.probs, ch.law.probs)
            assert back.x1.size == ch.x1.size and back.y2.size == ch.y2.size

    def test_source_presets(self, tmp_path):
        for i, src in enumerate(
            (tw.preset_example2_source(), tw.preset_independent_bernoulli(0.89, 0.89))
        ):
            path = str(tmp_path / f"src{i}.json")
            ser.save_source(src, path)
            assert np.array_equal(ser.load_source(path).law.probs, src.law.probs)

    def test_distortion(self, tmp_path):
        d = tw.hamming(tw.Alphabet(3))
        path = str(tmp_path / "d.json")
        ser.save_distortion(d, path)
        assert np.array_equal(ser.load_distortion(path).table, d.table)

    def test_configuration(self, tmp_path):
        ch = tw.preset_bmc()
        src = tw.preset_example2_source()
        d = tw.hamming(src.s1)
        cfg = uncoded_configuration(ch, src, d, d)
        path = str(tmp_path / "cfg.json")
        ser.save_configuration(cfg, path)
        back = ser.load_configuration(path)
        assert np.array_equal(back.f1, cfg.f1)
        assert np.array_equal(back.g2, cfg.g2)
        assert np.allclose(back.prev_law.probs, cfg.prev_law.probs)
        assert np.allclose(back.pu1_given_s1.probs, cfg.pu1_given_s1.probs)

    def test_hybrid_scheme(self, tmp_path):
        rng = np.random.default_rng(0)
        src = random_joint_source(rng)
        ch = random_binary_channel(rng)
        d = tw.hamming(src.s1)
        hs = random_hybrid_scheme(rng, src, ch, d, d)
        path = str(tmp_path / "hs.json")
        ser.save_hybrid_scheme(hs, path)
        back = ser.load_hybrid_scheme(path)
        assert np.array_equal(back.f1, hs.f1)
        assert np.array_equal(back.g1, hs.g1)
        assert np.allclose(back.pu2_given_s2.probs, hs.pu2_given_s2.probs)

    def test_hybrid_scheme_with_broadcast_table_is_refused(self):
        # eval_hybrid broadcasts a table, but the file stores every entry
        ch, src = tw.preset_bmc(), tw.preset_example2_source()
        a = src.s1
        pu = tw.ConditionalPmf((a,), (tw.Alphabet(1, "u"),), np.ones((2, 1)))
        f = np.arange(2)[:, None]
        g = np.zeros((1, 2, 1, 2), dtype=int)
        for f1, g1, g2, message in (
            (f, 0, 0, "g1 has shape (); the file needs a full (u2, s1, u1, y1) table"),
            (f, g, g[0], "g2 has shape (2, 1, 2); the file needs a full (u1, s2, u2, y2) table"),
            (f, g[:, :1], g, "g1 has shape (1, 1, 1, 2); the file needs a full (u2, s1, u1, y1) table"),
            (f[:1], g, g, "f1 has shape (1, 1); the file needs a full (s1, u1) table"),
        ):
            hs = tw.HybridScheme(pu, pu, f1, f, g1, g2, a, a)
            tw.eval_hybrid(hs, ch, src, tw.hamming(a), tw.hamming(a))
            with pytest.raises(ValueError, match=re.escape(message)):
                ser.save_hybrid_scheme(hs)
        text = ser.save_hybrid_scheme(tw.HybridScheme(pu, pu, f, f, g, g, a, a))
        assert json.loads(text)["y1"] == 2

    def test_adaptive_scheme(self, tmp_path):
        rng = np.random.default_rng(1)
        ch = random_binary_channel(rng)
        scheme = random_adaptive_scheme(rng, ch)
        path = str(tmp_path / "as.json")
        ser.save_adaptive_scheme(scheme, path)
        back = ser.load_adaptive_scheme(path)
        for name in ("pv1", "pv2", "gamma1", "gamma2"):
            assert np.array_equal(getattr(back, name), getattr(scheme, name))

    def test_adaptive_scheme_with_prev_vw_law_loads(self, tmp_path, capsys):
        """v1 files once carried a hand-filled `prev_vw_law`; the loader ignores
        it, so a law that is not stationary changes nothing."""
        ch = tw.preset_crossed_bitpipes()
        v = tw.Alphabet(2)
        gamma = np.ascontiguousarray(np.broadcast_to(np.arange(2)[:, None, None], (2, 2, 4)))  # x = v
        scheme = tw.AdaptiveChannelScheme(v, v, np.full(2, 0.5), np.full(2, 0.5),
                                          gamma, gamma, ch.x1, ch.x2, ch.y1, ch.y2)
        plain = tmp_path / "plain.json"
        ser.save_adaptive_scheme(scheme, str(plain))
        doc = json.loads(plain.read_text())
        # (prev_v1, prev_v2, prev_io1, prev_io2), uniform: mass on x != prev_v
        doc["prev_vw_law"] = np.full((2, 2, 4, 4), 1 / 64).tolist()
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc))
        back = ser.load_adaptive_scheme(str(old))
        for name in ("pv1", "pv2", "gamma1", "gamma2"):
            assert np.array_equal(getattr(back, name), getattr(scheme, name))
        results = []
        for path in (plain, old):
            code = main(["eval-sscc", "--scheme", str(path), "--channel", "bitpipes",
                         "--rate1", "0.5", "--rate2", "0.5"])
            assert code == 0
            results.append(json.loads(capsys.readouterr().out)["result"])
        assert results[0] == results[1]

    def test_wz_scheme(self, tmp_path):
        rng = np.random.default_rng(2)
        src = random_joint_source(rng)
        wz = random_wz_scheme(rng, src, 1)
        path = str(tmp_path / "wz.json")
        ser.save_wz_scheme(wz, path)
        back = ser.load_wz_scheme(path)
        assert np.array_equal(back.h, wz.h)
        assert np.allclose(back.p_t_given_s.probs, wz.p_t_given_s.probs)

    def test_wrong_kind_rejected(self, tmp_path):
        src = tw.preset_example2_source()
        path = str(tmp_path / "src.json")
        ser.save_source(src, path)
        with pytest.raises(ValueError):
            ser.load_channel(path)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "out.json")
        ser.write_atomic(path, "{}")
        assert os.listdir(tmp_path) == ["out.json"]


def _small_instances() -> dict:
    """One small object of each v1 kind, with the exact document it saves as:
    sizes first, then laws as nested arrays, then tables raveled row-major
    (an axis order a column-major ravel would give differently)."""
    a1, a2 = tw.Alphabet(1), tw.Alphabet(2)
    law = [[[[0.25, 0.75]]], [[[1.0, 0.0]]]]
    channel = tw.TwoWayChannel(a2, a1, a1, a2, tw.ConditionalPmf((a2, a1), (a1, a2), np.array(law)))
    source = tw.JointSource(a2, a1, tw.JointPmf((a2, a1), np.array([[0.25], [0.75]])))
    prev = [[[[[[0.5], [0.0]]]]], [[[[[0.0], [0.5]]]]]]
    cfg = tw.Configuration(
        u1=a1, u2=a1, pu1_given_s1=tw.ConditionalPmf((a2,), (a1,), np.ones((2, 1))),
        pu2_given_s2=tw.ConditionalPmf((a1,), (a1,), np.ones((1, 1))), prev_law=None,
        f1=np.arange(2).reshape(2, 1, 1, 1, 1), f2=0, g1=0, g2=1,
        x1=a2, x2=a1, y1=a1, y2=a1, recon1=a2, recon2=a1,
    )
    cfg = dataclasses.replace(cfg, prev_law=tw.JointPmf(cfg.prev_axes, np.array(prev)))
    hybrid = tw.HybridScheme(
        tw.ConditionalPmf((a2,), (a2,), np.array([[0.5, 0.5], [0.0, 1.0]])),
        tw.ConditionalPmf((a1,), (a1,), np.ones((1, 1))),
        np.array([[0, 0], [1, 1]]), np.zeros((1, 1), dtype=int),
        np.zeros((1, 2, 2, 1), dtype=int), np.array([[[[0, 0]]], [[[1, 1]]]]), a2, a1,
    )
    gamma1 = np.array([[[0, 0], [0, 0]], [[1, 1], [1, 1]]])
    adaptive = tw.AdaptiveChannelScheme(a2, a1, np.array([0.25, 0.75]), np.ones(1), gamma1,
                                        np.zeros((1, 1, 1), dtype=int), a2, a1, a1, a1)
    wz = tw.WZScheme(a2, tw.ConditionalPmf((a2,), (a2,), np.eye(2)), np.array([[0, 0], [1, 1]]), a2)
    return {
        "channel": (ser.save_channel, ser.load_channel, channel,
                    {"x1": 2, "x2": 1, "y1": 1, "y2": 2, "law": law}),
        "source": (ser.save_source, ser.load_source, source,
                   {"s1": 2, "s2": 1, "law": [[0.25], [0.75]]}),
        "distortion": (ser.save_distortion, ser.load_distortion, tw.hamming(a2),
                       {"source": 2, "recon": 2, "table": [[0.0, 1.0], [1.0, 0.0]]}),
        "configuration": (ser.save_configuration, ser.load_configuration, cfg, {
            "s1": 2, "s2": 1, "u1": 1, "u2": 1, "x1": 2, "x2": 1, "y1": 1, "y2": 1,
            "recon1": 2, "recon2": 1, "pu1_given_s1": [[1.0], [1.0]], "pu2_given_s2": [[1.0]],
            "prev_law": prev, "f1": [0, 0, 0, 0, 1, 1, 1, 1], "f2": [0], "g1": [0] * 8, "g2": [1]}),
        "hybrid_scheme": (ser.save_hybrid_scheme, ser.load_hybrid_scheme, hybrid, {
            "s1": 2, "s2": 1, "u1": 2, "u2": 1, "y1": 1, "y2": 2, "recon1": 2, "recon2": 1,
            "pu1_given_s1": [[0.5, 0.5], [0.0, 1.0]], "pu2_given_s2": [[1.0]],
            "f1": [0, 0, 1, 1], "f2": [0], "g1": [0, 0, 0, 0], "g2": [0, 0, 1, 1]}),
        "adaptive_scheme": (ser.save_adaptive_scheme, ser.load_adaptive_scheme, adaptive, {
            "v1": 2, "v2": 1, "x1": 2, "x2": 1, "y1": 1, "y2": 1, "pv1": [0.25, 0.75], "pv2": [1.0],
            "gamma1": [0, 0, 0, 0, 1, 1, 1, 1], "gamma2": [0]}),
        "wz_scheme": (ser.save_wz_scheme, ser.load_wz_scheme, wz, {
            "s": 2, "side": 2, "t": 2, "shat": 2, "p_t_given_s": [[1.0, 0.0], [0.0, 1.0]],
            "h": [0, 0, 1, 1]}),
    }


KINDS = list(_small_instances())


class TestFormat:
    @pytest.mark.parametrize("kind", KINDS)
    def test_saved_text_is_pinned(self, kind, tmp_path):
        save, load, obj, body = _small_instances()[kind]
        expected = json.dumps({"version": "v1", "kind": kind, **body}, indent=2)
        assert save(obj) == expected
        path = tmp_path / f"{kind}.json"
        assert save(obj, str(path)) == expected
        assert path.read_text() == expected
        assert save(load(str(path))) == expected

    def test_numpy_integer_size_saves_as_a_json_integer(self):
        # Alphabet accepts numpy integers; the file holds the same plain integer
        assert ser.save_distortion(tw.hamming(tw.Alphabet(np.int64(2)))) == ser.save_distortion(
            tw.hamming(tw.Alphabet(2)))

    @pytest.mark.parametrize("kind", ["configuration", "hybrid_scheme", "adaptive_scheme", "wz_scheme"])
    def test_saved_text_does_not_depend_on_the_table_dtype(self, kind):
        # random instances, so that every table has more than a few entries
        rng = np.random.default_rng(36)
        src, ch = random_joint_source(rng), random_binary_channel(rng)
        d = tw.hamming(src.s1)
        save, names, obj = {
            "configuration": (ser.save_configuration, ("f1", "f2", "g1", "g2"),
                              uncoded_configuration(tw.preset_dueck(), src, d, d)),
            "hybrid_scheme": (ser.save_hybrid_scheme, ("f1", "f2", "g1", "g2"),
                              random_hybrid_scheme(rng, src, ch, d, d)),
            "adaptive_scheme": (ser.save_adaptive_scheme, ("gamma1", "gamma2"),
                                random_adaptive_scheme(rng, ch)),
            "wz_scheme": (ser.save_wz_scheme, ("h",), random_wz_scheme(rng, src, 1)),
        }[kind]
        texts = set()
        for dtype in (np.int64, np.uint8):
            stored = copy.copy(obj)
            for name in names:  # set past the constructor, which would narrow an int64 table
                object.__setattr__(stored, name, getattr(obj, name).astype(dtype))
            texts.add(save(stored))
        assert texts == {save(obj)}

    # (a required key, a size, a table or law) of each kind
    BROKEN = {
        "channel": ("y2", "x1", "law"),
        "source": ("law", "s1", "law"),
        "distortion": ("recon", "source", "table"),
        "configuration": ("prev_law", "u1", "g1"),
        "hybrid_scheme": ("f2", "y2", "g2"),
        "adaptive_scheme": ("gamma2", "v1", "gamma1"),
        "wz_scheme": ("shat", "side", "h"),
    }

    @pytest.mark.parametrize("case", ["missing key", "non-integer size", "short table"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_loader_reports_a_malformed_file(self, kind, case, tmp_path):
        save, load, obj, _ = _small_instances()[kind]
        doc = json.loads(save(obj))
        missing, size, table = self.BROKEN[kind]
        if case == "missing key":
            del doc[missing]
        elif case == "non-integer size":
            doc[size] = float(doc[size])
        else:
            doc[table] = doc[table][:-1]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="malformed v1 file") as exc:
            load(str(bad))
        assert str(exc.value).count(str(bad)) == 1


class TestParseArgs:
    def test_simulate_run_spec(self):
        spec = parse_args(
            ["simulate", "--preset", "bmc-example2", "--n", "128", "--B", "3", "--seed", "7"]
        )
        assert spec.command == "simulate"
        assert spec.options["n"] == 128
        assert spec.options["B"] == 3
        assert spec.options["seed"] == 7

    def test_unknown_command_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["frobnicate"])
        assert exc.value.code == 2

    def test_presets_command(self, capsys):
        assert main(["presets"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["result"]["channels"]) >= {"bmc", "dueck"}
        assert "example2" in doc["result"]["sources"]
        assert {"bernoulli:p", "bernoulli:p1:p2"} <= set(doc["result"]["sources"])

    def test_every_listed_preset_resolves(self, capsys):
        assert main(["presets"]) == 0
        doc = json.loads(capsys.readouterr().out)["result"]
        for spec in doc["sources"]:
            spec = spec.replace("p1", "0.3").replace("p2", "0.6").replace(":p", ":0.3")
            assert main(["rd", "--source", spec, "--D", "0.1"]) == 0, spec
        for name in doc["channels"]:
            assert main(["shannon-bound", "--channel", name, "--q", "1", "--grid", "3"]) == 0, name
        capsys.readouterr()


class TestExecute:
    def test_wz_rd_example2(self, capsys):
        assert main(["wz-rd", "--source", "example2", "--which", "1", "--D", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["rate"] == pytest.approx(0.6667, abs=1e-3)
        assert doc["run"]["command"] == "wz-rd"
        assert doc["run"]["D"] == 0.0

    def test_shannon_bound_bmc(self, capsys):
        assert main(["shannon-bound", "--channel", "bmc", "--q", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["symmetric_max"] == pytest.approx(0.617, abs=0.002)

    @pytest.mark.parametrize("grid", ["0", "-5"])
    def test_shannon_bound_small_grid_exits_two(self, grid, capsys):
        assert main(["shannon-bound", "--channel", "bmc", "--q", "1", "--grid", grid]) == 2
        assert "grid must be >= 2" in capsys.readouterr().err

    def test_rd_point(self, capsys):
        assert main(["rd", "--source", "bernoulli:0.5", "--which", "1", "--D", "0.11"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["rate"] == pytest.approx(0.5001, abs=1e-3)

    def test_rd_curve_csv(self, tmp_path, capsys):
        out = str(tmp_path / "curve.csv")
        assert main(["rd", "--source", "bernoulli:0.5", "--curve", "0,0.25,0.5", "--out", out]) == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "D,R,iterations,residual"
        assert len(lines) == 4

    def test_source_file_named_like_a_preset_loads(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        ser.save_source(tw.preset_independent_bernoulli(0.3, 0.3), "bernoulli_law.json")
        assert main(["rd", "--source", "bernoulli_law.json", "--D", "0.1"]) == 0
        rate = json.loads(capsys.readouterr().out)["result"]["rate"]
        assert rate == pytest.approx(binary_entropy(0.3) - binary_entropy(0.1), abs=1e-9)

    @pytest.mark.parametrize("spec", ["bernoulli:0.5:0.3:0.9", "bernoullifoo:0.2", "bernoulli",
                                      "bernoulli:", "bernoulli:x"])
    def test_spec_outside_the_preset_grammar_exits_two(self, spec, capsys):
        assert main(["rd", "--source", spec, "--D", "0.1"]) == 2
        captured = capsys.readouterr()
        assert f"source {spec!r} is neither a preset nor an existing file" in captured.err
        assert captured.out == ""

    def test_source_preset_grammar(self):
        for spec, p in (("bernoulli:0.2", (0.2, 0.2)), ("bernoulli:0.5:0.3", (0.5, 0.3))):
            law = tw.preset_independent_bernoulli(*p).law.probs
            assert np.array_equal(ser.resolve_source(spec).law.probs, law)
            assert np.array_equal(ser.source_preset(spec).law.probs, law)
        assert ser.source_preset("bernoullifoo:0.2") is None
        with pytest.raises(ValueError, match="outside"):
            ser.resolve_source("bernoulli:1.5")

    def test_missing_file_exits_two(self, capsys):
        code = main(["eval-hybrid", "--scheme", "/nonexistent.json",
                     "--channel", "bmc", "--source", "example2"])
        assert code == 2
        assert "/nonexistent.json" in capsys.readouterr().err

    def test_invalid_configuration_exits_two(self, tmp_path, capsys):
        ch = tw.preset_bmc()
        src = tw.preset_example2_source()
        d = tw.hamming(src.s1)
        cfg = uncoded_configuration(ch, src, d, d)
        doc = json.loads(ser.save_configuration(cfg))
        doc["prev_law"] = (np.asarray(doc["prev_law"]) * 1.5).tolist()  # break normalization
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["eval-adaptive", "--config", str(bad), "--channel", "bmc",
                     "--source", "example2"])
        assert code == 2

    def test_eval_adaptive_on_saved_configuration(self, tmp_path, capsys):
        ch = tw.preset_bmc()
        src = tw.preset_example2_source()
        d = tw.hamming(src.s1)
        cfg = uncoded_configuration(ch, src, d, d)
        path = str(tmp_path / "cfg.json")
        ser.save_configuration(cfg, path)
        code = main(["eval-adaptive", "--config", path, "--channel", "bmc",
                     "--source", "example2"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0  # boundary counts as emitted-ok
        assert doc["result"]["boundary"] is True

    def test_simulate_preset_with_csv(self, tmp_path, capsys):
        out = str(tmp_path / "sim.json")
        csv = str(tmp_path / "sim.csv")
        code = main(["simulate", "--preset", "bmc-example2", "--n", "16", "--B", "2",
                     "--seed", "7", "--trials", "10", "--out", out, "--csv", csv])
        assert code == 0
        doc = json.loads(open(out).read())
        assert doc["result"]["distortion1"] == 0.0
        header = open(csv).read().splitlines()[0]
        assert header == "n,B,eps,eps1,R1,R2,d1_hat,d2_hat,err_cover,err_typ,err_confuse,trials"

    @pytest.mark.parametrize("flags, named", [
        (["--channel", "dueck"], "--channel"),
        (["--source", "bernoulli:0.3"], "--source"),
        (["--config", "nosuchfile.json"], "--config"),
        (["--dist1", "nosuchfile.json"], "--dist1"),
        (["--dist2", "nosuchfile.json"], "--dist2"),
        (["--channel", "dueck", "--source", "bernoulli:0.3"], "--channel, --source"),
    ])
    def test_simulate_preset_refuses_model_flags(self, flags, named, capsys):
        code = main(["simulate", "--preset", "bmc-example2", "--n", "16", "--B", "2",
                     "--trials", "1"] + flags)
        captured = capsys.readouterr()
        assert code == 2
        assert named in captured.err
        assert captured.out == ""

    def test_search_region_csv_and_certificates(self, tmp_path, capsys):
        csv = str(tmp_path / "region.csv")
        certs = str(tmp_path / "certs")
        code = main(["search-region", "--channel", "bitpipes", "--source", "bernoulli:0.5",
                     "--budget", "6", "--seed", "1", "--csv", csv, "--cert-dir", certs])
        assert code == 0
        lines = open(csv).read().strip().splitlines()
        assert lines[0] == "d1,d2,margin,boundary_flag,certificate"
        saved = os.listdir(certs)
        assert len(saved) == len(lines) - 1
        for name in saved:
            ser.load_configuration(os.path.join(certs, name))

    def test_search_region_lone_aux_size_exits_two(self, capsys):
        code = main(["search-region", "--channel", "bmc", "--source", "example2",
                     "--budget", "3", "--aux1", "3"])
        assert code == 2
        assert "--aux1 and --aux2" in capsys.readouterr().err

    def test_search_region_aux_size_zero_exits_two(self, capsys):
        code = main(["search-region", "--channel", "bmc", "--source", "example2",
                     "--budget", "5", "--aux1", "0", "--aux2", "2"])
        assert code == 2
        assert "auxiliary alphabet sizes" in capsys.readouterr().err

    def test_eval_adaptive_marginals_dump(self, tmp_path, capsys):
        ch = tw.preset_bmc()
        src = tw.preset_example2_source()
        d = tw.hamming(src.s1)
        cfg = uncoded_configuration(ch, src, d, d)
        path = str(tmp_path / "cfg.json")
        ser.save_configuration(cfg, path)
        csv = str(tmp_path / "marg.csv")
        code = main(["eval-adaptive", "--config", path, "--channel", "bmc",
                     "--source", "example2", "--marginals-csv", csv])
        assert code == 0
        lines = open(csv).read().strip().splitlines()
        assert lines[0] == "axis,symbol,probability"
        # one row per symbol of each of the 14 state axes
        assert len(lines) - 1 == 2 + 2 + 1 + 1 + 2 + 2 + 1 + 1 + 4 + 4 + 2 + 2 + 2 + 2

    @pytest.mark.parametrize("dist1_file", [False, True], ids=["hamming", "dist1-file"])
    def test_eval_hybrid_certifying_scheme(self, dist1_file, tmp_path, capsys):
        ch, src = tw.preset_crossed_bitpipes(), tw.preset_independent_bernoulli(0.5, 0.5)
        ham = tw.hamming(src.s1)
        pu = tw.ConditionalPmf((src.s1,), (tw.Alphabet(2, "u"),), np.eye(2))
        f = np.arange(2)[None, :].repeat(2, axis=0)  # x = u = s
        g1, g2 = bayes_hybrid_decoders(pu, pu, f, f, ch, src, ham, ham)
        hs = tw.HybridScheme(pu, pu, f, f, g1, g2, ham.recon_alphabet, ham.recon_alphabet)
        path = str(tmp_path / "hs.json")
        ser.save_hybrid_scheme(hs, path)
        argv = ["eval-hybrid", "--scheme", path, "--channel", "bitpipes", "--source", "bernoulli:0.5"]
        d1 = ham
        if dist1_file:
            d1 = tw.DistortionMeasure(src.s1, src.s1, np.array([[0.0, 2.0], [0.5, 0.0]]))
            argv += ["--dist1", str(tmp_path / "d1.json")]
            ser.save_distortion(d1, argv[-1])
        ev = tw.eval_hybrid(hs, ch, src, d1, ham)
        assert ev.report.satisfied or ev.report.boundary
        assert main(argv) == 0
        want = {**ev.report.as_dict(), "distortions": list(ev.distortions)}
        assert json.loads(capsys.readouterr().out)["result"] == json.loads(json.dumps(want, default=float))

    def test_eval_adaptive_simplify_and_tol(self, tmp_path, capsys):
        ch, src = tw.preset_bmc(), tw.preset_example2_source()
        d = tw.hamming(src.s1)
        cfg = uncoded_configuration(ch, src, d, d)
        path = str(tmp_path / "cfg.json")
        ser.save_configuration(cfg, path)
        code = main(["eval-adaptive", "--config", path, "--channel", "bmc", "--source", "example2",
                     "--simplify", "--tol", "1e-6"])
        report = _adaptive_report(tw.build_chain(ser.load_configuration(path), ch, src),
                                  tol=1e-6, simplify=True)
        assert code == (0 if (report.satisfied or report.boundary) else 1)
        got = json.loads(capsys.readouterr().out)
        assert got["run"]["simplify"] is True and got["run"]["tol"] == 1e-6
        assert got["result"] == json.loads(json.dumps(report.as_dict(), default=float))

    def test_simulate_saved_configuration(self, tmp_path, capsys):
        ch, src = tw.preset_bmc(), tw.preset_example2_source()
        d = tw.hamming(src.s1)
        path = str(tmp_path / "cfg.json")
        ser.save_configuration(uncoded_configuration(ch, src, d, d), path)
        code = main(["simulate", "--config", path, "--channel", "bmc", "--source", "example2",
                     "--n", "16", "--B", "2", "--seed", "5", "--trials", "4"])
        assert code == 0
        got = json.loads(capsys.readouterr().out)["result"]
        params = tw.SimParams(n=16, blocks=2, eps=0.3, eps1=0.15, rate1=0.0, rate2=0.0, seed=5, trials=4)
        want = tw.run_simulation(ser.load_configuration(path), ch, src, d, d, params).as_dict()
        del got["wall_clock"], want["wall_clock"]
        assert got == json.loads(json.dumps(want, default=float))

    def test_simulate_configuration_of_other_alphabets_exits_two(self, tmp_path, capsys):
        ch, src = tw.preset_dueck(), tw.preset_independent_bernoulli(0.5, 0.5)
        d = tw.hamming(src.s1)
        path = str(tmp_path / "cfg.json")
        ser.save_configuration(uncoded_configuration(ch, src, d, d), path)
        code = main(["simulate", "--config", path, "--channel", "bmc", "--source", "example2",
                     "--n", "16", "--B", "2", "--trials", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "configuration x1 size 4 does not match model size 2" in captured.err
        assert captured.out == ""

    def test_presets_out_holds_the_printed_document(self, tmp_path, capsys):
        out = tmp_path / "presets.json"
        assert main(["presets", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert out.read_text() + "\n" == printed
        assert json.loads(printed)["run"] == {"command": "presets", "out": str(out)}

    def test_wz_curve_csv(self, tmp_path, capsys):
        out = str(tmp_path / "wz.csv")
        code = main(["wz-rd", "--source", "example2", "--which", "1",
                     "--curve", "0,0.5", "--out", out])
        assert code == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "D,R,iterations,residual"
        assert len(lines) == 3

    def test_eval_sscc_with_rates(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        ch = tw.preset_crossed_bitpipes()
        from twjscc.probability import Alphabet

        v = Alphabet(2)
        gamma = np.ascontiguousarray(np.broadcast_to(np.arange(2)[:, None, None], (2, 2, 4)))
        scheme = tw.AdaptiveChannelScheme(v, v, np.full(2, 0.5), np.full(2, 0.5),
                                          gamma, gamma, ch.x1, ch.x2, ch.y1, ch.y2)
        path = str(tmp_path / "scheme.json")
        ser.save_adaptive_scheme(scheme, path)
        code = main(["eval-sscc", "--scheme", path, "--channel", "bitpipes",
                     "--rate1", "0.5", "--rate2", "0.5"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["rhs1"] == pytest.approx(1.0, abs=1e-9)

    def test_unsatisfied_eval_exits_one(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        ch = tw.preset_bmc()
        from twjscc.probability import Alphabet

        v = Alphabet(2)
        gamma = np.ascontiguousarray(np.broadcast_to(np.arange(2)[:, None, None], (2, 2, 4)))
        scheme = tw.AdaptiveChannelScheme(v, v, np.full(2, 0.5), np.full(2, 0.5),
                                          gamma, gamma, ch.x1, ch.x2, ch.y1, ch.y2)
        path = str(tmp_path / "scheme.json")
        ser.save_adaptive_scheme(scheme, path)
        code = main(["eval-sscc", "--scheme", path, "--channel", "bmc",
                     "--rate1", "0.667", "--rate2", "0.667"])
        assert code == 1

    def test_infeasible_wz_exits_one(self, capsys):
        code = main(["wz-rd", "--source", "example2", "--which", "1", "--D", "-0.5"])
        assert code == 1

    @pytest.mark.parametrize("argv, value", [
        (["rd", "--source", "bernoulli:0.5", "--D", "nan"], "nan"),
        (["rd", "--source", "bernoulli:0.5", "--curve", "0.1,nan"], "nan"),
        (["wz-rd", "--source", "example2", "--D", "nan"], "nan"),
        (["rd", "--source", "bernoulli:0.5", "--D", "inf"], "inf"),
        (["wz-rd", "--source", "example2", "--D=-inf"], "-inf"),
    ])
    def test_non_finite_target_exits_two(self, argv, value, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"distortion target {value} is not finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("cmd, flags, message", [
        ("eval-adaptive", ["--tol", "-5"], "tolerance -5.0"),
        ("eval-adaptive", ["--tol", "nan"], "tolerance nan"),
        ("eval-sscc", ["--rate1", "-5", "--rate2", "0.1"], "rate1 -5.0"),
        ("eval-sscc", ["--rate1", "inf", "--rate2", "0.1"], "rate1 inf"),
        ("eval-sscc", ["--rate1", "0.1", "--rate2", "nan"], "rate2 nan"),
        ("simulate", ["--rate1", "inf"], "rate1 inf"),
        ("simulate", ["--rate1", "nan"], "rate1 nan"),
        ("simulate", ["--eps", "inf"], "eps inf"),
    ])
    def test_out_of_range_number_exits_two(self, cmd, flags, message, tmp_path, capsys):
        ch = tw.preset_bmc()
        path = str(tmp_path / "in.json")
        if cmd == "eval-adaptive":
            src = tw.preset_example2_source()
            d = tw.hamming(src.s1)
            ser.save_configuration(uncoded_configuration(ch, src, d, d), path)
            argv = [cmd, "--config", path, "--channel", "bmc", "--source", "example2"]
        elif cmd == "eval-sscc":
            ser.save_adaptive_scheme(random_adaptive_scheme(np.random.default_rng(0), ch), path)
            argv = [cmd, "--scheme", path, "--channel", "bmc"]
        else:
            argv = [cmd, "--preset", "bmc-example2", "--n", "16", "--B", "2"]
        assert main(argv + flags) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_emit_refuses_non_standard_json(self, capsys):
        with pytest.raises(ValueError):
            _emit(parse_args(["rd", "--source", "bernoulli:0.5"]), {"rate": float("nan")}, None)
        assert capsys.readouterr().out == ""

    def test_nan_source_law_exits_two(self, tmp_path, capsys):
        doc = json.loads(ser.save_source(tw.preset_example2_source()))
        doc["law"] = [[float("nan")] * 2] * 2
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))
        assert main(["wz-rd", "--source", str(bad), "--which", "1", "--D", "0.1"]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["missing key", "top-level list", "wrong type"])
    def test_malformed_file_exits_two(self, case, tmp_path, capsys):
        doc = json.loads(ser.save_channel(tw.preset_bmc()))
        if case == "missing key":
            del doc["y2"]
        elif case == "top-level list":
            doc = [doc]
        else:
            doc["x1"] = "2"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["shannon-bound", "--channel", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"error: {bad}" in err and err.count(str(bad)) == 1

    @pytest.mark.parametrize("kind, size, argv", [
        ("channel", 2.0, ["shannon-bound", "--channel"]),
        ("channel", True, ["shannon-bound", "--channel"]),
        ("source", 2.0, ["wz-rd", "--D", "0.1", "--source"]),
        ("source", 2.0, ["search-region", "--channel", "bmc", "--budget", "3", "--source"]),
    ], ids=["shannon-bound-float", "shannon-bound-bool", "wz-rd-float", "search-region-float"])
    def test_non_integer_alphabet_size_exits_two(self, kind, size, argv, tmp_path, capsys):
        if kind == "channel":
            doc = json.loads(ser.save_channel(tw.preset_bmc()))
            doc["x1"] = size
            doc["law"] = doc["law"][:1] if size is True else doc["law"]  # a law that fits x1 = 1
        else:
            doc = json.loads(ser.save_source(tw.preset_example2_source()))
            doc["s1"] = size
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(argv + [str(bad)]) == 2
        captured = capsys.readouterr()
        assert f"error: {bad}" in captured.err and captured.err.count(str(bad)) == 1
        assert f"alphabet size must be an integer, got {size!r}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("kind", ["adaptive_scheme", "configuration"])
    def test_non_integer_table_entry_exits_two(self, kind, tmp_path, capsys):
        # gamma1 all 0.9 once loaded as all 0, and true as 1; here the true
        # replaces a 1, so only the check tells the file from a valid one
        if kind == "adaptive_scheme":
            ch, v = tw.preset_crossed_bitpipes(), tw.Alphabet(2)
            gamma = np.ascontiguousarray(np.broadcast_to(np.arange(2)[:, None, None], (2, 2, 4)))
            doc = json.loads(ser.save_adaptive_scheme(tw.AdaptiveChannelScheme(
                v, v, np.full(2, 0.5), np.full(2, 0.5), gamma, gamma, ch.x1, ch.x2, ch.y1, ch.y2)))
            key, argv = "gamma1", ["eval-sscc", "--channel", "bitpipes", "--rate1", "0.5",
                                   "--rate2", "0.5", "--scheme"]
            doc[key] = [0.9] * len(doc[key])
        else:
            ch, src = tw.preset_bmc(), tw.preset_example2_source()
            d = tw.hamming(src.s1)
            doc = json.loads(ser.save_configuration(uncoded_configuration(ch, src, d, d)))
            key, argv = "f1", ["eval-adaptive", "--channel", "bmc", "--source", "example2", "--config"]
            doc[key][doc[key].index(1)] = True
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(argv + [str(bad)]) == 2
        captured = capsys.readouterr()
        assert f"error: {bad}" in captured.err and captured.err.count(str(bad)) == 1
        assert f"table {key} must be a flat list of integers" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("kind", ["configuration", "hybrid_scheme", "adaptive_scheme", "wz_scheme"])
    def test_table_entry_beyond_int64_exits_two(self, kind, tmp_path, capsys):
        # 2**70 once escaped the loader as a bare OverflowError (exit 1, traceback)
        save, _, obj, _ = _small_instances()[kind]
        key = TestFormat.BROKEN[kind][2]
        doc = json.loads(save(obj))
        doc[key][0] = 2 ** 70
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        good = tmp_path / "scheme.json"
        ser.save_adaptive_scheme(_small_instances()["adaptive_scheme"][2], str(good))
        argv = {
            "configuration": ["eval-adaptive", "--channel", "bmc", "--source", "example2", "--config", bad],
            "hybrid_scheme": ["eval-hybrid", "--channel", "bmc", "--source", "example2", "--scheme", bad],
            "adaptive_scheme": ["eval-sscc", "--channel", "bmc", "--rate1", "0.1", "--rate2", "0.1",
                                "--scheme", bad],
            "wz_scheme": ["eval-sscc", "--channel", "bmc", "--source", "example2", "--scheme", good,
                          "--wz1", bad, "--wz2", bad],
        }[kind]
        assert main([str(a) for a in argv]) == 2
        captured = capsys.readouterr()
        assert f"error: {bad}" in captured.err and captured.err.count(str(bad)) == 1
        assert f"table {key} has an entry beyond int64" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("law", [[[float("nan")] * 2] * 2, float("nan")])
    def test_refused_law_names_the_file(self, law, tmp_path, capsys):
        doc = json.loads(ser.save_source(tw.preset_example2_source()))
        doc["law"] = law
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))
        assert main(["wz-rd", "--source", str(bad), "--D", "0.1"]) == 2
        assert capsys.readouterr().err.count(str(bad)) == 1


def test_import_loads_no_scipy():
    # scipy is a test-only dependency; importing the package must not pull it in
    code = "import sys, twjscc; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


def test_module_entry_point_runs_the_cli():
    # `python -m twjscc` works without the installed console script
    out = subprocess.run([sys.executable, "-m", "twjscc", "presets"], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}, timeout=60)
    assert out.returncode == 0, out.stderr
    assert "bmc" in json.loads(out.stdout)["result"]["channels"]
