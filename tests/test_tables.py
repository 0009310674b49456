"""The one table shaper, `_check_table`, and the tables the lift maps build with it."""

import dataclasses
import json

import numpy as np
import pytest

import twjscc as tw
from twjscc import serialization as ser
from twjscc.cli import main
from twjscc.coded_channel import _check_table, io_index
from twjscc.conditions import (
    _UNIT_SOURCE,
    AdaptiveChannelScheme,
    embed_adaptive_scheme,
    eval_hybrid,
    lift_hybrid,
    lift_sscc,
)
from twjscc.markov import build_chain, pair_marginal
from twjscc.probability import Alphabet, mutual_information
from twjscc.region import uncoded_configuration
from twjscc.simulate import SimContext

from util import (
    random_adaptive_scheme,
    random_binary_channel,
    random_configuration,
    random_hybrid_scheme,
    random_joint_source,
    random_wz_scheme,
)


class TestCheckTable:
    @pytest.mark.parametrize("table_shape", [(2, 3, 4), (3, 1), (1, 4), (4,), ()])
    def test_broadcast_matches_explicit_expansion(self, table_shape):
        shape = (2, 3, 4)
        t = np.random.default_rng(0).integers(0, 5, size=table_shape).astype(np.int32)
        got = _check_table("t", t, shape, 5)
        want = np.ascontiguousarray(np.broadcast_to(t, shape), dtype=np.int64)
        assert np.array_equal(got, want)
        assert got.dtype == np.uint8  # five letters fit one byte
        assert got.flags.c_contiguous and not got.flags.writeable

    @pytest.mark.parametrize("out_size, dtype", [
        (1, np.uint8), (2, np.uint8), (255, np.uint8), (256, np.uint8),
        (257, np.uint16), (65_536, np.uint16), (65_537, np.uint32),
    ])
    def test_entries_stored_in_the_narrowest_unsigned_type(self, out_size, dtype):
        t = np.random.default_rng(out_size).integers(0, out_size, size=(3, 1))
        t[0, 0] = out_size - 1
        got = _check_table("t", t, (3, 4), out_size)
        assert got.dtype == dtype
        assert np.array_equal(got, np.broadcast_to(t, (3, 4)))

    def test_dueck_configuration_takes_one_byte_per_entry(self):
        # the eval_dueck shape: Dueck's channel (|IO| = 32), binary sources and codewords;
        # 2 f tables of 512 entries and 2 g tables of 8192, 139,264 bytes as int64
        rng = np.random.default_rng(35)
        cfg = random_configuration(rng, tw.preset_dueck(), tw.preset_independent_bernoulli(0.89, 0.89))
        tables = (cfg.f1, cfg.f2, cfg.g1, cfg.g2)
        assert [t.size for t in tables] == [512, 512, 8192, 8192]
        assert sum(t.nbytes for t in tables) <= 17_408

    def test_result_does_not_follow_the_input(self):
        t = np.zeros((2, 2), dtype=np.int64)
        got = _check_table("t", t, (2, 2), 2)
        t[0, 0] = 1
        assert got[0, 0] == 0 and t.flags.writeable

    @pytest.mark.parametrize("table_shape", [(3,), (2, 2), (1, 2, 3, 4)])
    def test_shape_that_does_not_broadcast_names_the_table(self, table_shape):
        with pytest.raises(ValueError, match=r"f7 table shape .*, expected \(2, 3, 4\)"):
            _check_table("f7", np.zeros(table_shape, dtype=np.int64), (2, 3, 4), 2)

    def test_float_table_names_the_table(self):
        with pytest.raises(ValueError, match="g3 table must hold integers"):
            _check_table("g3", np.zeros((2, 2)), (2, 2), 2)

    @pytest.mark.parametrize("entry", [-1, 2])
    def test_entry_out_of_range_names_the_table(self, entry):
        with pytest.raises(ValueError, match=r"g3 entries must lie in \[0, 2\)"):
            _check_table("g3", np.array([[0, entry]]), (3, 2), 2)


class TestNarrowEntriesPromoted:
    """Arithmetic on a uint8 table entry with a Python int stays in uint8 and
    wraps (16 * 17 + 16 gives 32, not 288), so every site that computes with
    an entry read from a table must promote it first."""

    def test_io_index(self):
        x = _check_table("f1", np.array([16, 3]), (2,), 17)
        assert x.dtype == np.uint8
        assert io_index(x, np.array([16, 2]), 17).tolist() == [288, 53]
        assert io_index(x[0], 16, 17) == 288

    def test_sample_channel(self):
        # 17 x 17 inputs, y1 = x2 and one y2 letter; x1 * 17 + x2 wrapped in
        # uint8 would read another input pair's row
        x, one = Alphabet(17), Alphabet(1)
        law = np.zeros((17, 17, 17, 1))
        law[:, np.arange(17), np.arange(17), 0] = 1.0
        ch = tw.TwoWayChannel(x, x, x, one, tw.ConditionalPmf((x, x), (x, one), law))
        src = tw.JointSource(one, one, tw.JointPmf((one, one), np.ones((1, 1))))
        unit = tw.ConditionalPmf((one,), (one,), np.ones((1, 1)))
        io = np.arange(289)  # io1 = x1 * 17 + y1; f1 reads x1 back off the previous io1
        cfg = tw.Configuration(
            u1=one, u2=one, pu1_given_s1=unit, pu2_given_s2=unit, prev_law=None,
            f1=io // 17, f2=np.arange(17), g1=0, g2=0,
            x1=x, x2=x, y1=x, y2=one, recon1=one, recon2=one,
        )
        prev = np.full((1, 1, 1, 1, 289, 17), 1 / 4913)
        cfg = dataclasses.replace(cfg, prev_law=tw.JointPmf(cfg.prev_axes, prev))
        ctx = SimContext(cfg, ch, src)
        x1, x2 = cfg.f1[0, 0, 0, 0, io], cfg.f2[0, 0, 0, 0, io % 17]
        assert x1.dtype == x2.dtype == np.uint8
        y1, y2 = ctx.sample_channel(np.random.default_rng(0), x1, x2)
        assert np.array_equal(y1, x2) and not y2.any()
        assert np.array_equal(io_index(x1, y1, 17), io)


def _full(shape, value) -> np.ndarray:
    """Table of `shape` whose entry at each index tuple is value(*index)."""
    out = np.empty(shape, dtype=np.int64)
    for idx in np.ndindex(*shape):
        out[idx] = value(*idx)
    return out


class TestLiftTables:
    """Each lift map's stored tables equal the full-shape expansion of the
    scheme's own tables, written out index by index."""

    def test_lift_hybrid(self):
        rng = np.random.default_rng(30)
        src, ch = random_joint_source(rng), random_binary_channel(rng)
        d = tw.hamming(src.s1)
        hs = random_hybrid_scheme(rng, src, ch, d, d)
        cfg = lift_hybrid(hs, ch, src)
        assert np.array_equal(cfg.f1, _full(cfg.f1.shape, lambda s, u, ps, pu, io: hs.f1[ps, pu]))
        assert np.array_equal(cfg.f2, _full(cfg.f2.shape, lambda s, u, ps, pu, io: hs.f2[ps, pu]))
        assert np.array_equal(
            cfg.g1, _full(cfg.g1.shape, lambda uo, s, u, ps, pu, io, y: hs.g1[uo, ps, pu, y]))
        assert np.array_equal(
            cfg.g2, _full(cfg.g2.shape, lambda uo, s, u, ps, pu, io, y: hs.g2[uo, ps, pu, y]))

    def test_embed_adaptive_scheme(self):
        rng = np.random.default_rng(31)
        ch = random_binary_channel(rng)
        scheme = random_adaptive_scheme(rng, ch)
        cfg = embed_adaptive_scheme(scheme)
        nv, nio, ny = 2, ch.x1.size * ch.y1.size, ch.y1.size
        assert cfg.f1.shape == (1, nv, 1, nv, nio)
        assert np.array_equal(
            cfg.f1, _full(cfg.f1.shape, lambda s, v, ps, pv, io: scheme.gamma1[v, pv, io]))
        assert np.array_equal(
            cfg.f2, _full(cfg.f2.shape, lambda s, v, ps, pv, io: scheme.gamma2[v, pv, io]))
        for g in (cfg.g1, cfg.g2):
            assert g.shape == (nv, 1, nv, 1, nv, nio, ny) and not g.any()

    def test_lift_sscc(self):
        rng = np.random.default_rng(32)
        src, ch = random_joint_source(rng), random_binary_channel(rng)
        scheme = random_adaptive_scheme(rng, ch)
        wz1, wz2 = random_wz_scheme(rng, src, 1), random_wz_scheme(rng, src, 2)
        cfg = lift_sscc(scheme, wz1, wz2, ch, src)
        nv = 2  # u = t * nv + v
        assert cfg.f1.shape == (2, 4, 2, 4, 4)
        assert np.array_equal(
            cfg.f1, _full(cfg.f1.shape, lambda s, u, ps, pu, io: scheme.gamma1[u % nv, pu % nv, io]))
        assert np.array_equal(
            cfg.f2, _full(cfg.f2.shape, lambda s, u, ps, pu, io: scheme.gamma2[u % nv, pu % nv, io]))
        assert np.array_equal(
            cfg.g1, _full(cfg.g1.shape, lambda uo, s, u, ps, pu, io, y: wz2.h[ps, uo // nv]))
        assert np.array_equal(
            cfg.g2, _full(cfg.g2.shape, lambda uo, s, u, ps, pu, io, y: wz1.h[ps, uo // nv]))

    def test_uncoded_configuration(self):
        ch, src = tw.preset_dueck(), tw.preset_example2_source()
        d = tw.hamming(src.s1)
        cfg = uncoded_configuration(ch, src, d, d)
        assert cfg.f1.shape == (2, 1, 2, 1, 32)
        assert np.array_equal(cfg.f1, _full(cfg.f1.shape, lambda s, u, ps, pu, io: s))
        assert np.array_equal(cfg.f2, _full(cfg.f2.shape, lambda s, u, ps, pu, io: s))
        assert cfg.g1.shape == (1, 2, 1, 2, 1, 32, 8) == cfg.g2.shape


class TestHybridTablesChecked:
    def _scheme(self):
        rng = np.random.default_rng(33)
        src, ch = tw.preset_example2_source(), tw.preset_bmc()
        d = tw.hamming(src.s1)
        return random_hybrid_scheme(rng, src, ch, d, d), ch, src, d

    @pytest.mark.parametrize("entry", [5, -1])
    def test_encoder_entry_out_of_range(self, entry):
        hs, ch, src, d = self._scheme()
        f1 = hs.f1.copy()
        f1[0, 0] = entry
        with pytest.raises(ValueError, match=r"f1 entries must lie in \[0, 2\)"):
            eval_hybrid(dataclasses.replace(hs, f1=f1), ch, src, d, d)

    def test_decoder_with_extra_output_column(self):
        hs, ch, src, d = self._scheme()
        g1 = np.concatenate([hs.g1, hs.g1[..., :1]], axis=-1)
        with pytest.raises(ValueError, match=r"g1 table shape \(2, 2, 2, 3\), expected \(2, 2, 2, 2\)"):
            eval_hybrid(dataclasses.replace(hs, g1=g1), ch, src, d, d)

    @pytest.mark.parametrize("case", ["f1 entry 5", "f1 entry -1", "g1 three columns"])
    def test_eval_hybrid_cli_names_file_and_table(self, case, tmp_path, capsys):
        hs, _, _, _ = self._scheme()
        doc = json.loads(ser.save_hybrid_scheme(hs))
        if case == "g1 three columns":
            doc["y1"] = 3
            doc["g1"] = np.concatenate([hs.g1, hs.g1[..., :1]], axis=-1).ravel().tolist()
            table = "g1"
        else:
            doc["f1"][0] = int(case.split()[-1])
            table = "f1"
        bad = tmp_path / "hybrid.json"
        bad.write_text(json.dumps(doc))
        code = main(["eval-hybrid", "--scheme", str(bad), "--channel", "bmc", "--source", "example2"])
        err = capsys.readouterr().err
        assert code == 2
        assert str(bad) in err and table in err


class TestGammaChecked:
    def _args(self, gamma1):
        ch = tw.preset_bmc()
        v = Alphabet(2, "v")
        gamma = np.arange(2)[:, None, None]
        return (v, v, np.full(2, 0.5), np.full(2, 0.5), gamma1, gamma, ch.x1, ch.x2, ch.y1, ch.y2)

    def test_out_of_range_gamma_refused(self):
        with pytest.raises(ValueError, match=r"gamma1 entries must lie in \[0, 2\)"):
            AdaptiveChannelScheme(*self._args(np.full((2, 2, 4), 2)))

    def test_wrong_gamma_shape_refused(self):
        with pytest.raises(ValueError, match="gamma1 table shape"):
            AdaptiveChannelScheme(*self._args(np.zeros((2, 2, 3), dtype=np.int64)))

    def test_gamma_stored_at_full_shape(self):
        scheme = AdaptiveChannelScheme(*self._args(np.arange(2)[:, None, None]))
        assert scheme.gamma2.shape == (2, 2, 4) and not scheme.gamma2.flags.writeable

    @pytest.mark.parametrize("pv1", [(np.nan, np.nan), (0.5, np.nan)])
    def test_nan_pv_refused(self, pv1, tmp_path, capsys):
        # NaN passed the old sum and sign checks, was saved as NaN tokens and
        # read back, and only eval_sscc failed, naming no field
        args = self._args(np.arange(2)[:, None, None])
        with pytest.raises(ValueError, match="pv1: pmf entries must be finite and nonnegative"):
            AdaptiveChannelScheme(*args[:2], np.array(pv1), *args[3:])
        doc = json.loads(ser.save_adaptive_scheme(AdaptiveChannelScheme(*args)))
        doc["pv1"] = list(pv1)
        bad = tmp_path / "scheme.json"
        bad.write_text(json.dumps(doc))
        code = main(["eval-sscc", "--scheme", str(bad), "--channel", "bmc",
                     "--rate1", "0.1", "--rate2", "0.1"])
        err = capsys.readouterr().err
        assert code == 2
        assert str(bad) in err and "pv1: pmf entries must be finite" in err

    def test_eval_sscc_cli_names_file_and_gamma(self, tmp_path, capsys):
        scheme = AdaptiveChannelScheme(*self._args(np.arange(2)[:, None, None]))
        doc = json.loads(ser.save_adaptive_scheme(scheme))
        doc["gamma1"][0] = 2
        bad = tmp_path / "scheme.json"
        bad.write_text(json.dumps(doc))
        code = main(["eval-sscc", "--scheme", str(bad), "--channel", "bmc",
                     "--rate1", "0.1", "--rate2", "0.1"])
        err = capsys.readouterr().err
        assert code == 2
        assert str(bad) in err and "gamma1" in err


def test_sscc_rates_equal_the_channel_view_information():
    """eval_sscc's right-hand sides, read from the adaptive report, equal
    I(prev_v_j; x, y, prev_v, prev_io of the other terminal)."""
    rng = np.random.default_rng(34)
    for ch in (tw.preset_bmc(), tw.preset_crossed_bitpipes(), random_binary_channel(rng)):
        for _ in range(4):
            scheme = random_adaptive_scheme(rng, ch)
            try:
                rep = tw.eval_sscc(scheme, 0.0, 0.0, ch)
            except ValueError:  # a random gamma can leave the stationary law non-unique
                continue
            sys_ = build_chain(embed_adaptive_scheme(scheme), ch, _UNIT_SOURCE)
            pi = sys_.pi
            rhs1 = mutual_information(pair_marginal(sys_, pi, (6, 11, 13, 7, 9)), (0,), (1, 2, 3, 4))
            rhs2 = mutual_information(pair_marginal(sys_, pi, (7, 10, 12, 6, 8)), (0,), (1, 2, 3, 4))
            assert rep.rhs1 == pytest.approx(rhs1, abs=1e-12)
            assert rep.rhs2 == pytest.approx(rhs2, abs=1e-12)
