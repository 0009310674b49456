"""Command-line entry point.

Commands load models/configurations from presets or the v1 JSON files,
dispatch to the owning module, and emit a single JSON object per run (with
the full flag echo for reproducibility) plus optional CSV artifacts.  Exit
status: 0 on success, 1 when an evaluation reports infeasibility (condition
not satisfied, distortion target unreachable), 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import serialization as ser
from .conditions import _adaptive_report, eval_hybrid, eval_sscc, shannon_nonadaptive_bound, wz_scheme_rate
from .markov import Z_AXES, build_chain, pair_marginal
from .rate_distortion import InfeasibleDistortion, rd_curve, rd_function, wz_curve, wz_function
from .region import convexify, search_region, uncoded_configuration
from .probability import marginalize
from .simulate import SimParams, run_simulation

SIM_PRESETS = ("bmc-example2",)


@dataclass(frozen=True)
class RunSpec:
    command: str
    options: dict


def _model_flags(parser: argparse.ArgumentParser, required: bool) -> None:
    """Declare the flags that `_models` resolves, in this order."""
    parser.add_argument("--channel", required=required)
    parser.add_argument("--source", required=required)
    parser.add_argument("--dist1", default="hamming")
    parser.add_argument("--dist2", default="hamming")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="twjscc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("presets", help="list built-in channels and sources").add_argument("--out")

    ev = sub.add_parser("eval-adaptive", help="adaptive block-Markov conditions for a configuration")
    ev.add_argument("--config", required=True)
    ev.add_argument("--channel", required=True)
    ev.add_argument("--source", required=True)
    ev.add_argument("--tol", type=float, default=1e-9)
    ev.add_argument("--simplify", action="store_true")
    ev.add_argument("--marginals-csv", help="dump single-axis stationary state marginals")
    ev.add_argument("--out")

    eh = sub.add_parser("eval-hybrid", help="single-block hybrid conditions for a scheme")
    eh.add_argument("--scheme", required=True)
    _model_flags(eh, required=True)
    eh.add_argument("--out")

    es = sub.add_parser("eval-sscc", help="separate-coding conditions: WZ rates vs adaptive channel rates")
    es.add_argument("--scheme", required=True, help="adaptive channel scheme file")
    es.add_argument("--channel", required=True)
    es.add_argument("--rate1", type=float)
    es.add_argument("--rate2", type=float)
    es.add_argument("--wz1", help="WZ scheme file for source 1 (alternative to --rate1)")
    es.add_argument("--wz2")
    es.add_argument("--source", help="needed when rates come from WZ scheme files")
    es.add_argument("--out")

    for name, text in (("rd", "rate-distortion function of one source marginal"),
                       ("wz-rd", "side-information rate-distortion for one source of the pair")):
        rd = sub.add_parser(name, help=text)
        rd.add_argument("--source", required=True)
        rd.add_argument("--which", type=int, choices=(1, 2), default=1)
        rd.add_argument("--D", type=float)
        rd.add_argument("--curve", help="comma-separated distortion grid (emits CSV)")
        rd.add_argument("--dist", default="hamming")
        rd.add_argument("--out")

    sh = sub.add_parser("shannon-bound", help="non-adaptive random-coding rate bound with time-sharing")
    sh.add_argument("--channel", required=True)
    sh.add_argument("--q", type=int, default=4)
    sh.add_argument("--grid", type=int, default=21)
    sh.add_argument("--out")

    sr = sub.add_parser("search-region", help="search certified achievable distortion pairs")
    _model_flags(sr, required=True)
    sr.add_argument("--budget", type=int, default=200)
    sr.add_argument("--seed", type=int, default=0)
    sr.add_argument("--aux1", type=int)
    sr.add_argument("--aux2", type=int)
    sr.add_argument("--out")
    sr.add_argument("--csv", help="region table output path")
    sr.add_argument("--cert-dir", help="directory for certificate configuration files")

    sim = sub.add_parser("simulate", help="Monte Carlo run of the block-Markov scheme")
    sim.add_argument("--preset", choices=SIM_PRESETS)
    sim.add_argument("--config")
    _model_flags(sim, required=False)
    sim.add_argument("--n", type=int, default=64)
    sim.add_argument("--B", type=int, default=3)
    sim.add_argument("--eps", type=float, default=0.3)
    sim.add_argument("--eps1", type=float, default=0.15)
    sim.add_argument("--rate1", type=float, default=0.0)
    sim.add_argument("--rate2", type=float, default=0.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--trials", type=int, default=100)
    sim.add_argument("--out")
    sim.add_argument("--csv")
    return p


def parse_args(argv) -> RunSpec:
    ns = _build_parser().parse_args(argv)
    options = {k: v for k, v in vars(ns).items() if k != "command"}
    return RunSpec(ns.command, options)


def _emit(spec: RunSpec, result: dict, out: str | None) -> None:
    doc = {"run": {"command": spec.command, **spec.options}, "result": result}
    text = json.dumps(doc, indent=2, default=float, allow_nan=False)
    print(text)
    if out:
        ser.write_atomic(out, text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    return "".join(",".join(str(x) for x in row) + "\n" for row in [header, *rows])


def _models(opt: dict, load=lambda ch, src: None):
    """Resolve --channel and --source, then `load(ch, src)` (the command's
    scheme or configuration file, or None), then --dist1 and --dist2."""
    ch = ser.resolve_channel(opt["channel"])
    src = ser.resolve_source(opt["source"])
    loaded = load(ch, src)
    d1 = ser.resolve_distortion(opt["dist1"], src.s1)
    d2 = ser.resolve_distortion(opt["dist2"], src.s2)
    return ch, src, loaded, d1, d2


def _status(report) -> int:
    """Exit status of a condition report: a boundary point counts as met."""
    return 0 if (report.satisfied or report.boundary) else 1


def execute(spec: RunSpec) -> int:
    """Run one command: each branch computes the result, the exit status and
    the --csv text, if any; the JSON document is emitted once, after it."""
    opt = dict(spec.options)
    cmd = spec.command
    status, csv = 0, None

    if cmd == "presets":
        result = ser.preset_names()

    elif cmd == "eval-adaptive":
        ch = ser.resolve_channel(opt["channel"])
        src = ser.resolve_source(opt["source"])
        cfg = ser.load_configuration(opt["config"])
        sys_ = build_chain(cfg, ch, src)
        report = _adaptive_report(sys_, tol=opt["tol"], simplify=opt["simplify"])
        if opt.get("marginals_csv"):
            rows = []
            for k, name in enumerate(Z_AXES):
                marg = pair_marginal(sys_, sys_.pi, (k,)).probs
                rows.extend([name, sym, p] for sym, p in enumerate(marg))
            ser.write_atomic(opt["marginals_csv"], _csv_text(["axis", "symbol", "probability"], rows))
        result, status = report.as_dict(), _status(report)

    elif cmd == "eval-hybrid":
        ch, src, hs, d1, d2 = _models(opt, lambda ch, src: ser.load_hybrid_scheme(opt["scheme"]))
        try:
            ev = eval_hybrid(hs, ch, src, d1, d2)
        except ValueError as exc:  # the scheme's tables do not fit the models
            raise ValueError(f"{opt['scheme']}: {exc}") from exc
        result = {**ev.report.as_dict(), "distortions": list(ev.distortions)}
        status = _status(ev.report)

    elif cmd == "eval-sscc":
        ch = ser.resolve_channel(opt["channel"])
        scheme = ser.load_adaptive_scheme(opt["scheme"])
        if opt.get("rate1") is not None and opt.get("rate2") is not None:
            rate1, rate2 = opt["rate1"], opt["rate2"]
        elif opt.get("wz1") and opt.get("wz2") and opt.get("source"):
            src = ser.resolve_source(opt["source"])
            rate1 = max(0.0, wz_scheme_rate(ser.load_wz_scheme(opt["wz1"]), src, 1))
            rate2 = max(0.0, wz_scheme_rate(ser.load_wz_scheme(opt["wz2"]), src, 2))
        else:
            raise ValueError("eval-sscc needs --rate1/--rate2 or --wz1/--wz2 with --source")
        report = eval_sscc(scheme, rate1, rate2, ch)
        result, status = report.as_dict(), _status(report)

    elif cmd in ("rd", "wz-rd"):  # rd codes one marginal; wz-rd has the other source as side information
        src = ser.resolve_source(opt["source"])
        which = opt["which"]
        d = ser.resolve_distortion(opt["dist"], src.s1 if which == 1 else src.s2)
        marg = marginalize(src.law, (which - 1,))
        if opt.get("curve"):  # the curve is CSV, printed and written in place of the JSON document
            grid = opt["curve"].split(",")
            curve = rd_curve(marg, d, grid) if cmd == "rd" else wz_curve(src, which, d, grid)
            rows = [[*pt, it, res] for pt, it, res in zip(curve.points, curve.iterations, curve.residuals)]
            text = _csv_text(["D", "R", "iterations", "residual"], rows)
            if opt.get("out"):
                ser.write_atomic(opt["out"], text)
            print(text)
            return 0
        if opt.get("D") is None:
            raise ValueError(f"{cmd} needs --D or --curve")
        if cmd == "rd":
            result = {"rate": rd_function(marg, d, opt["D"]), "D": opt["D"]}
        else:
            res = wz_function(src, which, d, opt["D"])
            result = {"rate": res.rate, "distortion": res.distortion, "evaluations": res.evaluations}

    elif cmd == "shannon-bound":
        ch = ser.resolve_channel(opt["channel"])
        result = shannon_nonadaptive_bound(ch, q_size=opt["q"], grid=opt["grid"])

    elif cmd == "search-region":
        ch, src, _, d1, d2 = _models(opt)
        aux = (opt.get("aux1"), opt.get("aux2"))
        if aux.count(None) == 1:
            raise ValueError("search-region takes --aux1 and --aux2 together or neither")
        points = search_region(ch, src, d1, d2, budget=opt["budget"], seed=opt["seed"],
                               aux_sizes=None if None in aux else aux)
        cert_paths = [""] * len(points)
        if opt.get("cert_dir"):
            os.makedirs(opt["cert_dir"], exist_ok=True)
            cert_paths = [os.path.join(opt["cert_dir"], f"certificate_{i:03d}.json")
                          for i in range(len(points))]
            for pt, path in zip(points, cert_paths):
                ser.save_configuration(pt.certificate, path)
        result = {
            "points": [
                {"d1": p.d1, "d2": p.d2, "margin": p.report.margin, "boundary": p.boundary}
                for p in points
            ],
            "hull": [list(v) for v in convexify([(p.d1, p.d2) for p in points])],
        }
        rows = [[p.d1, p.d2, p.report.margin, int(p.boundary), path] for p, path in zip(points, cert_paths)]
        csv = _csv_text(["d1", "d2", "margin", "boundary_flag", "certificate"], rows)

    elif cmd == "simulate":
        if opt.get("preset") == "bmc-example2":
            model = [f"--{k}" for k in ("config", "channel", "source") if opt.get(k)]
            model += [f"--{k}" for k in ("dist1", "dist2") if opt[k] != "hamming"]
            if model:
                raise ValueError(f"--preset fixes the model; it takes no {', '.join(model)}")
            opt.update(channel="bmc", source="example2")
        elif not (opt.get("config") and opt.get("channel") and opt.get("source")):
            raise ValueError("simulate needs --preset or (--config, --channel, --source)")

        def load(ch, src):  # None under the preset, whose configuration is uncoded
            if opt.get("config"):
                cfg = ser.load_configuration(opt["config"])
                cfg.check_against(ch, src)
                return cfg

        ch, src, cfg, d1, d2 = _models(opt, load)
        if cfg is None:
            cfg = uncoded_configuration(ch, src, d1, d2)
        params = SimParams(
            n=opt["n"], blocks=opt["B"], eps=opt["eps"], eps1=opt["eps1"],
            rate1=opt["rate1"], rate2=opt["rate2"], seed=opt["seed"], trials=opt["trials"],
        )
        report = run_simulation(cfg, ch, src, d1, d2, params)
        result = report.as_dict()
        row = [
            params.n, params.blocks, params.eps, params.eps1, params.rate1, params.rate2,
            report.distortion1, report.distortion2, sum(report.err_cover),
            report.err_typicality, sum(report.err_confusion), report.trials,
        ]
        csv = _csv_text(["n", "B", "eps", "eps1", "R1", "R2", "d1_hat", "d2_hat",
                         "err_cover", "err_typ", "err_confuse", "trials"], [row])

    else:
        raise ValueError(f"unknown command {cmd!r}")

    _emit(spec, result, opt.get("out"))
    if opt.get("csv"):
        ser.write_atomic(opt["csv"], csv)
    return status


def main(argv=None) -> int:
    try:
        spec = parse_args(argv if argv is not None else sys.argv[1:])
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return execute(spec)
    except InfeasibleDistortion as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
