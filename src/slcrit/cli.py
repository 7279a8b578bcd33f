"""Command-line driver: analyze | scan | generate | verify | plot.

Exit codes: 0 success, 1 numeric failure, 2 usage/parse error or an input
too large for the memory at hand.  All outputs are deterministic for a fixed
configuration and seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

import numpy as np

from . import criteria, forms, potential, verify
from .errors import (DomainError, GenerationError, NumericError,
                     UnsupportedInputError, ValidationError)
from .potential import Antiderivative, Interval

#: largest accepted --mesh and --angles; the work grows with both, so larger
#: values are refused before anything is assembled
MAX_MESH = 4096
MAX_ANGLES = 1024
#: doublings of the bump height h that ``_orchestrate_s2`` tries per block
S2_DOUBLINGS = 40


def _parse_complex(text: str) -> complex:
    return complex(text.replace("i", "j").replace(" ", ""))


def _load_potential(args) -> Antiderivative:
    if not args.potential:
        raise ValidationError("--potential PATH is required for this command")
    try:
        s = potential.load(args.potential)
    except FileNotFoundError as exc:
        raise ValidationError(f"potential file not found: {args.potential}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"malformed potential JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    if args.xmax is not None and args.xmax < s.domain_end:
        s = potential.restrict(s, args.xmax)
    return s


def _write_series_csv(series: criteria.WindowSeries, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "value"])
        for x, v in series.rows():
            writer.writerow([repr(x), repr(v)])


def cmd_analyze(args) -> int:
    s = _load_potential(args)
    config = criteria.ClassifyConfig(a=args.a, d=args.d)
    verdict = criteria.classify(s, config)
    doc = verdict.to_dict()
    out = args.out or "report.json"
    if args.format == "json":
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    else:
        with open(out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rule", "theorem", "key", "value"])
            writer.writerow(["verdict", "", "", doc["verdict"]])
            for item in doc["evidence"]:
                for key, value in sorted(item["values"].items()):
                    writer.writerow([item["rule"], item["theorem"], key, value])
    print(f"{doc['verdict']} -> {out}")
    return 0


def cmd_scan(args) -> int:
    s = _load_potential(args)
    result = forms.localization_scan(s, n=args.mesh, angles=args.angles)
    out = args.out or "scan.csv"
    forms.scan_to_csv(result, out)
    print(f"{len(result.rows)} windows -> {out} "
          f"(monotone lower bounds: {result.lower_bounds_monotone})")
    return 0


def _orchestrate_s2(theta: float, blocks: int, h0: float, mesh: int):
    """Choose (N_k, h_k, A_k) per block by doubling h until the bracket holds.

    mu_k is the bottom of the gauged window form over the three unit windows
    around a block (computed on a translation-invariant template), and
    A_k = -mu_k / (1 + eps) must land in [N_k - 1, N_k + 1) with block
    spacing >= 3.
    """
    one_plus_eps = 1.0 / (1.0 - theta) ** (1.0 / 3.0)
    amp = (1.0 - theta) ** (1.0 / 3.0)
    kappa1 = one_plus_eps
    kappa2 = one_plus_eps ** 2 - one_plus_eps
    schedule = []
    provenance = []
    prev_n = None
    h = h0
    for _k in range(blocks):
        chosen = None
        for _ in range(S2_DOUBLINGS):
            _v, gamma = potential.vh_profile(h)
            g = potential._stitch_blocks([gamma], [0.5], [amp], 2.0)
            zero_s = potential.zero(2.0)
            mu = math.inf
            for win in (Interval(0.0, 1.0), Interval(0.5, 1.5), Interval(1.0, 2.0)):
                w = forms.assemble(zero_s, win, mesh, gauge=(g, kappa1, kappa2))
                mu = min(mu, forms.herm_lambda_min(w))
            a_k = -mu / one_plus_eps
            floor_n = 2 if prev_n is None else prev_n + 3
            if a_k >= floor_n - 1:
                n_k = max(int(math.floor(a_k)), floor_n)
                if not (n_k - 1 <= a_k < n_k + 1):
                    n_k = int(math.floor(a_k))
                chosen = (n_k, h, a_k, mu)
                break
            h *= 2.0
        if chosen is None:
            raise GenerationError(
                f"block {_k + 1}: level bracket unreachable within "
                f"{S2_DOUBLINGS} doublings of h")
        n_k, h_k, a_k, mu = chosen
        schedule.append((n_k, h_k, a_k))
        provenance.append({"N": n_k, "h": h_k, "mu": mu, "A": a_k})
        prev_n = n_k
        h = h_k * 2.0
    return schedule, provenance, one_plus_eps


def cmd_generate(args) -> int:
    out = args.out or "potential.json"
    sidecar = None
    if args.kind == "delta":
        positions = [float(t) for t in args.positions.split(",")] if args.positions else []
        strengths = [_parse_complex(t) for t in args.strengths.split(",")] if args.strengths else []
        X = args.xmax if args.xmax is not None else (positions[-1] + 1.0 if positions else 1.0)
        s = potential.delta_sum(positions, strengths, X)
    elif args.kind == "miura":
        X = args.xmax if args.xmax is not None else 10.0
        if args.gamma_file:
            gamma = potential.load(args.gamma_file)
        else:
            gamma = potential.from_poly((args.gamma_const,), X)
        s = potential.miura(gamma, args.b)
    elif args.kind == "s1":
        s = potential.build_counterexample("s1", blocks=args.blocks,
                                           domain_end=args.xmax)
    elif args.kind == "s2":
        if not 0.0 < args.theta < 1.0:
            raise ValidationError("s2 needs theta in (0, 1)")
        schedule, provenance, one_plus_eps = _orchestrate_s2(
            args.theta, args.blocks, args.h0, args.mesh)
        X = args.xmax
        if X is None and schedule:
            X = schedule[-1][0] + 2.0
        s = potential.build_counterexample("s2", theta=args.theta,
                                           schedule=schedule, domain_end=X)
        sidecar = {"theta": args.theta, "one_plus_eps": one_plus_eps,
                   "blocks": provenance}
    else:  # pragma: no cover - argparse restricts choices
        raise ValidationError(f"unknown kind {args.kind!r}")
    potential.save(s, out)
    if sidecar is not None:
        side_path = str(out) + ".provenance.json"
        with open(side_path, "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{args.kind} -> {out} (+ {side_path})")
    else:
        print(f"{args.kind} -> {out}")
    return 0


def cmd_verify(args) -> int:
    results = verify.run_all(args.seed)
    for res in results:
        print(res.line())
    if args.out:
        doc = [{"suite": r.name, "passed": r.passed, "cases": r.cases,
                "worst": r.worst, "tolerance": r.tolerance, "detail": r.detail}
               for r in results]
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all(r.passed for r in results) else 1


def cmd_plot(args) -> int:
    s = _load_potential(args)
    prefix = args.out or "plot"
    series, _refuted = criteria.scan_necessary(s, args.a)
    _write_series_csv(series, f"{prefix}_dbl.csv")
    _write_series_csv(criteria.growth_series(s, args.a), f"{prefix}_growth.csv")
    written = [f"{prefix}_dbl.csv", f"{prefix}_growth.csv"]
    if s.domain_end >= 2.0:
        scan = forms.localization_scan(s, n=args.mesh, angles=args.angles)
        lows = criteria.WindowSeries(
            1.0, np.asarray([r.window.a for r in scan.rows]),
            scan.lower_bounds())
        _write_series_csv(lows, f"{prefix}_infmod.csv")
        written.append(f"{prefix}_infmod.csv")
    window = Interval(0.0, min(1.0, s.domain_end))
    est = forms.range_boundary(forms.assemble(s, window, args.mesh),
                               angles=args.angles)
    with open(f"{prefix}_range.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "value"])
        for z in est.boundary:
            writer.writerow([repr(float(z.real)), repr(float(z.imag))])
    written.append(f"{prefix}_range.csv")
    print("wrote " + ", ".join(written))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slcrit",
        description="Windowed spectral criteria for Sturm-Liouville operators "
                    "with distributional potentials, driven by exact models "
                    "of the antiderivative s.")
    sub = parser.add_subparsers(dest="command", required=True)

    options = {
        "--potential": dict(help="potential JSON file"),
        "--a": dict(type=float, default=1.0, help="window length"),
        "--d": dict(type=float, default=1.0, help="sector-search depth"),
        "--mesh": dict(type=int, default=128, help="FEM mesh resolution"),
        "--angles": dict(type=int, default=64,
                         help="range-boundary rotations over the full circle; complex "
                              "windows sweep those with |theta| <= pi/2 and any other a "
                              "bound cannot rule out"),
        "--xmax": dict(type=float, default=None, help="domain override"),
        "--out": dict(default=None, help="output path"),
        "--format": dict(choices=["json", "csv"], default="json"),
        "--seed": dict(type=int, default=20240801),
    }

    def command(name, fn, summary, *names):
        p = sub.add_parser(name, help=summary)
        for option in names:
            p.add_argument(option, **options[option])
        p.set_defaults(fn=fn)
        return p

    command("analyze", cmd_analyze, "classify a potential and write the verdict",
            "--potential", "--xmax", "--a", "--d", "--out", "--format")
    command("scan", cmd_scan, "window localization scan to CSV",
            "--potential", "--xmax", "--mesh", "--angles", "--out")
    p = command("generate", cmd_generate, "write a generated potential file",
                "--xmax", "--mesh", "--out")
    p.add_argument("--kind", choices=["delta", "miura", "s1", "s2"], required=True)
    p.add_argument("--positions", default=None, help="comma-separated jump locations")
    p.add_argument("--strengths", default=None, help="comma-separated jump strengths")
    p.add_argument("--gamma-const", type=float, default=1.0,
                   help="constant gamma for kind=miura")
    p.add_argument("--gamma-file", default=None, help="gamma potential JSON for kind=miura")
    p.add_argument("--b", type=float, default=0.0, help="linear slope for kind=miura")
    p.add_argument("--blocks", type=int, default=1, help="bump block count")
    p.add_argument("--theta", type=float, default=0.5, help="scaling parameter for kind=s2")
    p.add_argument("--h0", type=float, default=4.0, help="initial bump height for kind=s2")
    command("verify", cmd_verify, "run the seeded property suites", "--seed", "--out")
    command("plot", cmd_plot, "emit CSV series for external plotting",
            "--potential", "--xmax", "--a", "--mesh", "--angles", "--out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for option, limit in (("mesh", MAX_MESH), ("angles", MAX_ANGLES)):
            value = getattr(args, option, None)
            if value is not None and value > limit:
                raise ValidationError(f"--{option} {value} exceeds the limit {limit}")
        xmax = getattr(args, "xmax", None)
        if xmax is not None and not (math.isfinite(xmax) and xmax > 0.0):
            raise ValidationError(f"--xmax {xmax} must be finite and positive")
        if getattr(args, "seed", 0) < 0:
            raise ValidationError(f"--seed {args.seed} must be non-negative")
        return args.fn(args)
    except (ValidationError, DomainError, UnsupportedInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, GenerationError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: the input needs more memory than this process may use; "
              "shorten the domain (--xmax)", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
