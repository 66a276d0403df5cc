"""Command-line front end.

Every command is a thin adapter over the library: identical parameters give
identical results to direct calls.  A flag that mirrors a library parameter
has no default of its own: an omitted flag is not passed, so the library
default applies.  --tol is the stopping tolerance of the solver the command
runs: the Riemannian gradient sup norm for qcqp and certify, the relative
conjugate-gradient residual for ucqp, and the relative norm defect
|(||g||^2 - n)/n| of the secular bisection for trs.

Exit codes: 0 success, 1 usage error (a flag value out of range is one, and
is reported before any file is read), 2 data/format error, 3 numeric failure
(e.g. a sphere-relaxation hard case).  Give a negative value with "=", as in
--lambda=-inf: argparse reads "--lambda -inf" as a flag, not a value.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import baselines, certificate, fileio, harness, interpolate, knn, qcqp, unwrap
from .circle import circle_arg, circle_embed
from .graphs import grid_graph, path_graph
from .grid import GridField


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _csv(cast):
    """Parser of a comma-separated list whose items cast converts."""

    def parse(text: str):
        try:
            return tuple(cast(tok) for tok in text.split(",") if tok)
        except ValueError:
            raise UsageError(f"expected comma-separated {cast.__name__}s, got {text!r}") from None

    return parse


def _finite(low: float, strict: bool = False):
    """Parser of a finite float >= low, or > low when strict."""

    def parse(text: str) -> float:
        value = float(text)
        if not (low < value if strict else low <= value) or value == np.inf:
            bound = f"above {low:g}" if strict else f">= {low:g}"
            raise argparse.ArgumentTypeError(f"must be a finite number {bound}, got {value!r}")
        return value

    parse.__name__ = "float"  # argparse names the type in "invalid float value"
    return parse


def _at_least(low: int):
    """Parser of an int >= low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


def _graph_radius(spec: str):
    """--graph value: None for the path graph, the radius r of knn-grid:<r>."""
    if spec == "path":
        return None
    if spec.startswith("knn-grid:"):
        try:
            return int(spec.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad graph radius in {spec!r}") from None
    raise UsageError(f"unknown graph {spec!r} (use path or knn-grid:<r>)")


def _given(**params) -> dict:
    """The keyword arguments whose flags were set: an omitted flag is None and
    is left out, so the library default applies."""
    return {name: value for name, value in params.items() if value is not None}


_SOLVERS = {
    "qcqp": "torus denoiser on the circle-embedded field",
    "ucqp": "unconstrained relaxation on the circle-embedded field",
    "trs": "sphere relaxation on the circle-embedded field",
    "certify": "torus denoiser and its tightness verdict",
}


def _build_parser() -> _Parser:
    p = _Parser(prog="modrec", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate synthetic noisy mod-1 samples")
    g.add_argument("--func", choices=["example1", "example2"], required=True)
    g.add_argument("--d", type=int, default=1)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--sigma", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--truth-out")

    d = sub.add_parser("denoise", help="kNN circle denoising of a mod-1 field")
    _add_k_flags(d)
    d.add_argument("--in", dest="inp", required=True)
    d.add_argument("--out", required=True)

    u = sub.add_parser("unwrap", help="sequential unwrapping of a mod-1 field")
    u.add_argument("--in", dest="inp", required=True)
    u.add_argument("--out", required=True)

    r = sub.add_parser("recover", help="denoise then unwrap (the full pipeline)")
    _add_k_flags(r)
    r.add_argument("--in", dest="inp", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--ghat-out")

    i = sub.add_parser("interp", help="evaluate the multilinear interpolant of a real field")
    i.add_argument("--in", dest="inp", required=True)
    i.add_argument("--at", action="append", default=[], help="comma-separated point, repeatable")
    i.add_argument("--resample", type=_at_least(2), help="evaluate on a finer m-per-axis grid")
    i.add_argument("--out", help="output field for --resample")

    for name, help_text in _SOLVERS.items():
        c = sub.add_parser(name, help=help_text)
        c.add_argument("--in", dest="inp", required=True)
        c.add_argument("--graph", type=_graph_radius, default="path",
                       help="path or knn-grid:<r>")
        c.add_argument("--lambda", dest="lam", type=_finite(0.0), default=0.0)
        c.add_argument("--tol", type=_finite(0.0, strict=True),
                       help="solver stopping tolerance (see modrec --help)")
        c.add_argument("--out", help="JSON report" if name == "certify" else "denoised mod-1 field")

    mc = sub.add_parser("mc", help="Monte Carlo sweep over n and methods")
    mc.add_argument("--func", choices=["example1", "example2"])
    mc.add_argument("--d", type=int)
    mc.add_argument("--sigma", type=float)
    mc.add_argument("--n-sweep", type=_csv(int))
    mc.add_argument("--methods", type=_csv(str))
    mc.add_argument("--trials", type=int)
    mc.add_argument("--seed", type=int)
    mc.add_argument("--C", type=float)
    mc.add_argument("--kappa", type=float)
    mc.add_argument("--out", help="JSON report path")
    mc.add_argument("--csv", help="plot-ready CSV path")

    ra = sub.add_parser("rate", help="fit the error-rate slope against log(log n / n)")
    ra.add_argument("--ns", type=_csv(int))
    ra.add_argument("--errors", type=_csv(float))
    ra.add_argument("--report", help="mc JSON report to read instead of --ns/--errors")
    ra.add_argument("--method", default="knn")
    ra.add_argument("--metric", default="wrap_sup_denoised")

    de = sub.add_parser(
        "demo-elevation", help="terrain recovery demo from a plain-text elevation grid"
    )
    de.add_argument("--in", dest="inp", required=True)
    de.add_argument("--scale", type=_finite(0.0, strict=True))
    de.add_argument("--sigma", type=_finite(0.0))
    de.add_argument("--k", type=_at_least(1))
    de.add_argument("--seed", type=int)
    de.add_argument("--crop-square", action="store_true")
    de.add_argument("--out-dir", required=True)
    return p


def _add_k_flags(cmd):
    cmd.add_argument("--k", type=_at_least(1))
    cmd.add_argument(
        "--k-rule",
        choices=["explicit", "expected", "supnorm", "practical"],
        default="explicit",
    )
    cmd.add_argument("--C", type=_finite(0.0, strict=True))
    cmd.add_argument("--sigma", type=_finite(0.0), default=0.12)
    cmd.add_argument("--M", type=_finite(0.0, strict=True), default=1.0)


def _validate_k_flags(args) -> None:
    # Flag sets are validated before any file is touched.
    if args.k_rule == "explicit" and args.k is None:
        raise UsageError("--k is required with --k-rule explicit")


def _choose_k(args, field: GridField) -> int:
    n, d = field.grid.n, field.grid.d
    if args.k_rule == "explicit":
        return args.k
    if args.k_rule == "expected":
        return knn.choose_k_expected_risk(d, args.sigma, args.M, n)
    if args.k_rule == "supnorm":
        return knn.choose_k_sup_norm(d, args.sigma, args.M, n).k
    return knn.choose_k_practical(n, d=d, **_given(C=args.C))


def _emit(payload: dict):
    print(json.dumps(payload, sort_keys=True, indent=2))


def _run(args) -> int:
    if args.command == "gen":
        try:
            spec = harness.SyntheticSpec(
                function=args.func, d=args.d, m=args.m, sigma=args.sigma, seed=args.seed
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        data = harness.generate(spec)
        fileio.write_field(args.out, data.noisy_mod, seed=args.seed)
        if args.truth_out:
            fileio.write_field(args.truth_out, data.truth, seed=args.seed)
        return 0

    if args.command == "denoise":
        _validate_k_flags(args)
        field = fileio.read_field(args.inp)
        k = _choose_k(args, field)
        result = knn.denoise(field, k)
        fileio.write_field(args.out, result.ghat)
        _emit({"k": k, "zero_resultants": result.zero_resultants})
        return 0

    if args.command == "unwrap":
        field = fileio.read_field(args.inp)
        result = unwrap.unwrap_multid(field)
        fileio.write_field(args.out, result.field)
        _emit(
            {
                "itoh_margin": result.itoh_margin,
                "no_jump": result.branch_counts.no_jump,
                "plus_one": result.branch_counts.plus_one,
                "minus_one": result.branch_counts.minus_one,
            }
        )
        return 0

    if args.command == "recover":
        _validate_k_flags(args)
        field = fileio.read_field(args.inp)
        k = _choose_k(args, field)
        pipe = harness.run_pipeline(field, k)
        fileio.write_field(args.out, pipe.ftilde)
        if args.ghat_out:
            fileio.write_field(args.ghat_out, pipe.ghat)
        _emit({"k": k, "itoh_margin": pipe.unwrap.itoh_margin})
        return 0

    if args.command == "interp":
        field = fileio.read_field(args.inp)
        model = interpolate.fit(field)
        values = {}
        for spec in args.at:
            x = _csv(float)(spec)
            values[spec] = interpolate.evaluate(model, np.array(x))
        if args.resample:
            if not args.out:
                raise UsageError("--resample requires --out")
            from .grid import UniformGrid, mesh_points

            fine = UniformGrid(d=field.grid.d, m=args.resample)
            vals = interpolate.evaluate(model, mesh_points(fine))
            fileio.write_field(args.out, GridField(fine, vals, kind="real"))
        if values:
            _emit({"values": values})
        return 0

    if args.command in _SOLVERS:
        field = fileio.read_field(args.inp)
        grid = field.grid
        graph = path_graph(grid.n) if args.graph is None else grid_graph(grid.d, grid.m, args.graph)
        z = circle_embed(field.flat)
        if args.command == "ucqp":
            res = baselines.solve_ucqp(z, graph, args.lam, **_given(cg_tol=args.tol))
            signal, info = res.signal, {"residual_inf": res.residual_inf}
        elif args.command == "trs":
            res = baselines.solve_trs(z, graph, args.lam, **_given(bisect_tol=args.tol))
            signal, info = res.signal, {"mu": res.mu, "norm_sq": res.norm_sq}
        else:
            problem = qcqp.QcqpProblem(z=z, graph=graph, lam=args.lam)
            report = qcqp.solve_qcqp(problem, **_given(tol=args.tol))
            signal = report.ghat
            info = {
                "objective": report.objective,
                "grad_inf_norm": report.grad_inf_norm,
                "iterations": report.iterations,
                "converged": report.converged,
            }
        if args.command == "certify":
            cert = certificate.tightness_verdict(problem, signal)
            info.update(
                {
                    "tight": cert.tight,
                    "indeterminate": cert.indeterminate,
                    "schur_min_eig": cert.schur_min_eig,
                    "threshold": cert.threshold,
                }
            )
            if args.out:
                fileio.write_report(args.out, info)
        elif args.out:
            ghat = GridField.from_flat(grid, np.asarray(circle_arg(signal)), kind="mod1")
            fileio.write_field(args.out, ghat)
        _emit(info)
        return 0

    if args.command == "mc":
        try:
            config = harness.McConfig(
                **_given(
                    function=args.func,
                    d=args.d,
                    sigma=args.sigma,
                    n_sweep=args.n_sweep,
                    methods=args.methods,
                    trials=args.trials,
                    base_seed=args.seed,
                    C=args.C,
                    kappa=args.kappa,
                )
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        summary = harness.monte_carlo(config)
        if args.out:
            fileio.write_report(args.out, summary.to_report())
        if args.csv:
            with open(args.csv, "w", encoding="ascii") as fh:
                fh.write(summary.to_csv())
        _emit(summary.to_report())
        return 0

    if args.command == "rate":
        if args.report:
            doc = fileio.read_report(args.report)
            pairs = [
                (cell["n"], cell["means"][args.metric])
                for cell in doc["cells"]
                if cell["method"] == args.method
            ]
            if len(pairs) < 3:
                raise UsageError("report has fewer than 3 cells for that method")
            ns, errors = zip(*sorted(pairs))
        else:
            if not args.ns or not args.errors:
                raise UsageError("provide --ns and --errors, or --report")
            ns, errors = args.ns, args.errors
        fitted = harness.rate_fit(ns, errors)
        _emit({"slope": fitted.slope, "slope_vs_log_n": fitted.slope_vs_log_n})
        return 0

    if args.command == "demo-elevation":
        import os

        mat = fileio.read_elevation(args.inp, crop_square=args.crop_square)
        demo = harness.elevation_demo(
            mat, **_given(scale=args.scale, sigma=args.sigma, k=args.k, seed=args.seed)
        )
        os.makedirs(args.out_dir, exist_ok=True)
        for name, fld in (
            ("truth", demo.truth),
            ("noisy_mod", demo.noisy_mod),
            ("denoised_mod", demo.ghat),
            ("unwrapped", demo.ftilde),
            ("unwrapped_raw", demo.ftilde_raw),
        ):
            fileio.write_field(os.path.join(args.out_dir, f"{name}.gf"), fld, seed=demo.seed)
        info = {
            "m": demo.truth.grid.m,
            "scale": demo.scale,
            "sigma": demo.sigma,
            "k": demo.k,
            "lipschitz_estimate": demo.lipschitz_estimate,
            "itoh_satisfied": demo.itoh.satisfied,
            "itoh_margin": demo.itoh.margin,
            "denoised": {
                "wrap_mse": demo.metrics_denoised.wrap_mse_denoised,
                "aligned_mse": demo.metrics_denoised.aligned_mse,
            },
            "raw": {
                "wrap_mse": demo.metrics_raw.wrap_mse_denoised,
                "aligned_mse": demo.metrics_raw.aligned_mse,
            },
        }
        fileio.write_report(os.path.join(args.out_dir, "report.json"), info)
        _emit(info)
        return 0

    raise UsageError(f"unhandled command {args.command!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:  # HardCaseError and NumericError among them
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # FormatError among them
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
