"""Command-line entry point.

Subcommands: trace, capture-scan, real-eq, imag-eq, welding, weierstrass,
verify, figure.  JSON in (driving configs, strict keys), CSV out (one file
per experiment plus a metadata sidecar).  Exit codes: 0 success, 1
assertion/numerical failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .acceptance import run_all, run_one
from .driving import DrivingSpec, spec_from_json, spec_to_config
from .errors import ConfigError, DomainError, LoewnerError, NumericalError
from .hull import trace as hull_trace
from .hull import welding as hull_welding
from .imaginary import (
    classify_sqrt_gap,
    growth_floor,
    solve_frame_difference,
    solve_frame_imaginary,
    solve_imaginary,
    write_transition_csv,
)
from .real_line import (
    FrameDriving,
    FrameMap,
    capture_scan,
    driving_from_profile,
    no_capture_certificate,
    profile_from_density,
    sharp_oscillation,
    solve_frame_equation,
)
from .weierstrass import (
    WeierstrassParams,
    norm_bound_check,
    offset_ratio_check,
    quasislit_pipeline,
    write_sweep_csv,
)

log = logging.getLogger("loewner")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


def _load_driving(arg: str) -> DrivingSpec:
    return spec_from_json(Path(arg).read_text() if os.path.exists(arg) else arg)


def _outdir(args) -> Path:
    out = Path(args.out if getattr(args, "out", None) else ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_meta(path: Path, command: str, spec=None, **extra):
    meta = {
        "command": command,
        "versions": {"loewner": __version__, "numpy": np.__version__},
        **extra,
    }
    if spec is not None:
        blob = json.dumps(spec_to_config(spec), sort_keys=True).encode()
        meta["spec_hash"] = hashlib.sha256(blob).hexdigest()[:16]
    path.write_text(json.dumps(meta, indent=2, sort_keys=True))


def _csv_rows(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for r in rows:
            w.writerow(r)


def _positive(value, default: float, flag: str) -> float:
    """The flag's value, or ``default`` when it is absent; exit 2 unless positive and finite."""
    v = default if value is None else value
    if not 0.0 < v < np.inf:
        raise ConfigError(f"{flag} must be a positive finite number, got {v!r}")
    return v


@contextmanager
def _flag_domain():
    """Classify a run whose inputs all come from flags.

    A DomainError is a usage error (exit 2).  A floating-point overflow,
    invalid operation or division by zero raises, as a NumericalError
    (exit 1), instead of carrying an inf or NaN into the printed result.
    """
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    except FloatingPointError as exc:
        raise NumericalError(f"floating-point failure: {exc}") from exc


def _parse_density(arg: str):
    try:
        d = json.loads(arg)
        A = np.asarray(d["A"], dtype=float)
        beta = np.asarray(d["beta"], dtype=float)
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ConfigError(f'density must be JSON {{"A": [...], "beta": [...]}}: {exc}')
    if A.shape != beta.shape or A.ndim != 1:
        raise ConfigError("density A and beta must be matching 1-d lists")

    def phi(s):
        s = np.asarray(s, dtype=float)
        return np.exp(-np.multiply.outer(s, beta)) @ A

    return phi


# -- subcommand handlers ------------------------------------------------------


def _cmd_trace(args) -> int:
    spec = _load_driving(args.driving)
    T = args.T if args.T is not None else spec.T
    try:
        curve = hull_trace(spec, T, args.dt)
    except DomainError as exc:  # T and dt come from flags
        raise ConfigError(str(exc)) from exc
    out = _outdir(args)
    curve.write_csv(out / "trace.csv")
    _write_meta(out / "trace.meta.json", "trace", spec, dt=curve.cell_step,
                n_points=int(curve.times.size), nudges=curve.nudges, tolerances={})
    print(f"trace: {curve.points.size} points -> {out / 'trace.csv'}")
    return 0


def _cmd_capture_scan(args) -> int:
    spec = _load_driving(args.driving)
    T = args.T if args.T is not None else spec.T
    tol = args.tol if args.tol is not None else 1e-4
    try:
        scan = capture_scan(spec, T, refine_tol=tol)
    except DomainError as exc:  # T and tol come from flags
        raise ConfigError(str(exc)) from exc
    out = _outdir(args)
    scan.write_csv(out / "capture_scan.csv")
    _write_meta(out / "capture_scan.meta.json", "capture-scan", spec,
                T=T, interval=scan.interval, mirrored=scan.mirrored_interval,
                tolerances={"refine_tol": tol})
    print(f"capture interval: {scan.interval}  mirrored: {scan.mirrored_interval}")
    if scan.notes:
        print(f"note: {scan.notes}")
    return 0


def _cmd_real_eq(args) -> int:
    out = _outdir(args)
    if args.action == "hrle":
        spec = _load_driving(args.driving)
        T = args.T if args.T is not None else spec.T
        horizon = _positive(args.horizon, 25.0, "--horizon")
        if args.x0 is None:
            raise ConfigError("hrle needs --x0")
        try:
            xi = FrameDriving(spec, FrameMap(T=T, lambda_T=float(spec(T))))
            run = solve_frame_equation(xi, args.x0, horizon)
        except DomainError as exc:  # T and x0 come from flags
            raise ConfigError(str(exc)) from exc
        _csv_rows(out / "hrle.csv", ["s", "x"],
                  [[repr(float(s)), repr(float(v))] for s, v in
                   zip(run.path.times, np.atleast_1d(run.path.values))])
        _write_meta(out / "hrle.meta.json", "real-eq hrle", spec,
                    classification=run.classification, exit_s=run.exit_s)
        print(f"classification: {run.classification}")
        return 0
    if args.action == "g-test":
        spec = _load_driving(args.driving)
        T = args.T if args.T is not None else spec.T
        xi = FrameDriving(spec, FrameMap(T=T, lambda_T=float(spec(T))))
        cert = no_capture_certificate(xi, args.t1, args.t2)
        print(f"holds: {cert.holds}  integral: {cert.integral!r}  threshold: {cert.threshold!r}")
        return 0
    if args.action == "operator-t":
        phi = _parse_density(args.density)
        ss = np.asarray([float(x) for x in args.s.split(",")])
        vals, err = profile_from_density(phi, ss)
        for s, v in zip(ss, vals):
            print(f"Phi({float(s)!r}) = {float(v)!r}")
        print(f"quadrature error estimate: {float(err)!r}")
        return 0
    if args.action == "operator-f":
        phi = _parse_density(args.density)
        grid = np.linspace(0.0, _positive(args.horizon, 10.0, "--horizon"), 501)
        Phi, _ = profile_from_density(phi, grid)
        xi = driving_from_profile(Phi, grid)
        _csv_rows(out / "operator_f.csv", ["s", "Phi", "xi"],
                  [[repr(float(a)), repr(float(b)), repr(float(c))]
                   for a, b, c in zip(grid, Phi, xi)])
        print(f"xi(0) = {float(xi[0])!r} -> {out / 'operator_f.csv'}")
        return 0
    if args.action == "sharp-example":
        osc, rep, ss, xs, xis = sharp_oscillation(args.a, k_max=args.k_max)
        _csv_rows(out / "sharp_example.csv", ["s", "x", "xi"],
                  [[repr(float(a)), repr(float(b)), repr(float(c))]
                   for a, b, c in zip(ss, xs, xis)])
        print(f"running_min: {rep['running_min']!r}  running_max: {rep['running_max']!r}")
        return 0
    raise ConfigError(f"unknown real-eq action {args.action!r}")


def _theta_from_args(args):
    """The gap theta, its horizon T and its closed-form frame gap eta."""
    T = _positive(args.T, 1.0, "--T")
    if args.C is not None:
        C = args.C
        if not C >= 0.0:
            raise ConfigError(f"--C must be a nonnegative gap constant, got {C!r}")
        return (
            lambda t: C * np.sqrt(np.maximum(T - np.asarray(t, dtype=float), 0.0)),
            T,
            lambda s: C + 0.0 * np.asarray(s, dtype=float),
        )
    if args.const is not None:
        v = args.const
        return (
            lambda t: v + 0.0 * np.asarray(t, dtype=float),
            T,
            lambda s: v * np.exp(s) / np.sqrt(T),
        )
    raise ConfigError("provide --C (square-root gap) or --const (constant gap)")


def _cmd_imag_eq(args) -> int:
    out = _outdir(args)
    if args.action == "transition":
        Cs = [args.C] if args.sweep is None else [float(x) for x in args.sweep.split(",")]
        if Cs == [None]:
            raise ConfigError("transition needs --C or --sweep")
        T = args.T if args.T is not None else 1.0
        results = [classify_sqrt_gap(C, T) for C in Cs]
        for r in results:
            print(f"C={r.C!r}: {r.status}" + (f"  witness_y0={r.witness_y0!r}" if r.witness_y0 else ""))
        if args.out:
            write_transition_csv(out / "transition.csv", results)
            _write_meta(out / "transition.meta.json", "imag-eq transition", T=T)
        return 0
    if args.action == "ile":
        theta, T, eta = _theta_from_args(args)
        path, cls = solve_imaginary(theta, args.y0, T, frame_eta=eta)
        print(f"status: {cls.status}  certificate: {cls.certificate}  witness: {cls.witness_time}")
        return 0
    if args.action in ("con1", "con2"):
        if args.const is None:
            raise ConfigError(f"{args.action} needs --const for the gap driving")
        v = args.const
        eta = lambda s: v + 0.0 * np.asarray(s, dtype=float)
        horizon = _positive(args.horizon, 40.0, "--horizon")
        solver = solve_frame_imaginary if args.action == "con1" else solve_frame_difference
        with _flag_domain():
            path, cls = solver(eta, args.y0, horizon)
        _csv_rows(out / f"{args.action}.csv", ["s", "y"],
                  [[repr(float(s)), repr(float(u))] for s, u in
                   zip(path.times, np.atleast_1d(path.values))])
        print(f"status: {cls.status}  certificate: {cls.certificate}")
        return 0
    if args.action == "lower-bound":
        if args.const is None:
            raise ConfigError("lower-bound needs --const")
        v = args.const
        eta = lambda s: v + 0.0 * np.asarray(s, dtype=float)
        g = growth_floor(eta, args.t)
        print(f"L({args.t!r}) = {g.value!r}  (error {g.error!r}, diverged {g.diverged})")
        return 0
    raise ConfigError(f"unknown imag-eq action {args.action!r}")


def _cmd_welding(args) -> int:
    spec = _load_driving(args.driving)
    T = _positive(args.T, spec.T, "--T")
    if args.n < 3:
        raise ConfigError(f"--n must be at least 3, got {args.n}")
    s_grid = np.linspace(0.05 * T, 0.9 * T, args.n)
    try:
        table = hull_welding(spec, T, s_grid, dt=args.dt)
    except DomainError as exc:  # the grid, T and dt all come from flags
        raise ConfigError(str(exc)) from exc
    out = _outdir(args)
    table.write_csv(out / "welding.csv")
    _write_meta(out / "welding.meta.json", "welding", spec, dt=args.dt,
                lambda_T=table.lambda_T, ratio1_range=list(table.ratio1_range),
                ratio2_range=list(table.ratio2_range), tolerances={})
    print(f"ratio1 range: {table.ratio1_range}  ratio2 range: {table.ratio2_range}")
    return 0


def _cmd_weierstrass(args) -> int:
    out = _outdir(args)
    T = _positive(args.T, 1.0, "--T")
    if args.action == "check":
        default_N = [1, 2, 4, 8, 16, 32] if args.paper_scale else [1, 2, 4, 8]
        default_b = [9.0, 16.0, 25.0, 36.0, 64.0, 100.0] if args.paper_scale else [9.0, 16.0, 25.0, 100.0]
        bs = [args.b] if args.b is not None else default_b
        Ns = [args.N] if args.N is not None else default_N
        # both bounds scale with c, and the offset bound is strict: c = 0 would fail it
        c = _positive(args.c, 1.0, "--c")
        rows = []
        for b in bs:
            for N in Ns:
                with _flag_domain():
                    p = WeierstrassParams(b=b, N=N, c=c)
                    rn = norm_bound_check(p)
                    ro = offset_ratio_check(p, T, range(2, 9))
                rows += [
                    {"b": b, "N": N, "c": c, "check": "norm",
                     "margin": rn.bound - rn.estimate, "verdict": "pass" if rn.ok else "fail"},
                    {"b": b, "N": N, "c": c, "check": "offset",
                     "margin": ro.bound - ro.max_ratio, "verdict": "pass" if ro.ok else "fail"},
                ]
        write_sweep_csv(out / "weierstrass_checks.csv", rows)
        bad = [r for r in rows if r["verdict"] != "pass"]
        print(f"{len(rows)} checks, {len(bad)} failures -> {out / 'weierstrass_checks.csv'}")
        return 0 if not bad else 1
    if args.action == "pipeline":
        if args.b is None:
            raise ConfigError("pipeline needs --b")
        dt = _positive(args.dt, 1e-3, "--dt")
        with _flag_domain():
            p = WeierstrassParams(b=args.b, N=4 if args.N is None else args.N,
                                  c=0.05 if args.c is None else args.c)
            v = quasislit_pipeline(p, T, dt=dt, compute_ratio_bound=True)
        print(
            f"margins: small {v.margin_small!r}, oscillation {v.margin_oscillation!r}; "
            f"simple: {v.simple}; ratio1 range: "
            f"{None if v.welding_table is None else v.welding_table.ratio1_range}; "
            f"M0: {v.ratio_bound!r}; ratio1 in [1/M0, M0]: {v.ratio1_contained}"
        )
        if args.out and v.welding_table is not None:
            v.welding_table.write_csv(out / "pipeline_welding.csv")
        return 0 if v.simple else 1
    raise ConfigError(f"unknown weierstrass action {args.action!r}")


def _cmd_verify(args) -> int:
    if args.only is not None:
        res = run_one(args.only)
        mark = "PASS" if res.passed else "FAIL"
        print(f"[{mark}] {res.number:2d} {res.name}: {res.detail} ({res.seconds:.1f}s)")
        return 0 if res.passed else 1
    results = run_all(echo=print)
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} acceptance criteria passed")
    return 0 if n_fail == 0 else 1


def _cmd_figure(args) -> int:
    osc, rep, ss, xs, xis = sharp_oscillation(args.a, k_max=args.k_max)
    a = args.a
    out = _outdir(args)
    _csv_rows(
        out / "sharp_figure.csv",
        ["s", "x", "xi", "ref_zero", "ref_a", "ref_band_top"],
        [[repr(float(s)), repr(float(x)), repr(float(q)), repr(0.0), repr(a), repr(a + 4.0 / a)]
         for s, x, q in zip(ss, xs, xis)],
    )
    _write_meta(out / "sharp_figure.meta.json", "figure", a=a, k_max=args.k_max,
                running_min=rep["running_min"], running_max=rep["running_max"])
    print(f"figure data -> {out / 'sharp_figure.csv'} (reference lines 0, {a}, {a + 4.0 / a})")
    return 0


# -- parser -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="loewner", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, driving=False):
        if driving:
            p.add_argument("--driving", required=True, help="driving config JSON or path")
        p.add_argument("--T", type=float, default=None)
        p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("trace", help="reconstruct the trace curve")
    common(p, driving=True)
    p.add_argument("--dt", type=float, required=True)
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("capture-scan", help="scan for points captured exactly at T")
    common(p, driving=True)
    p.add_argument("--tol", type=float, default=None, help="endpoint refinement tolerance")
    p.set_defaults(fn=_cmd_capture_scan)

    p = sub.add_parser("real-eq", help="real-equation operations")
    p.add_argument("action", choices=["hrle", "operator-t", "operator-f", "g-test", "sharp-example"])
    common(p)
    p.add_argument("--driving", required=False)
    p.add_argument("--x0", type=float, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--t1", type=float, default=0.0)
    p.add_argument("--t2", type=float, default=1.0)
    p.add_argument("--density", type=str, default=None)
    p.add_argument("--s", type=str, default="0.0")
    p.add_argument("--a", type=float, default=1.5)
    p.add_argument("--k-max", type=int, default=40)
    p.set_defaults(fn=_cmd_real_eq)

    p = sub.add_parser("imag-eq", help="imaginary-equation operations")
    p.add_argument("action", choices=["ile", "con1", "con2", "transition", "lower-bound"])
    common(p)
    p.add_argument("--C", type=float, default=None)
    p.add_argument("--const", type=float, default=None)
    p.add_argument("--sweep", type=str, default=None)
    p.add_argument("--y0", type=float, default=1.0)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--t", type=float, default=1.0)
    p.set_defaults(fn=_cmd_imag_eq)

    p = sub.add_parser("welding", help="conformal welding of a simple trace")
    common(p, driving=True)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--n", type=int, default=16)
    p.set_defaults(fn=_cmd_welding)

    p = sub.add_parser("weierstrass", help="Weierstrass bounds and pipeline")
    p.add_argument("action", choices=["check", "pipeline"])
    common(p)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--paper-scale", action="store_true",
                   help="full sweep sizes (default is desk scale)")
    p.set_defaults(fn=_cmd_weierstrass)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--only", type=int, default=None, help="run one criterion by number")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("figure", help="oscillating-example data with reference lines")
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--a", type=float, default=1.5)
    p.add_argument("--k-max", type=int, default=40)
    p.set_defaults(fn=_cmd_figure)
    return ap


def main(argv=None) -> int:
    level = os.environ.get("LOEWNER_LOG", "warn").lower()
    if level not in _LOG_LEVELS:
        print(f"LOEWNER_LOG must be one of {sorted(_LOG_LEVELS)}", file=sys.stderr)
        return 2
    logging.basicConfig(level=_LOG_LEVELS[level], format="%(name)s %(levelname)s %(message)s")

    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return int(args.fn(args))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except LoewnerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
