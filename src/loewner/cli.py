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
from .errors import ConfigError, DomainError, LoewnerError, NumericalError, PreconditionError
from .hull import trace as hull_trace
from .hull import welding as hull_welding
from .imaginary import (
    classify_sqrt_gap,
    growth_floor,
    solve_frame_difference,
    solve_frame_imaginary,
    solve_imaginary,
)
from .real_line import (
    FrameDriving,
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
    """Write one CSV: a float cell as repr(float(v)), None as the empty string,
    and any other cell (an integer, a label) as csv writes it."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for r in rows:
            w.writerow([repr(float(v)) if isinstance(v, float) else v for v in r])


def _write_welding(path: Path, table):
    _csv_rows(path, ["s", "left", "right", "ratio1"],
              zip(table.s_grid, table.left, table.right, table.ratio1))


def _positive(value, default: float, flag: str) -> float:
    """The flag's value, or ``default`` when it is absent; exit 2 unless positive and finite."""
    v = default if value is None else value
    if not 0.0 < v < np.inf:
        raise ConfigError(f"{flag} must be a positive finite number, got {v!r}")
    return v


def _floats(text: str) -> list[float]:
    """A comma-separated list of numbers (argparse exits 2 on a bad entry)."""
    return [float(x) for x in text.split(",")]


@contextmanager
def _from_flags():
    """A DomainError raised on inputs that all come from flags is a usage error (exit 2)."""
    try:
        yield
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


@contextmanager
def _flag_domain():
    """Classify a run whose inputs all come from flags.

    A DomainError is a usage error (exit 2).  A floating-point overflow,
    invalid operation or division by zero raises, as a NumericalError
    (exit 1), instead of carrying an inf or NaN into the printed result.
    """
    try:
        with _from_flags(), np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
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


def _constant(v: float):
    """The constant gap eta(s) = v."""
    return lambda s: v + 0.0 * np.asarray(s, dtype=float)


# -- subcommand handlers ------------------------------------------------------


def _cmd_trace(args) -> int:
    spec = _load_driving(args.driving)
    T = args.T if args.T is not None else spec.T
    with _from_flags():  # T and dt come from flags
        curve = hull_trace(spec, T, args.dt)
    out = _outdir(args)
    _csv_rows(out / "trace.csv", ["t", "re", "im", "cell_step"],
              [(t, p.real, p.imag, curve.cell_step) for t, p in zip(curve.times, curve.points)])
    _write_meta(out / "trace.meta.json", "trace", spec, dt=curve.cell_step,
                n_points=int(curve.times.size), nudges=curve.nudges, tolerances={})
    print(f"trace: {curve.points.size} points -> {out / 'trace.csv'}")
    return 0


def _cmd_capture_scan(args) -> int:
    spec = _load_driving(args.driving)
    T = args.T if args.T is not None else spec.T
    tol = args.tol if args.tol is not None else 1e-4
    with _from_flags():  # T and tol come from flags
        scan = capture_scan(spec, T, refine_tol=tol)
    out = _outdir(args)
    _csv_rows(out / "capture_scan.csv", ["x0", "status", "capture_time", "certificate"],
              [(r.initial, r.status, r.capture_time, r.certificate)
               for r in sorted(scan.reports, key=lambda r: r.initial)])
    _write_meta(out / "capture_scan.meta.json", "capture-scan", spec,
                T=T, interval=scan.interval, mirrored=scan.mirrored_interval,
                nsteps=scan.nsteps, nprobes=scan.nprobes, nfev=scan.nfev, tolerances={"refine_tol": tol})
    print(f"capture interval: {scan.interval}  mirrored: {scan.mirrored_interval}")
    if scan.notes:
        print(f"note: {scan.notes}")
    return 0


def _frame_driving(args) -> tuple[DrivingSpec, FrameDriving]:
    """The driving of --driving and its frame driving at --T (default: its horizon)."""
    spec = _load_driving(args.driving)
    with _from_flags():
        return spec, FrameDriving(spec, args.T)


def _cmd_hrle(args) -> int:
    spec, xi = _frame_driving(args)
    horizon = _positive(args.horizon, 25.0, "--horizon")
    with _from_flags():  # x0 comes from a flag
        run = solve_frame_equation(xi, args.x0, horizon)
    out = _outdir(args)
    _csv_rows(out / "hrle.csv", ["s", "x"], zip(run.path.times, np.atleast_1d(run.path.values)))
    _write_meta(out / "hrle.meta.json", "real-eq hrle", spec, classification=run.classification,
                exit_s=run.exit_s, nsteps=run.path.nsteps, nfev=run.path.nfev)
    print(f"classification: {run.classification}")
    return 0


def _cmd_g_test(args) -> int:
    _, xi = _frame_driving(args)
    with _from_flags():  # t1 and t2 come from flags
        cert = no_capture_certificate(xi, args.t1, args.t2)
    print(f"holds: {cert.holds}  integral: {cert.integral!r}  threshold: {cert.threshold!r}")
    return 0


def _cmd_operator_t(args) -> int:
    phi = _parse_density(args.density)
    ss = np.asarray(args.s)
    with _from_flags():  # the times come from a flag
        vals, err = profile_from_density(phi, ss)
    for s, v in zip(ss, vals):
        print(f"Phi({float(s)!r}) = {float(v)!r}")
    print(f"quadrature error estimate: {float(err)!r}")
    return 0


def _cmd_operator_f(args) -> int:
    phi = _parse_density(args.density)
    grid = np.linspace(0.0, _positive(args.horizon, 10.0, "--horizon"), 501)
    with _from_flags():  # the horizon comes from a flag
        Phi, _ = profile_from_density(phi, grid)
    xi = driving_from_profile(Phi, grid)
    out = _outdir(args)
    _csv_rows(out / "operator_f.csv", ["s", "Phi", "xi"], zip(grid, Phi, xi))
    print(f"xi(0) = {float(xi[0])!r} -> {out / 'operator_f.csv'}")
    return 0


def _cmd_sharp_example(args) -> int:
    with _from_flags():  # a and k_max come from flags
        osc, rep, ss, xs, xis = sharp_oscillation(args.a, k_max=args.k_max)
    out = _outdir(args)
    _csv_rows(out / "sharp_example.csv", ["s", "x", "xi"], zip(ss, xs, xis))
    print(f"running_min: {rep['running_min']!r}  running_max: {rep['running_max']!r}")
    return 0


def _cmd_transition(args) -> int:
    Cs = [args.C] if args.sweep is None else args.sweep
    T = _positive(args.T, 1.0, "--T")
    with _flag_domain():
        results = [classify_sqrt_gap(C, T) for C in Cs]
    for r in results:
        print(f"C={r.C!r}: {r.status}" + (f"  witness_y0={r.witness_y0!r}" if r.witness_y0 else ""))
    if args.out:
        out = _outdir(args)
        _csv_rows(out / "transition.csv", ["C", "T", "status", "witness_y0"],
                  [(r.C, r.T, r.status, r.witness_y0) for r in results])
        _write_meta(out / "transition.meta.json", "imag-eq transition", T=T)
    return 0


def _cmd_ile(args) -> int:
    """The gap theta is C sqrt(T - t) (--C) or a constant (--const)."""
    T = _positive(args.T, 1.0, "--T")
    if args.C is not None:
        C = args.C
        if not C >= 0.0:
            raise ConfigError(f"--C must be a nonnegative gap constant, got {C!r}")
        theta = lambda t: C * np.sqrt(np.maximum(T - np.asarray(t, dtype=float), 0.0))
        eta = _constant(C)
    else:
        v = args.const
        theta = _constant(v)
        eta = lambda s: v * np.exp(s) / np.sqrt(T)
    with _flag_domain():
        path, cls = solve_imaginary(theta, args.y0, T, frame_eta=eta)
    print(f"status: {cls.status}  certificate: {cls.certificate}  witness: {cls.witness_time}")
    return 0


def _cmd_con(args) -> int:
    horizon = _positive(args.horizon, 40.0, "--horizon")
    solver = solve_frame_imaginary if args.action == "con1" else solve_frame_difference
    with _flag_domain():
        path, cls = solver(_constant(args.const), args.y0, horizon)
    out = _outdir(args)
    _csv_rows(out / f"{args.action}.csv", ["s", "y"], zip(path.times, np.atleast_1d(path.values)))
    _write_meta(out / f"{args.action}.meta.json", f"imag-eq {args.action}", status=cls.status,
                certificate=cls.certificate, witness_time=cls.witness_time,
                nsteps=path.nsteps, nfev=path.nfev)
    print(f"status: {cls.status}  certificate: {cls.certificate}")
    return 0


def _cmd_lower_bound(args) -> int:
    with _flag_domain():
        g = growth_floor(_constant(args.const), args.t)
    print(f"L({args.t!r}) = {g.value!r}  (error {g.error!r}, diverged {g.diverged})")
    return 0


def _cmd_welding(args) -> int:
    spec = _load_driving(args.driving)
    T = _positive(args.T, spec.T, "--T")
    if args.n < 3:
        raise ConfigError(f"--n must be at least 3, got {args.n}")
    s_grid = np.linspace(0.05 * T, 0.9 * T, args.n)
    with _from_flags():  # the grid, T and dt all come from flags
        table = hull_welding(spec, T, s_grid, dt=args.dt)
    out = _outdir(args)
    _write_welding(out / "welding.csv", table)
    _write_meta(out / "welding.meta.json", "welding", spec, dt=args.dt,
                lambda_T=table.lambda_T, ratio1_range=list(table.ratio1_range),
                ratio2_range=list(table.ratio2_range), tolerances={})
    print(f"ratio1 range: {table.ratio1_range}  ratio2 range: {table.ratio2_range}")
    return 0


def _offset_check(p: WeierstrassParams, T: float):
    """offset_ratio_check on the offsets of range(2, 9); one above T is a usage error."""
    try:
        return offset_ratio_check(p, T, range(2, 9))
    except PreconditionError as exc:  # b and T come from flags
        raise ConfigError(str(exc)) from exc


def _cmd_weierstrass_check(args) -> int:
    T = _positive(args.T, 1.0, "--T")
    default_N = [1, 2, 4, 8, 16, 32] if args.paper_scale else [1, 2, 4, 8]
    default_b = [9.0, 16.0, 25.0, 36.0, 64.0, 100.0] if args.paper_scale else [9.0, 16.0, 25.0, 100.0]
    bs = [args.b] if args.b is not None else default_b
    Ns = [args.N] if args.N is not None else default_N
    rows = []
    for b in bs:
        for N in Ns:
            with _flag_domain():
                p = WeierstrassParams(b=b, N=N, c=args.c)
                rn = norm_bound_check(p)
                ro = _offset_check(p, T)
            for check, margin, ok in (("norm", rn.bound - rn.estimate, rn.ok),
                                      ("offset", ro.bound - ro.max_ratio, ro.ok)):
                rows.append([b, N, args.c, check, margin, "pass" if ok else "fail"])
    out = _outdir(args)
    _csv_rows(out / "weierstrass_checks.csv", ["b", "N", "c", "check", "margin", "verdict"], rows)
    bad = [r for r in rows if r[-1] != "pass"]
    print(f"{len(rows)} checks, {len(bad)} failures -> {out / 'weierstrass_checks.csv'}")
    for b, N, _, check, _, _ in bad:
        print(f"failed: {check} check at b={b!r}, N={N}", file=sys.stderr)
    return 0 if not bad else 1


def _cmd_weierstrass_pipeline(args) -> int:
    T = _positive(args.T, 1.0, "--T")
    dt = _positive(args.dt, 1e-3, "--dt")
    with _flag_domain():
        p = WeierstrassParams(b=args.b, N=args.N, c=args.c)
        _offset_check(p, T)
        v = quasislit_pipeline(p, T, dt=dt, compute_ratio_bound=True)
    print(
        f"margins: small {v.margin_small!r}, oscillation {v.margin_oscillation!r}; "
        f"simple: {v.simple}; ratio1 range: "
        f"{None if v.welding_table is None else v.welding_table.ratio1_range}; "
        f"M0: {v.ratio_bound!r}; ratio1 in [1/M0, M0]: {v.ratio1_contained}"
    )
    if args.out and v.welding_table is not None:
        _write_welding(_outdir(args) / "pipeline_welding.csv", v.welding_table)
    return 0 if v.simple else 1


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
    with _from_flags():  # a and k_max come from flags
        osc, rep, ss, xs, xis = sharp_oscillation(args.a, k_max=args.k_max)
    a = args.a
    out = _outdir(args)
    _csv_rows(
        out / "sharp_figure.csv",
        ["s", "x", "xi", "ref_zero", "ref_a", "ref_band_top"],
        [(s, x, q, 0.0, a, a + 4.0 / a) for s, x, q in zip(ss, xs, xis)],
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

    def command(parent, name, fn, *flags, help=None):
        """A command or action that accepts exactly ``flags``, each a (name, keywords) pair."""
        p = parent.add_parser(name, help=help)
        for flag, kw in flags:
            p.add_argument(flag, **kw)
        p.set_defaults(fn=fn)
        return p

    def actions(name, help):
        return sub.add_parser(name, help=help).add_subparsers(dest="action", required=True)

    def number(flag, **kw):
        return flag, dict(type=float, **kw)

    driving = ("--driving", dict(required=True, help="driving config JSON or path"))
    T, out, horizon = number("--T"), ("--out", {}), number("--horizon")
    density = ("--density", dict(required=True, help='JSON {"A": [...], "beta": [...]}'))
    sharp = (number("--a", default=1.5), ("--k-max", dict(type=int, default=40)))
    const, y0 = number("--const", required=True), number("--y0", default=1.0)

    command(sub, "trace", _cmd_trace, driving, T, out, number("--dt", required=True),
            help="reconstruct the trace curve")
    command(sub, "capture-scan", _cmd_capture_scan, driving, T, out,
            number("--tol", help="endpoint refinement tolerance"),
            help="scan for points captured exactly at T")

    acts = actions("real-eq", "real-equation operations")
    command(acts, "hrle", _cmd_hrle, driving, T, out, horizon, number("--x0", required=True))
    command(acts, "g-test", _cmd_g_test, driving, T,
            number("--t1", default=0.0), number("--t2", default=1.0))
    command(acts, "operator-t", _cmd_operator_t, density,
            ("--s", dict(type=_floats, default="0.0", help="comma-separated times")))
    command(acts, "operator-f", _cmd_operator_f, density, out, horizon)
    command(acts, "sharp-example", _cmd_sharp_example, *sharp, out)

    acts = actions("imag-eq", "imaginary-equation operations")
    gap = command(acts, "ile", _cmd_ile, T, y0).add_mutually_exclusive_group(required=True)
    gap.add_argument("--C", type=float, help="square-root gap C sqrt(T - t)")
    gap.add_argument("--const", type=float, help="constant gap")
    for name in ("con1", "con2"):
        command(acts, name, _cmd_con, const, y0, out, horizon)
    gap = command(acts, "transition", _cmd_transition, T, out).add_mutually_exclusive_group(
        required=True)
    gap.add_argument("--C", type=float)
    gap.add_argument("--sweep", type=_floats, help="comma-separated values of C")
    command(acts, "lower-bound", _cmd_lower_bound, const, number("--t", default=1.0))

    command(sub, "welding", _cmd_welding, driving, T, out, number("--dt", default=1e-3),
            ("--n", dict(type=int, default=16)), help="conformal welding of a simple trace")

    acts = actions("weierstrass", "Weierstrass bounds and pipeline")
    command(acts, "check", _cmd_weierstrass_check, T, out, number("--b"),
            ("--N", dict(type=int)), number("--c", default=1.0),
            ("--paper-scale", dict(action="store_true",
                                   help="full sweep sizes (default is desk scale)")))
    command(acts, "pipeline", _cmd_weierstrass_pipeline, T, out, number("--b", required=True),
            ("--N", dict(type=int, default=4)), number("--c", default=0.05), number("--dt"))

    command(sub, "verify", _cmd_verify,
            ("--only", dict(type=int, help="run one criterion by number")),
            help="run the acceptance suite")
    command(sub, "figure", _cmd_figure, *sharp, out,
            help="oscillating-example data with reference lines")
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
