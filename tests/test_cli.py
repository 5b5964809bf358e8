import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import loewner
from loewner import acceptance, spec_from_json, weierstrass
from loewner.cli import main
from loewner.hull import trace, welding
from loewner.imaginary import classify_sqrt_gap
from loewner.real_line import capture_scan
from loewner.weierstrass import (
    WeierstrassParams,
    norm_bound_check,
    offset_ratio_check,
    quasislit_pipeline,
)

ZERO = '{"family":"constant","params":{"value":0},"T":1}'
# its frame driving is the constant xi = 5; the captured set is (0, 4]
SQRT5 = '{"family":"sqrt_approach","params":{"c":5},"T":1}'
DENSITY = '{"A": [1.0], "beta": [1.0]}'
# 5 (1 - sqrt(1 - t)) on 2001 points with a +-0.01 zigzag, and lambda(1) set
# 0.2 above the maximum: every sample is a kink of the frame driving
_ZIG_T = np.linspace(0.0, 1.0, 2001)
_ZIG_V = 5.0 * (1.0 - np.sqrt(1.0 - _ZIG_T)) + 0.01 * (-1.0) ** np.arange(_ZIG_T.size)
_ZIG_V[-1] = _ZIG_V[:-1].max() + 0.2
ZIGZAG = json.dumps({"family": "sampled", "T": 1.0,
                     "params": {"times": _ZIG_T.tolist(), "values": _ZIG_V.tolist()}})


def run(argv):
    return main(argv)


def run_subprocess(argv, module="loewner.cli"):
    """Run the CLI in a fresh interpreter, stopped after 60 s."""
    src = str(Path(loewner.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", module, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def floats(rows):
    """The cells as floats; a cell that is not a plain float literal raises."""
    return np.array([[float(v) for v in r] for r in rows])


class TestTrace:
    def test_trivial_driving_row_at_one(self, tmp_path, capsys):
        assert run(["trace", "--driving", ZERO, "--dt", "1e-3",
                    "--out", str(tmp_path)]) == 0
        rows = list(csv.DictReader(open(tmp_path / "trace.csv")))
        last = rows[-1]
        assert float(last["t"]) == pytest.approx(1.0)
        assert float(last["re"]) == pytest.approx(0.0, abs=1e-6)
        assert float(last["im"]) == pytest.approx(2.0, abs=1e-6)
        meta = json.loads((tmp_path / "trace.meta.json").read_text())
        assert "spec_hash" in meta

    def test_byte_identical_reruns(self, tmp_path):
        cfg = '{"family":"brownian","params":{"kappa":2.0},"T":1,"normalize":true,"seed":9}'
        for d in ("a", "b"):
            assert run(["trace", "--driving", cfg, "--dt", "5e-3",
                        "--out", str(tmp_path / d)]) == 0
        assert (tmp_path / "a" / "trace.csv").read_bytes() == \
               (tmp_path / "b" / "trace.csv").read_bytes()


BROWN = '{"family":"brownian","params":{"kappa":2.0},"T":1,"normalize":true,"seed":9}'
WEIER = '{"family":"weierstrass_partial","params":{"c":0.05,"b":100,"N":4},"T":1,"normalize":true}'


class TestCsvFiles:
    """Each CSV's header, and every cell read back as the library value it was written from."""

    def test_trace(self, tmp_path):
        assert run(["trace", "--driving", BROWN, "--dt", "5e-3", "--out", str(tmp_path)]) == 0
        header, *rows = read_csv(tmp_path / "trace.csv")
        assert header == ["t", "re", "im", "cell_step"]
        c = trace(spec_from_json(BROWN), 1.0, 5e-3)
        want = [c.times, c.points.real, c.points.imag, np.full(c.times.size, 5e-3)]
        assert np.array_equal(floats(rows), np.column_stack(want))

    def test_welding(self, tmp_path):
        assert run(["welding", "--driving", WEIER, "--dt", "2e-3", "--n", "7",
                    "--out", str(tmp_path)]) == 0
        header, *rows = read_csv(tmp_path / "welding.csv")
        assert header == ["s", "left", "right", "ratio1"]
        wt = welding(spec_from_json(WEIER), 1.0, np.linspace(0.05, 0.9, 7), dt=2e-3)
        assert np.array_equal(floats(rows), np.column_stack([wt.s_grid, wt.left, wt.right, wt.ratio1]))

    def test_pipeline_welding(self, tmp_path):
        assert run(["weierstrass", "pipeline", "--b", "16", "--N", "2", "--c", "0.3",
                    "--dt", "5e-3", "--out", str(tmp_path)]) == 0
        header, *rows = read_csv(tmp_path / "pipeline_welding.csv")
        assert header == ["s", "left", "right", "ratio1"]
        v = quasislit_pipeline(WeierstrassParams(b=16.0, N=2, c=0.3), 1.0, dt=5e-3,
                               compute_ratio_bound=True)
        wt = v.welding_table
        assert np.array_equal(floats(rows), np.column_stack([wt.s_grid, wt.left, wt.right, wt.ratio1]))

    def test_capture_scan(self, tmp_path):
        assert run(["capture-scan", "--driving", SQRT5, "--out", str(tmp_path)]) == 0
        header, *rows = read_csv(tmp_path / "capture_scan.csv")
        assert header == ["x0", "status", "capture_time", "certificate"]
        reports = sorted(capture_scan(spec_from_json(SQRT5), 1.0).reports, key=lambda r: r.initial)
        assert len(rows) == len(reports)
        assert {r.capture_time is None for r in reports} == {True, False}
        for (x0, status, ct, cert), r in zip(rows, reports):
            assert (float(x0), status, cert) == (r.initial, r.status, r.certificate)
            assert ct == "" if r.capture_time is None else float(ct) == r.capture_time

    def test_transition(self, tmp_path):
        Cs = [0.5, 1.9, 2.0, 2.1, 3.0]
        assert run(["imag-eq", "transition", "--sweep", ",".join(map(repr, Cs)), "--T", "1.5",
                    "--out", str(tmp_path)]) == 0
        header, *rows = read_csv(tmp_path / "transition.csv")
        assert header == ["C", "T", "status", "witness_y0"]
        results = [classify_sqrt_gap(C, 1.5) for C in Cs]
        assert len(rows) == len(results)
        assert {r.witness_y0 is None for r in results} == {True, False}
        for (C, T, status, w), r in zip(rows, results):
            assert (float(C), float(T), status) == (r.C, r.T, r.status)
            assert w == "" if r.witness_y0 is None else float(w) == r.witness_y0

    def test_weierstrass_checks(self, tmp_path):
        assert run(["weierstrass", "check", "--b", "16", "--c", "0.7", "--T", "2",
                    "--out", str(tmp_path)]) == 0
        header, *rows = read_csv(tmp_path / "weierstrass_checks.csv")
        assert header == ["b", "N", "c", "check", "margin", "verdict"]
        want = []
        for N in (1, 2, 4, 8):
            p = WeierstrassParams(b=16.0, N=N, c=0.7)
            rn, ro = norm_bound_check(p), offset_ratio_check(p, 2.0, range(2, 9))
            want += [(N, "norm", rn.bound - rn.estimate), (N, "offset", ro.bound - ro.max_ratio)]
        assert len(rows) == len(want)
        for (b, N, c, check, margin, verdict), (n, kind, m) in zip(rows, want):
            assert (float(b), N, float(c), check) == (16.0, str(n), 0.7, kind)
            assert (float(margin), verdict) == (m, "pass")
        meta = json.loads((tmp_path / "weierstrass_checks.meta.json").read_text())
        assert (meta["command"], meta["rows"], meta["failures"], meta["failed"]) == (
            "weierstrass check", 8, 0, [])

    @pytest.mark.parametrize("constant, b, cut", [("norm_constant", 16.0, 0.22),
                                                   ("offset_constant", 25.0, 0.3)])
    def test_weierstrass_check_reports_violated_bounds(self, constant, b, cut, tmp_path,
                                                       monkeypatch, capsys):
        # the constant of one b, cut to a fraction of its value, falls below
        # the ratios of N = 4 and 8 there (norm 0.244 and 0.245, offset 0.578
        # and 0.593 of the true bound) and stays above those of N = 1 and 2
        check, true = constant.split("_")[0], getattr(weierstrass, constant)
        bad = set()
        for N in (1, 2, 4, 8):
            p = WeierstrassParams(b=b, N=N, c=1.0)
            value = (norm_bound_check(p).estimate if check == "norm"
                     else offset_ratio_check(p, 1.0, range(2, 9)).max_ratio)
            if value > cut * true(b):
                bad.add((b, N, check))
        assert {N for _, N, _ in bad} == {4, 8}
        monkeypatch.setattr(weierstrass, constant, lambda v: true(v) * (cut if v == b else 1.0))
        assert run(["weierstrass", "check", "--out", str(tmp_path)]) == 1
        header, *rows = read_csv(tmp_path / "weierstrass_checks.csv")
        assert len(rows) == 32
        failed = {(float(r[0]), int(r[1]), r[3]) for r in rows if r[5] == "fail"}
        assert failed == bad
        assert all((float(r[4]) < 0) == (r[5] == "fail") for r in rows)
        meta = json.loads((tmp_path / "weierstrass_checks.meta.json").read_text())
        assert (meta["rows"], meta["failures"]) == (32, 2)
        assert {(b, N, check) for b, N, check in meta["failed"]} == bad
        err = capsys.readouterr().err
        assert err.count("failed: ") == 2
        assert all(f"failed: {check} check at b={b!r}, N={N}" in err for _, N, _ in bad)


class TestStartup:
    @staticmethod
    def _fresh(code):
        """Run code in a fresh interpreter; return its last output line."""
        src = str(Path(loewner.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()[-1]

    def test_import_and_trace_leave_scipy_integrate_unloaded(self, tmp_path):
        # scipy loads a submodule on first use; the package itself imports
        # no scipy module at all
        code = (
            "import sys\n"
            "from loewner.cli import main\n"
            f"assert main(['trace', '--driving', {ZERO!r}, '--dt', '1e-2', '--out', {str(tmp_path)!r}]) == 0\n"
            "print('scipy.integrate' in sys.modules, 'scipy.optimize' in sys.modules)\n"
        )
        assert self._fresh(code).split() == ["False", "False"]

    def test_package_runs_as_a_module(self):
        done = run_subprocess(["--version"], module="loewner")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == loewner.__version__

    @pytest.mark.parametrize("argv", [
        ["imag-eq", "lower-bound", "--const", "1.5", "--t", "7"],
        ["verify", "--only", "8"],
    ])
    def test_quadrature_runs_load_no_scipy(self, argv):
        # the growth floor and the gap duality are adaptive quadratures,
        # which the package's own QUADPACK port computes
        code = (
            "import sys\n"
            "from loewner.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        assert self._fresh(code) == "[]"


class TestStrictness:
    def test_unknown_config_key_exits_2(self, tmp_path):
        bad = '{"family":"constant","params":{"value":0},"T":1,"bogus":1}'
        assert run(["trace", "--driving", bad, "--dt", "1e-3",
                    "--out", str(tmp_path)]) == 2

    def test_invalid_json_exits_2(self, tmp_path):
        assert run(["trace", "--driving", "{nope", "--dt", "1e-3",
                    "--out", str(tmp_path)]) == 2

    def test_unknown_subcommand_exits_2(self):
        assert run(["frobnicate"]) == 2

    # each input but the last flag runs and exits 0
    @pytest.mark.parametrize("argv", [
        ["trace", "--driving", ZERO, "--dt", "1e-3", "--seed", "1"],
        ["capture-scan", "--driving", ZERO, "--jobs", "2"],
        ["weierstrass", "check", "--b", "16", "--jobs", "2"],
        ["real-eq", "operator-t", "--density", DENSITY, "--x0", "1"],
        ["imag-eq", "transition", "--C", "1.9", "--y0", "2"],
        ["weierstrass", "check", "--b", "16", "--N", "2", "--dt", "1e-3"],
        ["weierstrass", "pipeline", "--b", "16", "--N", "2", "--c", "0.3", "--dt", "5e-3",
         "--paper-scale"],
    ])
    def test_flag_the_subcommand_does_not_read_exits_2(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["real-eq", "hrle", "--x0", "2"],
        ["real-eq", "g-test"],
    ])
    def test_driving_is_required_where_it_is_read(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 2
        assert "--driving" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg", [
        '{"family":"brownian","params":{},"T":1,"seed":1.5}',
        '{"family":"constant","params":{},"T":1}',
        '{"family":"sqrt_approach","params":{"c":"x"},"T":1}',
        '{"family":"constant","params":{"value":0}}',
        '{"family":"constant","params":{"value":0},"T":0}',
        '{"family":"weierstrass_partial","params":{"c":0.1,"b":9,"N":2.5},"T":1}',
    ])
    def test_malformed_driving_config_exits_2(self, cfg, tmp_path, capsys):
        assert run(["trace", "--driving", cfg, "--dt", "1e-2",
                    "--out", str(tmp_path)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--T", "0", "--C", "1"],
        ["--C", "-1"],
    ])
    def test_ile_outside_its_domain_exits_2(self, argv):
        assert run(["imag-eq", "ile"] + argv) == 2

    @pytest.mark.parametrize("n", ["-1", "1", "2"])
    def test_welding_needs_three_points(self, n, tmp_path):
        assert run(["welding", "--driving", ZERO, "--dt", "1e-2", "--n", n,
                    "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "welding.meta.json").exists()

    def test_welding_of_rounding_noise_exits_1(self, tmp_path, capsys):
        # the steep falls of this driving bring the 12 left prime ends within
        # 60 ulps of each other, so the three-point statistic would read noise
        fall = json.dumps({"family": "sampled", "T": 1.0, "params": {
            "times": [0, 0.1291, 0.3137, 0.7971, 0.8628, 1],
            "values": [-0.7374, -0.6218, -3.2034, -7.7438, -8.2438, -11.1589]}})
        assert run(["welding", "--driving", fall, "--dt", "5e-3", "--n", "12",
                    "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "error: welding map is degenerate: the left prime ends span" in err
        assert "Traceback" not in err and not (tmp_path / "welding.csv").exists()

    @pytest.mark.parametrize("number", ["0", "13", "-1"])
    def test_verify_unknown_criterion_exits_2(self, number, capsys):
        assert run(["verify", "--only", number]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: no acceptance criterion {number}:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["--dt", "0"],
        ["--dt", "nan"],
        ["--dt", "inf"],
        ["--dt", "1e-2", "--T", "-1"],
        ["--dt", "1e-2", "--T", "nan"],
    ])
    def test_trace_outside_its_domain_exits_2(self, argv, tmp_path, capsys):
        assert run(["trace", "--driving", ZERO, "--out", str(tmp_path)] + argv) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("T", ["inf", "-inf", "nan", "0"])
    @pytest.mark.filterwarnings("error")
    def test_welding_horizon_checked_before_the_grid(self, T, tmp_path, capsys):
        assert run(["welding", "--driving", ZERO, f"--T={T}", "--out", str(tmp_path)]) == 2
        assert "--T must be a positive finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--tol", "0"],
        ["--tol", "-1"],
        ["--tol", "nan"],
        ["--tol", "inf"],
        ["--tol", "1e-300"],
        ["--T", "nan"],
        ["--T", "0"],
        ["--T", "2"],
    ])
    @pytest.mark.filterwarnings("error")
    def test_capture_scan_outside_its_domain_exits_2(self, argv, tmp_path, capsys):
        assert run(["capture-scan", "--driving", SQRT5, "--out", str(tmp_path)] + argv) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "capture_scan.meta.json").exists()

    @pytest.mark.parametrize("argv", [
        ["--x0", "2", "--horizon", "nan"],
        ["--x0", "2", "--horizon", "-1"],
        ["--x0", "2", "--horizon", "0"],
        ["--x0", "2", "--horizon", "inf"],
        ["--x0", "nan"],
        ["--x0", "inf"],
        ["--x0", "0"],
        ["--x0", "5"],
        ["--x0", "-1"],
        ["--x0", "2", "--T", "2"],
        ["--x0", "2", "--T", "nan"],
        ["--x0", "2", "--T", "0"],
        [],
    ])
    @pytest.mark.filterwarnings("error")
    def test_hrle_outside_its_domain_exits_2(self, argv, tmp_path, capsys):
        assert run(["real-eq", "hrle", "--driving", SQRT5, "--out", str(tmp_path)] + argv) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "hrle.csv").exists()

    @pytest.mark.parametrize("action", ["con1", "con2"])
    @pytest.mark.parametrize("argv", [
        ["--horizon", "nan"],
        ["--horizon", "-1"],
        ["--horizon", "0"],
        ["--horizon", "inf"],
        ["--horizon", "1e16"],
        ["--y0", "nan"],
        ["--y0", "inf"],
        ["--y0", "0"],
        ["--y0", "-1"],
        ["--const", "nan"],
        ["--const", "-1"],
    ])
    @pytest.mark.filterwarnings("error")
    def test_con_outside_its_domain_exits_2(self, action, argv, tmp_path, capsys):
        argv = ["imag-eq", action, "--const", "1.5", "--y0", "0.5", "--out", str(tmp_path)] + argv
        assert run(argv) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / f"{action}.csv").exists()

    @pytest.mark.parametrize("horizon", ["nan", "-1", "0", "inf"])
    @pytest.mark.filterwarnings("error")
    def test_operator_f_outside_its_domain_exits_2(self, horizon, tmp_path, capsys):
        assert run(["real-eq", "operator-f", "--density", DENSITY, f"--horizon={horizon}",
                    "--out", str(tmp_path)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "operator_f.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["check", "--b", "nan"],
        ["check", "--b", "inf"],
        ["check", "--b", "1"],
        ["check", "--b", "16", "--N", "0"],
        ["check", "--b", "16", "--c", "nan"],
        ["check", "--b", "16", "--c", "inf"],
        ["check", "--b", "16", "--c", "0"],
        ["check", "--b", "16", "--T", "0"],
        ["check", "--b", "16", "--T", "nan"],
        ["pipeline"],
        ["pipeline", "--b", "16", "--N", "2", "--T", "0"],
        ["pipeline", "--b", "16", "--N", "2", "--dt", "0"],
        ["pipeline", "--b", "16", "--N", "2", "--c", "nan"],
        ["check", "--b", "2"],
        ["pipeline", "--b", "2", "--N", "2"],
    ])
    @pytest.mark.filterwarnings("error")
    def test_weierstrass_outside_its_domain_exits_2(self, argv, tmp_path, capsys):
        assert run(["weierstrass"] + argv + ["--out", str(tmp_path)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "weierstrass_checks.csv").exists()

    @pytest.mark.parametrize("action", ["trace", "welding"])
    @pytest.mark.filterwarnings("error")
    def test_too_many_zipper_cells_exit_2(self, action, tmp_path, capsys):
        assert run([action, "--driving", ZERO, "--dt", "1e-300", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "MAX_CELLS = 8388608" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["real-eq", "operator-t", "--density", DENSITY, "--s", "x"],
        ["real-eq", "operator-t", "--density", DENSITY, "--s", "1,nan"],
        ["real-eq", "operator-t", "--density", DENSITY, "--s", "-1"],
        ["imag-eq", "transition", "--sweep", "a,b"],
        ["real-eq", "sharp-example", "--a", "5"],
        ["real-eq", "sharp-example", "--k-max", "2"],
        ["figure", "--a", "7"],
        ["imag-eq", "transition", "--C", "-1"],
        ["imag-eq", "transition", "--C", "1", "--T", "0"],
        ["real-eq", "g-test", "--driving", SQRT5, "--t1", "0.5", "--t2", "0.2"],
        ["real-eq", "g-test", "--driving", SQRT5, "--T", "2"],
        ["imag-eq", "lower-bound", "--const", "1", "--t", "-1"],
        ["imag-eq", "lower-bound", "--const", "1", "--t", "nan"],
        ["imag-eq", "lower-bound", "--const", "nan"],
        ["imag-eq", "ile", "--C", "1.5", "--const", "1"],
        ["imag-eq", "ile", "--C", "1.5", "--y0", "-1"],
    ])
    @pytest.mark.filterwarnings("error")
    def test_flag_input_outside_its_domain_exits_2(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["imag-eq", "con1", "--const", "1.5", "--y0", "1e300"],
        ["imag-eq", "con2", "--const", "1e-200", "--y0", "1"],
        ["weierstrass", "check", "--b", "1e50", "--N", "8"],
        ["imag-eq", "ile", "--const", "1e150", "--y0", "1e-10"],
    ])
    @pytest.mark.filterwarnings("error")
    def test_floating_point_overflow_exits_1(self, argv, tmp_path, capsys):
        # con1 overflows mapping its log-height back to y after the run, con2
        # in the stepper's initial-step estimate and the Weierstrass check in
        # forming b^n.  The ile start is below SINGULARITY_FLOOR, so the frame
        # run decides, and its squared gap overflows within a step near s = 9.6
        out = [] if argv[1] == "ile" else ["--out", str(tmp_path)]
        assert run(argv + out) == 1
        assert "floating-point failure" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["imag-eq", "lower-bound", "--const", "0.002", "--t", "2.2250738585e-313"],
        ["real-eq", "g-test", "--driving", ZIGZAG, "--t2", "10"],
        ["imag-eq", "lower-bound", "--const", "1e-11", "--t", "1e300"],
        ["real-eq", "g-test", "--driving", SQRT5, "--t1", "0", "--t2", "9.008025868214058e+307",
         "--T", "0.5"],
    ])
    @pytest.mark.filterwarnings("error")
    def test_doubtful_quadrature_exits_1(self, argv, capsys):
        # QUADPACK flags the first two integrals (bad integrand behaviour,
        # the subdivision limit), the third overflows to -inf and the fourth
        # to inf; each run fails as numerical instead of printing a doubtful
        # value.  The fourth reads its frame driving at s near 9e307, where
        # -2 s overflows unless s is capped first
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert "quadrature over" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["imag-eq", "lower-bound", "--const", "1.5", "--t", "1e300"],
        ["real-eq", "g-test", "--driving", SQRT5, "--t2", "1e300"],
    ])
    @pytest.mark.filterwarnings("error")
    def test_long_span_quadrature_is_classified(self, argv, capsys):
        assert run(argv) in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err

    def test_out_of_memory_exits_1(self, monkeypatch, capsys):
        def exhausted(args):
            raise MemoryError("Unable to allocate 8.00 TiB for an array")
        monkeypatch.setattr(loewner.cli, "_cmd_verify", exhausted)
        assert run(["verify", "--only", "5"]) == 1
        err = capsys.readouterr().err
        assert "error: out of memory: Unable to allocate" in err and "Traceback" not in err

    def test_bad_log_level_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("LOEWNER_LOG", "chatty")
        assert run(["verify", "--only", "5"]) == 2
        monkeypatch.delenv("LOEWNER_LOG")


class TestSubcommands:
    def test_transition_label(self, capsys):
        assert run(["imag-eq", "transition", "--C", "1.9", "--T", "1"]) == 0
        assert "vanishing" in capsys.readouterr().out

    def test_transition_sweep_csv(self, tmp_path):
        assert run(["imag-eq", "transition", "--sweep", "1.0,2.5", "--T", "1",
                    "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "transition.csv").read_text().splitlines()
        assert lines[0] == "C,T,status,witness_y0"
        assert len(lines) == 3

    def test_g_test(self, capsys):
        spec = '{"family":"sqrt_approach","params":{"c":3},"T":1}'
        assert run(["real-eq", "g-test", "--driving", spec, "--T", "1",
                    "--t1", "0", "--t2", "3.1"]) == 0
        assert "holds: True" in capsys.readouterr().out

    def test_sharp_example(self, tmp_path, capsys):
        assert run(["real-eq", "sharp-example", "--a", "1.5", "--k-max", "20",
                    "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "running_min" in out
        assert (tmp_path / "sharp_example.csv").exists()

    def test_capture_scan(self, tmp_path, capsys):
        assert run(["capture-scan", "--driving", SQRT5, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "capture interval" in out
        header = (tmp_path / "capture_scan.csv").read_text().splitlines()[0]
        assert header == "x0,status,capture_time,certificate"
        meta = json.loads((tmp_path / "capture_scan.meta.json").read_text())
        assert meta["nprobes"] > 0 and meta["nsteps"] > meta["nprobes"]
        assert meta["nfev"] > 6 * meta["nsteps"]

    def test_capture_scan_of_a_falling_sqrt_driving(self, tmp_path):
        # the captured set lies on the mirrored side, which scans the
        # reflection sqrt_approach(5) through its closed frame form; as a
        # composite it took minutes
        falling = '{"family":"sqrt_approach","params":{"c":-5},"T":1}'
        done = run_subprocess(["capture-scan", "--driving", falling, "--out", str(tmp_path)])
        assert done.returncode == 0, done.stderr
        assert "mirrored: (-3.99995" in done.stdout

    def test_weierstrass_check_single(self, tmp_path, capsys):
        assert run(["weierstrass", "check", "--b", "16", "--N", "8",
                    "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "weierstrass_checks.csv").read_text().splitlines()
        assert lines[0] == "b,N,c,check,margin,verdict"
        assert all(l.endswith("pass") for l in lines[1:])

    def test_weierstrass_pipeline_reports_the_ratio_bound(self, capsys):
        assert run(["weierstrass", "pipeline", "--b", "16", "--N", "2", "--c", "0.3",
                    "--dt", "5e-3"]) == 0
        out = capsys.readouterr().out
        m0 = float(out.split("M0: ")[1].split(";")[0])
        assert m0 > 1.0
        assert "ratio1 in [1/M0, M0]: True" in out

    def test_sidecars_share_the_spec_hash(self, tmp_path):
        assert run(["trace", "--driving", ZERO, "--dt", "1e-2",
                    "--out", str(tmp_path)]) == 0
        assert run(["welding", "--driving", ZERO, "--dt", "1e-2", "--n", "4",
                    "--out", str(tmp_path)]) == 0
        trace_meta = json.loads((tmp_path / "trace.meta.json").read_text())
        weld_meta = json.loads((tmp_path / "welding.meta.json").read_text())
        assert trace_meta["spec_hash"] == weld_meta["spec_hash"]
        assert {"dt", "n_points", "nudges", "tolerances"} <= set(trace_meta)
        assert {"dt", "lambda_T", "ratio1_range", "ratio2_range", "tolerances"} <= set(weld_meta)

    def test_ile_sqrt_gap_at_the_closed_form_start(self, capsys):
        # sqrt(T (4 - C^2)) vanishes exactly at T; the start sits on the
        # height flow's unstable equilibrium, so only the closed-form frame
        # gap decides it reliably
        y0 = repr(float(np.sqrt(4.0 - 1.5**2)))
        assert run(["imag-eq", "ile", "--C", "1.5", "--y0", y0, "--T", "1"]) == 0
        assert "status: vanishing " in capsys.readouterr().out

    def test_hrle_horizon_is_the_flag(self, tmp_path, capsys):
        assert run(["real-eq", "hrle", "--driving", SQRT5, "--x0", "2", "--horizon", "3",
                    "--out", str(tmp_path)]) == 0
        assert "captured-candidate" in capsys.readouterr().out
        rows = list(csv.DictReader(open(tmp_path / "hrle.csv")))
        assert float(rows[-1]["s"]) == 3.0
        # one csv row per accepted step, after the start
        meta = json.loads((tmp_path / "hrle.meta.json").read_text())
        assert meta["classification"] == "captured-candidate" and meta["exit_s"] is None
        assert len(rows) == meta["nsteps"] + 1 and meta["nfev"] > 6 * meta["nsteps"]

    def test_figure_reference_lines(self, tmp_path):
        assert run(["figure", "--a", "1.5", "--k-max", "10",
                    "--out", str(tmp_path)]) == 0
        rows = list(csv.DictReader(open(tmp_path / "sharp_figure.csv")))
        assert float(rows[0]["ref_a"]) == 1.5
        assert float(rows[0]["ref_band_top"]) == pytest.approx(1.5 + 4 / 1.5)

    def test_verify_single_criterion(self, capsys):
        assert run(["verify", "--only", "5"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_verify_and_only_print_the_same_line(self, capsys, monkeypatch):
        # both forms name a criterion by its slug; only the time may differ.
        # The full run reads CRITERIA at call time, so two fast criteria
        # stand in for the twelve
        def untimed(line):
            return line.rsplit(" (", 1)[0]

        fast = [c for c in acceptance.CRITERIA if c[0] in (5, 10)]
        monkeypatch.setattr(acceptance, "CRITERIA", fast)
        assert run(["verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "2/2 acceptance criteria passed"
        assert [line.split(":")[0] for line in lines[:-1]] == [
            "[PASS]  5 sharp-oscillation", "[PASS] 10 welding"]
        for n, line in zip((5, 10), lines):
            assert run(["verify", "--only", str(n)]) == 0
            assert untimed(capsys.readouterr().out.strip()) == untimed(line)

    def test_con1_classification(self, tmp_path, capsys):
        assert run(["imag-eq", "con1", "--const", "1.5", "--y0", "0.5",
                    "--out", str(tmp_path)]) == 0
        assert "vanishing" in capsys.readouterr().out

    @pytest.mark.parametrize("action", ["con1", "con2"])
    def test_con_horizon_is_the_flag(self, action, tmp_path, capsys):
        # both flows decay from 0.5 under the constant gap 1.5, so the
        # trend verdict fires at the first horizon
        assert run(["imag-eq", action, "--const", "1.5", "--y0", "0.5", "--horizon", "25",
                    "--out", str(tmp_path)]) == 0
        assert "status: vanishing " in capsys.readouterr().out
        rows = list(csv.DictReader(open(tmp_path / f"{action}.csv")))
        assert float(rows[-1]["s"]) == 25.0
        # one csv row per accepted step, after the start
        meta = json.loads((tmp_path / f"{action}.meta.json").read_text())
        assert (meta["status"], meta["certificate"], meta["witness_time"]) == (
            "vanishing", "horizon", 25.0)
        assert len(rows) == meta["nsteps"] + 1 and meta["nfev"] > 6 * meta["nsteps"]

    @pytest.mark.parametrize("argv", [
        ["con1", "--const", "0.001", "--y0", "0.5"],
        ["con2", "--const", "0.001", "--y0", "0.5"],
        ["ile", "--C", "0.001", "--y0", "1.6479316931752282e-239", "--T", "0.001"],
    ])
    def test_small_gap_ends_in_a_status(self, argv, tmp_path):
        # a gap of 0.001 makes y decay at rate 4e6: in y these ran for minutes
        out = [] if argv[0] == "ile" else ["--out", str(tmp_path)]
        done = run_subprocess(["imag-eq", *argv, *out])
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("status: vanishing ")

    def test_operator_f_horizon_is_the_flag(self, tmp_path, capsys):
        assert run(["real-eq", "operator-f", "--density", DENSITY, "--horizon", "3",
                    "--out", str(tmp_path)]) == 0
        assert "np.float64" not in capsys.readouterr().out
        rows = list(csv.DictReader(open(tmp_path / "operator_f.csv")))
        assert float(rows[-1]["s"]) == 3.0


# --dt and --T: the invalid values and a range that keeps the zipper below
# 1000 cells on ZERO's domain [0, 1]
STEPS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0]),
    st.floats(max_value=0.0, exclude_max=True, allow_infinity=False),
    st.floats(min_value=1e-3, max_value=1.0),
)
FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestFuzz:
    """Every flag value ends in a documented exit code, never an exception."""

    @FUZZ
    @given(dt=STEPS, T=st.none() | STEPS)
    def test_trace(self, dt, T, tmp_path):
        argv = ["trace", "--driving", ZERO, f"--dt={dt!r}", "--out", str(tmp_path)]
        assert run(argv + ([] if T is None else [f"--T={T!r}"])) in (0, 1, 2)

    @FUZZ
    @given(T=st.none() | STEPS | st.floats(1.0, 1e3), tol=st.none() | STEPS | st.floats(0.0, 1e-10))
    def test_capture_scan(self, T, tol, tmp_path):
        argv = ["capture-scan", "--driving", ZERO, "--out", str(tmp_path)]
        argv += [] if T is None else [f"--T={T!r}"]
        assert run(argv + ([] if tol is None else [f"--tol={tol!r}"])) in (0, 1, 2)

    @FUZZ
    @given(x0=st.sampled_from([float("nan"), float("inf"), float("-inf")]) | st.floats(-1.0, 6.0),
           horizon=st.none() | STEPS | st.floats(1.0, 30.0))
    def test_hrle(self, x0, horizon, tmp_path):
        argv = ["real-eq", "hrle", "--driving", SQRT5, f"--x0={x0!r}", "--out", str(tmp_path)]
        assert run(argv + ([] if horizon is None else [f"--horizon={horizon!r}"])) in (0, 1, 2)

    @FUZZ
    @given(dt=STEPS, T=st.none() | STEPS, n=st.integers(-2, 6))
    def test_welding(self, dt, T, n, tmp_path):
        argv = ["welding", "--driving", ZERO, f"--dt={dt!r}", f"--n={n}",
                "--out", str(tmp_path)]
        assert run(argv + ([] if T is None else [f"--T={T!r}"])) in (0, 1, 2)

    @FUZZ
    @given(action=st.sampled_from(["con1", "con2"]), const=st.floats(),
           horizon=st.none() | STEPS | st.floats(1.0, 100.0),
           y0=st.sampled_from([float("nan"), float("inf"), float("-inf")]) | st.floats())
    def test_con(self, action, const, horizon, y0, tmp_path):
        argv = ["imag-eq", action, f"--const={const!r}", f"--y0={y0!r}", "--out", str(tmp_path)]
        assert run(argv + ([] if horizon is None else [f"--horizon={horizon!r}"])) in (0, 1, 2)

    @FUZZ
    @given(gap=st.sampled_from(["--C", "--const"]), value=st.floats(), y0=st.floats(),
           T=st.none() | st.floats())
    def test_ile(self, gap, value, y0, T):
        argv = ["imag-eq", "ile", f"{gap}={value!r}", f"--y0={y0!r}"]
        assert run(argv + ([] if T is None else [f"--T={T!r}"])) in (0, 1, 2)

    @FUZZ
    @given(horizon=st.none() | STEPS | st.floats(1.0, 1e300))
    def test_operator_f(self, horizon, tmp_path):
        argv = ["real-eq", "operator-f", "--density", DENSITY, "--out", str(tmp_path)]
        assert run(argv + ([] if horizon is None else [f"--horizon={horizon!r}"])) in (0, 1, 2)

    @FUZZ
    @given(b=st.sampled_from([float("nan"), float("inf"), 1.0]) | st.floats(),
           N=st.integers(1, 8), c=st.none() | st.floats(), T=st.none() | STEPS | st.floats())
    def test_weierstrass_check(self, b, N, c, T, tmp_path):
        argv = ["weierstrass", "check", f"--b={b!r}", f"--N={N}", "--out", str(tmp_path)]
        argv += [] if c is None else [f"--c={c!r}"]
        assert run(argv + ([] if T is None else [f"--T={T!r}"])) in (0, 1, 2)

    @FUZZ
    @given(Cs=st.lists(st.floats(), min_size=1, max_size=3), T=st.none() | STEPS)
    def test_transition(self, Cs, T, tmp_path):
        argv = ["imag-eq", "transition", "--sweep=" + ",".join(map(repr, Cs)),
                "--out", str(tmp_path)]
        assert run(argv + ([] if T is None else [f"--T={T!r}"])) in (0, 1, 2)

    @FUZZ
    @given(v=st.floats(), t=st.floats())
    def test_lower_bound(self, v, t):
        assert run(["imag-eq", "lower-bound", f"--const={v!r}", f"--t={t!r}"]) in (0, 1, 2)

    @FUZZ
    @given(t1=st.floats(), t2=st.floats(), T=st.none() | STEPS)
    def test_g_test(self, t1, t2, T):
        argv = ["real-eq", "g-test", "--driving", SQRT5, f"--t1={t1!r}", f"--t2={t2!r}"]
        assert run(argv + ([] if T is None else [f"--T={T!r}"])) in (0, 1, 2)

    @FUZZ
    @given(s=st.lists(st.floats(), min_size=1, max_size=4))
    def test_operator_t(self, s):
        argv = ["real-eq", "operator-t", "--density", DENSITY, "--s=" + ",".join(map(repr, s))]
        assert run(argv) in (0, 1, 2)

    @FUZZ
    @given(a=st.sampled_from([float("nan"), float("inf"), 0.0, 2.0, 4.0]) | st.floats(),
           k_max=st.integers(-2, 40))
    def test_sharp_example(self, a, k_max, tmp_path):
        argv = ["real-eq", "sharp-example", f"--a={a!r}", f"--k-max={k_max}",
                "--out", str(tmp_path)]
        assert run(argv) in (0, 1, 2)

    # at most 100 zipper cells: T <= 1 and dt >= 1e-2
    @FUZZ
    @given(b=st.sampled_from([float("nan"), float("inf"), 1.0, 2.0]) | st.floats(1.0, 200.0)
           | st.floats(),
           N=st.integers(-1, 4), c=st.none() | st.floats(0.0, 0.5) | st.floats(),
           T=st.none() | st.sampled_from([float("nan"), 0.0]) | st.floats(0.5, 1.0),
           dt=st.sampled_from([float("nan"), float("inf"), 0.0, -1.0]) | st.floats(1e-2, 1.0))
    def test_weierstrass_pipeline(self, b, N, c, T, dt, tmp_path):
        argv = ["weierstrass", "pipeline", f"--b={b!r}", f"--N={N}", f"--dt={dt!r}",
                "--out", str(tmp_path)]
        argv += [] if c is None else [f"--c={c!r}"]
        assert run(argv + ([] if T is None else [f"--T={T!r}"])) in (0, 1, 2)
