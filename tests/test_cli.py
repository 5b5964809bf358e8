import csv
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from loewner.cli import main

ZERO = '{"family":"constant","params":{"value":0},"T":1}'


def run(argv):
    return main(argv)


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

    @pytest.mark.parametrize("argv", [
        ["trace", "--driving", ZERO, "--dt", "1e-3", "--seed", "1"],
        ["capture-scan", "--driving", ZERO, "--jobs", "2"],
    ])
    def test_flag_the_subcommand_does_not_read_exits_2(self, argv, tmp_path):
        assert run(argv + ["--out", str(tmp_path)]) == 2

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
        spec = '{"family":"sqrt_approach","params":{"c":5},"T":1}'
        assert run(["capture-scan", "--driving", spec, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "capture interval" in out
        header = (tmp_path / "capture_scan.csv").read_text().splitlines()[0]
        assert header == "x0,status,capture_time,certificate"

    def test_weierstrass_check_single(self, tmp_path, capsys):
        assert run(["weierstrass", "check", "--b", "16", "--N", "8",
                    "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "weierstrass_checks.csv").read_text().splitlines()
        assert lines[0] == "b,N,c,check,margin,verdict"
        assert all(l.endswith("pass") for l in lines[1:])

    def test_weierstrass_check_jobs(self, tmp_path):
        assert run(["weierstrass", "check", "--b", "16", "--jobs", "2",
                    "--out", str(tmp_path)]) == 0

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

    def test_figure_reference_lines(self, tmp_path):
        assert run(["figure", "--a", "1.5", "--k-max", "10",
                    "--out", str(tmp_path)]) == 0
        rows = list(csv.DictReader(open(tmp_path / "sharp_figure.csv")))
        assert float(rows[0]["ref_a"]) == 1.5
        assert float(rows[0]["ref_band_top"]) == pytest.approx(1.5 + 4 / 1.5)

    def test_verify_single_criterion(self, capsys):
        assert run(["verify", "--only", "5"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_con1_classification(self, tmp_path, capsys):
        assert run(["imag-eq", "con1", "--const", "1.5", "--y0", "0.5",
                    "--out", str(tmp_path)]) == 0
        assert "vanishing" in capsys.readouterr().out


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
    @given(dt=STEPS, T=st.none() | STEPS, n=st.integers(-2, 6))
    def test_welding(self, dt, T, n, tmp_path):
        argv = ["welding", "--driving", ZERO, f"--dt={dt!r}", f"--n={n}",
                "--out", str(tmp_path)]
        assert run(argv + ([] if T is None else [f"--T={T!r}"])) in (0, 1, 2)
