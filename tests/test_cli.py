"""Study driver, CSV round-tripping, rate fits, and the command line."""
from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hrx
from hrx import ApproxOrder, ConvergenceRecord, HRParams, RateFit, StudyConfig
from hrx.cli import (
    _CSV_HEADER,
    _build_spec_and_params,
    _load_config_file,
    _parse_axis,
    _parse_grid,
    _parse_n_values,
    _parse_orders,
    _worker_count,
    build_study_config,
    fit_rate,
    main,
    read_records,
    run_study,
    write_records,
)

SMALL_CONFIG = StudyConfig(
    spec=hrx.ThirdOrderHR(1.0, 2.0, 5.0),
    params=HRParams.finite(1.0, 2.0, 5.0),
    n_values=(10**3, 10**4),
    grid=((1.0, 1.0), (2.0, 2.0)),
    orders=frozenset(ApproxOrder),
    output_path=None,
)


def synthetic_record(n, b, x, y, err1, err2=None):
    return ConvergenceRecord(
        n, b, 0.5, x, y, 0.5,
        0.5, None, None,
        err1, err2, None,
        None, None, None,
        False,
    )


class TestStudyConfig:
    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            StudyConfig(SMALL_CONFIG.spec, SMALL_CONFIG.params, (),
                        ((0.0, 0.0),), frozenset(ApproxOrder))
        with pytest.raises(ValueError):
            StudyConfig(SMALL_CONFIG.spec, SMALL_CONFIG.params, (2, 10),
                        ((0.0, 0.0),), frozenset(ApproxOrder))
        with pytest.raises(ValueError):
            StudyConfig(SMALL_CONFIG.spec, SMALL_CONFIG.params, (100, 100),
                        ((0.0, 0.0),), frozenset(ApproxOrder))
        with pytest.raises(ValueError):
            StudyConfig(SMALL_CONFIG.spec, SMALL_CONFIG.params, (1000, 100),
                        ((0.0, 0.0),), frozenset(ApproxOrder))

    def test_rejects_empty_grid_or_orders(self):
        with pytest.raises(ValueError):
            StudyConfig(SMALL_CONFIG.spec, SMALL_CONFIG.params, (100,),
                        (), frozenset(ApproxOrder))
        with pytest.raises(ValueError):
            StudyConfig(SMALL_CONFIG.spec, SMALL_CONFIG.params, (100,),
                        ((0.0, 0.0),), frozenset())


class TestRunStudy:
    def test_shape_and_order(self):
        records = run_study(SMALL_CONFIG)
        assert len(records) == 4
        assert [(r.n, r.x) for r in records] == [
            (1000, 1.0), (1000, 2.0), (10000, 1.0), (10000, 2.0),
        ]

    def test_record_contents(self):
        record = run_study(SMALL_CONFIG)[0]
        row = hrx.make_row(SMALL_CONFIG.spec, record.n)
        assert record.b == row.b.b
        assert record.rho == row.rho
        assert record.exact == hrx.exact_joint_max_cdf(
            record.n, record.rho, 1.0, 1.0
        )
        want3 = hrx.hr_approx(record.n, SMALL_CONFIG.params, 1.0, 1.0,
                              ApproxOrder.THIRD)
        assert record.approx_third == want3
        assert record.err_third == abs(record.exact - want3)
        b2 = row.b.b_squared
        assert record.scaled_third == record.err_third * b2**3
        assert not record.skipped

    def test_order_projection(self):
        config = StudyConfig(
            SMALL_CONFIG.spec, SMALL_CONFIG.params, (10**3,),
            ((1.0, 1.0),), frozenset({ApproxOrder.SECOND}), None,
        )
        record = run_study(config)[0]
        assert record.approx_first is None
        assert record.err_first is None
        assert record.approx_third is None
        assert record.approx_second is not None
        assert record.err(ApproxOrder.SECOND) == record.err_second

    def test_underflowed_limit_is_skipped(self):
        config = StudyConfig(
            hrx.ConstantRho(0.5), HRParams.infinity(), (10**3,),
            ((1.0, 1.0), (-700.0, -700.0)), frozenset(ApproxOrder), None,
        )
        normal, skipped = run_study(config)
        assert not normal.skipped
        assert skipped.skipped
        assert skipped.exact is None
        assert skipped.err_second is None
        assert skipped.n == 10**3

    def test_deterministic(self):
        assert run_study(SMALL_CONFIG) == run_study(SMALL_CONFIG)

    def test_thread_pool_matches_serial(self, monkeypatch):
        serial = run_study(SMALL_CONFIG)
        monkeypatch.setenv("HRX_THREADS", "4")
        assert _worker_count() == 4
        assert run_study(SMALL_CONFIG) == serial

    def test_worker_count_fallbacks(self, monkeypatch):
        monkeypatch.setenv("HRX_THREADS", "0")
        assert _worker_count() == 1
        monkeypatch.setenv("HRX_THREADS", "abc")
        assert _worker_count() == 1
        monkeypatch.delenv("HRX_THREADS")
        assert _worker_count() == 1


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        path = str(tmp_path / "study.csv")
        records = run_study(SMALL_CONFIG)
        write_records(records, path)
        assert read_records(path) == records

    def test_round_trip_with_skips(self, tmp_path):
        config = StudyConfig(
            hrx.ConstantRho(0.5), HRParams.infinity(), (10**3,),
            ((1.0, 1.0), (-700.0, -700.0)), frozenset(ApproxOrder), None,
        )
        path = str(tmp_path / "study.csv")
        records = run_study(config)
        write_records(records, path)
        assert read_records(path) == records

    def test_byte_stable(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_records(run_study(SMALL_CONFIG), str(a))
        write_records(run_study(SMALL_CONFIG), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_header_guard(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,study\n1,2,3\n")
        with pytest.raises(ValueError):
            read_records(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_records(str(tmp_path / "absent.csv"))


class TestFitRate:
    def test_exact_power_law(self):
        # err = C / b^2 must fit slope -1 with r^2 = 1
        records = [
            synthetic_record(10 * i, b, 1.0, 1.0, 0.7 / (b * b))
            for i, b in enumerate((2.0, 3.0, 4.0, 5.0), start=1)
        ]
        fit = fit_rate(records, ApproxOrder.FIRST)
        assert isinstance(fit, RateFit)
        assert abs(fit.slope + 1.0) <= 1e-12
        assert abs(fit.intercept - math.log(0.7)) <= 1e-12
        assert fit.r_squared >= 1.0 - 1e-12

    def test_picks_best_populated_point(self):
        # (1,1) has four records with slope -1; (0,0) has three with -2
        records = [
            synthetic_record(10 * i, b, 1.0, 1.0, 1.0 / (b * b))
            for i, b in enumerate((2.0, 3.0, 4.0, 5.0), start=1)
        ] + [
            synthetic_record(10 * i, b, 0.0, 0.0, 1.0 / (b * b) ** 2)
            for i, b in enumerate((2.0, 3.0, 4.0), start=1)
        ]
        fit = fit_rate(records, ApproxOrder.FIRST)
        assert abs(fit.slope + 1.0) <= 1e-12

    def test_ignores_unusable_records(self):
        records = [
            synthetic_record(10, 2.0, 1.0, 1.0, 0.25),
            synthetic_record(20, 3.0, 1.0, 1.0, 0.0),      # err <= 0
            synthetic_record(30, 4.0, 1.0, 1.0, None),     # not computed
            synthetic_record(40, 5.0, 1.0, 1.0, math.nan),  # not finite
        ]
        with pytest.raises(ValueError):
            fit_rate(records, ApproxOrder.FIRST)

    def test_needs_three_records(self):
        records = [
            synthetic_record(10, 2.0, 1.0, 1.0, 0.25),
            synthetic_record(20, 3.0, 1.0, 1.0, 0.11),
        ]
        with pytest.raises(ValueError):
            fit_rate(records, ApproxOrder.FIRST)
        with pytest.raises(ValueError):
            fit_rate([], ApproxOrder.FIRST)

    def test_second_order_column(self):
        records = [
            synthetic_record(10 * i, b, 1.0, 1.0, 1.0, 0.3 / (b * b) ** 2)
            for i, b in enumerate((2.0, 3.0, 4.0, 5.0), start=1)
        ]
        fit = fit_rate(records, ApproxOrder.SECOND)
        assert abs(fit.slope + 2.0) <= 1e-12


class TestParsers:
    def test_n_values(self):
        assert _parse_n_values("1000,5000") == (1000, 5000)
        assert _parse_n_values("3:5:1") == (1000, 10000, 100000)
        assert _parse_n_values("3:4:0.5") == (1000, 3162, 10000)
        with pytest.raises(ValueError):
            _parse_n_values("3:5")
        with pytest.raises(ValueError):
            _parse_n_values("3:5:0")

    def test_axis(self):
        assert _parse_axis("0:2:0.5") == (0.0, 0.5, 1.0, 1.5, 2.0)
        assert _parse_axis("-1:1:1") == (-1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            _parse_axis("0:2")
        with pytest.raises(ValueError):
            _parse_axis("0:2:-1")

    def test_grid(self):
        assert _parse_grid("x=0:1:1") == (
            (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0),
        )
        assert _parse_grid("x=0:0:1,y=1:2:1") == ((0.0, 1.0), (0.0, 2.0))
        assert _parse_grid("0,0;1.5,-2") == ((0.0, 0.0), (1.5, -2.0))
        with pytest.raises(ValueError):
            _parse_grid("1;2,3")

    def test_orders(self):
        assert _parse_orders("first,3") == frozenset(
            {ApproxOrder.FIRST, ApproxOrder.THIRD}
        )
        assert _parse_orders("2") == frozenset({ApproxOrder.SECOND})
        with pytest.raises(ValueError):
            _parse_orders("fourth")

    def test_config_file(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text(
            "# comment\n"
            "\n"
            "Spec = third-order\n"
            "Lambda = 1.0\n"
            "tau-rate = 2.0\n"
        )
        options = _load_config_file(str(path))
        assert options == {
            "spec": "third-order", "lambda": "1.0", "tau_rate": "2.0",
        }

    def test_config_file_errors(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("just words\n")
        with pytest.raises(ValueError):
            _load_config_file(str(bad))
        with pytest.raises(OSError):
            _load_config_file(str(tmp_path / "absent.cfg"))


class TestSpecSelection:
    def test_constant(self):
        spec, params = _build_spec_and_params({"spec": "constant", "rho": "0.5"})
        assert spec == hrx.ConstantRho(0.5)
        assert params.regime is hrx.LambdaRegime.INFINITY

    def test_constant_comonotone(self):
        _, params = _build_spec_and_params({"spec": "constant", "rho": "1"})
        assert params.regime is hrx.LambdaRegime.ZERO

    def test_third_order(self):
        spec, params = _build_spec_and_params(
            {"spec": "third_order", "lambda": "1.5", "alpha": "2"}
        )
        assert spec == hrx.ThirdOrderHR(1.5, 2.0, 0.0)
        assert params == HRParams.finite(1.5, 2.0, 0.0)

    def test_corollaries(self):
        spec, params = _build_spec_and_params({"spec": "infinity", "gamma": "1"})
        assert spec == hrx.CorollaryInfinity(1.0)
        assert params.regime is hrx.LambdaRegime.INFINITY
        spec, params = _build_spec_and_params({"spec": "zero", "tau_rate": "2"})
        assert spec == hrx.CorollaryZero(2.0)
        assert params.regime is hrx.LambdaRegime.ZERO

    def test_missing_required_key(self):
        with pytest.raises(ValueError):
            _build_spec_and_params({"spec": "constant"})
        with pytest.raises(ValueError):
            _build_spec_and_params({"spec": "third-order"})
        with pytest.raises(ValueError):
            _build_spec_and_params({"spec": "warp"})

    def test_build_study_config(self):
        config = build_study_config({
            "spec": "constant", "rho": "0.5",
            "n": "100,1000", "grid": "0,0",
        })
        assert config.n_values == (100, 1000)
        assert config.orders == frozenset(ApproxOrder)
        assert config.output_path == "-"
        with pytest.raises(ValueError):
            build_study_config({"spec": "constant", "rho": "0.5", "grid": "0,0"})
        with pytest.raises(ValueError):
            build_study_config({"spec": "constant", "rho": "0.5", "n": "100"})


class TestMain:
    def test_table_to_file_and_rate(self, tmp_path, capsys):
        out = str(tmp_path / "study.csv")
        code = main([
            "table", "--spec", "third-order", "--lambda", "1",
            "--alpha", "2", "--beta", "5",
            "--n", "3:6:1", "--grid", "1,1", "--out", out,
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "wrote 4 records" in captured.err
        records = read_records(out)
        assert len(records) == 4

        code = main(["rate", out, "--order", "2", "--point", "1,1"])
        assert code == 0
        line = capsys.readouterr().out
        assert line.startswith("order=2 slope=")
        assert "r_squared=" in line

    def test_table_to_stdout(self, capsys):
        code = main([
            "table", "--spec", "constant", "--rho", "0.5",
            "--n", "100,1000", "--grid", "0,0", "--orders", "1",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ",".join(_CSV_HEADER)
        assert len(lines) == 3

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(
            "spec = third-order\n"
            "lambda = 1.0\n"
            "n = 1000,10000\n"
            "grid = 1,1;2,2\n"
        )
        out = str(tmp_path / "a.csv")
        assert main(["table", "--config", str(cfg), "--out", out]) == 0
        assert len(read_records(out)) == 4
        out2 = str(tmp_path / "b.csv")
        code = main([
            "table", "--config", str(cfg), "--n", "1000", "--out", out2,
        ])
        assert code == 0
        assert len(read_records(out2)) == 2
        capsys.readouterr()

    def test_error_exit_codes(self, tmp_path, capsys):
        assert main(["table", "--spec", "warp", "--n", "100",
                     "--grid", "0,0"]) == 1
        assert "error:" in capsys.readouterr().err
        assert main(["rate", str(tmp_path / "absent.csv"),
                     "--order", "1"]) == 1
        assert main(["nonsense"]) == 1
        assert main([]) == 1
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_unconverged_joint_tail_exits_2(
        self, tmp_path, capsys, monkeypatch, unconverged_quad
    ):
        # every joint tail falls back to the adaptive integral, which fails
        monkeypatch.setattr(hrx.gauss, "_TAIL_CERTIFICATE_RTOL", -1.0)
        out = tmp_path / "study.csv"
        code = main([
            "table", "--spec", "third-order", "--lambda", "1",
            "--alpha", "2", "--beta", "5",
            "--n", "8:8:1", "--grid", "2,2", "--out", str(out),
        ])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    def test_module_entry_point(self):
        src = str(Path(hrx.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "hrx", "verify", "--help"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "--seed" in proc.stdout
        assert proc.stderr == ""

    def test_rate_rejects_bad_order(self, tmp_path, capsys):
        out = str(tmp_path / "study.csv")
        main(["table", "--spec", "constant", "--rho", "0.5",
              "--n", "100,1000,10000", "--grid", "0,0", "--out", out])
        assert main(["rate", out, "--order", "fourth"]) == 1
        capsys.readouterr()

    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "all" in out and "checks passed" in out
        assert "FAIL" not in out
