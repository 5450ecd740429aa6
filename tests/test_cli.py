"""Study driver, CSV round-tripping, rate fits, and the command line."""
from __future__ import annotations

import hashlib
import io
import math
import os
import re
import shlex
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import hrx
from hrx import ApproxOrder, ConvergenceRecord, HRParams, RateFit, StudyConfig
from hrx.cli import (
    _CSV_HEADER,
    _build_parser,
    _build_spec,
    _load_config_file,
    _parse_axis,
    _parse_grid,
    _parse_n_values,
    build_study_config,
    fit_rate,
    main,
    read_records,
    run_study,
    write_records,
)

# A third-order table over the study-bulk grid, and a fresh interpreter
# that runs its n = 10 row, then its n = 1000 row, into the directory
# argv[1], printing each exit code and whether any scipy module was
# loaded.
THIRD_ORDER_TABLE = ["table", "--spec", "third-order", "--lambda", "1",
                     "--alpha", "2", "--beta", "5"]
COLD_TABLE_ARGV = [*THIRD_ORDER_TABLE, "--grid", "x=-3:1:0.25"]
COLD_TABLE_RUN = f"""
import sys
from hrx.cli import main
for n in ("10", "1000"):
    out = f"{{sys.argv[1]}}/cold{{n}}.csv"
    code = main({COLD_TABLE_ARGV!r} + ["--n", n, "--out", out])
    print(code, any(m.startswith("scipy") for m in sys.modules))
"""
# The two reference studies, study-tail then study-bulk, the same way.
REFERENCE_STUDIES = {"tail": ["--n", "3:8:0.5", "--grid", "x=-2:4:0.5"],
                     "bulk": ["--n", "1:2.5:0.25", "--grid", "x=-3:1:0.25"]}
COLD_STUDIES_RUN = f"""
import sys
from hrx.cli import main
for name, args in {REFERENCE_STUDIES!r}.items():
    out = f"{{sys.argv[1]}}/cold-{{name}}.csv"
    code = main({THIRD_ORDER_TABLE!r} + args + ["--out", out])
    print(code, any(m.startswith("scipy") for m in sys.modules))
"""

README = Path(__file__).resolve().parents[1] / "README.md"

SMALL_CONFIG = StudyConfig(
    spec=hrx.ThirdOrderHR(1.0, 2.0, 5.0),
    n_values=(10**3, 10**4),
    grid=((1.0, 1.0), (2.0, 2.0)),
)


def synthetic_record(n, b, x, y, err1, err2=None):
    return ConvergenceRecord(
        n, b, 0.5, x, y, 0.5,
        (0.5, None, None),
        (err1, err2, None),
        (None, None, None),
        False,
    )


# The per-line writer `write_records` had before it formatted shared
# cells once: all 14 numeric cells of a line in one printf format.  It is
# the oracle for the bytes of every line.
ORACLE_EVALUATED_LINE = "%s," + ",".join(["%.17g"] * 14) + ",%s\n"
ORACLE_SKIPPED_LINE = "%s," + ",".join(["%.17g"] * 4) + "," * 11 + "%s\n"


def oracle_csv(records):
    lines = [",".join(_CSV_HEADER) + "\n"]
    for r in records:
        clipped = "true" if r.clipped else "false"
        if r.skipped:
            lines.append(ORACLE_SKIPPED_LINE
                         % (r.n, r.b, r.rho, r.x, r.y, clipped))
        else:
            lines.append(ORACLE_EVALUATED_LINE
                         % (r.n, r.b, r.rho, r.x, r.y, r.exact, *r.approx,
                            *r.err, *r.scaled, clipped))
    return "".join(lines)


def written(records, tmp_path):
    path = tmp_path / "written.csv"
    write_records(records, str(path))
    return path.read_text(encoding="utf-8")


FROZEN_STUDY_CSV = """\
n,b_n,rho_n,x,y,exact,approx1,approx2,approx3,err1,err2,err3,scaled1,scaled2,scaled3,clipped
10,1.2815515655446004,-1,1,1,0.67024390360825725,0.53846818224224957,0.81371424839338258,0.96920438012014087,0.13177572136600768,0.14347034478512533,0.29896047651188362,0.216425073309442,0.38699600696344899,1.3244339051267866,true
10,1.2815515655446004,-1,-1,0.5,0.012387142148310916,0.051174010001129172,0.028554546307712012,0.18686625245934191,0.038786867852818256,0.016167404159401096,0.174479110311031,0.063702559405265591,0.043609854440812383,0.77296521643422167,true
10,1.2815515655446004,-1,2.5,4,0.99382414504069316,0.91414833218800973,1,0.52084645629611048,0.079675812852683436,0.0061758549593068368,0.47297768874458268,0.13085751653551217,0.016658712380016198,2.095352852827451,true
10,1.2815515655446004,-1,-700,-700,,,,,,,,,,,true
100000,4.2648907939228247,0.91582882327579418,1,1,0.56498217366639936,0.53846818224224957,0.56332110450185924,0.564588801648371,0.026513991424149785,0.0016610691645401188,0.00039337201802835953,0.48227077144844388,0.54956539328049281,2.3672872268756984,false
100000,4.2648907939228247,0.91582882327579418,-1,0.5,0.050276478085849646,0.051174010001129172,0.049131620147615747,0.050422321338225759,0.0008975319152795258,0.0011448579382338994,0.00014584325237611273,0.016325471418354599,0.37877670388878676,0.87767520985971614,false
100000,4.2648907939228247,0.91582882327579418,2.5,4,0.9364649361326608,0.91414833218800973,0.94107974281706286,0.93544145727327388,0.02231660394465107,0.0046148066844020619,0.0010234788593869171,0.40592325871740675,1.5268106256906031,6.1592292277110685,false
100000,4.2648907939228247,0.91582882327579418,-700,-700,,,,,,,,,,,false
"""

RECORD_STUDIES = [
    hrx.ThirdOrderHR(1.0, 2.0, 5.0),
    hrx.ConstantRho(0.5),
    hrx.CorollaryZero(2.0),
    # finite lam near each boundary member, evaluated by the finite formulas
    hrx.ThirdOrderHR(1e-7),
    hrx.ThirdOrderHR(2e6),
]


def check_record(record, spec):
    """record == what the scalar functions give at its (n, x, y)."""
    params = spec.params
    row = hrx.make_row(spec, record.n)
    x, y = record.x, record.y
    assert (record.b, record.rho, record.clipped) == (
        row.b.b, row.rho, row.clipped,
    )
    if record.skipped:
        assert hrx.hr_cdf(params, x, y) < 1e-300
        assert record.exact is None
        assert record.approx == record.err == record.scaled == (None,) * 3
        return
    assert record.exact == hrx.exact_joint_max_cdf(record.n, record.rho, x, y)
    cells = (record.exact, *record.approx, *record.err, *record.scaled)
    assert {type(v) for v in cells} == {float}
    b2 = row.b.b_squared
    for order in ApproxOrder:
        k = order.value - 1
        approx, err, scaled = record.approx[k], record.err[k], record.scaled[k]
        assert approx == hrx.hr_approx(record.n, params, x, y, order)
        assert err == abs(record.exact - approx)
        assert scaled == err * b2**order.value


class TestStudyConfig:
    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            StudyConfig(SMALL_CONFIG.spec, (), ((0.0, 0.0),))
        with pytest.raises(ValueError):
            StudyConfig(SMALL_CONFIG.spec, (2, 10), ((0.0, 0.0),))
        with pytest.raises(ValueError):
            StudyConfig(SMALL_CONFIG.spec, (100, 100), ((0.0, 0.0),))
        with pytest.raises(ValueError):
            StudyConfig(SMALL_CONFIG.spec, (1000, 100), ((0.0, 0.0),))

    @pytest.mark.parametrize("point", [
        (math.nan, 0.0), (0.0, math.inf), (-math.inf, -math.inf),
    ])
    def test_rejects_non_finite_grid(self, point):
        with pytest.raises(ValueError, match="finite"):
            StudyConfig(SMALL_CONFIG.spec, (100,), ((0.0, 0.0), point))

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            StudyConfig(SMALL_CONFIG.spec, (100,), ())


class TestRunStudy:
    def test_shape_and_order(self):
        records = run_study(SMALL_CONFIG)
        assert len(records) == 4
        assert [(r.n, r.x) for r in records] == [
            (1000, 1.0), (1000, 2.0), (10000, 1.0), (10000, 2.0),
        ]

    def test_record_contents(self):
        # every record of every study must equal the scalar functions bit
        # for bit: the study shares H, kappa and tau across its rows but
        # may not change a single value
        grid = ((1.0, 1.0), (0.5, 2.0), (-1.0, 0.0), (-700.0, -700.0))
        for spec in RECORD_STUDIES:
            records = run_study(StudyConfig(spec, (10, 10**3, 10**5), grid))
            assert [r.skipped for r in records] == [False, False, False, True] * 3
            for record in records:
                check_record(record, spec)

    def test_underflowed_limit_is_skipped(self):
        config = StudyConfig(
            hrx.ConstantRho(0.5), (10**3,), ((1.0, 1.0), (-700.0, -700.0)),
        )
        normal, skipped = run_study(config)
        assert not normal.skipped
        assert skipped.skipped
        assert skipped.exact is None
        assert skipped.err[1] is None
        assert skipped.n == 10**3

    @pytest.mark.parametrize("spec, params",
                             [(spec, spec.params) for spec in RECORD_STUDIES[:3]])
    def test_overflowing_exponential_is_skipped(self, spec, params):
        # e^{-x} overflows below x = -709.78, where H underflows to 0
        grid = ((-710.0, -710.0), (-710.0, 1.0), (1.0, -2000.0), (1.0, 1.0))
        assert [hrx.hr_cdf(params, x, y) for x, y in grid[:3]] == [0.0] * 3
        records = run_study(StudyConfig(spec, (100,), grid))
        assert [r.skipped for r in records] == [True, True, True, False]
        for record in records:
            check_record(record, spec)

    def test_unconverged_fallback_raises(self, monkeypatch):
        # every tail pair at rho = 0.9999 takes the diagonal pass, whose
        # certificate is forced to fail: the first, at u_500(1), raises
        config = StudyConfig(
            hrx.ConstantRho(0.9999), (100, 500),
            ((1.0, 1.0), (0.3506702208933126, 0.3506702208933126)),
        )
        u = hrx.threshold(hrx.solve_bn(500), 1.0)
        want = hrx.bivariate_normal_survival(u, u, 0.9999)
        monkeypatch.setattr(hrx.gauss, "_TAIL_CERTIFICATE_RTOL", -1.0)
        with pytest.raises(hrx.QuadratureConvergenceError) as info:
            run_study(config)
        assert info.value.partial.value == want

    def test_overflowed_coefficient_raises(self):
        # alpha^2 overflows inside tau, which becomes inf - inf at the
        # origin; the whole-row approximants name the point's coefficients
        config = StudyConfig(hrx.ThirdOrderHR(1.0, 1e160, 0.0), (1000,),
                             ((1.0, 1.0), (0.0, 0.0)))
        with pytest.raises(ValueError, match=r"c1=.*, c2=nan overflowed"):
            run_study(config)

    def test_deterministic(self):
        assert run_study(SMALL_CONFIG) == run_study(SMALL_CONFIG)

    def test_rows_share_terms_without_changing_bytes(self, tmp_path):
        # a multi-row study is byte-equal to its rows run one at a time
        grid = ((1.0, 1.0), (-2.0, 0.5), (3.0, 4.0), (-700.0, -700.0))
        n_values = (10, 10**3, 10**5, 10**7)

        def csv_lines(n_values):
            path = tmp_path / "study.csv"
            write_records(run_study(StudyConfig(
                SMALL_CONFIG.spec, n_values, grid,
            )), str(path))
            return path.read_bytes().splitlines(keepends=True)

        whole = csv_lines(n_values)
        rows = [csv_lines((n,)) for n in n_values]
        assert all(lines[0] == whole[0] for lines in rows)
        assert whole[1:] == [line for lines in rows for line in lines[1:]]
        assert len(whole) == 1 + len(n_values) * len(grid)


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        path = str(tmp_path / "study.csv")
        records = run_study(SMALL_CONFIG)
        write_records(records, path)
        assert read_records(path) == records

    def test_round_trip_with_skips(self, tmp_path):
        config = StudyConfig(
            hrx.ConstantRho(0.5), (10**3,), ((1.0, 1.0), (-700.0, -700.0)),
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

    def test_frozen_bytes(self, tmp_path, capsys):
        # output as it was before the expansion terms were shared across
        # rows; a reassociation of the coefficient arithmetic, or a new
        # erfcx in the joint tail, moves a last digit somewhere in the
        # 288-record study
        def table(n, grid):
            path = tmp_path / "study.csv"
            assert main([
                "table", "--spec", "third-order", "--lambda", "1",
                "--alpha", "2", "--beta", "5", "--n", n, "--grid", grid,
                "--out", str(path),
            ]) == 0
            capsys.readouterr()
            return path.read_bytes()

        small = table("10,100000", "1,1;-1,0.5;2.5,4;-700,-700")
        assert small.decode() == FROZEN_STUDY_CSV
        assert hashlib.sha256(table("1:8:1", "x=-2:3:1")).hexdigest() == (
            "c83544d371b3bc1a799c2f21c3de84a3e12e68a1c73dec8d7e4c0203dcfdecfb"
        )

    @pytest.mark.parametrize("name, digest", [
        ("tail", "e168abf8ae7568a234e8e51c5997811ae8823a2027746016a49e8155ef33bc6f"),
        ("bulk", "bd2eb4fbd7d97dd2079e369b20cea8c3fc4416d5d22bff04587ec052828e9aad"),
    ])
    def test_frozen_reference_study_bytes(self, tmp_path, capsys, name, digest):
        # the two full reference studies, byte for byte; the benchmark's
        # reference files hold them only within tolerance
        path = tmp_path / "study.csv"
        assert main([*THIRD_ORDER_TABLE, *REFERENCE_STUDIES[name],
                     "--out", str(path)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_header_guard(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,study\n1,2,3\n")
        with pytest.raises(ValueError):
            read_records(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_records(str(tmp_path / "absent.csv"))


class TestWriteRecords:
    """The writer formats a cell shared by many lines once; every line
    must still be the per-line oracle's."""

    def test_study_matches_per_line_oracle(self, tmp_path):
        # several rows, a clipped one, skipped points, and grid values
        # repeated across points, among them both zeros
        grid = ((1.0, 1.0), (1.0, -2.0), (-2.0, 1.0), (-700.0, -700.0),
                (0.1, 0.1), (0.0, -0.0), (-0.0, 0.0), (-700.0, 1.0))
        for spec in RECORD_STUDIES:
            records = run_study(StudyConfig(spec, (10, 10**3, 10**5), grid))
            assert any(r.skipped for r in records)
            assert written(records, tmp_path) == oracle_csv(records)

    def test_signed_zeros_stay_apart(self, capsys):
        argv = ["table", "--spec", "constant", "--rho", "-0", "--n", "2:2:1",
                "--grid", "0,-0;-0,0;0,0", "--out", "-"]
        assert main(argv) == 0
        text = capsys.readouterr().out
        config = build_study_config({"spec": "constant", "rho": "-0",
                                     "n": "2:2:1", "grid": "0,-0;-0,0;0,0"})
        assert text == oracle_csv(run_study(config))
        heads = [line.split(",")[:5] for line in text.splitlines()[1:]]
        assert heads == [["100", "2.3263478740408412", "-0", "0", "-0"],
                         ["100", "2.3263478740408412", "-0", "-0", "0"],
                         ["100", "2.3263478740408412", "-0", "0", "0"]]

    def test_hand_built_records(self, tmp_path):
        # one n with b, rho or clipped changing between records, rho
        # flipping between 0.0 and -0.0, equal values held by distinct
        # objects, and a skipped record between evaluated ones
        def record(b, rho, x, y, clipped=False, skipped=False):
            if skipped:
                return ConvergenceRecord(100, b, rho, x, y, None, (None,) * 3,
                                         (None,) * 3, (None,) * 3, clipped)
            return ConvergenceRecord(100, b, rho, x, y, 0.25, (0.5, 0.1, -0.0),
                                     (1e-300, 2.5e-17, 0.0),
                                     (3.0, 1 / 3, 7e22), clipped)

        records = [
            record(2.0, 0.5, 0.1, 0.1),
            record(2.0, 0.5, float("0.1"), -0.1),
            record(2.5, 0.5, 0.1, 0.1),
            record(2.5, 0.25, 0.1, 0.1),
            record(2.5, 0.0, 0.0, -0.0),
            record(2.5, -0.0, -0.0, 0.0),
            record(2.5, 0.0, 0.0, 0.0, skipped=True),
            record(2.5, 0.0, 0.0, 0.0, clipped=True),
            record(float("2.5"), 0.0, 1e-300, 1.5e300),
        ]
        assert written(records, tmp_path) == oracle_csv(records)
        assert written(iter(records), tmp_path) == oracle_csv(records)
        assert written([], tmp_path) == oracle_csv([])

    def test_special_values_keep_their_lines(self, tmp_path):
        # a line copies the value cells of an earlier line whose values
        # compare equal, and 0.0 == -0.0: a line holding a zero of either
        # sign is formatted afresh.  NaN and both infinities, repeated,
        # print as the oracle does
        nan, inf = float("nan"), math.inf

        def record(x, exact, approx, err, scaled):
            return ConvergenceRecord(100, 2.5, 0.5, x, 1.0, exact, approx,
                                     err, scaled, False)

        same = (0.25, (0.5, 0.1, 0.0), (1e-3, 2.0, inf), (3.0, -inf, 7.0))
        flipped = (0.25, (0.5, 0.1, -0.0), (1e-3, 2.0, inf), (3.0, -inf, 7.0))
        with_nan = (nan, (nan, 0.1, 0.2), (inf, -inf, nan), (1.0, nan, 2.0))
        records = [record(1.0, *same), record(2.0, *flipped),
                   record(3.0, *same), record(4.0, *flipped),
                   record(5.0, *with_nan), record(6.0, *with_nan),
                   record(7.0, -0.0, (0.0,) * 3, (-0.0,) * 3, (0.0,) * 3),
                   record(8.0, 0.0, (-0.0,) * 3, (0.0,) * 3, (-0.0,) * 3)]
        text = written(records, tmp_path)
        assert text == oracle_csv(records)
        assert [line.split(",")[8] for line in text.splitlines()[1:5]] == [
            "0", "-0", "0", "-0"]

    def test_grid_without_repeated_lines(self, tmp_path):
        # y is off x's lattice, so no two lines share their 10 values
        config = build_study_config({
            "spec": "third-order", "lambda": "1", "alpha": "2", "beta": "5",
            "n": "3:3:1", "grid": "x=-2:4:0.5,y=-1.93:4.07:0.5"})
        records = run_study(config)
        values = {(r.exact, *r.approx, *r.err, *r.scaled) for r in records}
        assert len(values) == len(records) == 169
        assert written(records, tmp_path) == oracle_csv(records)


class TestWriteTarget:
    """The CSV replaces the contents of --out, whatever kind of file."""

    ARGV = [*THIRD_ORDER_TABLE, "--n", "3", "--grid", "x=-2:4:0.5"]

    def expected(self):
        config = build_study_config({
            "spec": "third-order", "lambda": "1", "alpha": "2", "beta": "5",
            "n": "3", "grid": "x=-2:4:0.5"})
        return oracle_csv(run_study(config)).encode()

    def test_longer_file_is_cut(self, tmp_path, capsys):
        out = tmp_path / "study.csv"
        out.write_bytes(b"x" * 100_000)
        assert len(self.expected()) < 100_000
        assert main([*self.ARGV, "--out", str(out)]) == 0
        assert out.read_bytes() == self.expected()

    def test_device_exits_0(self, capsys):
        assert main([*self.ARGV, "--out", os.devnull]) == 0
        assert "error" not in capsys.readouterr().err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_fifo_gets_every_byte(self, tmp_path, capsys):
        fifo = tmp_path / "study.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main([*self.ARGV, "--out", str(fifo)]) == 0
        reader.join(timeout=60)
        assert received == [self.expected()]

    def test_directory_exits_1(self, tmp_path, capsys):
        assert main([*self.ARGV, "--out", str(tmp_path)]) == 1
        assert "cannot write study output to" in capsys.readouterr().err


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

    def test_errors_of_zero_spread(self):
        # equal errors lie on a flat line, which fits them exactly, even
        # where polyfit leaves residuals of ~1e-16 (0.1, 1e-3, 0.3, 2^-10)
        for e in (0.25, 0.1, 1e-3, 0.3, 2.0**-10):
            records = [
                synthetic_record(10 * i, b, 1.0, 1.0, e)
                for i, b in enumerate((2.0, 3.0, 4.0, 5.0), start=1)
            ]
            fit = fit_rate(records, ApproxOrder.FIRST)
            assert abs(fit.slope) <= 1e-12
            assert abs(fit.intercept - math.log(e)) <= 1e-12
            assert fit.r_squared == 1.0, e

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

    @pytest.mark.parametrize("text, values", [
        # the reference studies' n ranges and the README's
        ("3:8:0.5", (1000, 3162, 10000, 31623, 100000, 316228, 1000000,
                     3162278, 10000000, 31622777, 100000000)),
        ("1:2.5:0.25", (10, 18, 32, 56, 100, 178, 316)),
        ("3:7:1", (1000, 10000, 100000, 1000000, 10000000)),
    ])
    def test_pinned_n_ranges(self, text, values):
        assert _parse_n_values(text) == values

    @pytest.mark.parametrize("text, values", [
        ("-2:4:0.5", tuple(i / 2 for i in range(-4, 9))),
        ("-3:1:0.25", tuple(i / 4 for i in range(-12, 5))),
        ("-1:2:1", (-1.0, 0.0, 1.0, 2.0)),
        # 3 * 0.1 lands an ulp past 0.3 and still counts as the endpoint
        ("0:0.3:0.1", (0.0, 0.1, 0.2, 0.30000000000000004)),
        ("2:1:1", ()),
    ])
    def test_pinned_axis_ranges(self, text, values):
        assert _parse_axis(text) == values

    @pytest.mark.parametrize("text", [
        "nan:1:1", "0:nan:1", "0:1:nan", "-inf:1:1", "0:inf:1", "0:1:inf",
        "-1e308:1e308:1",
    ])
    def test_range_needs_finite_steps(self, text):
        quoted = re.escape(repr(text))
        with pytest.raises(ValueError, match=f"grid x range .*{quoted}"):
            _parse_axis(text)
        with pytest.raises(ValueError, match=f"log10 n range .*{quoted}"):
            _parse_n_values(text)

    def test_n_range_overflowing_10_to_the_k(self):
        with pytest.raises(ValueError, match="'400:401:1' overflows"):
            _parse_n_values("400:401:1")

    def test_grid(self):
        assert _parse_grid("x=0:1:1") == (
            (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0),
        )
        assert _parse_grid("x=0:0:1,y=1:2:1") == ((0.0, 1.0), (0.0, 2.0))
        assert _parse_grid("0,0;1.5,-2") == ((0.0, 0.0), (1.5, -2.0))
        with pytest.raises(ValueError):
            _parse_grid("1;2,3")
        with pytest.raises(ValueError, match="grid y range"):
            _parse_grid("x=0:1:1,y=")

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
        spec = _build_spec({"spec": "constant", "rho": "0.5"})
        assert spec == hrx.ConstantRho(0.5)
        assert spec.params == HRParams.infinity()

    def test_constant_comonotone(self):
        spec = _build_spec({"spec": "constant", "rho": "1"})
        assert spec.params == HRParams.zero()

    def test_third_order(self):
        spec = _build_spec(
            {"spec": "third_order", "lambda": "1.5", "alpha": "2"}
        )
        assert spec == hrx.ThirdOrderHR(1.5, 2.0, 0.0)
        assert spec.params == HRParams.finite(1.5, 2.0, 0.0)

    def test_corollaries(self):
        spec = _build_spec({"spec": "infinity", "gamma": "1"})
        assert spec == hrx.CorollaryInfinity(1.0)
        assert spec.params == HRParams.infinity()
        spec = _build_spec({"spec": "zero", "tau_rate": "2"})
        assert spec == hrx.CorollaryZero(2.0)
        assert spec.params == HRParams.zero()

    def test_missing_required_key(self):
        with pytest.raises(ValueError):
            _build_spec({"spec": "constant"})
        with pytest.raises(ValueError):
            _build_spec({"spec": "third-order"})
        with pytest.raises(ValueError):
            _build_spec({"spec": "warp"})

    def test_build_study_config(self):
        config = build_study_config({
            "spec": "constant", "rho": "0.5",
            "n": "100,1000", "grid": "0,0",
        })
        assert config == StudyConfig(
            hrx.ConstantRho(0.5), (100, 1000), ((0.0, 0.0),)
        )
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
            "--n", "100,1000", "--grid", "0,0",
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

    def test_calls_share_no_values(self, capsys):
        # no flag of one call may reach the next in the same process
        argv = ["table", "--spec", "constant", "--n", "100", "--grid", "0,0"]
        assert main(argv[:3] + ["--rho", "0.5"] + argv[3:]) == 0
        capsys.readouterr()
        assert main(argv) == 1
        assert "requires 'rho'" in capsys.readouterr().err

    def test_parser_built_once(self, capsys):
        assert _build_parser() is _build_parser()
        misses = _build_parser.cache_info().misses
        assert main(["table", "--spec", "constant", "--rho", "0.5",
                     "--n", "100", "--grid", "0,0"]) == 0
        assert main(["verify", "--help"]) == 0
        capsys.readouterr()
        assert _build_parser.cache_info().misses == misses

    def test_optional_flag_does_not_reach_the_next_call(self, capsys):
        # a default alpha of 0 after a call that set it
        argv = [*THIRD_ORDER_TABLE[:5], "--n", "1000", "--grid", "0,0;1,1",
                "--out", "-"]
        assert main(argv[:5] + ["--alpha", "2"] + argv[5:]) == 0
        with_alpha = capsys.readouterr().out
        assert main(argv) == 0
        without = capsys.readouterr().out
        config = StudyConfig(hrx.ThirdOrderHR(1.0), (1000,),
                             ((0.0, 0.0), (1.0, 1.0)))
        assert without == oracle_csv(run_study(config))
        assert without != with_alpha

    def test_parse_error_then_good_call(self, capsys):
        argv = ["table", "--spec", "constant", "--rho", "0.5", "--n", "100",
                "--grid", "0,0", "--out", "-"]
        assert main(argv + ["--bogus", "1"]) == 1
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        config = StudyConfig(hrx.ConstantRho(0.5), (100,), ((0.0, 0.0),))
        assert captured.out == oracle_csv(run_study(config))

    def test_help_goes_to_the_current_stdout(self):
        # the parser outlives a redirection; each call writes where
        # sys.stdout points at the time
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                assert main(["verify", "--help"]) == 0
            assert out.getvalue().startswith("usage: hrx verify")
            assert "--seed" in out.getvalue()
            assert err.getvalue() == ""

    def test_negative_lambda_n_rows_are_named(self, tmp_path, capsys):
        # lam - alpha/b^2 - beta/b^4 is -2.07 at n = 10 (a clipped row) and
        # -0.564 at n = 18, where rho_n is that of +0.564 and clipped is
        # false; one stderr line names both rows, and the CSV is unchanged
        out = tmp_path / "study.csv"
        assert main([*THIRD_ORDER_TABLE, "--n", "1:1.5:0.25", "--grid",
                     "0,0;-3,1", "--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "wrote 6 records (6 evaluated) to " + str(out),
            "warning: lambda - alpha/b_n^2 - beta/b_n^4 is negative at "
            "n = 10, 18; rho_n there is the one |lambda_n| gives",
        ]
        records = read_records(str(out))
        assert [(r.n, r.clipped) for r in records[::2]] == [
            (10, True), (18, False), (32, False)]
        config = StudyConfig(hrx.ThirdOrderHR(1.0, 2.0, 5.0), (10, 18, 32),
                             ((0.0, 0.0), (-3.0, 1.0)))
        assert out.read_text(encoding="utf-8") == oracle_csv(run_study(config))

    @pytest.mark.parametrize("alpha, named", [("2", True), ("-2", False)])
    def test_tiny_lambda_sign_of_alpha(self, capsys, alpha, named):
        assert main([*THIRD_ORDER_TABLE[:3], "--lambda", "1e-300", "--alpha",
                     alpha, "--beta", "5", "--n", "6:6:1", "--grid", "0,0",
                     "--out", "-"]) == 0
        err = capsys.readouterr().err
        assert ("negative at n = 1000000;" in err) is named
        assert err.count("\n") == named

    def test_table_rejects_seed(self, tmp_path, capsys):
        # table never used a seed; a config file's seed key is still
        # ignored like any unknown key
        args = ["table", "--spec", "constant", "--rho", "0.5",
                "--n", "100", "--grid", "0,0", "--out", str(tmp_path / "a.csv")]
        assert main(args + ["--seed", "1"]) == 1
        cfg = tmp_path / "study.cfg"
        cfg.write_text("seed = 1\n")
        assert main(args + ["--config", str(cfg)]) == 0
        capsys.readouterr()

    def test_table_has_no_order_subset(self, tmp_path, capsys):
        # every study fills all three orders: table takes no orders
        # option, and a config file's orders key is ignored like any
        # unknown key
        assert not hasattr(_build_parser().parse_args(["table"]), "orders")
        out = tmp_path / "a.csv"
        cfg = tmp_path / "study.cfg"
        cfg.write_text("orders = 1\n")
        assert main(["table", "--spec", "constant", "--rho", "0.5",
                     "--n", "100", "--grid", "0,0", "--out", str(out),
                     "--config", str(cfg)]) == 0
        assert None not in read_records(str(out))[0].approx
        capsys.readouterr()

    def test_huge_grid_value_has_no_nan(self, tmp_path, capsys):
        # x^2 and x^4 overflow where e^{-x} underflows; 0 * inf gave NaN
        out = tmp_path / "study.csv"
        assert main(["table", "--spec", "constant", "--rho", "0.5",
                     "--n", "100", "--grid", "1e155,0", "--out", str(out)]) == 0
        capsys.readouterr()
        header, line = out.read_text().splitlines()
        assert "nan" not in line
        (record,) = read_records(str(out))
        assert record.approx == (math.exp(-1.0),) * 3

    def test_unconverged_joint_tail_exits_2(self, tmp_path, capsys,
                                            monkeypatch):
        # no joint-tail pair certifies, in the direct pass or the diagonal
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

    def test_overflowing_exponential_is_skipped(self, tmp_path, capsys):
        out = tmp_path / "study.csv"
        assert main(["table", "--spec", "constant", "--rho", "0.5",
                     "--n", "100", "--grid=-710,-710", "--out", str(out)]) == 0
        assert "1 records (0 evaluated)" in capsys.readouterr().err
        header, line = out.read_text().splitlines()
        assert line == "100,2.3263478740408412,0.5,-710,-710" + "," * 10 + ",false"

    def test_unconverged_fallback_exits_2(self, tmp_path, capsys,
                                          monkeypatch):
        # a natural diagonal pair, (3, 3) at rho = 0.9999, whose
        # certificate is forced to fail
        monkeypatch.setattr(hrx.gauss, "_TAIL_CERTIFICATE_RTOL", -1.0)
        out = tmp_path / "study.csv"
        code = main(["table", "--spec", "constant", "--rho", "0.9999",
                     "--n", "500", "--grid", "0.3506702208933126,0.3506702208933126",
                     "--out", str(out)])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_n_exits_1(self, tmp_path, capsys):
        out = tmp_path / "study.csv"
        assert main(["table", "--spec", "constant", "--rho", "0.5",
                     "--n", "1e3", "--grid", "0,0", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --n values must be integers")
        assert "'1e3'" in err
        assert not out.exists()

    def test_small_lambda_row_keeps_alpha(self, tmp_path, capsys):
        # lam below 1e-6 was evaluated by the lam = 0 member, which drops
        # alpha: approx2 = approx3 = approx1, and err2 read 0.0260
        rows = {}
        for lam in ("1e-7", "2e-6"):
            out = tmp_path / f"{lam}.csv"
            assert main([*THIRD_ORDER_TABLE[:3], "--lambda", lam, "--alpha",
                         "-2", "--beta", "0", "--n", "6:6:1", "--grid", "0,0",
                         "--out", str(out)]) == 0
            (rows[lam],) = read_records(str(out))
        assert rows["1e-7"].approx[0] != rows["1e-7"].approx[1]
        for record in rows.values():
            assert 6e-5 <= record.err[1] <= 7e-5
        # lam = 1e-300: lam^3 underflows, yet the second order moves
        out = tmp_path / "tiny.csv"
        assert main([*THIRD_ORDER_TABLE[:3], "--lambda", "1e-300", "--alpha",
                     "2", "--beta", "5", "--n", "6:6:1", "--grid", "0,0",
                     "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        (record,) = read_records(str(out))
        assert record.approx[1] != record.approx[0]

    def test_corollary_zero_row_near_rho_one(self, tmp_path, capsys):
        # rho_n = 1 - 3.8e-8 at n = 1e6: the direct tail pass certified a
        # wrong joint survival here, and F read 0.36787925723164444, 2e-4
        # high; the reference is 60-digit mpmath at the row's b_n and rho_n
        out = tmp_path / "study.csv"
        assert main(["table", "--spec", "corollary-zero", "--tau-rate",
                     "0.01", "--n", "1000000", "--grid", "0,0",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        (record,) = read_records(str(out))
        assert (record.b, record.rho) == (4.7534243088228987,
                                          0.9999999620773059)
        want = 0.3676793073261693
        tolerance = 1e-12 * max(1.0, abs(math.log(want)))
        assert abs(record.exact - want) <= tolerance * want

    def test_diagonal_pass_loads_no_scipy_integrate(self, fresh_python,
                                                    tmp_path):
        # (3, 3) at rho = 0.9999 is a diagonal pair: no adaptive quadrature
        out = tmp_path / "study.csv"
        proc = fresh_python("-c", (
            "import sys\n"
            "from hrx.cli import main\n"
            "code = main(['table', '--spec', 'constant', '--rho', '0.9999',"
            " '--n', '500', '--grid',"
            " '0.3506702208933126,0.3506702208933126', '--out', sys.argv[1]])\n"
            "print(code, any(m.startswith('scipy') for m in sys.modules))\n"
        ), str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False"]

    def test_import_leaves_scipy_integrate_unloaded(self, fresh_python):
        # no scipy module at all: no part of hrx imports scipy, and its
        # quadrature rule is numpy's
        proc = fresh_python("-c", "import sys, hrx; print(sorted("
                            "m for m in sys.modules if m.startswith('scipy')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_tail_free_table_loads_no_scipy(self, fresh_python, tmp_path):
        # the n = 10 row reaches no joint-tail pair; the n = 1000 row does,
        # and its tail pass runs on numpy alone too, writing what a warm
        # process writes
        proc = fresh_python("-c", COLD_TABLE_RUN, str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False", "0", "False"]
        for n in ("10", "1000"):
            warm = tmp_path / f"warm{n}.csv"
            assert main([*COLD_TABLE_ARGV, "--n", n, "--out", str(warm)]) == 0
            assert (tmp_path / f"cold{n}.csv").read_bytes() == warm.read_bytes()

    def test_tail_free_finite_rho_row_loads_no_scipy(self, fresh_python,
                                                     tmp_path):
        # the n = 18 row (rho = 0.749) sends every threshold pair through
        # the Gauss-Legendre pass, whose normal functions use math.erfc
        row = hrx.make_row(hrx.ThirdOrderHR(1.0, 2.0, 5.0), 18)
        u = [hrx.threshold(row.b, -3.0 + 0.25 * i) for i in range(17)]
        assert 0.0 < row.rho <= 0.925 and -40.0 < min(u) and max(u) < 3.0
        cold = tmp_path / "cold.csv"
        proc = fresh_python("-c", (
            "import sys\n"
            "from hrx.cli import main\n"
            f"code = main({COLD_TABLE_ARGV!r} + ['--n', '18', '--out', sys.argv[1]])\n"
            "print(code, any(m.startswith('scipy') for m in sys.modules))\n"
        ), str(cold))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False"]
        warm = tmp_path / "warm.csv"
        assert main([*COLD_TABLE_ARGV, "--n", "18", "--out", str(warm)]) == 0
        assert cold.read_bytes() == warm.read_bytes()

    def test_reference_studies_load_no_scipy(self, fresh_python, tmp_path):
        # both reference studies in full, 1,859 records of which 1,723
        # reach the joint tail, and 2,023 records
        proc = fresh_python("-c", COLD_STUDIES_RUN, str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False", "0", "False"]
        for name, args in REFERENCE_STUDIES.items():
            warm = tmp_path / f"warm-{name}.csv"
            assert main([*THIRD_ORDER_TABLE, *args, "--out", str(warm)]) == 0
            cold = tmp_path / f"cold-{name}.csv"
            assert cold.read_bytes() == warm.read_bytes()

    def test_cold_verify_loads_no_scipy(self, fresh_python, capsys):
        # the 135 identity integrals take the numpy rule; the report is
        # the one a warm process prints
        proc = fresh_python("-c", (
            "import sys\n"
            "from hrx.cli import main\n"
            "code = main(['verify', '--seed', '5'])\n"
            "print(code, any(m.startswith('scipy') for m in sys.modules))\n"
        ))
        assert proc.returncode == 0, proc.stderr
        *report, status = proc.stdout.splitlines()
        assert status.split() == ["0", "False"]
        assert main(["verify", "--seed", "5"]) == 0
        assert report == capsys.readouterr().out.splitlines()

    def test_module_entry_point(self, fresh_python):
        proc = fresh_python("-m", "hrx", "verify", "--help")
        assert proc.returncode == 0
        assert "--seed" in proc.stdout
        assert proc.stderr == ""

    def test_rate_rejects_bad_order(self, tmp_path, capsys):
        out = str(tmp_path / "study.csv")
        main(["table", "--spec", "constant", "--rho", "0.5",
              "--n", "100,1000,10000", "--grid", "0,0", "--out", out])
        assert main(["rate", out, "--order", "fourth"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("grid", ["nan,nan", "inf,inf", "0,-inf"])
    def test_non_finite_grid_exits_1(self, tmp_path, capsys, grid):
        out = tmp_path / "study.csv"
        assert main(["table", "--spec", "constant", "--rho", "0.5",
                     "--n", "100", f"--grid={grid}", "--out", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--n", "3:inf:1", "--grid", "0,0"],
        ["--n", "nan:4:1", "--grid", "0,0"],
        ["--n", "3:4:inf", "--grid", "0,0"],
        ["--n", "400:401:1", "--grid", "0,0"],
        ["--n", "100", "--grid", "x=0:inf:1"],
        ["--n", "100", "--grid", "x=nan:1:1"],
        ["--n", "100", "--grid", "x=0:1:1,y=0:1:nan"],
    ])
    def test_non_finite_range_exits_1(self, tmp_path, capsys, argv):
        # an input error named by its range, never a hang or a traceback
        out = tmp_path / "study.csv"
        assert main(["table", "--spec", "constant", "--rho", "0.5", *argv,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and " range " in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, named", [
        (["--n", "3:4:1e-300", "--grid", "0,0"], "log10 n range '3:4:1e-300'"),
        (["--n", "100", "--grid", "x=0:1:1e-300"], "grid x range '0:1:1e-300'"),
        (["--n", "100", "--grid", "x=0:1:1,y=0:1:1e-6"],
         "grid y range '0:1:1e-6'"),
        (["--n", "100", "--grid", "x=0:1:1e-3"], "grid 'x=0:1:1e-3'"),
    ])
    def test_huge_range_exits_1(self, tmp_path, capsys, argv, named):
        # counted before it is built: 1e300 values once ended in a
        # MemoryError traceback
        out = tmp_path / "study.csv"
        assert main(["table", "--spec", "constant", "--rho", "0.5", *argv,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named} has more than 1,000,000 ")
        assert not out.exists()

    def test_range_cap_is_inclusive(self):
        assert len(_parse_axis("1:1000000:1")) == 10**6
        with pytest.raises(ValueError, match="more than 1,000,000 values"):
            _parse_axis("0:1000000:1")
        with pytest.raises(ValueError, match="more than 1,000,000 points"):
            _parse_grid("x=1:1000:1,y=0:1000:1")

    @pytest.mark.parametrize("column, cell", [(6, "abc"), (0, "1e3"),
                                              (15, "maybe\r\n")])
    def test_rate_names_a_malformed_cell(self, tmp_path, capsys, column, cell):
        out = tmp_path / "study.csv"
        main(["table", "--spec", "constant", "--rho", "0.5",
              "--n", "100,1000,10000", "--grid", "0,0", "--out", str(out)])
        header, first, second, third = out.read_text().splitlines(True)
        cells = second.split(",")
        cells[column] = cell  # approx1, n, clipped
        out.write_text(header + first + ",".join(cells) + third)
        capsys.readouterr()
        assert main(["rate", str(out), "--order", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {str(out)!r} line 3: malformed row")
        assert repr(cell.strip()) in err

    def test_rate_names_a_row_of_the_wrong_length(self, tmp_path, capsys):
        out = tmp_path / "study.csv"
        main(["table", "--spec", "constant", "--rho", "0.5",
              "--n", "100,1000,10000", "--grid", "0,0", "--out", str(out)])
        header, first, second, third = out.read_text().splitlines(True)
        short = second.rsplit(",", 1)[0] + "\n"
        out.write_text(header + first + short + third)
        capsys.readouterr()
        assert main(["rate", str(out), "--order", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {str(out)!r} line 3: malformed row")
        assert "(15 cells)" in err

    def test_verify_failed_check_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(hrx.cli, "_verify_oracle",
                            lambda seed: [("an oracle", False, "off")])
        assert main(["verify"]) == 2
        captured = capsys.readouterr()
        assert "FAIL: an oracle [off]" in captured.out
        assert "checks passed" not in captured.out
        assert captured.err == "1 of 5 checks failed\n"

    def test_verify_unconverged_quadrature_exits_2(self, capsys,
                                                   unconverged_quad):
        assert main(["verify"]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "all" in out and "checks passed" in out
        assert "FAIL" not in out


def readme_commands() -> tuple[list[list[str]], str]:
    """The argv of each `hrx ...` line in the README's Command line block,
    and the start of the `rate` output documented there."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("hrx ")]
    (documented,) = [line[len("# -> "):].split("...", 1)[0]
                     for line in lines if line.startswith("# -> ")]
    return commands, documented


class TestReadmeCommandLine:
    def test_commands_run_in_order(self, tmp_path, monkeypatch, capsys):
        commands, documented = readme_commands()
        assert [argv[0] for argv in commands] == ["table", "rate", "verify"]
        assert documented.startswith("order=2 slope=")
        monkeypatch.chdir(tmp_path)
        outputs = []
        for argv in commands:
            assert main(argv) == 0, argv
            outputs.append(capsys.readouterr().out)
        assert outputs[1].startswith(documented)
        assert outputs[2].endswith("checks passed\n")


def _table(argv: list[str]) -> tuple[int, str, str]:
    """`main(["table", *argv])` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["table", *argv])
    return code, out.getvalue(), err.getvalue()


FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _flag(name: str, values) -> st.SearchStrategy[str]:
    # --name=value, so that argparse never reads "-1e+300" as a flag
    return values.map(lambda v: f"--{name}={v!r}")


SPEC_ARGS = st.one_of(
    st.tuples(st.just("--spec=constant"),
              _flag("rho", st.floats(-1.0, 1.0) | FINITE)),
    st.tuples(st.just("--spec=third-order"),
              _flag("lambda", st.floats(0.01, 10.0) | FINITE),
              _flag("alpha", FINITE), _flag("beta", FINITE)),
    st.tuples(st.just("--spec=corollary-infinity"), _flag("gamma", FINITE)),
    st.tuples(st.just("--spec=corollary-zero"),
              _flag("tau-rate", st.floats(0.0, 10.0) | FINITE)),
)


class TestRobustness:
    """No finite input ends `hrx table` in a traceback, and no evaluated
    CSV holds a NaN."""

    @given(SPEC_ARGS, st.sampled_from([3, 10, 1000, 10**6]),
           st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=3))
    def test_table_exits_cleanly(self, spec_args, n, points):
        grid = ";".join(f"{x!r},{y!r}" for x, y in points)
        code, out, _ = _table([*spec_args, f"--n={n}", f"--grid={grid}"])
        assert code in (0, 1, 2)
        if code == 0:
            assert "nan" not in out

    @pytest.mark.parametrize("argv", [
        # the Genz branch squared h - k and overflowed
        ["--spec", "constant", "--rho", "0.95", "--grid", "0,1e156"],
        ["--spec", "third-order", "--lambda", "0.05", "--grid", "0,1e155"],
        # the Genz branch gave NaN at a huge threshold
        ["--spec", "constant", "--rho", "0.95", "--grid", "0,1e100"],
    ])
    def test_huge_threshold_has_no_nan(self, argv):
        code, out, _ = _table([*argv, "--n", "100"])
        assert code == 0
        (line,) = out.splitlines()[1:]
        assert "nan" not in line
        # F^n and H are both Lambda(0) times the 1 of a vanishing marginal
        exact, approx1 = (float(c) for c in line.split(",")[5:7])
        assert approx1 == math.exp(-1.0)
        assert abs(exact - approx1) < 0.01

    def test_tau_rate_with_overflowing_square_exits_1(self):
        code, out, err = _table(["--spec", "corollary-zero", "--tau-rate",
                                 "1e200", "--n", "100", "--grid", "0,0"])
        assert code == 1
        assert out == ""
        assert "tau_rate" in err

    @pytest.mark.parametrize("spec_args, name", [
        # NaN clipped to a NaN rho, inf overflowed the coefficients, and
        # gamma = inf clipped the row to rho = -1 and exited 0
        (["--spec", "third-order", "--lambda", "1", "--alpha", "nan"], "alpha"),
        (["--spec", "third-order", "--lambda", "1", "--alpha", "inf"], "alpha"),
        (["--spec", "third-order", "--lambda", "1", "--beta=-inf"], "beta"),
        (["--spec", "corollary-infinity", "--gamma", "inf"], "gamma"),
        (["--spec", "corollary-infinity", "--gamma", "nan"], "gamma"),
    ], ids=["alpha-nan", "alpha-inf", "beta-inf", "gamma-inf", "gamma-nan"])
    def test_non_finite_parameter_exits_1(self, spec_args, name):
        code, out, err = _table([*spec_args, "--n", "100", "--grid", "0,0"])
        assert code == 1
        assert out == ""
        assert name in err
