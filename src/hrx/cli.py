"""Batch harness: convergence tables, rate fits, and a verification suite.

Subcommands:

    hrx table   evaluate exact vs approximant distributions over an
                (n, grid) study and emit a fixed-schema CSV
    hrx rate    least-squares slope of log err_k against log b_n^2 from
                an existing study CSV
    hrx verify  run the closed-form identity and oracle cross-check
                suites, printing one pass/fail line each

Exit codes: 0 success, 1 validation error, 2 numerical failure.  Table
output is ordered n-major, then in grid order.
"""
from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .gauss import std_normal_cdf, std_normal_survival
from .hr_core import (
    ApproxOrder,
    HRParams,
    I_closed,
    approximants,
    hr_approx,  # unused here; perfbench's tracer wraps this binding
    hr_cdf,
    hr_expansion_grid,
    tau3,
)
from .norming import check_n, solve_bn
from .oracle import (
    I_k_quadrature,
    QuadratureConvergenceError,
    mc_triangular_maxima,
    quad_semi_infinite,
)
from .triangular import (
    ConstantRho,
    ConvergenceRecord,
    CorollaryInfinity,
    CorollaryZero,
    RhoSequenceSpec,
    ThirdOrderHR,
    exact_joint_max_cdf,
    exact_row_cdf,
    make_row,
)

__all__ = [
    "StudyConfig",
    "RateFit",
    "run_study",
    "fit_rate",
    "write_records",
    "read_records",
]

# Scaled errors lose meaning once the limit distribution underflows.
_H_FLOOR = 1e-300

# exact, approx, err and scaled of a skipped point
_SKIPPED_CELLS = (None, (None,) * 3, (None,) * 3, (None,) * 3)

_CSV_HEADER = [
    "n", "b_n", "rho_n", "x", "y", "exact",
    "approx1", "approx2", "approx3",
    "err1", "err2", "err3",
    "scaled1", "scaled2", "scaled3",
    "clipped",
]

_ORDER_TOKENS = {
    "1": ApproxOrder.FIRST, "first": ApproxOrder.FIRST,
    "2": ApproxOrder.SECOND, "second": ApproxOrder.SECOND,
    "3": ApproxOrder.THIRD, "third": ApproxOrder.THIRD,
}


@dataclass(frozen=True)
class StudyConfig:
    """One convergence study: a correlation sequence, its n values and
    the grid.  The limit is the one the sequence fixes (`spec.params`),
    and every study compares against all three truncations."""

    spec: RhoSequenceSpec
    n_values: tuple[int, ...]
    grid: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.n_values:
            raise ValueError("n_values must be nonempty")
        prev = None
        for n in self.n_values:
            check_n(n)
            if prev is not None and n <= prev:
                raise ValueError("n_values must be strictly increasing")
            prev = n
        if not self.grid:
            raise ValueError("grid must be nonempty")
        for x, y in self.grid:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"grid points must be finite, got ({x}, {y})")


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float


def run_study(config: StudyConfig) -> list[ConvergenceRecord]:
    """One record per (n, grid point), n-major, in deterministic order.

    H, kappa and tau do not depend on n: one `hr_expansion_grid` pass
    gives them at every grid point, and each row combines them with its
    own b_n^2 as arrays.  The exact F^n is one `exact_row_cdf` call per
    row over the points whose H is above the floor.  Every record field
    is a Python float, the same double a point-by-point evaluation gives.
    """
    rows = [make_row(config.spec, n) for n in config.n_values]
    h, c1, c2 = hr_expansion_grid(config.spec.params, config.grid)
    keep = (~(h < _H_FLOOR)).tolist()
    h, c1, c2 = h[keep], c1[keep], c2[keep]
    points = [p for p, kept in zip(config.grid, keep) if kept]
    skipped = [i for i, kept in enumerate(keep) if not kept]
    records = []
    for row in rows:
        n, b, rho, clipped = row.n, row.b.b, row.rho, row.clipped
        b2 = row.b.b_squared
        exact = np.array(exact_row_cdf(n, rho, points))
        approx = approximants(h, c1, c2, b2)
        err = [abs(exact - a) for a in approx]
        scaled = [e * b2**k for k, e in enumerate(err, start=1)]
        # (exact, approx, err, scaled) of every grid point, in grid order
        per_order = (zip(*(c.tolist() for c in columns))
                     for columns in (approx, err, scaled))
        cells = list(zip(exact.tolist(), *per_order))
        for i in skipped:
            cells.insert(i, _SKIPPED_CELLS)
        records += [ConvergenceRecord(n, b, rho, x, y, e, a, er, sc, clipped)
                    for (x, y), (e, a, er, sc) in zip(config.grid, cells)]
    return records


# printf formats of the two CSV line shapes: n, b_n, rho_n, x, y, then
# the 10 value cells at 17 significant digits (blank for a skipped
# point), then clipped
_EVALUATED_LINE = "%s," + ",".join(["%.17g"] * 14) + ",%s\n"
_SKIPPED_LINE = "%s," + ",".join(["%.17g"] * 4) + "," * 11 + "%s\n"


def _record_line(r: ConvergenceRecord) -> str:
    clipped = "true" if r.clipped else "false"
    if r.skipped:
        return _SKIPPED_LINE % (r.n, r.b, r.rho, r.x, r.y, clipped)
    return _EVALUATED_LINE % (r.n, r.b, r.rho, r.x, r.y, r.exact,
                              *r.approx, *r.err, *r.scaled, clipped)


def write_records(records: Iterable[ConvergenceRecord], path: str) -> None:
    """Fixed-header CSV, 17 significant digits, byte-stable."""
    text = "".join([",".join(_CSV_HEADER) + "\n", *map(_record_line, records)])
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as stream:
            stream.write(text)
    except OSError as exc:
        raise OSError(f"cannot write study output to {path!r}: {exc}") from exc


def read_records(path: str) -> list[ConvergenceRecord]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as stream:
            reader = csv.reader(stream)
            header = next(reader, None)
            if header != _CSV_HEADER:
                raise ValueError(f"{path!r} is not a study CSV (bad header)")
            records = []
            for cells in reader:
                if len(cells) != len(_CSV_HEADER):
                    raise ValueError(f"{path!r}: malformed row {cells!r}")
                # exact, approx1..3, err1..3, scaled1..3; "" is None
                v = [None if c == "" else float(c) for c in cells[5:15]]
                records.append(ConvergenceRecord(
                    int(cells[0]), float(cells[1]), float(cells[2]),
                    float(cells[3]), float(cells[4]),
                    v[0], tuple(v[1:4]), tuple(v[4:7]), tuple(v[7:10]),
                    cells[15] == "true",
                ))
            return records
    except OSError as exc:
        raise OSError(f"cannot read study CSV {path!r}: {exc}") from exc


def fit_rate(records: Sequence[ConvergenceRecord], order: ApproxOrder) -> RateFit:
    """Least-squares fit of log err_k against log b_n^2 at one grid point.

    Records are grouped by (x, y); the best-populated point is fitted
    (ties go to the first seen).  Needs >= 3 usable records there.
    """
    groups: dict[tuple[float, float], list[ConvergenceRecord]] = {}
    k = order.value - 1
    for record in records:
        e = record.err[k]
        if record.skipped or e is None or not math.isfinite(e) or e <= 0.0:
            continue
        groups.setdefault((record.x, record.y), []).append(record)
    if not groups:
        raise ValueError("rate fit needs >= 3 records at a common point")
    point = max(groups, key=lambda p: len(groups[p]))
    chosen = groups[point]
    if len(chosen) < 3:
        raise ValueError(
            f"rate fit needs >= 3 records at a common point, best point "
            f"{point} has {len(chosen)}"
        )
    xs = np.array([2.0 * math.log(r.b) for r in chosen])
    ys = np.array([math.log(r.err[k]) for r in chosen])
    slope, intercept = np.polyfit(xs, ys, 1)
    residuals = ys - (slope * xs + intercept)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res == 0.0 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return RateFit(float(slope), float(intercept), min(max(r_squared, 0.0), 1.0))


# -- configuration parsing ------------------------------------------------

def _parse_n_values(text: str) -> tuple[int, ...]:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"n range must be a:b:step (log10), got {text!r}")
        lo, hi, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError(f"n range step must be positive, got {step}")
        values = []
        k = lo
        while k <= hi + 1e-9:
            values.append(round(10.0**k))
            k += step
        return tuple(values)
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _parse_axis(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"axis range must be a:b:step, got {text!r}")
    lo, hi, step = (float(p) for p in parts)
    if step <= 0:
        raise ValueError(f"axis step must be positive, got {step}")
    values = []
    i = 0
    while lo + i * step <= hi + 1e-12:
        values.append(lo + i * step)
        i += 1
    return tuple(values)


def _parse_grid(text: str) -> tuple[tuple[float, float], ...]:
    text = text.strip()
    if text.startswith("x="):
        if ",y=" in text:
            x_part, y_part = text.split(",y=", 1)
            xs = _parse_axis(x_part[2:])
            ys = _parse_axis(y_part)
        else:
            xs = _parse_axis(text[2:])
            ys = xs
        return tuple((x, y) for x in xs for y in ys)
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"grid point must be x,y, got {chunk!r}")
        points.append((float(parts[0]), float(parts[1])))
    return tuple(points)


def _load_config_file(path: str) -> dict[str, str]:
    options: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as stream:
            for lineno, line in enumerate(stream, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(
                        f"{path}:{lineno}: expected key = value, got {line!r}"
                    )
                key, value = line.split("=", 1)
                options[key.strip().lower().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise OSError(f"cannot read config file {path!r}: {exc}") from exc
    return options


_SPEC_ALIASES = {
    "constant": "constant",
    "third-order": "third-order", "third_order": "third-order",
    "thirdorder": "third-order",
    "corollary-infinity": "corollary-infinity",
    "corollary_infinity": "corollary-infinity",
    "infinity": "corollary-infinity",
    "corollary-zero": "corollary-zero", "corollary_zero": "corollary-zero",
    "zero": "corollary-zero",
}


def _require(options: dict[str, str], key: str, spec_name: str) -> str:
    if key not in options:
        raise ValueError(f"spec {spec_name!r} requires {key!r}")
    return options[key]


def _build_spec(options: dict[str, str]) -> RhoSequenceSpec:
    kind_raw = _require(options, "spec", "<any>").strip().lower()
    if kind_raw not in _SPEC_ALIASES:
        raise ValueError(f"unknown spec kind {kind_raw!r}")
    kind = _SPEC_ALIASES[kind_raw]
    if kind == "constant":
        return ConstantRho(float(_require(options, "rho", kind)))
    if kind == "third-order":
        return ThirdOrderHR(
            float(_require(options, "lambda", kind)),
            float(options.get("alpha", "0")),
            float(options.get("beta", "0")),
        )
    if kind == "corollary-infinity":
        return CorollaryInfinity(float(_require(options, "gamma", kind)))
    return CorollaryZero(float(_require(options, "tau_rate", kind)))


def build_study_config(options: dict[str, str]) -> StudyConfig:
    spec = _build_spec(options)
    if "n" not in options:
        raise ValueError("a study requires n values (key 'n' or flag --n)")
    if "grid" not in options:
        raise ValueError("a study requires a grid (key 'grid' or flag --grid)")
    return StudyConfig(
        spec, _parse_n_values(options["n"]), _parse_grid(options["grid"])
    )


# -- verification suite ---------------------------------------------------

def _verify_identities() -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []

    worst_i = 0.0
    for lam in (0.5, 1.0, 2.0):
        for x in (-2.0, 0.0, 2.0):
            for y in (-2.0, 0.0, 2.0):
                for k in range(4):
                    closed = I_closed(k, lam, x, y)
                    quadrature = I_k_quadrature(k, lam, x, y)
                    rel = abs(closed - quadrature) / max(abs(quadrature), 1e-30)
                    worst_i = max(worst_i, rel)
    checks.append((
        "I_k closed forms vs quadrature (rel <= 1e-9)",
        worst_i <= 1e-9, f"worst rel {worst_i:.3e}",
    ))

    worst_t3 = 0.0
    for lam in (0.5, 1.0, 2.0):
        for x in (-2.0, 0.0, 2.0):
            for y in (-2.0, 0.0, 2.0):
                def integrand(z: float, _lam=lam, _x=x) -> float:
                    return (
                        std_normal_cdf(_lam + (_x - z) / (2.0 * _lam))
                        * math.exp(-z)
                        * (z**4 / 8.0 - z * z / 2.0 - 2.0)
                    )
                reference = quad_semi_infinite(integrand, y, 1e-12).value
                rel = abs(tau3(lam, x, y) - reference) / max(abs(reference), 1e-30)
                worst_t3 = max(worst_t3, rel)
    checks.append((
        "tau3 closed form vs defining integral (rel <= 1e-9)",
        worst_t3 <= 1e-9, f"worst rel {worst_t3:.3e}",
    ))

    worst_ms = 0.0
    params_list = [
        HRParams.zero(), HRParams.finite(0.5), HRParams.finite(1.0),
        HRParams.finite(2.0), HRParams.infinity(),
    ]
    for params in params_list:
        for m in (2, 10, 100):
            shift = math.log(m)
            for x in (-1.0, 0.0, 1.0, 3.0):
                for y in (-1.0, 0.0, 1.0, 3.0):
                    lhs = hr_cdf(params, x + shift, y + shift) ** m
                    worst_ms = max(worst_ms, abs(lhs - hr_cdf(params, x, y)))
    checks.append((
        "max-stability |H(x+ln m, y+ln m)^m - H| <= 1e-12",
        worst_ms <= 1e-12, f"worst abs {worst_ms:.3e}",
    ))

    worst_bn = 0.0
    for n in (10, 1000, 10**6, 10**9):
        b = solve_bn(n).b
        worst_bn = max(worst_bn, abs(n * std_normal_survival(b) - 1.0))
    checks.append((
        "norming constants solve n*survival(b) = 1 to 1e-14",
        worst_bn <= 1e-14, f"worst resid {worst_bn:.3e}",
    ))
    return checks


def _verify_oracle(seed: int) -> list[tuple[str, bool, str]]:
    n, rho, x, y = 50, 0.5, 1.0, 1.0
    estimate, se = mc_triangular_maxima(n, rho, x, y, trials=100_000, seed=seed)
    exact = exact_joint_max_cdf(n, rho, x, y)
    dev = abs(estimate - exact)
    ok = dev <= 3.0 * se
    return [(
        "Monte Carlo maxima vs exact cdf (n=50, rho=0.5, 3 SE)",
        ok, f"|{estimate:.5f} - {exact:.5f}| = {dev:.2e}, 3se = {3 * se:.2e}",
    )]


# -- entry point ----------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrx",
        description="Convergence studies for bivariate Gaussian maxima "
        "against their max-stable limits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="run a study and emit CSV")
    table.add_argument("--config", help="key = value study file")
    table.add_argument("--spec", help="constant | third-order | "
                       "corollary-infinity | corollary-zero")
    table.add_argument("--rho", help="correlation for the constant spec")
    table.add_argument("--lambda", dest="lambda", help="limit parameter")
    table.add_argument("--alpha", help="second-order refinement coefficient")
    table.add_argument("--beta", help="third-order refinement coefficient")
    table.add_argument("--gamma", help="corollary-infinity offset")
    table.add_argument("--tau-rate", help="corollary-zero rate")
    table.add_argument("--n", help="comma list, or a:b:step in log10")
    table.add_argument("--grid", help="x=a:b:step[,y=a:b:step] or x,y;x,y;...")
    table.add_argument("--out", help="output CSV path, - for stdout")

    rate = sub.add_parser("rate", help="fit log err_k vs log b^2 from a CSV")
    rate.add_argument("csv", help="study CSV produced by `hrx table`")
    rate.add_argument("--order", required=True,
                      help="which error column to fit: 1|2|3")
    rate.add_argument("--point", help="restrict to one grid point: x,y")

    verify = sub.add_parser("verify", help="run identity and oracle suites")
    verify.add_argument("--seed", type=int, default=20260822,
                        help="Monte Carlo seed (default 20260822)")
    return parser


def _cmd_table(args: argparse.Namespace) -> int:
    options: dict[str, str] = {}
    if args.config:
        options.update(_load_config_file(args.config))
    for key, value in vars(args).items():
        if key not in ("command", "config") and value is not None:
            options[key] = value
    records = run_study(build_study_config(options))
    out = options.get("out", "-")
    write_records(records, out)
    if out != "-":
        emitted = sum(1 for r in records if not r.skipped)
        print(
            f"wrote {len(records)} records ({emitted} evaluated) to {out}",
            file=sys.stderr,
        )
    return 0


def _cmd_rate(args: argparse.Namespace) -> int:
    token = args.order.strip().lower()
    if token not in _ORDER_TOKENS:
        raise ValueError(f"unknown order {args.order!r}")
    order = _ORDER_TOKENS[token]
    records = read_records(args.csv)
    if args.point:
        parts = args.point.split(",")
        if len(parts) != 2:
            raise ValueError(f"point must be x,y, got {args.point!r}")
        px, py = float(parts[0]), float(parts[1])
        records = [r for r in records if r.x == px and r.y == py]
    fit = fit_rate(records, order)
    print(
        f"order={order.value} slope={fit.slope:.6g} "
        f"intercept={fit.intercept:.6g} r_squared={fit.r_squared:.6g}"
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = _verify_identities() + _verify_oracle(args.seed)
    failed = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        print(f"{status}: {name} [{detail}]")
        if not ok:
            failed += 1
    if failed:
        print(f"{failed} of {len(checks)} checks failed", file=sys.stderr)
        return 2
    print(f"all {len(checks)} checks passed")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "table":
            return _cmd_table(args)
        if args.command == "rate":
            return _cmd_rate(args)
        return _cmd_verify(args)
    except QuadratureConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
