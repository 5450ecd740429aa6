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
import functools
import itertools
import math
import struct
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .gauss import (
    std_normal_cdf,  # unused here; perfbench's tracer wraps this binding
    std_normal_cdf_array,
    std_normal_survival,
)
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
    CorollaryInfinity,
    CorollaryZero,
    RhoSequenceSpec,
    ThirdOrderHR,
    exact_joint_max_cdf,
    exact_row_cdf,
    make_row,
)

__all__ = [
    "ConvergenceRecord",
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

# "1" or "first", ... for each order
_ORDER_TOKENS = {token: order for order in ApproxOrder
                 for token in (str(order.value), order.name.lower())}


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
    per (limit, grid) per process, with the last one kept
    (`_grid_terms`), gives them at every grid point, and each row
    combines them with its own b_n^2 as arrays.  The exact F^n is one
    `exact_row_cdf` call per row over the points whose H is above the
    floor.  Every record field is a Python float, the same double a
    point-by-point evaluation gives.
    """
    rows = [make_row(config.spec, n) for n in config.n_values]
    h, c1, c2, points, skipped = _grid_terms(config.spec.params, config.grid)
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


# The key and n-free terms of the last (limit, grid) `_grid_terms` saw.
# A process runs one (limit, grid) in `perfbench`'s one-row study jobs
# and in a one-shot `hrx table`, so one entry is all that pays, and it
# bounds the memory held at one grid's terms.
_last_terms: tuple[bytes, tuple] | None = None


def _grid_terms(
    params: HRParams, grid: Sequence[tuple[float, float]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray,
           tuple[tuple[float, float], ...], tuple[int, ...]]:
    """H, c1 and c2 at the grid points whose H is above the floor, as
    read-only arrays, those points, and the indices of the others.

    They are kept for the next call, keyed by the exact bits of lam,
    alpha, beta and every grid value, so that -0.0 and 0.0 never share
    an entry.  Packing the key costs a fraction of `np.asarray` of the
    grid alone."""
    global _last_terms
    key = struct.pack(f"{3 + 2 * len(grid)}d",
                      params.lam, params.alpha, params.beta,
                      *itertools.chain.from_iterable(grid))
    last = _last_terms
    if last is not None and last[0] == key:
        return last[1]
    h, c1, c2 = hr_expansion_grid(params, grid)
    keep = (~(h < _H_FLOOR)).tolist()
    terms = h[keep], c1[keep], c2[keep]
    for array in terms:
        array.flags.writeable = False
    points = tuple(p for p, kept in zip(grid, keep) if kept)
    skipped = tuple(i for i, kept in enumerate(keep) if not kept)
    entry = *terms, points, skipped
    _last_terms = key, entry
    return entry


class ConvergenceRecord(NamedTuple):
    """Exact-vs-approximant comparison at one (n, x, y).

    approx, err and scaled are 3-tuples indexed by order.value - 1:
    approx_k, err_k = |exact - approx_k| and scaled_k = b^{2k} err_k.
    A point where the limit distribution underflows is skipped: exact
    and every per-order value are None.  The fields in order are the CSV
    columns below, each tuple spread over its three.
    """

    n: int
    b: float
    rho: float
    x: float
    y: float
    exact: float | None
    approx: tuple[float | None, ...]
    err: tuple[float | None, ...]
    scaled: tuple[float | None, ...]
    clipped: bool

    @property
    def skipped(self) -> bool:
        return self.exact is None


_CSV_HEADER = [
    "n", "b_n", "rho_n", "x", "y", "exact",
    "approx1", "approx2", "approx3",
    "err1", "err2", "err3",
    "scaled1", "scaled2", "scaled3",
    "clipped",
]

# the 10 value cells of a line, after its y cell, at 17 significant digits
_VALUES = ",%.17g" * 10


def write_records(records: Iterable[ConvergenceRecord], path: str) -> None:
    """Fixed-header CSV, 17 significant digits, byte-stable.

    Each line is its n, b_n, rho_n head, x and y cells, and rest: the 10
    value cells (blank for a skipped point) and the clipped tail.  The
    head and tail are formatted once while a record carries the same
    objects as the one before (records arrive n-major), and each nonzero
    x or y value once through a memo.  Within a row, a line whose 10
    values equal those of an earlier line, as a square grid's (y, x)
    repeats (x, y), reuses that line's rest, found by its exact value,
    so a line that repeats none costs one dict lookup.  Zeros skip both
    memos: 0.0 == -0.0 would merge them.  "-" is stdout.
    """
    lines = [",".join(_CSV_HEADER) + "\n"]
    cells: dict[float, str] = {}
    row = None
    for n, b, rho, x, y, exact, approx, err, scaled, clipped in records:
        if row is None or not (n is row[0] and b is row[1] and rho is row[2]
                               and clipped is row[3]):
            row = n, b, rho, clipped
            head = "%s,%.17g,%.17g," % (n, b, rho)
            tail = ",true\n" if clipped else ",false\n"
            earlier: dict[float, tuple] = {}
        x_cell = cells.get(x)
        if x_cell is None:
            x_cell = "%.17g" % x
            if x:
                cells[x] = x_cell
        y_cell = cells.get(y)
        if y_cell is None:
            y_cell = "%.17g" % y
            if y:
                cells[y] = y_cell
        if exact is None:
            rest = "," * 10 + tail
        elif ((seen := earlier.get(exact)) is not None and exact
              and seen[0] == approx and seen[1] == err and seen[2] == scaled
              and 0.0 not in approx and 0.0 not in err and 0.0 not in scaled):
            rest = seen[3]
        else:
            rest = _VALUES % (exact, *approx, *err, *scaled) + tail
            earlier[exact] = approx, err, scaled, rest
        lines.append(head + x_cell + "," + y_cell + rest)
    text = "".join(lines)
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as stream:
            stream.write(text)
    except OSError as exc:
        raise OSError(f"cannot write study output to {path!r}: {exc}") from exc


def read_records(path: str) -> list[ConvergenceRecord]:
    """The records of a study CSV; a malformed line is named by its path
    and line number."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as stream:
            reader = csv.reader(stream)
            header = next(reader, None)
            if header != _CSV_HEADER:
                raise ValueError(f"{path!r} is not a study CSV (bad header)")
            records = []
            for cells in reader:
                try:
                    if len(cells) != len(_CSV_HEADER):
                        raise ValueError(f"{len(cells)} cells")
                    if cells[15] not in ("true", "false"):
                        raise ValueError(f"clipped is {cells[15]!r}")
                    # exact, approx1..3, err1..3, scaled1..3; "" is None
                    v = [None if c == "" else float(c) for c in cells[5:15]]
                    records.append(ConvergenceRecord(
                        int(cells[0]), float(cells[1]), float(cells[2]),
                        float(cells[3]), float(cells[4]),
                        v[0], tuple(v[1:4]), tuple(v[4:7]), tuple(v[7:10]),
                        cells[15] == "true",
                    ))
                except ValueError as exc:
                    raise ValueError(
                        f"{path!r} line {reader.line_num}: malformed row "
                        f"{cells!r} ({exc})"
                    ) from None
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
    chosen = max(groups.values(), key=len, default=[])
    if len(chosen) < 3:
        raise ValueError(f"rate fit needs >= 3 records at a common point, "
                         f"the best has {len(chosen)}")
    xs = np.array([2.0 * math.log(r.b) for r in chosen])
    ys = np.array([math.log(r.err[k]) for r in chosen])
    slope, intercept = np.polyfit(xs, ys, 1)
    if np.ptp(ys) == 0.0:
        # equal errors lie on the flat line, whatever polyfit's rounding
        r_squared = 1.0
    else:
        residuals = ys - (slope * xs + intercept)
        ss_res = float(np.sum(residuals**2))
        ss_tot = float(np.sum((ys - ys.mean()) ** 2))
        r_squared = 1.0 - ss_res / ss_tot
    return RateFit(float(slope), float(intercept), min(max(r_squared, 0.0), 1.0))


# -- configuration parsing ------------------------------------------------

# The most values one range, or one grid, may hold.
_MAX_VALUES = 10**6


def _parse_range(text: str, what: str) -> tuple[float, ...]:
    """The values a + i*step of an a:b:step range, for every i with
    i*step no more than 1e-9 of a step past b - a, so that an inexact
    step such as 0:0.3:0.1 keeps its endpoint.  They are counted before
    they are built."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{what} range must be a:b:step, got {text!r}")
    lo, hi, step = (float(p) for p in parts)
    if not 0.0 < step < math.inf:
        raise ValueError(
            f"{what} range step must be finite and positive, got {text!r}")
    steps = (hi - lo) / step
    if not math.isfinite(steps):
        raise ValueError(
            f"{what} range must span a finite number of steps, got {text!r}")
    count = math.floor(steps + 1e-9) + 1
    if count > _MAX_VALUES:
        raise ValueError(
            f"{what} range {text!r} has more than {_MAX_VALUES:,} values")
    return tuple(lo + i * step for i in range(count))


def _parse_n_values(text: str) -> tuple[int, ...]:
    """A comma list of n, or an a:b:step range of log10 n."""
    text = text.strip()
    if ":" not in text:
        try:
            return tuple(int(tok) for tok in text.split(",") if tok.strip())
        except ValueError:
            raise ValueError(
                f"--n values must be integers or a log10 n range a:b:step, "
                f"got {text!r}") from None
    try:
        return tuple(round(10.0**k) for k in _parse_range(text, "log10 n"))
    except OverflowError:
        raise ValueError(f"log10 n range {text!r} overflows 10**k") from None


def _parse_axis(text: str, axis: str = "x") -> tuple[float, ...]:
    return _parse_range(text, f"grid {axis}")


def _parse_point(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"point must be x,y, got {text.strip()!r}")
    return float(parts[0]), float(parts[1])


def _parse_grid(text: str) -> tuple[tuple[float, float], ...]:
    """x=a:b:step[,y=a:b:step] (y defaults to x), or x,y;x,y;... points."""
    text = text.strip()
    if text.startswith("x="):
        x_range, has_y, y_range = text[2:].partition(",y=")
        xs = _parse_axis(x_range)
        ys = _parse_axis(y_range, "y") if has_y else xs
        if len(xs) * len(ys) > _MAX_VALUES:
            raise ValueError(
                f"grid {text!r} has more than {_MAX_VALUES:,} points")
        return tuple((x, y) for x in xs for y in ys)
    return tuple(_parse_point(chunk) for chunk in text.split(";")
                 if chunk.strip())


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


# spec kind -> (constructor, required keys, optional keys).  A kind is
# read lower-cased with "_" as "-", or by one of the short names.
_SPECS = {
    "constant": (ConstantRho, ("rho",), ()),
    "third-order": (ThirdOrderHR, ("lambda",), ("alpha", "beta")),
    "corollary-infinity": (CorollaryInfinity, ("gamma",), ()),
    "corollary-zero": (CorollaryZero, ("tau_rate",), ()),
}
_SPEC_SHORT_NAMES = {"thirdorder": "third-order",
                     "infinity": "corollary-infinity", "zero": "corollary-zero"}


def _build_spec(options: dict[str, str]) -> RhoSequenceSpec:
    kind = options["spec"].strip().lower().replace("_", "-")
    kind = _SPEC_SHORT_NAMES.get(kind, kind)
    if kind not in _SPECS:
        raise ValueError(f"unknown spec kind {options['spec'].strip()!r}")
    make, required, optional = _SPECS[kind]
    for key in required:
        if key not in options:
            raise ValueError(f"spec {kind!r} requires {key!r}")
    return make(*(float(options[key]) for key in required),
                **{key: float(options[key]) for key in optional
                   if key in options})


def build_study_config(options: dict[str, str]) -> StudyConfig:
    for key, what in (("spec", "a spec"), ("n", "n values"), ("grid", "a grid")):
        if key not in options:
            raise ValueError(
                f"a study requires {what} (key {key!r} or flag --{key})")
    return StudyConfig(_build_spec(options), _parse_n_values(options["n"]),
                       _parse_grid(options["grid"]))


# -- verification suite ---------------------------------------------------

# (lam, x, y) of the closed-form checks
_LAM_XY = [(lam, x, y) for lam in (0.5, 1.0, 2.0)
           for x in (-2.0, 0.0, 2.0) for y in (-2.0, 0.0, 2.0)]


def _rel(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-30)


def _worst_check(name: str, bound: float, measure: str,
                 errors: list[float]) -> tuple[str, bool, str]:
    """The check that the worst of `errors` is at most `bound`; a NaN
    error fails it."""
    worst = float(np.max(errors))
    return name, worst <= bound, f"worst {measure} {worst:.3e}"


def _tau3_integrand(lam: float, x: float) -> Callable[[np.ndarray], np.ndarray]:
    def integrand(z: np.ndarray) -> np.ndarray:
        return (std_normal_cdf_array(lam + (x - z) / (2.0 * lam)) * np.exp(-z)
                * (z**4 / 8.0 - z * z / 2.0 - 2.0))
    return integrand


def _verify_identities() -> list[tuple[str, bool, str]]:
    limits = [HRParams.zero(), HRParams.finite(0.5), HRParams.finite(1.0),
              HRParams.finite(2.0), HRParams.infinity()]
    axis = (-1.0, 0.0, 1.0, 3.0)
    return [
        _worst_check(
            "I_k closed forms vs quadrature (rel <= 1e-9)", 1e-9, "rel",
            [_rel(I_closed(k, lam, x, y), I_k_quadrature(k, lam, x, y))
             for lam, x, y in _LAM_XY for k in range(4)]),
        _worst_check(
            "tau3 closed form vs defining integral (rel <= 1e-9)", 1e-9, "rel",
            [_rel(tau3(lam, x, y),
                  quad_semi_infinite(_tau3_integrand(lam, x), y, 1e-12).value)
             for lam, x, y in _LAM_XY]),
        _worst_check(
            "max-stability |H(x+ln m, y+ln m)^m - H| <= 1e-12", 1e-12, "abs",
            [abs(hr_cdf(params, x + math.log(m), y + math.log(m)) ** m
                 - hr_cdf(params, x, y))
             for params in limits for m in (2, 10, 100)
             for x in axis for y in axis]),
        _worst_check(
            "norming constants solve n*survival(b) = 1 to 1e-14", 1e-14,
            "resid", [abs(n * std_normal_survival(solve_bn(n).b) - 1.0)
                      for n in (10, 1000, 10**6, 10**9)]),
    ]


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

# Built on the first `main` call and reused by every later one in the
# process: parsing keeps no state in the parser, each call gets a fresh
# namespace, and help and errors go to the sys.stdout and sys.stderr of
# the moment.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrx",
        description="Convergence studies for bivariate Gaussian maxima "
        "against their max-stable limits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="run a study and emit CSV")
    table.set_defaults(run=_cmd_table)
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
    table.add_argument("--grid", help="x=a:b:step[,y=a:b:step] or x,y;x,y;... "
                       "(write --grid=-1,0;... for a list that starts with -)")
    table.add_argument("--out", help="output CSV path, - for stdout")

    rate = sub.add_parser("rate", help="fit log err_k vs log b^2 from a CSV")
    rate.set_defaults(run=_cmd_rate)
    rate.add_argument("csv", help="study CSV produced by `hrx table`")
    rate.add_argument("--order", required=True,
                      help="which error column to fit: 1|2|3")
    rate.add_argument("--point", help="restrict to one grid point: x,y "
                      "(write --point=-1,0 for a negative x)")

    verify = sub.add_parser("verify", help="run identity and oracle suites")
    verify.set_defaults(run=_cmd_verify)
    verify.add_argument("--seed", type=int, default=20260822,
                        help="Monte Carlo seed (default 20260822)")
    return parser


def _cmd_table(args: argparse.Namespace) -> int:
    options: dict[str, str] = {}
    if args.config:
        options.update(_load_config_file(args.config))
    for key, value in vars(args).items():
        if key not in ("command", "config", "run") and value is not None:
            options[key] = value
    config = build_study_config(options)
    records = run_study(config)
    out = options.get("out", "-")
    write_records(records, out)
    if out != "-":
        emitted = sum(1 for r in records if not r.skipped)
        print(
            f"wrote {len(records)} records ({emitted} evaluated) to {out}",
            file=sys.stderr,
        )
    spec = config.spec
    if isinstance(spec, ThirdOrderHR):
        # every row has one record per grid point, the first carrying b_n
        negative = [str(r.n) for r in records[::len(config.grid)]
                    if spec.lam_n(r.b * r.b) < 0.0]
        if negative:
            print(f"warning: lambda - alpha/b_n^2 - beta/b_n^4 is negative at "
                  f"n = {', '.join(negative)}; rho_n there is the one "
                  f"|lambda_n| gives", file=sys.stderr)
    return 0


def _cmd_rate(args: argparse.Namespace) -> int:
    token = args.order.strip().lower()
    if token not in _ORDER_TOKENS:
        raise ValueError(f"unknown order {args.order!r}")
    order = _ORDER_TOKENS[token]
    records = read_records(args.csv)
    if args.point:
        px, py = _parse_point(args.point)
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
        return args.run(args)
    except QuadratureConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
