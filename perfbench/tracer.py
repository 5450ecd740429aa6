"""Per-layer tracing of hrx from outside the package.

The tracer wraps public functions by rebinding the names each consumer
module imported (``hrx.triangular.bivariate_normal_survival``,
``hrx.cli.hr_approx``, ...), so a call that crosses a layer boundary
becomes a span: name, parent span, start, end, job, and an optional
amount (integrand evaluations, Monte Carlo pairs, records written).
Calls that stay inside one layer and are too frequent to time without
drowning the measurement are only counted.  ``uninstall`` restores every
binding it replaced.  Spans stay in memory as flat arrays until the run
ends.
"""
from __future__ import annotations

import math
from array import array
from time import perf_counter

import numpy as np

# Each layer is one module of hrx; a span's layer is the prefix of its name.
LAYERS = ("gauss", "norming", "hr_core", "triangular", "oracle", "cli")


def bvn_branch(h: float, k: float, rho: float) -> str:
    """The branch `bivariate_normal_survival` takes, read from its inputs."""
    if (math.isfinite(h) and math.isfinite(k) and rho not in (0.0, 1.0, -1.0)
            and min(h, k) >= 3.0):
        return "gauss.bvn_survival.tail"
    return "gauss.bvn_survival.other"


def _evaluations(args, kwargs, result) -> float:
    return float(result.evaluations)


def _mc_pairs(args, kwargs, result) -> float:
    n = args[0]
    trials = kwargs["trials"] if "trials" in kwargs else args[4]
    return float(n * trials)


def _norming_n(args, kwargs, result) -> float:
    return float(args[0])


def _record_count(args, kwargs, result) -> float:
    return float(len(args[0]))


# (consumer module, bound name, span name, amount-of-work function).
_SPANS = (
    ("triangular", "bivariate_normal_survival", bvn_branch, None),
    ("triangular", "std_normal_survival", "gauss.std_normal_survival", None),
    ("triangular", "std_normal_cdf", "gauss.std_normal_cdf", None),
    ("hr_core", "std_normal_survival", "gauss.std_normal_survival", None),
    ("hr_core", "std_normal_cdf", "gauss.std_normal_cdf", None),
    ("hr_core", "std_normal_pdf", "gauss.std_normal_pdf", None),
    ("norming", "std_normal_survival", "gauss.std_normal_survival", None),
    ("norming", "std_normal_pdf", "gauss.std_normal_pdf", None),
    ("oracle", "std_normal_pdf", "gauss.std_normal_pdf", None),
    ("cli", "std_normal_survival", "gauss.std_normal_survival", None),
    ("cli", "std_normal_cdf", "gauss.std_normal_cdf", None),
    ("triangular", "solve_bn", "norming.solve_bn", _norming_n),
    ("hr_core", "solve_bn", "norming.solve_bn", _norming_n),
    ("oracle", "solve_bn", "norming.solve_bn", _norming_n),
    ("cli", "solve_bn", "norming.solve_bn", _norming_n),
    ("triangular", "hr_cdf", "hr_core.hr_cdf", None),
    ("cli", "hr_cdf", "hr_core.hr_cdf", None),
    ("cli", "hr_approx", "hr_core.hr_approx", None),
    ("cli", "I_closed", "hr_core.I_closed", None),
    ("cli", "tau3", "hr_core.tau3", None),
    ("cli", "make_row", "triangular.make_row", None),
    ("cli", "exact_joint_max_cdf", "triangular.exact_joint_max_cdf", None),
    ("cli", "I_k_quadrature", "oracle.I_k_quadrature", None),
    ("cli", "quad_semi_infinite", "oracle.quad_semi_infinite", _evaluations),
    ("oracle", "quad_semi_infinite", "oracle.quad_semi_infinite", _evaluations),
    ("cli", "mc_triangular_maxima", "oracle.mc", _mc_pairs),
    ("cli", "run_study", "cli.run_study", None),
    ("cli", "write_records", "cli.write_records", _record_count),
)

# Same-layer calls counted without a span: the joint-tail integrand's
# survival calls and the coefficient rebuilds inside hr_approx.
_COUNTS = (
    ("gauss", "std_normal_survival", "gauss.std_normal_survival"),
    ("hr_core", "tau", "hr_core.tau"),
)


class Tracer:
    """Span recorder for one process; install, run jobs, uninstall."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._job = -1
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.job.append(self._job)
        self.end.append(0.0)
        self.amount.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span(self, fn, name, amount=None):
        """Wrap fn so each call records a span.  `name` is a string or a
        function of the call's arguments that returns one."""
        static_id = None if callable(name) else self._id(name)

        def traced(*args, **kwargs):
            name_id = self._id(name(*args)) if static_id is None else static_id
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if amount is not None:
                self.amount[idx] = amount(args, kwargs, result)
            return result
        return traced

    def run_job(self, fn, *args):
        """Run one benchmark job as a root span named cli.main."""
        self._job += 1
        idx = self._open(self._id("cli.main"))
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _counted(self, fn, name: str):
        self.counts.setdefault(name, 0)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _patch(self, module, attr: str, wrapper) -> None:
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self, hrx) -> None:
        modules = {m: getattr(hrx, m) for m in LAYERS}
        for module, attr, name, amount in _SPANS:
            target = modules[module]
            self._patch(target, attr,
                        self.span(getattr(target, attr), name, amount))
        for module, attr, name in _COUNTS:
            target = modules[module]
            self._patch(target, attr, self._counted(getattr(target, attr), name))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "amount": np.frombuffer(self.amount, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class SpanSummary:
    """Totals per span name and self time per layer, from a Tracer."""

    def __init__(self, tracer: Tracer) -> None:
        a = tracer.arrays()
        self.names = tracer.names
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        k = len(self.names)
        self.calls = np.bincount(a["name"], minlength=k)
        self.total = np.bincount(a["name"], weights=dur, minlength=k)
        self.self_time = np.bincount(a["name"], weights=self_time, minlength=k)
        self.amount = np.bincount(a["name"], weights=a["amount"], minlength=k)
        self.wall = float(dur[~has_parent].sum())
        self._name = a["name"]
        self._amount = a["amount"]
        self._dur = dur
        self.counts = dict(tracer.counts)

    def _index(self, name: str) -> int | None:
        return self.names.index(name) if name in self.names else None

    def calls_of(self, name: str) -> int:
        """Spans plus counted-only calls under this name."""
        i = self._index(name)
        spans = 0 if i is None else int(self.calls[i])
        return spans + self.counts.get(name, 0)

    def total_of(self, name: str) -> float:
        i = self._index(name)
        return 0.0 if i is None else float(self.total[i])

    def amount_of(self, name: str) -> float:
        i = self._index(name)
        return 0.0 if i is None else float(self.amount[i])

    def us_per_call(self, name: str) -> float:
        i = self._index(name)
        if i is None or self.calls[i] == 0:
            return 0.0
        return 1e6 * float(self.total[i] / self.calls[i])

    def us_per_amount(self, name: str) -> float:
        """Microseconds per unit of work (record, pair) of a span name."""
        amount = self.amount_of(name)
        return 1e6 * self.total_of(name) / amount if amount else 0.0

    def self_share(self, prefix: str) -> float:
        """Self time of spans named with this prefix, over root-span time."""
        mask = [n == prefix or n.startswith(prefix + ".") for n in self.names]
        return float(self.self_time[np.array(mask, dtype=bool)].sum()) / self.wall

    def first_call_us(self, name: str) -> float:
        """Mean duration of the first call for each distinct amount (argument)."""
        i = self._index(name)
        if i is None or self.calls[i] == 0:
            return 0.0
        idx = np.flatnonzero(self._name == i)
        _, first = np.unique(self._amount[idx], return_index=True)
        return 1e6 * float(self._dur[idx[first]].mean())
