"""Span recorder and per-layer metrics for the traced benchmark run.

The traced run wraps public functions of the ``slcrit`` modules (module
attributes, plus the ``Antiderivative.values`` method) with a recorder.  Each
call made while a task is being traced leaves one span: its name, start and
end, the span that called it and the task id, plus counters read from the
call's arguments and return value.  Spans stay in memory and are written out
when the run ends.  ``instrument`` puts every original attribute back when it
exits, so the timed runs and the program files never see the wrappers.

A span's self time is its duration minus the part of it covered by its child
spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

import numpy as np

GL_ORDER = 8  # default order of quadrature.segment_moments


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int        # index of the calling span in Tracer.spans, -1 at top level
    task: int
    counters: dict = field(default_factory=dict)


class Tracer:
    """In-memory span store; records only while ``task`` is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.task: int | None = None
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, prepare=None, count=None):
        if self.task is None:
            return fn(*args, **kwargs)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.task)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        if prepare is not None:
            args, kwargs = prepare(span.counters, args, kwargs)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if count is not None:
            count(span.counters, args, kwargs, result)
        return result

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
            fh.write("\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Self time of every span: duration minus the union of its children."""
    children = defaultdict(list)
    for i, sp in enumerate(spans):
        if sp.parent >= 0:
            children[sp.parent].append(i)
    return [sp.end - sp.start
            - _covered([(spans[c].start, spans[c].end) for c in children[i]],
                       sp.start, sp.end)
            for i, sp in enumerate(spans)]


# -- counters read from arguments and return values ---------------------------


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_points(counters, args, kwargs, result):
    counters["points"] = int(np.size(args[-1]))


def _count_fit_points(counters, args, kwargs, result):
    counters["points"] = int(np.size(_arg(args, kwargs, 0, "points")))


def _count_panels(counters, args, kwargs, result):
    counters["panels"] = int(np.size(result.nodes)) - 1


def _count_dofs(counters, args, kwargs, result):
    counters["dofs"] = int(result.dim)


def _count_bracket(counters, args, kwargs, result):
    counters["bracket_width"] = float(result.inf_modulus_upper
                                      - result.inf_modulus_lower)


def _count_windows(counters, args, kwargs, result):
    counters["windows"] = len(result.rows)


def _count_defect(counters, args, kwargs, result):
    counters["defect"] = float(result)


def _count_bytes_out(counters, args, kwargs, result):
    argv = list(_arg(args, kwargs, 0, "argv"))
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    counters["bytes_out"] = os.path.getsize(out) if out and os.path.exists(out) else 0


def _count_integrand_points(counters, args, kwargs):
    """integrate_many: panels from the edges, points from the integrand calls."""
    fn, edges = args[0], args[1]
    counters["panels"] = int(np.size(edges)) - 1
    counters["points"] = 0

    def counted(x):
        counters["points"] += int(np.size(x))
        return fn(x)

    return (counted, edges) + tuple(args[2:]), kwargs


def _count_segment_points(counters, args, kwargs, result):
    order = kwargs.get("order", args[3] if len(args) > 3 else GL_ORDER)
    counters["points"] = int(np.size(result)) * order


#: (module path, attribute, span name, prepare hook, count hook)
WRAPPED = (
    ("slcrit.cli", "main", "cli.main", None, _count_bytes_out),
    ("slcrit.potential.Antiderivative", "values", "potential.values", None, _count_points),
    ("slcrit.potential", "moments", "potential.moments", None, None),
    ("slcrit.potential", "load", "potential.load", None, None),
    *(("slcrit.potential", name, "potential.construct", None, None)
      for name in ("add", "offset", "scale", "subtract", "restrict", "miura")),
    ("slcrit.quadrature", "integrate_many", "quadrature.integrate_many",
     _count_integrand_points, None),
    ("slcrit.quadrature", "segment_moments", "quadrature.segment_moments", None,
     _count_segment_points),
    *(("slcrit.criteria", name, f"criteria.{name}", None, None)
      for name in ("classify", "window_deviation", "scan_necessary", "brinck",
                   "sector_fit", "dbl_bruteforce")),
    ("slcrit.sectors", "fit_sector", "sectors.fit_sector", None, _count_fit_points),
    ("slcrit.forms", "assemble", "forms.assemble", None, _count_dofs),
    ("slcrit.forms", "range_boundary", "forms.range_boundary", None, _count_bracket),
    ("slcrit.forms", "herm_lambda_min", "forms.herm_lambda_min", None, None),
    ("scipy.linalg", "eigh", "forms.eigh", None, None),
    ("slcrit.forms", "localization_scan", "forms.localization_scan", None, _count_windows),
    ("slcrit.forms", "partition_identity_check", "forms.partition_identity_check",
     None, None),
    ("slcrit.regsolve", "propagate", "regsolve.propagate", None, _count_panels),
    ("slcrit.regsolve", "cauchy_apply", "regsolve.cauchy_apply", None, _count_panels),
    ("slcrit.regsolve", "fundamental_pair", "regsolve.fundamental_pair", None, None),
    ("slcrit.regsolve", "growth_bound_check", "regsolve.growth_bound_check", None, None),
    ("slcrit.regsolve", "wronskian_defect", "regsolve.wronskian_defect", None, _count_defect),
    *(("slcrit.verify", name, "verify.suite", None, None)
      for name in ("variance_identity_suite", "two_sided_suite",
                   "partition_identity_suite", "growth_bound_suite",
                   "miura_positivity_suite", "solver_consistency_suite")),
    *(("slcrit.sampling", name, "sampling", None, None)
      for name in ("random_antiderivative", "random_window", "random_growth_case",
                   "random_gamma", "random_forcing", "random_step_potential",
                   "random_compact_bump")),
)


def _resolve(path: str):
    """The module, or the attribute of a module, that a dotted path names."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(path)


def _wrapper(tracer: Tracer, name, original, prepare, count):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        return tracer.call(name, original, args, kwargs, prepare, count)
    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the WRAPPED span wrappers for the duration of the block, then
    restore the originals."""
    saved = []
    try:
        for owner_path, attr, name, prepare, count in WRAPPED:
            owner = _resolve(owner_path)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrapper(tracer, name, original, prepare, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-layer metrics ----------------------------------------------------------

#: per-layer metric name -> (unit, better, how it is read from the aggregate)
#: Totals are divided by the number of traced tasks; "max" entries are maxima.
PER_LAYER = {
    "cli.main.self_s": ("s/task", "lower", ("self", "cli.main")),
    "cli.main.bytes_out": ("bytes/task", "lower", ("sum", "cli.main", "bytes_out")),
    "potential.values.calls": ("calls/task", "lower", ("calls", "potential.values")),
    "potential.values.points": ("points/task", "lower", ("sum", "potential.values", "points")),
    "potential.values.self_s": ("s/task", "lower", ("self", "potential.values")),
    "potential.moments.calls": ("calls/task", "lower", ("calls", "potential.moments")),
    "potential.moments.self_s": ("s/task", "lower", ("self", "potential.moments")),
    "potential.load.self_s": ("s/task", "lower", ("self", "potential.load")),
    "potential.construct.self_s": ("s/task", "lower", ("self", "potential.construct")),
    "quadrature.integrate_many.calls": ("calls/task", "lower", ("calls", "quadrature.integrate_many")),
    "quadrature.integrate_many.panels": ("panels/task", "lower", ("sum", "quadrature.integrate_many", "panels")),
    "quadrature.integrate_many.points": ("points/task", "lower", ("sum", "quadrature.integrate_many", "points")),
    "quadrature.integrate_many.self_s": ("s/task", "lower", ("self", "quadrature.integrate_many")),
    "quadrature.points_per_panel": ("points/panel", "lower", ("ratio", "quadrature.integrate_many", "points", "panels")),
    "quadrature.segment_moments.points": ("points/task", "lower", ("sum", "quadrature.segment_moments", "points")),
    "quadrature.segment_moments.self_s": ("s/task", "lower", ("self", "quadrature.segment_moments")),
    "criteria.classify.self_s": ("s/task", "lower", ("self", "criteria.classify")),
    "criteria.window_deviation.calls": ("calls/task", "lower", ("calls", "criteria.window_deviation")),
    "criteria.window_deviation.self_s": ("s/task", "lower", ("self", "criteria.window_deviation")),
    "criteria.scan_necessary.self_s": ("s/task", "lower", ("self", "criteria.scan_necessary")),
    "criteria.brinck.self_s": ("s/task", "lower", ("self", "criteria.brinck")),
    "criteria.sector_fit.self_s": ("s/task", "lower", ("self", "criteria.sector_fit")),
    "criteria.dbl_bruteforce.self_s": ("s/task", "lower", ("self", "criteria.dbl_bruteforce")),
    "sectors.fit_sector.calls": ("calls/task", "lower", ("calls", "sectors.fit_sector")),
    "sectors.fit_sector.points": ("points/task", "lower", ("sum", "sectors.fit_sector", "points")),
    "sectors.fit_sector.self_s": ("s/task", "lower", ("self", "sectors.fit_sector")),
    "forms.assemble.calls": ("calls/task", "lower", ("calls", "forms.assemble")),
    "forms.assemble.dofs": ("dofs/task", "lower", ("sum", "forms.assemble", "dofs")),
    "forms.assemble.self_s": ("s/task", "lower", ("self", "forms.assemble")),
    "forms.range_boundary.calls": ("calls/task", "lower", ("calls", "forms.range_boundary")),
    "forms.range_boundary.rotations": ("eigh/task", "lower", ("children", "forms.range_boundary", "forms.eigh")),
    "forms.range_boundary.self_s": ("s/task", "lower", ("self", "forms.range_boundary")),
    "forms.range_boundary.bracket_width_max": ("abs", "lower", ("max", "forms.range_boundary", "bracket_width")),
    "forms.herm_lambda_min.calls": ("calls/task", "lower", ("calls", "forms.herm_lambda_min")),
    "forms.herm_lambda_min.self_s": ("s/task", "lower", ("self", "forms.herm_lambda_min")),
    "forms.eigh.calls": ("calls/task", "lower", ("calls", "forms.eigh")),
    "forms.eigh.self_s": ("s/task", "lower", ("self", "forms.eigh")),
    "forms.localization_scan.windows": ("windows/task", "lower", ("sum", "forms.localization_scan", "windows")),
    "forms.partition_identity_check.calls": ("calls/task", "lower", ("calls", "forms.partition_identity_check")),
    "forms.partition_identity_check.self_s": ("s/task", "lower", ("self", "forms.partition_identity_check")),
    "regsolve.propagate.calls": ("calls/task", "lower", ("calls", "regsolve.propagate")),
    "regsolve.propagate.panels": ("panels/task", "lower", ("sum", "regsolve.propagate", "panels")),
    "regsolve.propagate.self_s": ("s/task", "lower", ("self", "regsolve.propagate")),
    "regsolve.cauchy_apply.calls": ("calls/task", "lower", ("calls", "regsolve.cauchy_apply")),
    "regsolve.cauchy_apply.panels": ("panels/task", "lower", ("sum", "regsolve.cauchy_apply", "panels")),
    "regsolve.cauchy_apply.self_s": ("s/task", "lower", ("self", "regsolve.cauchy_apply")),
    "regsolve.fundamental_pair.self_s": ("s/task", "lower", ("self", "regsolve.fundamental_pair")),
    "regsolve.growth_bound_check.self_s": ("s/task", "lower", ("self", "regsolve.growth_bound_check")),
    "regsolve.wronskian_defect.max": ("abs", "lower", ("max", "regsolve.wronskian_defect", "defect")),
    "verify.suite.self_s": ("s/task", "lower", ("self", "verify.suite")),
    "sampling.self_s": ("s/task", "lower", ("self", "sampling")),
}


def _entry() -> dict:
    return {"calls": 0, "self": 0.0, "sum": defaultdict(float),
            "max": defaultdict(float), "children": defaultdict(int)}


def aggregate(spans) -> dict:
    """Per span name: calls, self time, counter sums and maxima, child counts."""
    selfs = self_times(spans)
    agg = defaultdict(_entry)
    for sp, own in zip(spans, selfs):
        entry = agg[sp.name]
        entry["calls"] += 1
        entry["self"] += own
        for key, value in sp.counters.items():
            entry["sum"][key] += value
            entry["max"][key] = max(entry["max"][key], value)
        if sp.parent >= 0:
            agg[spans[sp.parent].name]["children"][sp.name] += 1
    return agg


def layer_metrics(spans, tasks: int) -> dict:
    """Every PER_LAYER metric as a number; totals are per traced task."""
    agg = aggregate(spans)
    out = {}
    for metric, (_unit, _better, rule) in PER_LAYER.items():
        kind, name = rule[0], rule[1]
        entry = agg.get(name) or _entry()  # zero for a layer the workload skips
        if kind == "calls":
            value = entry["calls"] / tasks
        elif kind == "self":
            value = entry["self"] / tasks
        elif kind == "sum":
            value = entry["sum"][rule[2]] / tasks
        elif kind == "children":
            value = entry["children"][rule[2]] / tasks
        elif kind == "max":
            value = entry["max"][rule[2]]
        else:  # ratio of two counter sums
            den = entry["sum"][rule[3]]
            value = entry["sum"][rule[2]] / den if den else 0.0
        out[metric] = float(value)
    return out


def task_self_totals(spans) -> dict:
    """Sum of span self times per task id."""
    totals = defaultdict(float)
    for sp, own in zip(spans, self_times(spans)):
        totals[sp.task] += own
    return dict(totals)
