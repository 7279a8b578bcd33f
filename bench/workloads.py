"""Seeded workloads of the slcrit benchmark: inputs, tasks and output oracles.

A workload is an endless sequence of cycles.  Cycle ``i`` of seed ``n`` is
built from ``numpy.random.default_rng([n, i])`` alone, so the same seed gives
the same inputs however many cycles a run gets through.  A cycle has a fixed
composition (which kinds of input, in which size bands) and the seed draws
every number inside it: offsets, coefficients, breakpoints, the position
inside a size band.  The fixed composition keeps the latency distribution of
a run the same from seed to seed; the drawn numbers keep every input of a run
new.

Potential files are written here as JSON documents, independently of
``slcrit.sampling``, so a change to the program's own samplers cannot change
the benchmark inputs.  The counterexamples s1 and s2 are the exception: they
come from ``slcrit generate``, as a user makes them.

Each task has an oracle that runs outside the timed region and returns the
list of checks the output missed (empty when it passed).
"""

from __future__ import annotations

import ast
import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

PI2 = math.pi ** 2
OUTCOMES = ("CompactResolvent", "NotCompact", "Inconclusive")

#: constants added to copies of analyze inputs; the dbl maxima of the
#: unshifted input must come back to 1e-6 relative
TWIN_OFFSETS = (1e2, 1e6, 1e8)
#: twins shifted by at least this much miss today, because the deviation is
#: computed as q2 - |m0|^2/a (ROADMAP item 2).  They count as failed; they
#: are the only failures the benchmark expects.
KNOWN_DEFECT_OFFSET = 1e6
#: allowance for the mesh-128 discretisation, as in acceptance criterion 10
DISCRETISATION_TOL = 1e-2


@dataclass(eq=False)
class Task:
    """One closed-loop step: ``run`` is timed, ``check`` is the oracle."""

    kind: str
    key: str                          # identity of the input
    run: Callable[[], object]
    check: Callable[[object], list]
    known_defect: bool = False        # a miss here is the documented offset defect
    result: object = None             # parsed output, kept for twin comparisons
    doc: dict = None                  # the potential document, for offset twins


def run_cli(cli, argv) -> tuple[int, str]:
    """``slcrit <argv>`` in-process; returns the exit code and captured text."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def rel_close(value: float, ref: float, rtol: float) -> bool:
    """|value - ref| within rtol, relative at O(1) scale and above."""
    return abs(value - ref) <= rtol * max(abs(ref), 1.0)


# -- potential documents --------------------------------------------------------


def poly(*coeffs) -> dict:
    c = [complex(v) for v in coeffs] + [0j] * (4 - len(coeffs))
    return {"type": "poly", "re": [v.real for v in c], "im": [v.imag for v in c]}


def document(X: float, cuts, pieces, jumps=()) -> dict:
    """Potential file for breakpoints 0 < cuts < X, one term list per piece."""
    return {"domain_end": float(X),
            "breakpoints": [0.0] + [float(t) for t in cuts] + [float(X)],
            "pieces": pieces,
            "jumps": [{"at": float(at), "re": complex(v).real, "im": complex(v).imag}
                      for at, v in jumps]}


def _cuts(rng, X: float, count: int, lo: float = 0.05, hi: float = 0.95) -> list:
    return np.unique(rng.uniform(lo * X, hi * X, size=max(count, 0))).tolist()


def _number(rng, amplitude: float, complex_valued: bool) -> complex:
    re = rng.uniform(-amplitude, amplitude)
    return complex(re, rng.uniform(-amplitude, amplitude) if complex_valued else 0.0)


def _jumps(rng, cuts, count: int, amplitude: float, complex_valued: bool) -> list:
    at = sorted(rng.choice(len(cuts), size=min(count, len(cuts)), replace=False)) \
        if cuts else []
    return [(cuts[k], _number(rng, amplitude, complex_valued)) for k in at]


def random_piecewise(rng, X: float, pieces: int, jumps: int, amplitude: float = 2.0,
                     complex_valued: bool = True) -> dict:
    """Pieces of degree 0-3 in the global variable, plus jump offsets."""
    cuts = _cuts(rng, X, pieces - 1)
    rows = [[poly(*(_number(rng, amplitude, complex_valued)
                    for _ in range(int(rng.integers(1, 5)))))]
            for _ in range(len(cuts) + 1)]
    return document(X, cuts, rows, _jumps(rng, cuts, jumps, amplitude, complex_valued))


def random_steps(rng, X: float, steps: int, amplitude: float = 3.0) -> dict:
    """Real piecewise-constant s with extra jump offsets at some breakpoints."""
    cuts = _cuts(rng, X, steps, 0.1, 0.9)
    rows = [[poly(rng.uniform(-amplitude, amplitude))] for _ in range(len(cuts) + 1)]
    return document(X, cuts, rows, _jumps(rng, cuts, len(cuts) // 2, amplitude, False))


def random_gamma(rng, X: float, pieces: int, amplitude: float = 3.0):
    """Cuts and (a, b) per piece of a random real gamma = a + b x, half of
    the pieces constant."""
    cuts = _cuts(rng, X, pieces - 1, 0.1, 0.9)
    return cuts, [(rng.uniform(-amplitude, amplitude),
                   rng.uniform(-1.5, 1.5) if rng.random() < 0.5 else 0.0)
                  for _ in range(len(cuts) + 1)]


def miura_image(X: float, cuts, gamma) -> dict:
    """s = gamma + int_0^x gamma^2 for a piecewise-linear gamma.

    On a piece gamma = a + b x the running integral adds
    a^2 x + a b x^2 + b^2 x^3 / 3, so every piece of s stays a cubic.
    """
    edges = [0.0] + list(cuts) + [float(X)]
    rows = []
    running = 0.0
    for (t0, t1), (a, b) in zip(zip(edges, edges[1:]), gamma):
        def F(x, a=a, b=b):
            return a * a * x + a * b * x * x + b * b * x ** 3 / 3.0

        rows.append([poly(a + running - F(t0), b + a * a, a * b, b * b / 3.0)])
        running += F(t1) - F(t0)
    return document(X, cuts, rows)


def shifted(doc: dict, c: float) -> dict:
    """Copy of a potential document with the constant c added to s."""
    out = copy.deepcopy(doc)
    for row in out["pieces"]:
        for term in row:
            if term["type"] == "poly":
                term["re"][0] += c
                break
        else:
            row.append(poly(c))
    return out


def write_doc(path: str, doc: dict) -> str:
    """Write the document; return a digest of its text as the input's identity."""
    text = json.dumps(doc, indent=1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return hashlib.sha1(text.encode()).hexdigest()


def _band(rng, lo: float, hi: float, bands: int) -> list:
    """One value inside each of ``bands`` equal bands of [lo, hi], shuffled."""
    width = (hi - lo) / bands
    values = [lo + width * (j + rng.uniform(0.02, 0.98)) for j in range(bands)]
    return [values[j] for j in rng.permutation(bands)]


# -- analyze ----------------------------------------------------------------------


def read_report(path: str, fmt: str) -> dict:
    """Verdict and evidence of an analyze report, from either output format."""
    if fmt == "json":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return {"verdict": doc["verdict"],
                "rules": {e["rule"]: e["values"] for e in doc["evidence"]}}
    rules: dict = {}
    verdict = None
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    for rule, _theorem, key, value in rows[1:]:
        if rule == "verdict":
            verdict = value
            continue
        try:
            parsed = ast.literal_eval(value)
        except (ValueError, SyntaxError):
            parsed = value
        rules.setdefault(rule, {})[key] = parsed
    return {"verdict": verdict, "rules": rules}


def scan_origins(X: float, a: float) -> list:
    """Window origins of the necessary-condition scan: steps of a/2 up to X - a."""
    origins = []
    t = 0.0
    while t <= X - a + 1e-12:
        origins.append(min(t, X - a))
        t += a / 2.0
    return origins


#: acceptance criterion 5: the verdict and the rule that must carry it
TRIO_RULES = {
    "x": lambda r: (r["verdict"] == "NotCompact"
                    and r["rules"]["scan_necessary"]["refuted"] is True),
    "x2": lambda r: (r["verdict"] == "CompactResolvent"
                     and r["rules"]["brinck"]["hint"] == "CompactResolvent"
                     and r["rules"]["scan_necessary"]["refuted"] is False),
    "ix": lambda r: (r["verdict"] == "NotCompact"
                     and r["rules"]["brinck"]["sector"]["found"] is True
                     and r["rules"]["brinck"]["growth_bounded"] is True),
}


class Analyze:
    """``slcrit analyze`` on one potential file per task, JSON and CSV reports.

    A cycle holds 23 inputs: 8 random piecewise cubics with jumps (X in eight
    bands of 8-24, 4-30 pieces), 4 Miura images (X in four bands of 8-24), the
    analytic trio x, x^2/2, i x each at X = 12 and 40 plus a random constant,
    one s1 (1-6 blocks by cycle) and one s2 (X about 200).  Three offset twins
    follow: the X = 12 trio inputs, in rotation, shifted by 1e2, 1e6 and 1e8.
    Their dbl maxima are O(1)-O(10), like the ROADMAP's s = c + x example, so
    whether a twin misses depends on the offset alone and not on the draw.
    """

    name = "analyze"
    reference = "python"
    a = 1.0  # window length, the CLI default

    def __init__(self, sl, workdir: str):
        self.sl = sl
        self.dir = workdir

    def _path(self, index: int, slot: int, ext: str) -> str:
        return os.path.join(self.dir, f"a{index}-{slot}.{ext}")

    def cycle(self, seed: int, index: int) -> list:
        rng = np.random.default_rng([seed, index])
        docs = []
        for X, pieces in zip(_band(rng, 8.0, 24.0, 8),
                             [int(round(p)) for p in _band(rng, 4.0, 30.0, 8)]):
            docs.append(("random", random_piecewise(rng, X, pieces,
                                                    int(rng.integers(0, 4)))))
        for X in _band(rng, 8.0, 24.0, 4):
            docs.append(("miura", miura_image(X, *random_gamma(rng, X, int(rng.integers(2, 13))))))
        for X in (12.0, 40.0):
            for kind, coeffs in (("x", (0.0, 1.0)), ("x2", (0.0, 0.0, 0.5)),
                                 ("ix", (0.0, 1j))):
                c = rng.uniform(-5.0, 5.0)
                docs.append((kind, document(X, [], [[poly(c + coeffs[0], *coeffs[1:])]])))
        tasks = []
        for slot, (kind, doc) in enumerate(docs):
            tasks.append(self._task(index, slot, kind, doc, fmt="json" if slot % 2 else "csv"))
        blocks = 1 + index % 6
        tasks.append(self._generated(index, len(tasks), "s1", [
            "--kind", "s1", "--blocks", str(blocks),
            "--xmax", repr(5.0 + blocks + rng.uniform(0.5, 3.0))]))
        tasks.append(self._generated(index, len(tasks), "s2", [
            "--kind", "s2", "--theta", repr(rng.uniform(0.45, 0.55)),
            "--blocks", "2", "--h0", "4"]))
        order = [tasks[i] for i in rng.permutation(len(tasks))]
        trio = [t for t in tasks if t.doc["domain_end"] == 12.0 and t.kind in TRIO_RULES]
        for k, c in enumerate(TWIN_OFFSETS):
            original = trio[(index + k) % len(trio)]
            order.append(self._task(index, len(tasks) + k, f"twin{c:.0e}",
                                    shifted(original.doc, c), fmt="json" if k % 2 else "csv",
                                    twin_of=original, offset=c))
        return order

    def _generated(self, index: int, slot: int, kind: str, args: list) -> Task:
        path = self._path(index, slot, "json")
        code, text = run_cli(self.sl.cli, ["generate", *args, "--out", path])
        if code != 0:
            raise RuntimeError(f"slcrit generate {' '.join(args)} failed: {text}")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return self._task(index, slot, kind, doc, fmt="json")

    def _task(self, index, slot, kind, doc, fmt, twin_of=None, offset=0.0) -> Task:
        src = self._path(index, slot, "json")
        key = write_doc(src, doc)
        out = self._path(index, slot, f"report.{fmt}")
        argv = ["analyze", "--potential", src, "--out", out, "--format", fmt]
        task = Task(kind=kind, key=key, run=lambda: run_cli(self.sl.cli, argv),
                    check=None, known_defect=offset >= KNOWN_DEFECT_OFFSET, doc=doc)
        task.check = lambda output: self.check(task, output, src, out, fmt, twin_of)
        return task

    def check(self, task: Task, output, src: str, out: str, fmt: str,
              twin_of: Task | None) -> list:
        code, text = output
        if code != 0:
            return [f"exit code {code}: {text.strip()}"]
        report = read_report(out, fmt)
        task.result = report
        misses = []
        if report["verdict"] not in OUTCOMES:
            misses.append(f"unknown verdict {report['verdict']!r}")
        scan = report["rules"]["scan_necessary"]
        s = self.sl.potential.load(src)
        origins = scan_origins(s.domain_end, self.a)
        last = origins[-max(1, len(origins) // 4):]
        brute = max(self.sl.criteria.dbl_bruteforce(s, x, self.a, n=32) for x in last)
        if not rel_close(scan["last_quarter_max"], brute, 1e-8):
            misses.append(f"variance identity: last_quarter_max "
                          f"{scan['last_quarter_max']!r} vs brute force {brute!r}")
        rule = TRIO_RULES.get(task.kind)
        if rule is not None and not rule(report):
            misses.append(f"{task.kind}: verdict {report['verdict']} without its rule")
        if twin_of is not None:
            ref = twin_of.result
            if ref is None:
                misses.append("the unshifted input has no report")
            else:
                if report["verdict"] != ref["verdict"]:
                    misses.append(f"offset flips the verdict: {ref['verdict']} -> "
                                  f"{report['verdict']}")
                for key in ("first_quarter_max", "last_quarter_max"):
                    want = ref["rules"]["scan_necessary"][key]
                    if not rel_close(scan[key], want, 1e-6):
                        misses.append(f"offset changes {key}: {want!r} -> {scan[key]!r}")
        return misses


# -- scan ---------------------------------------------------------------------------


def scan_windows(X: float) -> int:
    """Number of windows [k-1, k] and [k-1/2, k+1/2] inside [0, X]."""
    K = int(X + 1e-12)
    return K + sum(1 for k in range(1, K + 1) if k + 0.5 <= X + 1e-12)


def read_scan(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: float(v) if v else None for k, v in row.items()}
                for row in csv.DictReader(fh)]


class Scan:
    """``slcrit scan`` at the CLI defaults (mesh 128, 64 angles), X in 2-6.

    A cycle holds 16 inputs, each in a band of X with a fixed window count
    (X in [2 + j/2, 2.5 + j/2) gives 3 + j windows).  Ten are real and take
    the single-eigendecomposition path: x^2/2 + c three times, three Miura
    images, two real cubics and two real step functions, in all eight bands
    and bands 2 and 5 once more.  Six are complex and take the 64-rotation
    path: i x + c twice, two random complex piecewise cubics with jumps and
    two complex cubics, in bands 0, 2, 4, 5, 6 and 7.  A real task takes tens
    of milliseconds and a complex one hundreds, so the ten-to-six split keeps
    the median well inside the real band and the 90th percentile inside the
    complex one: task_p50_ms follows the single-eigendecomposition path, and
    task_p90_ms and tasks_per_s follow the rotations.  The complex bands are
    adjacent around the 90th percentile, so no gap in latency falls there.
    """

    name = "scan"
    reference = "eigh"

    def __init__(self, sl, workdir: str):
        self.sl = sl
        self.dir = workdir

    def cycle(self, seed: int, index: int) -> list:
        rng = np.random.default_rng([seed, index])
        real_kinds = ["x2", "x2", "x2", "miura", "miura", "miura", "realpoly",
                      "realpoly", "steps", "steps"]
        complex_kinds = ["ix", "ix", "random", "random", "cpoly", "cpoly"]
        real_bands = rng.permutation(list(range(8)) + [2, 5]).tolist()
        complex_bands = rng.permutation([0, 2, 4, 5, 6, 7]).tolist()
        slots = list(zip(real_kinds, real_bands)) + list(zip(complex_kinds, complex_bands))
        tasks = []
        for slot, (kind, band) in enumerate(slots):
            X = 2.0 + 0.5 * band + 0.5 * rng.uniform(0.02, 0.98)
            tasks.append(self._task(index, slot, kind, X, self._doc(rng, kind, X)))
        return [tasks[i] for i in rng.permutation(len(tasks))]

    @staticmethod
    def _doc(rng, kind: str, X: float) -> dict:
        if kind == "x2":
            return document(X, [], [[poly(rng.uniform(-3.0, 3.0), 0.0, 0.5)]])
        if kind == "ix":
            return document(X, [], [[poly(_number(rng, 3.0, True), 1j)]])
        if kind == "miura":
            return miura_image(X, *random_gamma(rng, X, int(rng.integers(2, 6))))
        if kind == "realpoly":
            return document(X, [], [[poly(*(_number(rng, 1.0, False) for _ in range(4)))]])
        if kind == "cpoly":
            return document(X, [], [[poly(*(_number(rng, 1.0, True) for _ in range(4)))]])
        if kind == "steps":
            return random_steps(rng, X, int(rng.integers(3, 7)))
        return random_piecewise(rng, X, int(rng.integers(2, 7)), int(rng.integers(0, 3)))

    def _task(self, index, slot, kind, X, doc) -> Task:
        src = os.path.join(self.dir, f"s{index}-{slot}.json")
        out = os.path.join(self.dir, f"s{index}-{slot}.csv")
        key = write_doc(src, doc)
        argv = ["scan", "--potential", src, "--out", out]
        return Task(kind=kind, key=key, run=lambda: run_cli(self.sl.cli, argv),
                    check=lambda output: self.check(kind, X, output, out))

    @staticmethod
    def check(kind: str, X: float, output, out: str) -> list:
        code, text = output
        if code != 0:
            return [f"exit code {code}: {text.strip()}"]
        rows = read_scan(out)
        misses = []
        if len(rows) != scan_windows(X):
            misses.append(f"{len(rows)} rows for {scan_windows(X)} windows")
        target = math.sqrt(PI2 ** 2 + 1.0)
        for r in rows:
            lo, hi = r["infmod_lower"], r["infmod_upper"]
            where = f"window [{r['window_lo']}, {r['window_hi']}]"
            if not (math.isfinite(lo) and math.isfinite(hi)):
                misses.append(f"{where}: non-finite bounds")
                continue
            # the two bounds can coincide; allow roundoff in the last digits
            if lo > hi + 1e-12 * max(1.0, abs(hi)):
                misses.append(f"{where}: lower {lo!r} above upper {hi!r}")
            k = r["window_hi"]
            if kind == "x2" and r["window_lo"] == int(r["window_lo"]) and k >= 2:
                if not (PI2 + k - 1 - DISCRETISATION_TOL <= lo
                        <= PI2 + k + DISCRETISATION_TOL):
                    misses.append(f"{where}: x^2/2 lower bound {lo!r} outside "
                                  f"pi^2 + [{k - 1:g}, {k:g}]")
            if kind == "ix" and not (lo - DISCRETISATION_TOL <= target <= hi
                                     and hi - lo <= 0.05):
                misses.append(f"{where}: i x bracket [{lo!r}, {hi!r}] misses "
                              f"sqrt(pi^4 + 1)")
        return misses


# -- verify -------------------------------------------------------------------------


#: suite name -> keyword arguments: case counts that cost about 0.1-0.2 s each
SUITES = {
    "variance_identity_suite": {"cases": 70},
    "two_sided_suite": {"cases": 100},
    "partition_identity_suite": {"bumps": 1, "potentials": 5},
    "growth_bound_suite": {"cases": 20},
    "miura_positivity_suite": {"cases": 9},
    "solver_consistency_suite": {"cases": 4},
}


class Verify:
    """One public ``slcrit.verify`` suite call per task, each with its own seed.

    A cycle calls each of the six suites once, in a drawn order.
    """

    name = "verify"
    reference = "python"

    def __init__(self, sl, workdir: str):
        self.sl = sl

    def cycle(self, seed: int, index: int) -> list:
        rng = np.random.default_rng([seed, index])
        tasks = []
        for i in rng.permutation(len(SUITES)):
            name, kwargs = list(SUITES.items())[i]
            suite_seed = int(rng.integers(2 ** 31))
            # looked up at call time, so the traced run sees its wrapper
            tasks.append(Task(
                kind=name, key=f"{name}:{suite_seed}",
                run=lambda name=name, s=suite_seed, kw=kwargs:
                    getattr(self.sl.verify, name)(s, **kw),
                check=self.check))
        return tasks

    @staticmethod
    def check(result) -> list:
        if not result.passed:
            return [f"{result.name}: {result.line()}"]
        if result.cases < 1:
            return [f"{result.name}: no case was checked"]
        return []


WORKLOADS = {w.name: w for w in (Analyze, Scan, Verify)}
