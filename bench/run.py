"""slcrit benchmark: one named workload, timed end to end or traced per layer.

    python3 bench/run.py --workload analyze|scan|verify --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from ``./src``.
Every workload is a closed loop, one client in one process: a task's successor
starts when it returns.  The loop runs whole cycles of its workload (see
``workloads.py``) until the timed wall time, which excludes input generation
and the oracles, reaches ``--seconds`` and at least 100 tasks are done, the
fewest that leave ten samples beyond the 90th percentile.

Times are scaled to a nominal machine speed by reference units run between
tasks (see ``Reference``); percentiles are Harrell-Davis estimates, and
tasks_per_s is the median over the run's cycles.  The unscaled figures are
printed beside the scaled ones.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the loop
untraced for half the time, then replays the same tasks with every layer
wrapped by ``spans.instrument``, and prints the per-layer metrics, the tracing
overhead and where the spans were written.  The last line of the output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

A task fails when it raises, exits nonzero or misses its oracle.  ``correct``
is false when any task fails other than the offset twins of the documented
offset defect (``workloads.KNOWN_DEFECT_OFFSET``), which ``failed`` counts.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported.  With the
# default threads the dense eigensolves behind `scan` run about 8x slower on a
# 2-core box, which measures OpenBLAS thread synchronisation rather than
# slcrit (ROADMAP item 3); the gated runs leave that out and record the setting.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREADS)

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402
import scipy.special  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

#: fresh-interpreter imports timed for setup_s; the median is reported
SETUP_REPEATS = 7
#: a percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10
#: a timed run extends to this many tasks, so task_p90_ms always has its tail
MIN_TASKS = 100

END_TO_END_UNITS = {"setup_s": "s", "tasks_per_s": "1/s", "task_p50_ms": "ms",
                    "task_p90_ms": "ms", "peak_rss_mb": "MB"}


class Reference:
    """A fixed unit of work, independent of slcrit, that tracks machine speed.

    On a shared 2-core virtual machine (Xeon, 2.1 GHz) the speed of a fixed
    computation drifts by +-25% over minutes, in CPU time as much as in wall
    time, so it is not preemption.  Units run between tasks, and every timing
    of a task is scaled by ``NOMINAL_S`` over the median time of the units run
    just after it and the ``WINDOW`` units before them: the figures are seconds on a machine that
    runs one unit in ``NOMINAL_S``.  The unscaled figures are printed beside
    them.

    A unit does what the workload spends its time on, because the drift
    slows some kinds of work more than others: ``"eigh"`` is four dense
    generalized eigensolves of the size a mesh-128 window form has (the
    scan), ``"python"`` is small numpy arrays in a Python loop plus one small
    eigensolve (analyze and verify).
    """

    NOMINAL_S = 0.004
    #: reference time run after a task, as a share of the task's time
    SHARE = 0.03
    #: earlier units that also enter a task's scale, to damp their own noise
    WINDOW = 8

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        n = 127 if kind == "eigh" else 96
        a = rng.standard_normal((n, n))
        self._A = a + a.T
        self._M = 2.0 * np.eye(n) + 0.3 * (np.eye(n, k=1) + np.eye(n, k=-1))
        self._x = np.linspace(0.0, 1.0, 1024)
        self.unit = self._eigh_unit if kind == "eigh" else self._python_unit
        self._recent = collections.deque((self.unit() for _ in range(self.WINDOW)),
                                         maxlen=self.WINDOW)

    def _eigh_unit(self) -> float:
        t0 = time.perf_counter()
        for _ in range(4):
            scipy.linalg.eigh(self._A, self._M, subset_by_index=[0, 0])
        return time.perf_counter() - t0

    def _python_unit(self) -> float:
        x = self._x
        t0 = time.perf_counter()
        acc = 0.0
        for k in range(60):
            y = np.sin(x * k) * x ** 3 + np.cos(x)
            acc += float(y @ y)
        scipy.linalg.eigh(self._A, self._M, subset_by_index=[0, 0])
        acc += sum(i * i for i in range(8000))
        return time.perf_counter() - t0

    def scale_after(self, task_seconds: float) -> float:
        """Run units worth about SHARE of a task's time, at least one, and
        return the task's scale: NOMINAL_S over the median of these units and
        of the WINDOW units run before them."""
        after = [self.unit() for _ in range(
            max(1, round(self.SHARE * task_seconds / self.NOMINAL_S)))]
        scale = self.NOMINAL_S / statistics.median(list(self._recent) + after)
        self._recent.extend(after)
        return scale


@dataclass(eq=False)
class Record:
    task: workloads.Task
    seconds: float
    raised: bool
    misses: list = field(default_factory=list)
    scale: float = 1.0   # machine-speed scale from the reference units around it


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A mean of all order statistics weighted by a Beta((n+1)q, (n+1)(1-q))
    distribution; it varies less from run to run than one order statistic,
    which matters where a workload's latencies fall into bands.
    """
    xs = np.sort(np.asarray(values, dtype=float))
    n = xs.size
    cdf = scipy.special.betainc((n + 1) * q, (n + 1) * (1.0 - q), np.arange(n + 1) / n)
    return float(np.diff(cdf) @ xs)


def samples_beyond(n: int, q: float) -> int:
    """Samples above the q-quantile's nearest rank among n."""
    return n - math.ceil(q * n - 1e-9)


def tail_percentile(values, q: float, tail: int = TAIL_SAMPLES):
    """The q-percentile, or None when fewer than ``tail`` samples lie beyond it."""
    if samples_beyond(len(values), q) < tail:
        return None
    return percentile(values, q)


def import_program():
    """Import slcrit from ./src of this checkout, and nothing else."""
    if not (SRC / "slcrit" / "__init__.py").is_file():
        raise SystemExit(f"bench: no slcrit sources under {SRC}; run from a "
                         f"checkout of the repository")
    sys.path.insert(0, str(SRC))
    import slcrit
    import slcrit.cli
    if Path(slcrit.__file__).resolve().parent != (SRC / "slcrit").resolve():
        raise SystemExit(f"bench: imported slcrit from {slcrit.__file__}, not {SRC}")
    return slcrit


def setup_seconds(repeats: int = SETUP_REPEATS) -> list:
    """(wall time, scale) of fresh interpreters importing slcrit, after one
    warm-up; the scales come from Python reference units, as the import is
    Python work."""
    reference = Reference("python")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import slcrit"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120)
        elapsed = time.perf_counter() - t0
        samples.append((elapsed, reference.scale_after(elapsed)))
    return samples


def run_task(task, tracer=None, task_id=None) -> Record:
    """Time one task; a raising task is a failed task and the loop goes on."""
    if tracer is not None:
        tracer.task = task_id
    t0 = time.perf_counter()
    try:
        output = task.run()
    except Exception:  # the loop must outlive any program failure
        return Record(task, time.perf_counter() - t0, True,
                      ["raised: " + traceback.format_exc(limit=4)])
    finally:
        if tracer is not None:
            tracer.task = None
    elapsed = time.perf_counter() - t0
    try:
        misses = task.check(output)
    except Exception:  # an output the oracle cannot read is a wrong output
        misses = ["oracle could not read the output: " + traceback.format_exc(limit=4)]
    return Record(task, elapsed, False, misses)


def closed_loop(workload, seed: int, seconds: float, reference: Reference,
                min_tasks: int = 0) -> list:
    """Whole cycles until the timed wall time reaches ``seconds`` and at least
    ``min_tasks`` tasks are done; one list of records per cycle."""
    cycles = []
    while (sum(r.seconds for c in cycles for r in c) < seconds
           or sum(map(len, cycles)) < min_tasks):
        cycle = []
        for task in workload.cycle(seed, len(cycles)):
            cycle.append(run_task(task))
            cycle[-1].scale = reference.scale_after(cycle[-1].seconds)
        cycles.append(cycle)
    return cycles


def cycle_rate(cycles, scaled: bool = True) -> float:
    """Completed tasks per timed second: the median over the run's cycles.

    Every cycle has the same composition, so each one is a replica of the
    workload; the median keeps a burst of load, which slows one cycle, out of
    the figure.
    """
    return statistics.median(
        sum(1 for r in c if not r.raised)
        / sum(r.seconds * (r.scale if scaled else 1.0) for r in c)
        for c in cycles)


def failures(records) -> tuple[int, int]:
    """(failed tasks, failed tasks outside the documented offset defect)."""
    failed = [r for r in records if r.raised or r.misses]
    return len(failed), sum(1 for r in failed if not r.task.known_defect)


def repeated_share(records) -> float:
    keys = [r.task.key for r in records]
    return 1.0 - len(set(keys)) / len(keys)


def environment(args, cycles) -> dict:
    records = [r for c in cycles for r in c]
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "loop": "closed, 1 client, 1 process",
            "nproc": os.cpu_count(), "threads": THREADS,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cycle_seconds": [sum(r.seconds for r in c) for c in cycles],
            "cycle_scaled_seconds": [sum(r.seconds * r.scale for r in c) for c in cycles],
            "reference_nominal_s": Reference.NOMINAL_S,
            "tasks": len(records),
            "repeated_input_share": repeated_share(records)}


def report_failures(records) -> None:
    shown = 0
    for r in records:
        if (r.raised or r.misses) and shown < 5:
            tag = "known offset defect" if r.task.known_defect else "FAILED"
            print(f"  {tag}: {r.task.kind} ({r.task.key[:12]}): {r.misses[0]}")
            shown += 1


def timed_run(args, workload) -> dict:
    setup = setup_seconds()
    reference = Reference(workload.reference)
    cycles = closed_loop(workload, args.seed, args.seconds, reference, MIN_TASKS)
    records = [r for c in cycles for r in c]
    raw_ms = [r.seconds * 1e3 for r in records]
    latencies_ms = [r.seconds * 1e3 * r.scale for r in records]
    p90 = tail_percentile(latencies_ms, 0.9)
    env = environment(args, cycles)
    env.update(setup_samples=setup,
               p90_samples=len(latencies_ms),
               p90_samples_beyond=samples_beyond(len(latencies_ms), 0.9))
    print("environment " + json.dumps(env, sort_keys=True))
    if p90 is None:  # MIN_TASKS rules this out; refuse rather than guess
        raise SystemExit(f"bench: {len(records)} tasks leave fewer than "
                         f"{TAIL_SAMPLES} samples beyond task_p90_ms")
    failed, unexpected = failures(records)
    metrics = {
        "setup_s": statistics.median(t * k for t, k in setup),
        "tasks_per_s": cycle_rate(cycles),
        "task_p50_ms": percentile(latencies_ms, 0.5),
        "task_p90_ms": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {"setup_s": statistics.median(t for t, _k in setup),
           "tasks_per_s": cycle_rate(cycles, scaled=False),
           "task_p50_ms": percentile(raw_ms, 0.5),
           "task_p90_ms": percentile(raw_ms, 0.9),
           "peak_rss_mb": metrics["peak_rss_mb"]}
    for name, value in metrics.items():
        print(f"{name} = {value!r} {END_TO_END_UNITS[name]} (unscaled {raw[name]!r})")
    print(f"failed_frac = {failed / len(records)!r} ratio "
          f"({failed} of {len(records)}; {failed - unexpected} offset twins "
          f"of the known defect)")
    report_failures(records)
    return {"correct": unexpected == 0, "attempted": len(records), "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                        for k, v in metrics.items()}}


def traced_run(args, workload) -> dict:
    reference = Reference(workload.reference)
    cycles = closed_loop(workload, args.seed, args.seconds / 2.0, reference)
    records = [r for c in cycles for r in c]
    tracer = spans.Tracer()
    traced = []
    with spans.instrument(tracer):
        for i, r in enumerate(records):
            traced.append(run_task(r.task, tracer, i))
            traced[-1].scale = reference.scale_after(traced[-1].seconds)
    env = environment(args, cycles)
    env["replayed_traced_tasks"] = len(traced)
    print("environment " + json.dumps(env, sort_keys=True))

    units = {k: v[0] for k, v in spans.PER_LAYER.items()} | {"trace.overhead": "ratio"}
    metrics = spans.layer_metrics(tracer.spans, len(traced))
    traced_scale = sum(r.seconds * r.scale for r in traced) / sum(r.seconds for r in traced)
    for name in metrics:
        if units[name] == "s/task":
            metrics[name] *= traced_scale
    # the same tasks both times, so the ratio of rates is the ratio of times
    metrics["trace.overhead"] = 1.0 - (sum(r.seconds * r.scale for r in records)
                                       / sum(r.seconds * r.scale for r in traced))
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")

    self_totals = spans.task_self_totals(tracer.spans)
    over = [i for i, r in enumerate(traced) if self_totals.get(i, 0.0) > r.seconds]
    out = WORK / f"spans-{args.workload}-{args.seed}.json"
    tracer.write(out)
    print(f"{len(tracer.spans)} spans of {len(traced)} tasks -> {out}; "
          f"tasks whose span self times exceed their wall time: {len(over)}")
    everything = records + traced
    failed, unexpected = failures(everything)
    print(f"failed_frac = {failed / len(everything)!r} ratio ({failed} of "
          f"{len(everything)}, untraced and traced passes)")
    report_failures(everything)
    return {"correct": unexpected == 0 and not over, "attempted": len(everything),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sl = import_program()
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        workload = workloads.WORKLOADS[args.workload](sl, workdir)
        result = (traced_run if args.trace else timed_run)(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
