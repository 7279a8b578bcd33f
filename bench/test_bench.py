"""Tests of the benchmark's own code: spans, the percentile rule, the oracles.

    python3 -m pytest bench/test_bench.py
"""

import json
import math

import pytest

import run
import spans
import workloads
from spans import Span

sl = run.import_program()


def _span(name, start, end, parent, task=0):
    return Span(name, start, end, parent, task)


def test_self_time_of_nested_spans():
    tree = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.leaf", 2.0, 3.0, 1),
        _span("b", 5.0, 8.5, 0),
        _span("b.leaf", 5.5, 6.0, 3),
        _span("b.leaf", 7.0, 8.0, 3),
    ]
    assert spans.self_times(tree) == pytest.approx([3.5, 2.0, 1.0, 2.0, 0.5, 1.0])
    assert sum(spans.self_times(tree)) == pytest.approx(10.0)
    assert spans.task_self_totals(tree) == {0: pytest.approx(10.0)}


def test_self_time_counts_overlapping_children_once():
    tree = [_span("root", 0.0, 4.0, -1), _span("c", 1.0, 3.0, 0),
            _span("c", 2.0, 3.5, 0), _span("c", 3.8, 9.0, 0)]
    # children cover [1, 3.5] and [3.8, 4] inside the root
    assert spans.self_times(tree)[0] == pytest.approx(4.0 - 2.5 - 0.2)


def test_layer_metrics_are_per_task_and_zero_for_skipped_layers():
    tree = [_span("forms.range_boundary", 0.0, 1.0, -1, task=0),
            _span("forms.eigh", 0.1, 0.4, 0, task=0),
            _span("forms.eigh", 0.5, 0.7, 0, task=0),
            _span("forms.range_boundary", 2.0, 2.5, -1, task=1)]
    tree[0].counters["bracket_width"] = 0.25
    tree[3].counters["bracket_width"] = 0.5
    m = spans.layer_metrics(tree, tasks=2)
    assert m["forms.range_boundary.calls"] == 1.0
    assert m["forms.range_boundary.rotations"] == 1.0
    assert m["forms.range_boundary.self_s"] == pytest.approx((0.5 + 0.5) / 2)
    assert m["forms.range_boundary.bracket_width_max"] == 0.5
    assert m["regsolve.propagate.calls"] == 0.0
    assert set(m) == set(spans.PER_LAYER)


def test_p90_refused_with_fewer_than_ten_samples_beyond():
    assert run.tail_percentile([float(v) for v in range(99)], 0.9) is None
    assert run.tail_percentile([float(v) for v in range(100)], 0.9) == pytest.approx(89.1, abs=0.5)
    assert run.samples_beyond(100, 0.9) == 10
    assert run.MIN_TASKS == 100 and run.samples_beyond(run.MIN_TASKS, 0.9) >= run.TAIL_SAMPLES


def test_percentile_is_a_weighted_mean_of_order_statistics():
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 0.5) == pytest.approx(2.5)
    assert run.percentile([7.0], 0.9) == pytest.approx(7.0)
    xs = [float(v) for v in range(1000)]
    assert run.percentile(xs, 0.9) == pytest.approx(899.1, abs=1.0)
    assert min(xs) < run.percentile([1.0, 5.0, 9.0], 0.9) < max(xs)


def _failed_task(output, check):
    task = workloads.Task(kind="sabotaged", key="k", run=lambda: output, check=check)
    rec = run.run_task(task)
    return rec, run.failures([rec])


def test_sabotaged_verify_result_counts_as_failed():
    good = sl.verify.two_sided_suite(5, cases=3)
    bad = sl.verify.SuiteResult(good.name, False, good.cases, 1e3, good.tolerance)
    rec, (failed, unexpected) = _failed_task(good, workloads.Verify.check)
    assert not rec.misses and failed == 0
    rec, (failed, unexpected) = _failed_task(bad, workloads.Verify.check)
    assert rec.misses and failed == 1 and unexpected == 1


def test_raising_task_counts_as_failed():
    def boom():
        raise RuntimeError("sabotaged")
    task = workloads.Task(kind="boom", key="k", run=boom, check=lambda out: [])
    rec = run.run_task(task)
    assert rec.raised and run.failures([rec]) == (1, 1)


def test_sabotaged_scan_output_counts_as_failed(tmp_path):
    doc = workloads.document(2.2, [], [[workloads.poly(0.0, 0.0, 0.5)]])
    src, out = tmp_path / "p.json", tmp_path / "scan.csv"
    workloads.write_doc(str(src), doc)
    output = workloads.run_cli(sl.cli, ["scan", "--potential", str(src), "--out", str(out)])
    assert workloads.Scan.check("x2", 2.2, output, str(out)) == []
    rows = out.read_text().splitlines()
    head, first = rows[0], rows[1].split(",")
    first[7] = str(float(first[8]) + 1.0)  # infmod_lower above infmod_upper
    out.write_text("\n".join([head, ",".join(first)] + rows[2:]) + "\n")
    misses = workloads.Scan.check("x2", 2.2, output, str(out))
    assert any("above upper" in m for m in misses)
    assert workloads.Scan.check("x2", 2.2, (1, "numeric failure"), str(out))


def test_sabotaged_analyze_report_counts_as_failed(tmp_path):
    analyze = workloads.Analyze(sl, str(tmp_path))
    doc = workloads.document(12.0, [], [[workloads.poly(0.0, 0.0, 0.5)]])
    task = analyze._task(0, 0, "x2", doc, fmt="json")
    output = task.run()
    assert task.check(output) == []
    report = tmp_path / "a0-0.report.json"
    data = json.loads(report.read_text())
    for item in data["evidence"]:
        if item["rule"] == "scan_necessary":
            item["values"]["last_quarter_max"] *= 1.0 + 1e-6
    report.write_text(json.dumps(data))
    assert any("variance identity" in m for m in task.check(output))


def test_offset_twin_compares_with_its_original(tmp_path):
    analyze = workloads.Analyze(sl, str(tmp_path))
    doc = workloads.document(12.0, [], [[workloads.poly(0.5, 1.0)]])
    original = analyze._task(0, 0, "x", doc, fmt="csv")
    assert original.check(original.run()) == []
    small = analyze._task(0, 1, "twin", workloads.shifted(doc, 1e2), fmt="json",
                          twin_of=original, offset=1e2)
    assert small.check(small.run()) == [] and not small.known_defect
    large = analyze._task(0, 2, "twin", workloads.shifted(doc, 1e8), fmt="json",
                          twin_of=original, offset=1e8)
    assert large.known_defect
    assert large.check(large.run())  # the offset defect of ROADMAP item 2


def test_wrappers_are_restored_after_a_traced_run():
    owners = [(spans._resolve(path), attr) for path, attr, *_ in spans.WRAPPED]
    before = [vars(o)[a] if isinstance(o, type) else getattr(o, a) for o, a in owners]
    tracer = spans.Tracer()
    s = sl.potential.from_poly((0.0, 1.0), 3.0)
    with spans.instrument(tracer):
        assert sl.criteria.window_deviation is not before[owners.index(
            (sl.criteria, "window_deviation"))]
        sl.criteria.window_deviation(s, 0.5, 1.0)  # no task set: not recorded
        assert tracer.spans == []
        tracer.task = 7
        sl.criteria.window_deviation(s, 0.5, 1.0)
        tracer.task = None
    after = [vars(o)[a] if isinstance(o, type) else getattr(o, a) for o, a in owners]
    assert all(x is y for x, y in zip(before, after))
    names = [sp.name for sp in tracer.spans]
    assert names[0] == "criteria.window_deviation"
    assert {"potential.moments", "quadrature.integrate_many", "potential.values"} <= set(names)
    assert all(sp.task == 7 for sp in tracer.spans)
    integ = [sp for sp in tracer.spans if sp.name == "quadrature.integrate_many"]
    assert all(sp.counters["points"] >= 24 * sp.counters["panels"] for sp in integ)


def test_wrappers_are_restored_when_the_block_raises():
    original = sl.forms.assemble
    with pytest.raises(ZeroDivisionError):
        with spans.instrument(spans.Tracer()):
            assert sl.forms.assemble is not original
            1 / 0
    assert sl.forms.assemble is original


def test_same_seed_same_inputs_and_no_repeats(tmp_path):
    for cls in (workloads.Scan, workloads.Verify):
        w = cls(sl, str(tmp_path))
        first = [t.key for t in w.cycle(3, 0)]
        assert first == [t.key for t in w.cycle(3, 0)]
        keys = first + [t.key for t in w.cycle(3, 1)] + [t.key for t in w.cycle(4, 0)]
        assert len(set(keys)) == len(keys)


def test_scan_window_count():
    assert [workloads.scan_windows(x) for x in (2.0, 2.49, 2.5, 5.99, 6.0)] == \
        [3, 3, 4, 10, 11]


def test_miura_image_matches_the_program():
    import numpy as np
    cuts, gamma = workloads.random_gamma(np.random.default_rng(11), 6.0, 4)
    ours = sl.potential.from_dict(workloads.miura_image(6.0, cuts, gamma))
    model = sl.Antiderivative(6.0, (0.0, *cuts, 6.0),
                              tuple((sl.PolyTerm(ab),) for ab in gamma))
    theirs = sl.potential.miura(model, 0.0)
    x = np.linspace(0.0, 6.0, 97)
    assert np.allclose(ours.values(x), theirs.values(x), rtol=1e-12, atol=1e-12)


def test_benchmark_json_names_every_metric():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    layer_units = {k: v[0] for k, v in spans.PER_LAYER.items()} | {"trace.overhead": "ratio"}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layer_units
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert math.isclose(max(m["bound"] for m in bench["end_to_end"]),
                        next(m["bound"] for m in bench["end_to_end"]
                             if m["name"] == "setup_s"))
