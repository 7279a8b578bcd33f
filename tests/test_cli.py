"""End-to-end tests of the command-line driver."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import slcrit as sl
from slcrit import cli, forms, verify
from slcrit.cli import main


@pytest.fixture()
def quadratic_file(tmp_path):
    path = tmp_path / "par.json"
    sl.save(sl.from_poly((0.0, 0.0, 0.5), 12.0), path)
    return str(path)


@pytest.fixture()
def linear_file(tmp_path):
    path = tmp_path / "lin.json"
    sl.save(sl.from_poly((0.0, 1.0), 12.0), path)
    return str(path)


def test_analyze_verdicts(tmp_path, quadratic_file, linear_file):
    out = tmp_path / "report.json"
    assert main(["analyze", "--potential", quadratic_file, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "CompactResolvent"
    rules = {e["rule"] for e in doc["evidence"]}
    assert {"scan_necessary", "brinck", "sector_fit"} <= rules
    assert main(["analyze", "--potential", linear_file, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["verdict"] == "NotCompact"


def test_analyze_csv_format(tmp_path, linear_file):
    out = tmp_path / "report.csv"
    assert main(["analyze", "--potential", linear_file, "--out", str(out),
                 "--format", "csv"]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["rule", "theorem", "key", "value"]
    assert rows[1][0] == "verdict" and rows[1][3] == "NotCompact"


def test_analyze_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("garbage{")
    assert main(["analyze", "--potential", str(bad)]) == 2
    assert "line" in capsys.readouterr().err


def test_analyze_missing_file():
    assert main(["analyze", "--potential", "/nonexistent/q.json"]) == 2


def test_scan_csv_schema(tmp_path, quadratic_file):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--potential", quadratic_file, "--mesh", "48",
                 "--angles", "16", "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["window_lo", "window_hi", "alpha", "beta", "vertex_re",
                       "vertex_im", "herm_lambda_min", "infmod_lower",
                       "infmod_upper"]
    lowers = [float(r[7]) for r in rows[1:]]
    assert all(b >= a - 1e-6 for a, b in zip(lowers, lowers[1:]))


def test_scan_rejects_short_domain(tmp_path):
    short = tmp_path / "short.json"
    sl.save(sl.zero(1.5), short)
    assert main(["scan", "--potential", str(short)]) == 2


def test_scan_breakpoints_closer_than_the_grid_floor(tmp_path):
    # 0.5 and 0.500000001 sit within 1e-6 of a cell of each other and of the
    # start of the window [0.5, 1.5]; both stay nodes, or neither does
    def poly(*c):
        return [{"type": "poly", "re": list(c), "im": [0.0] * len(c)}]

    pot = tmp_path / "close.json"
    pot.write_text(json.dumps({"domain_end": 3.0,
                               "breakpoints": [0.0, 0.5, 0.500000001, 3.0],
                               "pieces": [poly(0.0, 1.0), poly(1.0), poly(2.0)],
                               "jumps": []}))
    out = tmp_path / "scan.csv"
    assert main(["scan", "--potential", str(pot), "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 5
    for r in rows:
        values = [float(r[k]) for k in ("herm_lambda_min", "infmod_lower", "infmod_upper")]
        assert all(math.isfinite(v) for v in values)
        assert values[1] <= values[2]


def test_import_loads_no_scipy():
    # scipy is a test dependency only: the package and its CLI run on numpy
    code = ("import sys, slcrit, slcrit.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=str(Path(sl.__file__).resolve().parent.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_generate_delta(tmp_path):
    out = tmp_path / "d.json"
    assert main(["generate", "--kind", "delta", "--positions", "1,2,3",
                 "--strengths", "1,1,1", "--out", str(out)]) == 0
    s = sl.load(out)
    assert len(s.jumps) == 3
    assert s(2.5) == pytest.approx(2.0)


def test_generate_miura(tmp_path):
    out = tmp_path / "m.json"
    assert main(["generate", "--kind", "miura", "--gamma-const", "1.0",
                 "--b", "0.0", "--xmax", "10", "--out", str(out)]) == 0
    s = sl.load(out)
    xs = np.linspace(0.0, 10.0, 11)
    assert np.allclose(s.values(xs), 1.0 + xs)


def test_generate_s1(tmp_path):
    out = tmp_path / "s1.json"
    assert main(["generate", "--kind", "s1", "--blocks", "3",
                 "--out", str(out)]) == 0
    s = sl.load(out)
    # blocks at N_k = 4 + k: first bump starts at 5
    xs = np.linspace(0.0, 4.9, 11)
    assert np.allclose(s.values(xs), xs ** 2 / 2.0)
    assert s.domain_end == pytest.approx(9.0)


def test_generate_s2_with_provenance(tmp_path):
    out = tmp_path / "s2.json"
    assert main(["generate", "--kind", "s2", "--theta", "0.5", "--blocks", "1",
                 "--h0", "4.0", "--mesh", "64", "--out", str(out)]) == 0
    side = json.loads((tmp_path / "s2.json.provenance.json").read_text())
    assert side["theta"] == 0.5
    blocks = side["blocks"]
    assert len(blocks) == 1
    for blk in blocks:
        assert blk["N"] - 1 <= blk["A"] < blk["N"] + 1
        assert blk["A"] == pytest.approx(-blk["mu"] / side["one_plus_eps"])
    s = sl.load(out)
    assert s.domain_end >= blocks[-1]["N"] + 2


@pytest.mark.parametrize("theta", ["0", "1", "1.5", "nan"])
def test_generate_s2_rejects_theta_before_the_schedule_search(tmp_path, monkeypatch,
                                                               capsys, theta):
    # the schedule search scales by (1 - theta)^(1/3) and divides by it, so
    # theta is checked before anything is assembled, with the model's message
    def refuse(*args, **kwargs):
        raise AssertionError("nothing may be assembled for a theta outside (0, 1)")

    with pytest.raises(sl.ValidationError) as want:
        sl.build_counterexample("s2", theta=float(theta), schedule=[], domain_end=4.0)
    monkeypatch.setattr(sl.forms, "assemble", refuse)
    out = tmp_path / "s2.json"
    assert main(["generate", "--kind", "s2", "--theta", theta, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {want.value}\n"
    assert not out.exists()
    assert not (tmp_path / "s2.json.provenance.json").exists()


def test_verify_command(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert main(["verify", "--seed", "20240801", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.count("[PASS]") == 6
    doc = json.loads(out.read_text())
    assert all(item["passed"] for item in doc)


def test_verify_seed_variation():
    for seed in (1, 2, 3):
        assert all(r.passed for r in verify.run_all(seed))


def test_verify_detects_broken_oracle(monkeypatch):
    exact = verify.criteria.dbl_bruteforce
    monkeypatch.setattr(verify.criteria, "dbl_bruteforce",
                        lambda *args, **kwargs: exact(*args, **kwargs) + 1e3)
    results = verify.run_all(7)
    failed = [r for r in results if not r.passed]
    assert len(failed) == 1 and failed[0].name == "variance_identity"
    assert failed[0].detail


def test_verify_failure_exit_code(monkeypatch):
    import slcrit.cli as cli_mod
    broken = verify.SuiteResult("stub", False, 1, 1.0, 0.0, "dump")
    monkeypatch.setattr(cli_mod.verify, "run_all", lambda seed: [broken])
    assert main(["verify"]) == 1


def test_verify_refuses_a_negative_seed_before_any_suite(monkeypatch, capsys):
    monkeypatch.setattr(cli.verify, "run_all", lambda seed: pytest.fail("a suite ran"))
    assert main(["verify", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed -1 must be non-negative\n"


def test_plot_outputs(tmp_path, quadratic_file):
    prefix = tmp_path / "plot"
    assert main(["plot", "--potential", quadratic_file, "--mesh", "48",
                 "--angles", "16", "--out", str(prefix)]) == 0
    growth = list(csv.reader((tmp_path / "plot_growth.csv").read_text().splitlines()))
    assert growth[0] == ["x", "value"]
    # growth of x^2/2 over a unit window: value = x + 1/2
    x0, v0 = float(growth[1][0]), float(growth[1][1])
    assert v0 == pytest.approx(x0 + 0.5, abs=1e-9)
    for suffix in ("dbl", "infmod", "range"):
        assert (tmp_path / f"plot_{suffix}.csv").exists()


@pytest.mark.parametrize("xmax, count", [(3.0 - 1e-13, 4), (3.5 - 1e-13, 5)])
def test_scan_and_plot_just_below_a_window_end(tmp_path, xmax, count):
    # a domain just below an integer or a half-integer takes only the windows
    # that end inside it, not the one ending 1e-13 past X
    pot = tmp_path / "miura.json"
    sl.save(sl.miura(sl.from_poly((0.5, 0.2), 4.0), 0.25), pot)
    rows = forms.localization_scan(sl.restrict(sl.load(pot), xmax), n=16, angles=16).rows
    assert len(rows) == count
    assert all(0.0 <= r.window.a and r.window.b <= xmax for r in rows)
    out, prefix = tmp_path / "scan.csv", tmp_path / "plot"
    common = ["--potential", str(pot), "--xmax", repr(xmax), "--mesh", "16", "--angles", "16"]
    assert main(["scan", *common, "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        windows = [(float(r["window_lo"]), float(r["window_hi"])) for r in csv.DictReader(fh)]
    assert windows == [(r.window.a, r.window.b) for r in rows]
    assert main(["plot", *common, "--out", str(prefix)]) == 0
    assert len((tmp_path / "plot_infmod.csv").read_text().splitlines()) == count + 1


def test_plot_range_imaginary_part(tmp_path):
    pot = tmp_path / "im.json"
    sl.save(sl.from_poly((0.0, 1.0j), 4.0), pot)
    prefix = tmp_path / "im"
    assert main(["plot", "--potential", str(pot), "--mesh", "48",
                 "--angles", "16", "--out", str(prefix)]) == 0
    rows = list(csv.reader((tmp_path / "im_range.csv").read_text().splitlines()))[1:]
    imags = [float(r[1]) for r in rows]
    assert np.allclose(imags, 1.0, atol=1e-6)


def test_plot_spike_profile_gamma(tmp_path, slcrit_subprocess):
    # gamma of the h = 1000 spike profile has poles 1.5e-9 off its pieces:
    # the window [0, 1] at mesh 128 assembles on cells graded toward them
    pot = tmp_path / "vh1000.json"
    sl.save(sl.vh_profile(1000.0)[1], pot)
    prefix = tmp_path / "vh"
    run = slcrit_subprocess(["plot", "--potential", pot, "--out", prefix])
    assert run.returncode == 0, run.stderr
    rows = list(csv.reader((tmp_path / "vh_range.csv").read_text().splitlines()))[1:]
    assert rows and all(math.isfinite(float(v)) for r in rows for v in r)


def test_outputs_deterministic(tmp_path, quadratic_file):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    main(["analyze", "--potential", quadratic_file, "--out", str(out1)])
    main(["analyze", "--potential", quadratic_file, "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    # a complex potential takes the batched rotation sweep
    pot = tmp_path / "cx.json"
    sl.save(sl.from_poly((0.5 + 0.3j, 1.0j, 0.25), 3.5), pot)
    scans = [tmp_path / "s1.csv", tmp_path / "s2.csv"]
    for out in scans:
        assert main(["scan", "--potential", str(pot), "--mesh", "48",
                     "--angles", "16", "--out", str(out)]) == 0
    assert scans[0].read_bytes() == scans[1].read_bytes()


@pytest.mark.parametrize("flag, value", [("--mesh", "40000"), ("--angles", "1025")])
def test_scan_rejects_absurd_sizes_before_assembly(tmp_path, quadratic_file,
                                                   monkeypatch, capsys, flag, value):
    def refuse(*args, **kwargs):
        raise AssertionError("nothing may be assembled for an absurd size")

    monkeypatch.setattr(sl.forms, "assemble", refuse)
    monkeypatch.setattr(sl.forms, "localization_scan", refuse)
    out = tmp_path / "scan.csv"
    assert main(["scan", "--potential", quadratic_file, flag, value,
                 "--out", str(out)]) == 2
    assert "exceeds the limit" in capsys.readouterr().err
    assert not out.exists()


def test_xmax_override(tmp_path, quadratic_file):
    out = tmp_path / "trunc.csv"
    assert main(["scan", "--potential", quadratic_file, "--xmax", "4",
                 "--mesh", "48", "--angles", "16", "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    assert max(float(r[1]) for r in rows) <= 4.0


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command", ["analyze", "scan", "plot", "generate"])
def test_non_finite_xmax_exits_2_before_loading(tmp_path, quadratic_file, monkeypatch,
                                                 capsys, command, value):
    def refuse(*args, **kwargs):
        raise AssertionError("nothing may be loaded or generated for a non-finite --xmax")

    for name in ("load", "build_counterexample", "save"):
        monkeypatch.setattr(sl.potential, name, refuse)
    monkeypatch.setattr(cli, "_orchestrate_s2", refuse)
    source = ["--kind", "s2", "--blocks", "1"] if command == "generate" else [
        "--potential", quadratic_file]
    out = tmp_path / "out"
    assert main([command, *source, "--xmax", value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--xmax" in err and "finite and positive" in err
    assert not list(tmp_path.glob("out*"))


# -- malformed and overflowing input in a memory-limited subprocess ----------------

#: seconds a CLI subprocess may take on the robustness inputs
BUDGET_S = 60.0


def _poly_doc(path, X, coeffs):
    text = json.dumps({"domain_end": X, "breakpoints": [0.0, X],
                       "pieces": [[{"type": "poly", "re": list(coeffs),
                                    "im": [0.0] * len(coeffs)}]],
                       "jumps": []})
    path.write_text(text)
    return str(path)


def test_analyze_nan_constant_exits_2(tmp_path, slcrit_subprocess):
    src = _poly_doc(tmp_path / "nan.json", 10.0, [math.nan, 1.0, 0.0, 0.0])
    assert "NaN" in (tmp_path / "nan.json").read_text()
    run = slcrit_subprocess(["analyze", "--potential", src, "--out", tmp_path / "r.json"],
                            timeout=BUDGET_S)
    assert run.returncode == 2, run.stderr
    assert "error: non-finite number NaN" in run.stderr
    assert "Traceback" not in run.stderr


def test_analyze_overflowing_square_exits_1(tmp_path, slcrit_subprocess):
    # s = 1e200 x is finite, but the square of its centred part, |s - r|^2 with
    # r the window-centre value, overflows in the window moments
    src = _poly_doc(tmp_path / "big.json", 10.0, [0.0, 1e200, 0.0, 0.0])
    run = slcrit_subprocess(["analyze", "--potential", src, "--out", tmp_path / "r.json"],
                            timeout=BUDGET_S)
    assert run.returncode == 1, run.stderr
    assert "numeric failure:" in run.stderr and "not finite" in run.stderr
    assert "Traceback" not in run.stderr


def test_analyze_absurd_domain_exits_2(tmp_path, slcrit_subprocess):
    # a valid one-piece s = x on [0, 1e9] asks for gigabytes of window
    # origins: under the address-space limit that is a one-line exit 2, not a
    # MemoryError traceback
    src = _poly_doc(tmp_path / "far.json", 1e9, [0.0, 1.0, 0.0, 0.0])
    run = slcrit_subprocess(["analyze", "--potential", src, "--out", tmp_path / "r.json"],
                            timeout=BUDGET_S)
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("error: the input needs more memory")
    assert len(run.stderr.splitlines()) == 1 and "Traceback" not in run.stderr


@st.composite
def _documents(draw):
    """Potential documents of finite numbers with at most one special value
    (NaN, an infinity, or a huge finite number) put in a drawn slot."""
    X = draw(st.floats(1.0, 12.0))
    cuts = sorted(set(draw(st.lists(st.floats(0.05, 0.95), max_size=3))))
    bp = [0.0] + [c * X for c in cuts] + [X]
    number = st.floats(-10.0, 10.0)
    pieces = []
    for t0, t1 in zip(bp, bp[1:]):
        row = [{"type": "poly", "re": draw(st.lists(number, min_size=4, max_size=4)),
                "im": draw(st.lists(number, min_size=4, max_size=4))}]
        if draw(st.booleans()):
            row.append({"type": "recip", "c_re": draw(number), "c_im": draw(number),
                        "pole": draw(st.sampled_from([t0 - 0.5, t1 + 0.5]))})
        pieces.append(row)
    jumps = [{"at": t, "re": draw(number), "im": draw(number)}
             for t in bp[1:-1] if draw(st.booleans())]
    special = draw(st.sampled_from([None, math.nan, math.inf, -math.inf, 1e300, -1e200]))
    if special is not None:
        slots = [(term, key) for row in pieces for term in row
                 for key in (("re", "im") if term["type"] == "poly" else ("c_re", "pole"))]
        slots += [(jump, "re") for jump in jumps]
        term, key = draw(st.sampled_from(slots))
        if isinstance(term[key], list):
            term[key][draw(st.integers(0, 3))] = special
        else:
            term[key] = special
    return {"domain_end": X, "breakpoints": bp, "pieces": pieces, "jumps": jumps}


@settings(max_examples=8, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_documents())
def test_analyze_any_document_ends_in_an_exit_code(tmp_path, slcrit_subprocess, doc):
    src = tmp_path / "doc.json"
    src.write_text(json.dumps(doc))
    run = slcrit_subprocess(["analyze", "--potential", src, "--out", tmp_path / "r.json"],
                            timeout=BUDGET_S)
    assert run.returncode in (0, 1, 2), run.stderr
    assert "Traceback" not in run.stderr
