"""The output ledger: SHA-256 digests of fixed outputs of every CLI command.

A change meant to leave the results alone must leave these bytes alone.  The
documents are built in code from fixed seeds, saved, run through the CLI in
process, and each output file is digested.  The ledger also records numpy's
version: another numpy may round differently, and a mismatch under another
version says so.

A change meant to move outputs refreshes the ledger, and its diff is the
declared output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

import slcrit as sl
from slcrit import cli, sampling

LEDGER = Path(__file__).resolve().parent / "golden" / "ledger.json"


def documents() -> list:
    """(name, antiderivative) pairs that ``analyze`` runs on."""
    rng = np.random.default_rng(20240801)
    miura = sl.miura(sampling.random_gamma(rng, domain_end=10.0, pieces=6), 0.5)
    cubic = sampling.random_antiderivative(rng, domain_end=4.3, pieces=26, jumps=3)
    positions = [k / 10.0 for k in range(1, 120)]
    strengths = rng.uniform(-1.0, 1.0, len(positions)) + 1j * rng.uniform(0.0, 1.0, len(positions))
    return [("x", sl.from_poly((0.0, 1.0), 12.0)),
            ("x2", sl.from_poly((0.0, 0.0, 0.5), 12.0)),
            ("ix", sl.from_poly((0.0, 1.0j), 12.0)),
            ("miura", miura),
            ("s1-blocks5", sl.build_counterexample("s1", blocks=5)),
            ("cubic26", cubic),
            ("deltas0.1", sl.delta_sum(positions, strengths.tolist(), 12.0))]


def _run(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    assert code == 0, argv


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


#: a model with a breakpoint 1e-9 past the node 2 of every scan lattice
DISPLACED = sl.Antiderivative(4.0, (0.0, 2.0 + 1e-9, 4.0),
                              ((sl.PolyTerm((1.0, 1.0j)),), (sl.PolyTerm((2.0, -0.5)),)))

GENERATE = {
    "delta": ["--kind", "delta", "--positions", "0.5,1.25,3", "--strengths", "1,-0.5i,2+1i"],
    "miura": ["--kind", "miura", "--gamma-const", "0.7", "--b", "0.25", "--xmax", "6"],
    "s1-blocks5": ["--kind", "s1", "--blocks", "5"],
    "s2-blocks2": ["--kind", "s2", "--blocks", "2"],
}


def outputs(workdir: Path) -> dict:
    """Output name -> SHA-256 of the file the CLI wrote."""
    out = {}
    for name, s in documents():
        src = workdir / f"{name}.json"
        sl.save(s, src)
        for fmt in ("json", "csv"):
            report = workdir / f"{name}.report.{fmt}"
            _run(["analyze", "--potential", src, "--out", report, "--format", fmt])
            out[f"analyze {name} {fmt}"] = _digest(report)
    src = workdir / "x2-ix.json"
    sl.save(sl.from_poly((0.0, 1.0j, 0.5), 4.0), src)
    _run(["scan", "--potential", src, "--mesh", 32, "--out", workdir / "scan.csv"])
    out["scan x2-ix mesh32 csv"] = _digest(workdir / "scan.csv")
    _run(["plot", "--potential", src, "--mesh", 32, "--angles", 16, "--out", workdir / "plot"])
    for series in ("dbl", "growth", "infmod", "range"):
        out[f"plot x2-ix mesh32 {series} csv"] = _digest(workdir / f"plot_{series}.csv")
    src = workdir / "displaced.json"
    sl.save(DISPLACED, src)
    for mesh in (48, 33):
        _run(["scan", "--potential", src, "--mesh", mesh, "--out", workdir / "scan.csv"])
        out[f"scan displaced mesh{mesh} csv"] = _digest(workdir / "scan.csv")
    for name, argv in GENERATE.items():
        doc = workdir / f"{name}.generated.json"
        _run(["generate", *argv, "--out", doc])
        out[f"generate {name} json"] = _digest(doc)
    out["generate s2-blocks2 provenance json"] = _digest(
        workdir / "s2-blocks2.generated.json.provenance.json")
    _run(["verify", "--seed", 20240801, "--out", workdir / "verify.json"])
    out["verify seed20240801 json"] = _digest(workdir / "verify.json")
    return out


def test_outputs_match_the_ledger(tmp_path):
    ledger = json.loads(LEDGER.read_text(encoding="utf-8"))
    got = outputs(tmp_path)
    moved = sorted(name for name in ledger["outputs"] if got.get(name) != ledger["outputs"][name])
    note = ("" if ledger["numpy"] == np.__version__ else
            f" (numpy {np.__version__} here, the ledger was recorded under {ledger['numpy']})")
    assert not moved, f"outputs differ from the ledger: {', '.join(moved)}{note}"
    assert sorted(got) == sorted(ledger["outputs"])


def refresh() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        doc = {"numpy": np.__version__, "outputs": outputs(Path(workdir))}
    LEDGER.parent.mkdir(exist_ok=True)
    LEDGER.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(doc['outputs'])} digests -> {LEDGER}")


if __name__ == "__main__":
    refresh()
