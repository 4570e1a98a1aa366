"""CLI reports compared byte for byte with stored ones.

Each case is a command line whose report carries no LAPACK-computed float:
those may differ in the last bits between BLAS builds, though no longer
between thread counts, since the float fit runs on one BLAS thread (see
``test_secantfit.py``).  Its stdout and exit code are stored in
``data/golden_reports.json``.  Commands run in a directory that holds
copies of the bundled polynomial files, so ``--poly`` and ``--out`` paths,
and with them the reports' ``config``, do not depend on where the
repository lives.

When a report changes on purpose, regenerate the file with
``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

import contextlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest

from orbitopes import fixtures
from orbitopes.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_reports.json"
POLY = "secant13_deg8.poly"

COMMANDS = [
    ["faces", "--rep", "1,3", "--edge", "0,1/5"],
    ["faces", "--rep", "2,3", "--edge", "0,2/5"],
    ["faces", "--rep", "2,5", "--edge", "1/10,1/2"],
    ["faces", "--rep", "1,3", "--polygon", "3,0"],
    ["faces", "--rep", "2,5", "--polygon", "2,1/7"],
    ["faces", "--rep", "1,3", "--polygon", "1,1/2"],
    ["faces", "--rep", "3,5", "--polygon", "3,1/7"],
    ["faces", "--rep", "3,5", "--polygon", "5,1/20"],
    ["faces", "--rep", "1,3", "--vertex", "1/4"],
    ["faces", "--rep", "2,5", "--vertex", "3/7"],
    ["faces", "--rep", "3,4", "--vertex", "0"],
    ["boundary", "--rep", "1,2"],
    ["boundary", "--rep", "2,5"],
    ["boundary", "--rep", "3,4", "--out", "out"],
    ["curve-info", "--rep", "1,3", "--probe", "--seed", "4"],
    ["curve-info", "--rep", "2,3", "--probe"],
    ["curve-info", "--rep", "1,64", "--probe"],
    ["bn", "witness", "--n", "3"],
    ["bn", "witness", "--n", "5", "--out", "out"],
    ["bn", "witness", "--n", "7"],
    ["bn", "witness", "--n", "199"],
    ["bn", "witness", "--n", "201"],
    ["bn", "slice"],
    ["bn", "slice", "--out", "out"],
    ["verify", "--rep", "1,3", "--r", "2", "--poly", POLY, "--mode", "exact",
     "--count", "200", "--seed", "3", "--tol", "0"],
    ["verify", "--rep", "1,2", "--r", "2", "--poly", POLY, "--mode", "exact",
     "--count", "50"],
    ["rationalize", "--poly", POLY, "--anchor", "0,0,4,0",
     "--anchor-value", "1"],
    ["rationalize", "--poly", POLY, "--anchor", "0,0,4,0",
     "--anchor-value", "3/2", "--out", "out"],
    ["secant-fit", "--rep", "1,3", "--r", "2", "--degree", "2",
     "--mode", "exact"],
    ["secant-fit", "--rep", "1,3", "--r", "2", "--degree", "8",
     "--mode", "exact"],
    ["secant-fit", "--rep", "1,2", "--r", "2", "--degree", "3",
     "--mode", "exact"],
    # nullity > 1, where the order and scaling of the printed basis matter
    ["secant-fit", "--rep", "1,3", "--r", "2", "--degree", "9",
     "--mode", "exact"],
    ["secant-fit", "--rep", "1,2", "--r", "2", "--degree", "5",
     "--mode", "exact"],
    # nullity 53 over many blocks; its held-out residuals are summed in
    # the printed term order
    ["secant-fit", "--rep", "1,2", "--r", "1", "--degree", "4",
     "--mode", "exact"],
    # the modular solve finds no equation: exit 2
    ["secant-fit", "--rep", "1,4", "--r", "2", "--degree", "9",
     "--mode", "exact"],
    ["face-dim", "--point", "2,0,0,0"],
    ["faces", "--rep", "1,3,5"],
    ["membership"],
    ["rationalize", "--poly", POLY, "--anchor", "0,0,4,0",
     "--anchor-value", "0"],
    ["verify", "--rep", "1,3", "--r", "2", "--poly", "missing.poly"],
]


def run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue()}


def copy_polys(path: Path) -> None:
    """Copy the bundled polynomial files into ``path``."""
    data = Path(fixtures.__file__).parent / "data"
    for poly in data.glob("*.poly"):
        shutil.copy(poly, path / poly.name)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_report_matches_golden(argv, tmp_path, monkeypatch):
    copy_polys(tmp_path)
    monkeypatch.chdir(tmp_path)
    expected = json.loads(GOLDEN.read_text())[" ".join(argv)]
    assert run(argv) == expected
    if "--out" in argv and expected["stdout"]:
        assert (tmp_path / "out" / "report.json").read_text() == expected["stdout"]


if __name__ == "__main__":
    golden = {}
    home = os.getcwd()
    for argv in COMMANDS:
        with tempfile.TemporaryDirectory() as work:
            copy_polys(Path(work))
            os.chdir(work)
            golden[" ".join(argv)] = run(argv)
            os.chdir(home)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
