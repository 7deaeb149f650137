"""Smoke tests of the scripts under scripts/, run as a user runs them."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_contraction_sweep_writes_its_table(tmp_path):
    out = tmp_path / "sweep.csv"
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "contraction_sweep.py"),
         "--starts", "1", "--blocks", "4", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    lines = out.read_text().splitlines()
    # the header, then one row per (m, alpha) of the grid: 3 sizes x 8 weights
    assert len(lines) == 25
    assert lines[0] == "m,alpha,s,bound,worst_factor,worst_single_pair_factor,margin"
    assert all(len(line.split(",")) == 7 for line in lines[1:])
