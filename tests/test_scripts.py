"""Smoke tests of the scripts under scripts/, run as a user runs them."""

import json
import os
import subprocess
import sys
from pathlib import Path

from qsodyn import cli, verification

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
    # every measured factor is within verify's slack of the bound
    assert all(float(line.split(",")[6]) >= -1e-9 for line in lines[1:])


def test_the_probe_checkpoints_are_the_calibrated_ones():
    # the calibrated delta holds only at the checkpoints it was calibrated at
    committed = SCRIPTS.parent / "calibration" / "zakharevich_cesaro.json"
    standard = json.loads(committed.read_text())["standard_checkpoints"]
    assert standard == list(verification.CESARO_CHECKPOINTS)
    default = cli.build_parser().parse_args(["ergodic"]).checkpoints
    assert [int(v) for v in default.split(",")] == standard


def test_calibration_rerun_reproduces_the_committed_file(tmp_path):
    # the script writes next to its own directory: run a copy in tmp_path
    (tmp_path / "scripts").mkdir()
    script = tmp_path / "scripts" / "calibrate_nonergodicity.py"
    script.write_bytes((SCRIPTS / "calibrate_nonergodicity.py").read_bytes())
    src = SCRIPTS.parent / "src"
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    committed = SCRIPTS.parent / "calibration" / "zakharevich_cesaro.json"
    assert (tmp_path / "calibration" / "zakharevich_cesaro.json").read_bytes() \
        == committed.read_bytes()
