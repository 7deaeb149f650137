import argparse
import contextlib
import errno
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsodyn import cli, tensor
from qsodyn.cli import main
from qsodyn.families import REGISTRY, make_regular
from qsodyn.simplex import Permutation


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_families_listing(capsys):
    code, out, _ = run_cli(capsys, "families")
    assert code == 0
    for name in ("ZAKHAREVICH", "KHUKR", "REGULAR", "QUASI_STRICT",
                 "ALPHA_COMBINATION", "V0", "V7"):
        assert name in out


def test_families_json(capsys):
    code, out, _ = run_cli(capsys, "families", "--json")
    assert code == 0
    rows = json.loads(out)
    assert {"name", "m", "parameter", "permutation", "summary"} <= set(rows[0])


def test_trajectory_csv_alternation(capsys):
    code, out, _ = run_cli(
        capsys, "trajectory", "--family", "QUASI_STRICT", "--m", "3",
        "--perm", "(1 2)", "--x0", "0.3,0.2,0.5", "--steps", "4",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,x1,x2,x3"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["0", "1", "2", "3", "4"]
    assert float(rows[1][1]) == pytest.approx(0.2, abs=1e-15)
    assert float(rows[2][1]) == pytest.approx(0.3, abs=1e-15)


def test_trajectory_zero_steps_single_row(capsys):
    code, out, _ = run_cli(
        capsys, "trajectory", "--family", "REGULAR", "--m", "3",
        "--x0", "0.5,0.3,0.2", "--steps", "0",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0,")


@pytest.mark.parametrize("x0", ["-0.0,0.6,0.4", "-1e-13,0.6,0.4"])
def test_trajectory_takes_a_leading_minus_after_an_equals_sign(capsys, x0):
    # argparse takes "--x0 -0.0,0.6,0.4" for an unknown option
    with pytest.raises(SystemExit):
        main(["trajectory", "--family", "KHUKR", "--x0", x0, "--steps", "2"])
    assert "argument --x0: expected one argument" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "trajectory", "--family", "KHUKR", f"--x0={x0}",
                           "--steps", "2")
    # validate_point clamps a coordinate within TAU_SUM of zero to 0.0
    assert code == 0
    assert out.splitlines()[1] == "0,0,0.59999999999999998,0.40000000000000002"


def test_classify_takes_a_leading_minus_after_an_equals_sign(capsys):
    code, out, _ = run_cli(capsys, "classify", "--family", "REGULAR", "--m", "3",
                           "--x0=-0.0,0,1")
    assert code == 0
    assert (code, out) == run_cli(capsys, "classify", "--family", "REGULAR", "--m", "3",
                                  "--x0", "0,0,1")[:2]


def test_trajectory_converges_and_round_trips(capsys, tmp_path):
    dest = tmp_path / "traj.csv"
    code, _, _ = run_cli(
        capsys, "trajectory", "--family", "REGULAR", "--m", "5",
        "--x0", "0.4,0.3,0.2,0.05,0.05", "--steps", "200", "--out", str(dest),
    )
    assert code == 0
    lines = dest.read_text().strip().splitlines()
    final = [float(v) for v in lines[-1].split(",")[1:]]
    assert np.max(np.abs(np.array(final) - 0.2)) < 1e-8
    # 17 significant digits round-trip floats exactly
    again = [float(format(v, ".17g")) for v in final]
    assert again == final


def test_fixed_points_report(capsys):
    code, out, _ = run_cli(
        capsys, "fixed-points", "--family", "ALPHA_COMBINATION", "--m", "3",
        "--perm", "(1 2)", "--alpha", "0.5", "--seed", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == 3
    points = [r["point"] for r in doc["results"]]
    classes = [r["classification"] for r in doc["results"]]
    assert [0.0, 0.0, 1.0] in points
    interior = points[classes.index("ATTRACTING")]
    assert np.max(np.abs(np.array(interior) - [2 / 7, 2 / 7, 3 / 7])) < 1e-10


def test_classify_report(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--family", "REGULAR", "--m", "4",
        "--x0", "0.25,0.25,0.25,0.25",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["classification"] == "ATTRACTING"
    assert len(doc["results"]["tangent_eigenvalues"]) == 3


def test_lyapunov_report(capsys):
    code, out, _ = run_cli(
        capsys, "lyapunov", "--family", "REGULAR", "--m", "6",
        "--fn", "CYCLIC_PRODUCT", "--samples", "20", "--horizon", "30",
        "--seed", "5",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["violations"] == 0


def test_omega_report(capsys):
    code, out, _ = run_cli(
        capsys, "omega", "--family", "KHUKR", "--x0", "0.4,0.36,0.24",
        "--burn-in", "1000", "--window", "20", "--s-max", "8",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["detected_period"] == 2
    assert len(doc["results"]["cluster_points"]) == 2


def test_ergodic_report(capsys):
    code, out, _ = run_cli(
        capsys, "ergodic", "--family", "REGULAR", "--m", "4",
        "--x0", "0.25,0.25,0.25,0.25", "--checkpoints", "10,100,1000",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["fluctuation"] < 1e-14
    assert doc["results"]["checkpoints"] == [10, 100, 1000]


def test_scalar_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "scalar", "--map", "F_ALPHA", "--m", "3", "--alpha", "0.5",
        "--fixed-point", "--iterate", "0.3", "200", "--conjugacy-check",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["fixed_point"] == pytest.approx(3 / 7, abs=1e-15)
    assert doc["results"]["iterate"]["value"] == pytest.approx(3 / 7, abs=1e-12)
    assert doc["results"]["conjugacy_check"]["max_dev"] < 1e-12


def test_scalar_scan_period(capsys):
    code, out, _ = run_cli(capsys, "scalar", "--map", "F", "--scan-period", "3")
    assert code == 0
    roots = json.loads(out)["results"]["scan_period"]["roots"]
    for r in roots:
        assert min(abs(r - 0.5), abs(r - 1.0)) < 1e-8


def test_verify_small_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "scalar", "--seed", "7")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert out.strip().splitlines()[-1].startswith("SUITE scalar:")


def test_verify_deterministic_output(capsys):
    _, first, _ = run_cli(capsys, "verify", "--suite", "scalar", "--seed", "7")
    _, second, _ = run_cli(capsys, "verify", "--suite", "scalar", "--seed", "7")
    assert first == second


def test_config_errors_exit_2(capsys):
    assert run_cli(capsys, "verify", "--suite", "bogus")[0] == 2
    assert run_cli(capsys, "trajectory", "--family", "NOPE", "--m", "3",
                   "--x0", "1,0,0", "--steps", "1")[0] == 2
    assert run_cli(capsys, "trajectory", "--family", "REGULAR", "--m", "3",
                   "--x0", "0.5,0.6,0.2", "--steps", "1")[0] == 2


# different subcommands, a usage error followed by a good call, the same argv
# twice, and options left at their defaults after a call that set them
PARSER_REUSE_SEQUENCE = [
    ["families"],
    ["families", "--bogus-flag"],
    ["families", "--json"],
    ["scalar", "--map", "F", "--m", "5", "--iterate", "0.3", "4"],
    ["scalar", "--map", "F", "--m", "5", "--iterate", "0.3", "4"],
    ["scalar", "--map", "F", "--m", "5", "--eval", "0.25"],
    ["trajectory", "--family", "REGULAR", "--m", "3", "--x0", "0.5,0.3,0.2",
     "--steps", "3", "--stride", "2"],
    ["trajectory", "--family", "REGULAR", "--m", "3", "--steps", "3"],
    ["trajectory", "--family", "REGULAR", "--m", "3", "--x0", "0.5,0.3,0.2", "--steps", "3"],
    ["omega", "--family", "KHUKR", "--x0", "0.4,0.36,0.24", "--s-max", "0"],
    ["omega", "--family", "KHUKR", "--x0", "0.4,0.36,0.24", "--window", "20"],
    ["verify"],
    ["verify", "--suite", "bogus"],
]


def run_sequence(capsys, sequence):
    outcomes = []
    for argv in sequence:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    return outcomes


def test_reused_parser_matches_fresh_parsers(capsys, monkeypatch):
    reused = run_sequence(capsys, PARSER_REUSE_SEQUENCE)
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a new parser per call
    fresh = run_sequence(capsys, PARSER_REUSE_SEQUENCE)
    assert reused == fresh
    codes = [code for code, _, _ in reused]
    assert codes.count(("exit", 2)) == 2 and 0 in codes and 2 in codes


def test_handler_is_looked_up_at_each_call(capsys, monkeypatch):
    monkeypatch.setattr(cli, "cmd_families", lambda args: print("replaced") or 0)
    assert run_cli(capsys, "families") == (0, "replaced\n", "")


def test_usage_error_exit_2_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "qsodyn", "families", "--bogus-flag"],
        capture_output=True,
    )
    assert proc.returncode == 2


def test_a_bad_row_exits_2_before_the_output_is_opened(capsys, monkeypatch, tmp_path):
    def collect(t, x, n, stride):
        return np.arange(2), np.array([x, [-0.25, 0.75, 0.5]]), 1

    monkeypatch.setattr(tensor, "_collect", collect)
    new, kept = tmp_path / "new.csv", tmp_path / "kept.csv"
    kept.write_bytes(b"earlier bytes\n")
    for dest in (new, kept):
        code, out, err = run_cli(capsys, "trajectory", "--family", "KHUKR", "--x0", "0.3,0.3,0.4",
                                 "--steps", "1", "--out", str(dest))
        assert code == 2 and out == "" and err.startswith("error: negative coordinate")
    assert not new.exists()
    assert kept.read_bytes() == b"earlier bytes\n"


@pytest.mark.parametrize("argv", [
    ["--family", "REGULAR", "--m", "5", "--x0", "0.4,0.3,0.2,0.05,0.05"],
    # periodic, never bit-fixed: every row is before the settled mark
    ["--family", "KHUKR", "--x0", "0.4,0.36,0.24"],
], ids=["settles", "never_settles"])
def test_a_long_trajectory_file_is_written_in_bounded_memory(capsys, tmp_path, argv):
    dest = tmp_path / "t.csv"
    assert main(["trajectory", *argv, "--steps", "10", "--out", str(dest)]) == 0  # warm up
    tracemalloc.start()
    try:
        code = main(["trajectory", *argv, "--steps", "100000", "--out", str(dest)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and dest.stat().st_size > 4_000_000
    # the steps and rows arrays alone take 3.2 to 4.8 MB, the file 5 to 11 MB
    assert peak < 12 * 2**20


def test_random_starts_trajectories(capsys, tmp_path):
    dest = tmp_path / "runs.csv"
    code, out, _ = run_cli(
        capsys, "trajectory", "--family", "REGULAR", "--m", "4",
        "--random-starts", "3", "--seed", "11", "--steps", "50",
        "--out", str(dest),
    )
    assert code == 0
    paths = out.strip().splitlines()
    assert len(paths) == 3
    finals = []
    for path in paths:
        lines = (tmp_path / path.split("/")[-1]).read_text().strip().splitlines()
        finals.append([float(v) for v in lines[-1].split(",")[1:]])
    assert np.max(np.abs(np.array(finals) - 0.25)) < 1e-8
    # seeded draws are distinct starts
    firsts = {Path(p).read_text().splitlines()[1] for p in paths}
    assert len(firsts) == 3


def test_random_starts_write_the_files_of_single_runs(capsys, monkeypatch, tmp_path):
    argv = ["trajectory", "--family", "REGULAR", "--m", "4", "--random-starts", "2",
            "--seed", "3", "--steps", str(cli.CSV_BLOCK_ROWS + 5), "--stride", "2"]
    code, out, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "runs.csv"))
    assert code == 0
    paths = out.splitlines()
    assert paths == [str(tmp_path / "runs.1.csv"), str(tmp_path / "runs.2.csv")]
    starts = cli._resolve_starts(argparse.Namespace(x0=None, random_starts=2, seed=3), 4)
    for path, x0 in zip(paths, starts):
        # the same start alone, written to stdout
        monkeypatch.setattr(cli, "_resolve_starts", lambda args, m, x0=x0: [x0])
        code, single, _ = run_cli(capsys, *argv)
        assert code == 0 and single == Path(path).read_text()


@pytest.mark.parametrize("out,numbered", [
    ("run.d/traj", ["run.d/traj.1.csv", "run.d/traj.2.csv"]),
    ("run.d/traj.v2.csv", ["run.d/traj.v2.1.csv", "run.d/traj.v2.2.csv"]),
])
def test_random_starts_number_the_file_name_not_the_directory(capsys, tmp_path, out, numbered):
    (tmp_path / "run.d").mkdir()
    code, printed, _ = run_cli(
        capsys, "trajectory", "--family", "REGULAR", "--m", "4",
        "--random-starts", "2", "--seed", "11", "--steps", "5",
        "--out", str(tmp_path / out),
    )
    assert code == 0
    assert printed.splitlines() == [str(tmp_path / name) for name in numbered]
    assert sorted(p.name for p in (tmp_path / "run.d").iterdir()) == [Path(n).name for n in numbered]


def test_random_starts_require_seed(capsys):
    code, _, err = run_cli(
        capsys, "trajectory", "--family", "REGULAR", "--m", "3",
        "--random-starts", "2", "--steps", "5",
    )
    assert code == 2
    assert "seed" in err


def test_random_starts_omega_list_results(capsys):
    code, out, _ = run_cli(
        capsys, "omega", "--family", "QUASI_STRICT", "--m", "3",
        "--perm", "(1 2)", "--random-starts", "2", "--seed", "4",
        "--burn-in", "300", "--window", "20", "--s-max", "8",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["results"]) == 2
    for rec in doc["results"]:
        assert rec["omega"]["detected_period"] == 2


def test_tensor_file_input(capsys, tmp_path):
    from qsodyn.families import make_regular
    from qsodyn.tensor import save_tensor

    path = tmp_path / "op.tsv"
    save_tensor(make_regular(4), str(path))
    code, out, _ = run_cli(
        capsys, "trajectory", "--tensor-file", str(path),
        "--x0", "0.4,0.3,0.2,0.1", "--steps", "100",
    )
    assert code == 0
    final = [float(v) for v in out.strip().splitlines()[-1].split(",")[1:]]
    assert np.max(np.abs(np.array(final) - 0.25)) < 1e-8


BAD_TENSOR_FILES = {
    "header_abc.tsv": b"m abc\n",
    "entry_x.tsv": b"m 3\n1 1 x 1\n",
    "negative_m.tsv": b"m -2\n",
    # the start of an executable: not text in any UTF-8 locale
    "binary.tsv": b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)) + b"\n",
}


@pytest.mark.parametrize("argv", [
    ["fixed-points", "--family", "KHUKR", "--starts", "-1"],
    ["fixed-points", "--family", "KHUKR", "--tol", "nan"],
    ["fixed-points", "--family", "KHUKR", "--tol", "inf"],
    ["fixed-points", "--family", "KHUKR", "--tol", "-1"],
    ["fixed-points", "--family", "KHUKR", "--tol", "0"],
    ["fixed-points", "--family", "KHUKR", "--band", "nan"],
    ["fixed-points", "--family", "KHUKR", "--band=-inf"],
    ["fixed-points", "--family", "KHUKR", "--band", "-0.1"],
    ["classify", "--family", "KHUKR", "--x0", "0.4,0.36,0.24", "--band", "nan"],
    ["lyapunov", "--family", "REGULAR", "--m", "4", "--fn", "CYCLIC_PRODUCT",
     "--samples", "-2", "--seed", "1"],
    ["lyapunov", "--family", "REGULAR", "--m", "4", "--fn", "CYCLIC_PRODUCT",
     "--samples", "0", "--seed", "1"],
    ["lyapunov", "--family", "REGULAR", "--m", "4", "--fn", "CYCLIC_PRODUCT",
     "--slack", "nan", "--seed", "1"],
    ["lyapunov", "--family", "ALPHA_COMBINATION", "--m", "4", "--perm", "(1 2 3)",
     "--alpha", "0.3", "--fn", "LAST_COORD", "--n0", "-1", "--seed", "1"],
    ["omega", "--family", "KHUKR", "--x0", "0.4,0.36,0.24", "--cluster-tol", "nan"],
    ["omega", "--family", "KHUKR", "--x0", "0.4,0.36,0.24", "--cluster-tol", "inf"],
    ["omega", "--family", "KHUKR", "--x0", "0.4,0.36,0.24", "--cluster-tol=-1e-6"],
    ["omega", "--family", "KHUKR", "--x0", "0.4,0.36,0.24", "--period-tol", "nan"],
    ["omega", "--family", "KHUKR", "--x0", "0.4,0.36,0.24", "--s-max", "0"],
    ["omega", "--family", "KHUKR", "--x0", "0.4,0.36,0.24", "--s-max", "-2"],
    ["scalar", "--map", "F", "--scan-period", "3", "--scan-tol", "nan"],
    ["scalar", "--map", "F", "--scan-period", "3", "--scan-tol", "inf"],
    ["ergodic", "--family", "ZAKHAREVICH", "--x0", "0.3,0.3,0.4", "--checkpoints", "abc"],
    ["ergodic", "--family", "ZAKHAREVICH", "--x0", "0.3,0.3,0.4", "--checkpoints", "10,,20"],
    ["classify", "--family", "REGULAR", "--m", "4", "--x0", "0.5,0.5"],
    # tensor files that do not parse, or cannot be opened; {tmp} is tmp_path
    *(["trajectory", "--tensor-file", path, "--x0", "0.3,0.3,0.4", "--steps", "3"]
      for path in ["{tmp}/header_abc.tsv", "{tmp}/entry_x.tsv", "{tmp}/negative_m.tsv",
                   "{tmp}/binary.tsv", "{tmp}/missing.tsv", "{tmp}"]),
    # an --out path in a directory that does not exist
    ["families", "--out", "{tmp}/no/such.txt"],
    ["families", "--json", "--out", "{tmp}/no/such.json"],
    ["trajectory", "--family", "KHUKR", "--x0", "0.3,0.3,0.4", "--steps", "3",
     "--out", "{tmp}/no/such.csv"],
    ["trajectory", "--family", "KHUKR", "--random-starts", "2", "--seed", "1",
     "--steps", "3", "--out", "{tmp}/no/such.csv"],
    ["fixed-points", "--family", "KHUKR", "--starts", "0", "--out", "{tmp}/no/such.json"],
    ["classify", "--family", "KHUKR", "--x0", "0.5,0.25,0.25", "--out", "{tmp}/no/such.json"],
    ["lyapunov", "--family", "REGULAR", "--m", "4", "--fn", "CYCLIC_PRODUCT",
     "--samples", "1", "--horizon", "2", "--seed", "1", "--out", "{tmp}/no/such.json"],
    ["omega", "--family", "KHUKR", "--x0", "0.4,0.36,0.24", "--burn-in", "10",
     "--window", "10", "--out", "{tmp}/no/such.json"],
    ["ergodic", "--family", "ZAKHAREVICH", "--x0", "0.3,0.3,0.4", "--checkpoints", "10",
     "--out", "{tmp}/no/such.json"],
    ["scalar", "--map", "F", "--eval", "0.5", "--out", "{tmp}/no/such.json"],
    ["verify", "--suite", "scalar", "--out", "{tmp}/no/such.txt"],
    # negative seeds, which numpy's generators do not take
    ["fixed-points", "--family", "KHUKR", "--starts", "0", "--seed", "-1"],
    ["lyapunov", "--family", "REGULAR", "--m", "4", "--fn", "CYCLIC_PRODUCT",
     "--samples", "1", "--seed", "-1"],
    ["omega", "--family", "KHUKR", "--random-starts", "2", "--seed", "-1"],
    ["ergodic", "--family", "ZAKHAREVICH", "--random-starts", "1", "--seed", "-1"],
    ["trajectory", "--family", "KHUKR", "--random-starts", "1", "--seed", "-1",
     "--steps", "3"],
    ["trajectory", "--family", "KHUKR", "--x0", "0.3,0.3,0.4", "--seed", "-1", "--steps", "3"],
    ["verify", "--suite", "regular", "--seed", "-3000"],
    ["verify", "--suite", "scalar", "--seed", "-1"],
    # scalar points that are not finite, and step counts that are not
    # integers >= 0
    ["scalar", "--map", "F", "--eval", "nan"],
    ["scalar", "--map", "F", "--iterate", "nan", "2"],
    ["scalar", "--map", "F", "--iterate", "0.3", "-1"],
    ["scalar", "--map", "F", "--iterate", "0.3", "2.5"],
    ["scalar", "--map", "F", "--iterate", "0.3", "nan"],
    ["scalar", "--map", "F", "--iterate", "0.3", "inf"],
    # a parameter that is not finite, also where the operator does not read it
    ["scalar", "--map", "F", "--alpha", "nan", "--eval", "0.3"],
    ["scalar", "--map", "F_ALPHA", "--m", "4", "--alpha", "inf", "--eval", "0.3"],
    ["fixed-points", "--tensor-file", "{tmp}/regular3.tsv", "--param", "nan"],
    ["classify", "--tensor-file", "{tmp}/regular3.tsv", "--param", "inf", "--x0", "1,0,0"],
    ["omega", "--family", "GANIKHODJAEV_LAMBDA", "--lambda=-inf", "--x0", "0.3,0.3,0.4"],
    ["lyapunov", "--family", "ALPHA_COMBINATION", "--m", "4", "--perm", "(1 2 3)",
     "--alpha", "nan", "--fn", "LAST_COORD", "--seed", "1"],
])
def test_bad_search_parameters_exit_2(capsys, tmp_path, argv):
    for name, data in BAD_TENSOR_FILES.items():
        (tmp_path / name).write_bytes(data)
    tensor.save_tensor(make_regular(3), str(tmp_path / "regular3.tsv"))
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("out,reason", [
    ("{tmp}/no/such.txt", "No such file or directory"),
    ("{tmp}", "Is a directory"),
])
def test_unusable_out_is_refused_before_any_work(capsys, monkeypatch, tmp_path, out, reason):
    calls = []
    monkeypatch.setattr(cli.verification, "run_suite", lambda *a: calls.append(a) or [])
    out = out.format(tmp=tmp_path)
    code, stdout, err = run_cli(capsys, "verify", "--suite", "all", "--out", out)
    assert code == 2 and stdout == "" and calls == []
    assert err == f"error: cannot open {out!r}: {reason}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_a_failed_write_exits_2(capsys):
    code, out, err = run_cli(capsys, "families", "--json", "--out", "/dev/full")
    assert code == 2 and out == ""
    assert err == f"error: cannot write '/dev/full': {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv", [
    ["families"],
    ["verify", "--suite", "scalar"],
    ["scalar", "--map", "F", "--eval", "0.3"],
    # the numbered files are written; the list of their paths is not
    ["trajectory", "--family", "REGULAR", "--m", "4", "--random-starts", "2", "--seed", "1",
     "--steps", "5", "--out", "{tmp}/runs.csv"],
], ids=["families", "verify", "scalar", "trajectory-paths"])
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_a_failed_stdout_write_exits_2(tmp_path, argv, buffered):
    # a buffered stdout keeps the unwritten bytes for the flush at exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "qsodyn",
                               *[a.format(tmp=tmp_path) for a in argv]],
                              stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write to stdout: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("exc,message", [
    (MemoryError("Unable to allocate 3.64 TiB"), "Unable to allocate 3.64 TiB"),
    (MemoryError(), "out of memory"),
])
def test_memory_error_exits_2(capsys, monkeypatch, exc, message):
    def collect(*args):
        raise exc

    monkeypatch.setattr(tensor, "_collect", collect)
    code, out, err = run_cli(capsys, "trajectory", "--family", "KHUKR", "--x0", "0.3,0.3,0.4",
                             "--steps", "1000000000000")
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_fixed_point_search_parameters_at_their_bounds(capsys):
    code, out, _ = run_cli(capsys, "fixed-points", "--family", "KHUKR", "--starts", "0",
                           "--tol", "1e-300", "--band", "0")
    assert code == 0 and json.loads(out)["results"]
    code, out, _ = run_cli(capsys, "lyapunov", "--family", "REGULAR", "--m", "4",
                           "--fn", "CYCLIC_PRODUCT", "--samples", "1", "--slack", "0",
                           "--seed", "1")
    assert code == 0 and json.loads(out)["results"]["samples"] == 1


@pytest.mark.parametrize("tol", ["1e-2", "0.1", "0.5"])
def test_a_loose_newton_tolerance_reports_only_fixed_points(capsys, tol):
    # Newton's acceptance is the classifier's: a row that stopped at a
    # residual below --tol but not below 1e-8 is dropped, not refused
    code, out, err = run_cli(capsys, "fixed-points", "--family", "KHUKR", "--tol", tol)
    assert code == 0, err
    found = json.loads(out)["results"]
    assert found and all(rep["residual"] < 1e-8 for rep in found)


@pytest.mark.parametrize("argv", [
    ["omega", "--family", "KHUKR", "--x0", "0.4,0.36,0.24", "--burn-in", "10000001",
     "--window", "2"],
    ["scalar", "--map", "F", "--iterate", "0.3", "10000001"],
    ["ergodic", "--family", "KHUKR", "--x0", "0.4,0.36,0.24", "--checkpoints", "10,10000001"],
], ids=["omega-burn-in", "scalar-iterate", "ergodic-checkpoints"])
def test_a_step_count_over_the_cap_exits_2_at_once(argv):
    # one step over tensor.MAX_STEPS: refused before the loop, not run
    proc = subprocess.run([sys.executable, "-m", "qsodyn", *argv],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.endswith(f"must be <= {tensor.MAX_STEPS}, got 10000001\n")


@pytest.mark.parametrize("name", list(cli._LYAPUNOV_FNS))
def test_each_fn_name_builds_its_lyapunov_function(name):
    args = cli._parser().parse_args(["lyapunov", "--family", "QUASI_STRICT", "--m", "4",
                                     "--perm", "(1 2 3)", "--fn", name.lower(), "--seed", "1"])
    assert cli._resolve_lyapunov(args).id.startswith(name)


def test_seed_zero_is_accepted(capsys):
    code, out, _ = run_cli(capsys, "fixed-points", "--family", "KHUKR", "--starts", "2",
                           "--seed", "0")
    assert code == 0 and json.loads(out)["seed"] == 0


def test_scalar_iterate_takes_a_whole_float_count(capsys):
    _, whole, _ = run_cli(capsys, "scalar", "--map", "F", "--iterate", "0.3", "3.0")
    _, plain, _ = run_cli(capsys, "scalar", "--map", "F", "--iterate", "0.3", "3")
    assert whole == plain
    assert json.loads(plain)["results"]["iterate"]["n"] == 3
    _, zero, _ = run_cli(capsys, "scalar", "--map", "F", "--iterate", "0.3", "0")
    assert json.loads(zero)["results"]["iterate"]["value"] == 0.3


# sha256 of outputs recorded before a rewrite of the code that makes them: the
# trajectory CSV and the lyapunov reports before they were evaluated over whole
# arrays, the other reports before the serializer became one walk, the
# one-row omega window and the help texts (argparse's layout under Python
# 3.11, at 80 columns) before the argument checks and --out got one home each
PINNED_OUTPUTS = [
    (["trajectory", "--family", "REGULAR", "--m", "5", "--x0", "0.4,0.3,0.2,0.05,0.05",
      "--steps", "20000"],
     0, "4d847c0de9e230e431a3a503713daac6cd873fe91183d6fe526075b9f8ee130b"),
    (["lyapunov", "--family", "QUASI_STRICT", "--m", "6", "--perm", "(1 2)(3 4 5)",
      "--fn", "CYCLE_PRODUCT", "--cycle-index", "1", "--samples", "100", "--seed", "11"],
     0, "8916c64702801f19f4ef8e0505528d7eb3a42b155cd39951a08a0c1ac27a0c9d"),
    # 2483 violations: pins the worst violation and where it is
    (["lyapunov", "--family", "ALPHA_COMBINATION", "--m", "4", "--perm", "(1 2 3)",
      "--alpha", "0.3", "--fn", "LAST_COORD", "--n0", "0", "--samples", "100", "--seed", "5"],
     1, "3770903e02f922248119feac5d1ac3b7a477ce20a1ff59ab7750ab9518e2d73a"),
    (["fixed-points", "--family", "ALPHA_COMBINATION", "--m", "4", "--perm", "(1 2 3)",
      "--alpha", "0.3", "--starts", "24", "--seed", "3"],
     0, "e1ae9c83846414cc830965d6a319cb95e9283c6a0cf03ce45f2a8662a83a153d"),
    # the interior fixed point found above: a pair of complex eigenvalues
    (["classify", "--family", "ALPHA_COMBINATION", "--m", "4", "--perm", "(1 2 3)",
      "--alpha", "0.3",
      "--x0", "0.18518518518518517,0.18518518518518517,0.18518518518518517,0.44444444444444442"],
     0, "c877bcfbb45f3114dbbc6af807fcdf3cb8b3a3a74541ca58a39dd2995c82fb81"),
    (["omega", "--family", "QUASI_STRICT", "--m", "3", "--perm", "(1 2)",
      "--x0", "0.3,0.2,0.5", "--burn-in", "200", "--window", "20", "--s-max", "6"],
     0, "1ce314c7e08665d3385434e5364fb7c0dac09993b919c44a40139a21c0db7755"),
    (["omega", "--family", "KHUKR", "--random-starts", "3", "--seed", "4",
      "--burn-in", "200", "--window", "20", "--s-max", "6"],
     0, "7c38b2a945401661398eb2e4c51d7442c1135affd60a29b1cf9a83da3f9ec79c"),
    (["ergodic", "--family", "ZAKHAREVICH", "--x0", "0.3,0.3,0.4",
      "--checkpoints", "100,1000,10000"],
     0, "f80c1e214b732758a535e33a3528b911f04dad157cd24d4cc4bdbadd361e3d4f"),
    (["scalar", "--map", "F_ALPHA", "--m", "4", "--alpha", "0.3", "--eval", "0.3",
      "--iterate", "0.3", "5", "--fixed-point", "--scan-period", "2", "--grid", "2000",
      "--conjugacy-check"],
     0, "6120a24b10942d191d167ec936830d8cb9be9c8e93eabed653b94299bdded467"),
    (["families", "--json"],
     0, "687cb4ee519cb04fbd59407c082999dc5fd417db79bbe260f8a6459e21c9b639"),
    (["omega", "--family", "KHUKR", "--x0", "0.4,0.36,0.24", "--burn-in", "200",
      "--window", "1"],
     0, "f91ea45c98e839fd198387c69913bd2cc7263f804001d30d4132e1904ceb8e63"),
    # 10^5 steps: bit-fixed from step 11, and a periodic orbit that never is
    (["trajectory", "--family", "REGULAR", "--m", "5", "--x0", "0.4,0.3,0.2,0.05,0.05",
      "--steps", "100000"],
     0, "de12bbeb4eca76ba79938095045a58a6ae087bfab5134dd4f0cf08cf8c6b10d3"),
    (["trajectory", "--family", "KHUKR", "--x0", "0.4,0.36,0.24", "--steps", "100000"],
     0, "1645b4eddb4562e961605acd846a19b46b25f86abd13ae91f537d0f66666ac5f"),
    # the explore searches whose rows leave Newton once bit-fixed: the vertex
    # starts e_4 and e_5 of the first, and rows that creep at the center
    (["fixed-points", "--family", "ALPHA_COMBINATION", "--m", "6", "--perm", "(1 2)(3 4 5)",
      "--alpha", "0.5", "--starts", "200"],
     0, "6ba0db3dd2f82bd118d9de3e1a9a008e544e18b8eeb0341ecbd5270210b62eff"),
    (["fixed-points", "--family", "GSN_BETA", "--param", "0.5", "--starts", "100"],
     0, "ce34086b8c558d273817e6f177abbc6e6245b045ec88c54ae5af83f04ffaee90"),
    (["fixed-points", "--family", "V5", "--starts", "100"],
     0, "fbc8f6b04e9de0585edf9b87182563a3e95f7994a385111c51754e446a319ad6"),
    (["--help"], 0, "2dd508b6ec83a61302c8367f523ad9c59f40b4808681c4cf72f5ec7f41ac7bcf"),
    (["families", "--help"],
     0, "92d041809a625229730853a44fdcc758799aef3105252c3bbfbfe711ec670466"),
    (["trajectory", "--help"],
     0, "f2df54528c4fece07ec4141fb6ecd43073a99aaa136813632784ac6513cf5591"),
    (["fixed-points", "--help"],
     0, "08de304612f250851f1c8d52c6c22ee2d20822dd19e7d3f68a49695b965dc3e5"),
    (["classify", "--help"],
     0, "1cc8fc6f8cbe8bc48c0d800ed0dcfea2c2488d5a1a84f34bcf8de2971c9a0fd8"),
    (["lyapunov", "--help"],
     0, "4c1cd0c2ca526c7d60f5eb357ed7dd0d35cb3d8fd033cd55b7cf6036ec5acb56"),
    (["omega", "--help"],
     0, "c69108f7e27ee16186fcb55bc3a9826fa77c12bf60e9475a1fae6fc6f47f0bd2"),
    (["ergodic", "--help"],
     0, "1cde8c1556e3ba13b283ce2c69b01258757a979825599b229747d730cf220108"),
    (["scalar", "--help"],
     0, "2c356704a41d75d977e517f80b76255c68c2d140eb46525e76becec2b78099c2"),
    (["verify", "--help"],
     0, "2ecfbbd84095984c67746e8553bcfa93516a3c18eb8d8d536a28332c4bf38108"),
]


@pytest.mark.parametrize("argv,exit_code,digest", PINNED_OUTPUTS,
                         ids=["trajectory", "lyapunov", "lyapunov_violations", "fixed_points",
                              "classify", "omega", "omega_random_starts", "ergodic",
                              "scalar", "families_json", "omega_window_1",
                              "trajectory_settles", "trajectory_never_settles",
                              "fixed_points_ac6", "fixed_points_gsn_beta", "fixed_points_v5",
                              "help",
                              *(f"{argv[0]}_help" for argv, _, _ in PINNED_OUTPUTS[-9:])])
def test_pinned_output_bytes(capsys, monkeypatch, argv, exit_code, digest):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    try:
        code, out, _ = run_cli(capsys, *argv)
    except SystemExit as exc:  # --help prints, then exits
        code, out = exc.code, capsys.readouterr().out
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# one cheap, fixed-size call per float option; the option's value is drawn
FLOAT_OPTION_CALLS = [
    ("--param", ["fixed-points", "--family", "ALPHA_COMBINATION", "--m", "3", "--perm", "(1 2)",
                 "--starts", "2"]),
    ("--param", ["omega", "--family", "GANIKHODJAEV_LAMBDA", "--x0", "0.3,0.3,0.4",
                 "--burn-in", "10", "--window", "10", "--s-max", "4"]),
    ("--param", ["scalar", "--map", "F_ALPHA", "--m", "3", "--eval", "0.3"]),
    ("--param", ["scalar", "--map", "F", "--eval", "0.3"]),
    ("--tol", ["fixed-points", "--family", "KHUKR", "--starts", "2"]),
    ("--band", ["fixed-points", "--family", "KHUKR", "--starts", "2"]),
    ("--band", ["classify", "--family", "KHUKR", "--x0", "0.5,0.25,0.25"]),
    ("--cluster-tol", ["omega", "--family", "KHUKR", "--x0", "0.4,0.36,0.24",
                       "--burn-in", "10", "--window", "10", "--s-max", "4"]),
    ("--period-tol", ["omega", "--family", "KHUKR", "--x0", "0.4,0.36,0.24",
                      "--burn-in", "10", "--window", "10", "--s-max", "4"]),
    ("--slack", ["lyapunov", "--family", "REGULAR", "--m", "3", "--fn", "CYCLIC_PRODUCT",
                 "--samples", "2", "--horizon", "5", "--seed", "1"]),
    ("--eval", ["scalar", "--map", "F_ALPHA", "--m", "3", "--alpha", "0.5"]),
    ("--scan-tol", ["scalar", "--map", "F", "--scan-period", "2", "--grid", "1000"]),
]

FLOAT_VALUES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-0.0", "0", "1e308", "-1e308", "5e-324", "-1",
                     "0.5", "1", "1e-12"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)


@settings(max_examples=150, deadline=None)
@given(call=st.sampled_from(FLOAT_OPTION_CALLS), value=FLOAT_VALUES)
def test_any_float_option_value_exits_cleanly(call, value):
    option, argv = call
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, f"{option}={value}"])
    assert code in (0, 1, 2), err.getvalue()
    if code == 0:
        json.loads(out.getvalue())


# one cheap call per integer option; the option's value is drawn
INT_OPTION_CALLS = [
    ("--steps", ["trajectory", "--family", "KHUKR", "--x0", "0.4,0.36,0.24"]),
    ("--stride", ["trajectory", "--family", "KHUKR", "--x0", "0.4,0.36,0.24", "--steps", "5"]),
    ("--starts", ["fixed-points", "--family", "KHUKR"]),
    ("--seed", ["fixed-points", "--family", "KHUKR", "--starts", "2"]),
    ("--samples", ["lyapunov", "--family", "REGULAR", "--m", "3", "--fn", "CYCLIC_PRODUCT",
                   "--horizon", "5", "--seed", "1"]),
    ("--horizon", ["lyapunov", "--family", "REGULAR", "--m", "3", "--fn", "CYCLIC_PRODUCT",
                   "--samples", "2", "--seed", "1"]),
    ("--n0", ["lyapunov", "--family", "ALPHA_COMBINATION", "--m", "4", "--perm", "(1 2 3)",
              "--alpha", "0.3", "--fn", "LAST_COORD", "--samples", "2", "--horizon", "8",
              "--seed", "1"]),
    ("--cycle-index", ["lyapunov", "--family", "QUASI_STRICT", "--m", "6", "--perm",
                       "(1 2)(3 4 5)", "--fn", "CYCLE_SUM", "--samples", "2", "--horizon", "5",
                       "--seed", "1"]),
    ("--burn-in", ["omega", "--family", "KHUKR", "--x0", "0.4,0.36,0.24", "--window", "10",
                   "--s-max", "4"]),
    ("--window", ["omega", "--family", "KHUKR", "--x0", "0.4,0.36,0.24", "--burn-in", "10",
                  "--s-max", "4"]),
    ("--s-max", ["omega", "--family", "KHUKR", "--x0", "0.4,0.36,0.24", "--burn-in", "10",
                 "--window", "10"]),
    ("--random-starts", ["omega", "--family", "KHUKR", "--seed", "1", "--burn-in", "10",
                         "--window", "10", "--s-max", "4"]),
    ("--grid", ["scalar", "--map", "F", "--scan-period", "2"]),
    ("--scan-period", ["scalar", "--map", "F", "--grid", "1000"]),
    ("--m", ["trajectory", "--family", "REGULAR", "--random-starts", "1", "--seed", "1",
             "--steps", "3"]),
    ("--m", ["scalar", "--map", "F_ALPHA", "--alpha", "0.5", "--eval", "0.3"]),
]
# options that size no array or loop also draw values past the int64 range
UNSIZED_INT_OPTIONS = {"--seed", "--cycle-index", "--n0", "--s-max"}


@st.composite
def int_option_calls(draw):
    option, argv = draw(st.sampled_from(INT_OPTION_CALLS))
    values = st.integers(-3, 12)
    if option in UNSIZED_INT_OPTIONS:
        values = st.one_of(values, st.sampled_from([2**63, -2**63]))
    return option, argv, draw(values)


@settings(max_examples=150, deadline=None)
@given(call=int_option_calls())
def test_any_integer_option_value_exits_cleanly(call):
    option, argv, value = call
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, f"{option}={value}"])
    assert code in (0, 1, 2), err.getvalue()
    if code == 0:
        if argv[0] == "trajectory":
            assert out.getvalue().startswith("n,x1,")
        else:
            json.loads(out.getvalue())


# Arabic-Indic digits: int(), float() and the cycle grammar's \d all take them
OTHER_DIGITS = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                             "\u0665\u0666\u0667\u0668\u0669")


@st.composite
def spelled(draw, token):
    """``token`` as it is, in other digits, or with spaces around it."""
    return draw(st.sampled_from([token, token.translate(OTHER_DIGITS), f" {token} "]))


def joined(draw, tokens, sep):
    return sep.join(draw(spelled(token)) for token in tokens)


@st.composite
def x0_texts(draw, m):
    """--x0 texts: a point of the simplex half the time, else any numbers."""
    if draw(st.booleans()):
        weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=m, max_size=m))
        tokens = [repr(w / sum(weights)) for w in weights]
    else:
        tokens = draw(st.lists(st.one_of(st.floats().map(repr), st.sampled_from(
            ["", "0", "-0", "1", "nan", "-inf", "1e400", "1_0", "0x1p-1", "\u00bd", "a"])),
            max_size=m + 1))
    return joined(draw, tokens, ",")


@st.composite
def perm_texts(draw, n):
    """--perm texts: the cycles of a permutation of 1..n half the time."""
    if draw(st.booleans()):
        images = draw(st.permutations(range(1, n + 1)))
        cycles = Permutation.from_images(images).cycles
    else:
        cycles = draw(st.lists(st.lists(st.integers(-1, n + 2), min_size=1, max_size=4),
                               max_size=3))
    text = "".join("(" + joined(draw, map(str, c), " ") + ")" for c in cycles)
    return draw(st.sampled_from([text, text.replace(")(", ") ("), text + ")", "(" + text]))


@st.composite
def checkpoint_texts(draw):
    """--checkpoints texts: no checkpoint between 10^4 and the step cap, so
    that every call is quick; one past the cap is refused before any step."""
    if draw(st.booleans()):
        tokens = map(str, sorted(draw(st.sets(st.integers(1, 10**4), min_size=1, max_size=4))))
    else:
        tokens = draw(st.lists(st.one_of(
            st.integers(-3, 10**4).map(str),
            st.integers(tensor.MAX_STEPS + 1, 2**70).map(str),
            st.sampled_from(["", "1.5", "1e3", "+5", "1_0", "a"]),
        ), max_size=4))
    return joined(draw, tokens, ",")


@st.composite
def start_option_calls(draw):
    command = draw(st.sampled_from(["trajectory", "ergodic"]))
    family, m = draw(st.sampled_from([("KHUKR", 3), ("REGULAR", 4), ("QUASI_STRICT", 4),
                                      ("QUASI_STRICT", 6)]))
    argv = [command, "--family", family, f"--x0={draw(x0_texts(m))}"]
    # KHUKR takes an --m of 3 or none; --perm on it or on REGULAR is refused
    if family != "KHUKR" or draw(st.booleans()):
        argv.append(f"--m={m}")
    if family == "QUASI_STRICT" or draw(st.integers(0, 9)) == 0:
        argv.append(f"--perm={draw(perm_texts(m - 1))}")
    if command == "trajectory":
        argv.append(f"--steps={draw(st.integers(0, 5))}")
    else:
        argv.append(f"--checkpoints={draw(checkpoint_texts())}")
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=start_option_calls())
def test_any_start_permutation_or_checkpoint_text_exits_cleanly(argv):
    """No drawn --x0, --perm or --checkpoints text gets a traceback: a call
    exits 0, 1 or 2 (2 also as argparse's SystemExit), and what it writes on
    exit 0 parses, as a report or as a CSV with one row per step."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), err.getvalue()
    if code == 0 and argv[0] == "trajectory":
        steps = int(argv[-1].removeprefix("--steps="))
        lines = out.getvalue().splitlines()
        assert lines[0].startswith("n,x1,") and len(lines) == steps + 2
    elif code == 0:
        json.loads(out.getvalue())


def texts(valid, refused):
    """The texts of an option's value: ``valid`` ones a call takes, and
    ``refused`` ones, sampled from lists unless already strategies."""
    return tuple(s if isinstance(s, st.SearchStrategy) else st.sampled_from(s)
                 for s in (valid, refused))


def counts(least, most):
    """Counts from ``least`` to ``most``, and below every lower bound."""
    return texts(st.integers(least, most).map(str), ["-1", "0", "1.5", "x"])


TOLERANCES = texts(["1e-12", "1e-6", "0.01"], ["0", "-0.0", "-1", "nan", "inf", "1e308", "x"])
SEEDS = texts(["0", "1", "7"], ["-1", "x", str(2**63)])
OPERATOR_OPTIONS = {
    "--family": texts(sorted(REGISTRY), ["NOPE"]),
    "--m": texts(st.integers(3, 8).map(str), ["-1", "0", "1", "2", "9"]),
    # a valid --perm is drawn for the family's m, by operator_options
    "--perm": texts(st.nothing(), ["", "(1 2)", "(1 2)(3 4 5)", "(1 1)", "(0 9"]),
    "--alpha": texts(["0", "0.3", "0.5", "1"], ["-1", "2", "nan", "inf"]),
}
# each subcommand's options past the operator, as texts; a flag is None and
# --x0 is drawn for the operator's m; every count that sizes a loop stays
# <= 1000 (--random-starts <= 8, since each start is a whole omega estimate),
# so that no call takes long
WHOLE_ARGV_OPTIONS = {
    "families": {"--json": None},
    "fixed-points": {"--starts": counts(1, 1000), "--tol": TOLERANCES, "--band": TOLERANCES,
                     "--seed": SEEDS},
    "classify": {"--x0": x0_texts, "--band": TOLERANCES},
    "lyapunov": {"--fn": texts(list(cli._LYAPUNOV_FNS), ["NOPE"]), "--seed": SEEDS,
                 "--cycle-index": counts(1, 2), "--n0": counts(0, 1000),
                 "--samples": counts(1, 1000), "--horizon": counts(1, 1000),
                 "--slack": TOLERANCES},
    "omega": {"--x0": x0_texts, "--random-starts": counts(1, 8), "--seed": SEEDS,
              "--burn-in": counts(0, 1000), "--window": counts(1, 1000),
              "--cluster-tol": TOLERANCES, "--period-tol": TOLERANCES,
              "--s-max": counts(1, 1000)},
    "scalar": {"--map": texts(["F", "F_ALPHA"], ["G"]), "--m": counts(3, 8),
               "--alpha": texts(["0", "0.5", "1"], ["-1", "nan"]),
               "--eval": texts(["0", "0.3", "1"], ["-0.5", "nan"]),
               "--iterate": (st.tuples(st.sampled_from(["0.3", "1"]), counts(0, 1000)[0]),
                             st.tuples(st.sampled_from(["2", "nan"]), counts(0, 1000)[1])),
               "--fixed-point": None, "--scan-period": counts(1, 1000),
               "--grid": texts(st.integers(1000, 2000).map(str), ["999"]),
               "--scan-tol": TOLERANCES, "--conjugacy-check": None},
    "verify": {"--suite": texts(["scalar"], ["NOPE"]), "--seed": SEEDS},
}
REQUIRED = {"classify": {"--x0"}, "lyapunov": {"--fn", "--seed"}, "omega": {"--x0"},
            "scalar": {"--map", "--m", "--alpha"}, "verify": {"--suite"}}


def lyapunov_families(name):
    """The families the Lyapunov function ``name`` applies to."""
    args = argparse.Namespace(fn=name, perm="(1 2)", m=3, cycle_index=1, n0=0)
    return cli._LYAPUNOV_FNS[name](args).families


@st.composite
def operator_options(draw, family):
    """--family and the --m, --perm and --param it takes; and its m."""
    info = REGISTRY[family]
    m = info.m_fixed or int(draw(OPERATOR_OPTIONS["--m"][0]))
    options = {"--family": family, "--m": str(m)}
    if info.needs_permutation:
        cycles = Permutation.from_images(draw(st.permutations(range(1, m)))).cycles
        options["--perm"] = "".join(f"({' '.join(map(str, c))})" for c in cycles)
    if info.parameter:
        options["--alpha"] = draw(OPERATOR_OPTIONS["--alpha"][0])
    return options, m


@st.composite
def whole_argvs(draw):
    """A call that its subcommand takes, but at times with one option left
    out or given a text that it refuses."""
    command = draw(st.sampled_from(sorted(WHOLE_ARGV_OPTIONS)))
    spec, options, m = WHOLE_ARGV_OPTIONS[command], {}, 3
    refusable = dict(spec)
    if command in ("fixed-points", "classify", "lyapunov", "omega"):
        families = sorted(REGISTRY)
        if command == "lyapunov":
            options["--fn"] = draw(st.sampled_from(list(cli._LYAPUNOV_FNS)))
            families = lyapunov_families(options["--fn"])
        operator, m = draw(operator_options(draw(st.sampled_from(families))))
        options |= operator
        refusable |= OPERATOR_OPTIONS
    for option, values in spec.items():
        if option in options or not (option in REQUIRED.get(command, ()) or draw(st.booleans())):
            continue
        options[option] = None if values is None else draw(
            values(m) if option == "--x0" else values[0])
    if "--random-starts" in options:  # K seeded starts in place of --x0
        options.pop("--x0", None)
        options.setdefault("--seed", "1")
    if draw(st.integers(0, 2)) == 2:
        option = draw(st.sampled_from(sorted(refusable)))
        options.pop(option, None)
        if refusable[option] is not None and option != "--x0" and draw(st.booleans()):
            options[option] = draw(refusable[option][1])
    argv = [command]
    for option, value in options.items():
        if value is None:
            argv.append(option)
        elif isinstance(value, tuple):  # --iterate X0 N
            argv += [option, *value]
        else:
            argv.append(f"{option}={value}")
    return argv


@settings(max_examples=100, deadline=None)
@given(argv=whole_argvs())
def test_any_whole_argv_exits_cleanly(argv):
    """No drawn argv of a cheap subcommand gets a traceback: a call exits 0,
    1 or 2 (2 also as argparse's SystemExit), and a report it writes on exit
    0 parses."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue(), err.getvalue()
    if code == 0 and argv[0] == "verify":
        assert out.getvalue().splitlines()[-1].startswith("SUITE scalar: ")
    elif code == 0 and (argv[0] != "families" or "--json" in argv):
        json.loads(out.getvalue())


def readme_command_lines():
    """The ``qsodyn ...`` lines of the README's "Command line" block, with
    their backslash continuations joined, as argument lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    argvs = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    assert argvs and all(argv[0] == "qsodyn" for argv in argvs)
    return [argv[1:] for argv in argvs]


@pytest.mark.parametrize("argv", readme_command_lines(), ids=lambda argv: argv[0])
def test_every_readme_command_line_exits_0(capsys, tmp_path, argv):
    argv = list(argv)
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / argv[at])
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err
