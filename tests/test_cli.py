import errno
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qsodyn import cli, tensor
from qsodyn.cli import main


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
])
def test_bad_search_parameters_exit_2(capsys, tmp_path, argv):
    for name, data in BAD_TENSOR_FILES.items():
        (tmp_path / name).write_bytes(data)
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


# sha256 of outputs at the commit before the Lyapunov check and the trajectory
# CSV were evaluated over whole arrays; both must stay byte-identical
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
]


@pytest.mark.parametrize("argv,exit_code,digest", PINNED_OUTPUTS,
                         ids=["trajectory", "lyapunov", "lyapunov_violations"])
def test_pinned_output_bytes(capsys, argv, exit_code, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
