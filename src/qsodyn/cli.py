"""Command-line front end.

Subcommands: families | trajectory | fixed-points | classify | lyapunov |
omega | ergodic | scalar | verify.  Trajectories are written as CSV, every
analysis subcommand emits a JSON report with 17-significant-digit numbers,
and ``verify`` prints one PASS/FAIL line per built-in check.

Exit codes: 0 success, 1 analysis or verification failure, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from . import analysis, families, reports, scalarmaps, verification
from .errors import QsoError
from .simplex import SimplexPoint, parse_cycles, validate_point
from .tensor import CoefficientTensor, iterate, load_tensor

USAGE_ERROR = 2
FAILURE = 1
CSV_BLOCK_ROWS = 8192  # the most rows of a trajectory CSV joined into one text


def _add_operator_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", help="operator family name (see `families`)")
    p.add_argument("--tensor-file", help="load coefficients from a tensor text file")
    p.add_argument("--m", type=int, help="simplex symbol count")
    p.add_argument("--perm", help="permutation of 1..m-1 in cycle notation, e.g. '(1 2)'")
    p.add_argument("--alpha", "--theta", "--lambda", "--beta", "--param",
                   dest="param", type=float,
                   help="convex weight for parameterized families")


def _resolve_operator(args) -> CoefficientTensor:
    if args.tensor_file:
        if args.family:
            raise QsoError("give either --family or --tensor-file, not both")
        return load_tensor(args.tensor_file, name=args.tensor_file)
    if not args.family:
        raise QsoError("an operator is required: --family or --tensor-file")
    perm = None
    if args.perm is not None:
        if args.m is None:
            raise QsoError("--perm requires --m")
        perm = parse_cycles(args.perm, args.m - 1)
    return families.make(args.family, m=args.m, permutation=perm, parameter=args.param)


def _parse_x0(text: str) -> SimplexPoint:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise QsoError(f"cannot parse coordinates {text!r}")
    return validate_point(values)


def _add_start_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--x0", help="comma-separated start coordinates")
    p.add_argument("--random-starts", type=int, default=None, metavar="K",
                   help="draw K seeded interior starts instead of --x0")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for --random-starts (mandatory with it)")


def _resolve_starts(args, m: int) -> list[SimplexPoint]:
    """One start from --x0, or K reproducible interior draws."""
    if args.x0 is not None and args.random_starts is not None:
        raise QsoError("give either --x0 or --random-starts, not both")
    if args.x0 is not None:
        return [_parse_x0(args.x0)]
    if args.random_starts is None:
        raise QsoError("a start is required: --x0 or --random-starts K --seed N")
    if args.random_starts < 1:
        raise QsoError("--random-starts must be >= 1")
    if args.seed is None:
        raise QsoError("--random-starts requires --seed")
    rng = np.random.default_rng(args.seed)
    draws = analysis.sample_interior(rng, m, args.random_starts)
    return [SimplexPoint(tuple(row.tolist())) for row in draws]


def _write(out: str | None, chunks: Iterable[str]) -> None:
    if out and out != "-":
        try:
            with open(out, "w") as fh:
                fh.writelines(chunks)
        except OSError as exc:  # also a failed write or close, which names no file
            raise QsoError(f"cannot write {out!r}: {exc.strerror}") from None
    else:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except OSError as exc:
            # the unwritten bytes stay buffered; point the descriptor at the
            # null device so that the flush at exit does not fail again
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
            raise QsoError(f"cannot write to stdout: {exc.strerror}") from None


def _write_report(args, t: CoefficientTensor, tolerances: dict, results) -> None:
    """Write the report of an operator subcommand: its results in the envelope."""
    _write(args.out, [reports.dumps({
        "operator": t.name,
        "parameters": {"family": args.family, "tensor_file": args.tensor_file,
                       "m": args.m, "perm": args.perm, "param": args.param},
        "seed": getattr(args, "seed", None),
        "tolerances": tolerances,
        "results": results,
    })])


# --- subcommand handlers -----------------------------------------------------


def cmd_families(args) -> int:
    rows = [
        {
            "name": info.name,
            "m": info.m_fixed,
            "parameter": info.parameter,
            "permutation": info.needs_permutation,
            "summary": info.summary,
        }
        for info in families.REGISTRY.values()
    ]
    if args.json:
        _write(args.out, [reports.dumps(rows)])
    else:
        lines = []
        for r in rows:
            m = f"m={r['m']}" if r["m"] else "m>=3"
            extras = [m]
            if r["parameter"]:
                extras.append(f"parameter {r['parameter']}")
            if r["permutation"]:
                extras.append("permutation")
            lines.append(f"{r['name']:<22} {', '.join(extras):<32} {r['summary']}")
        _write(args.out, ["\n".join(lines) + "\n"])
    return 0


@functools.cache
def _digit_table() -> np.ndarray:
    """Row k: the four ASCII digits of k < 10^4, zero-padded."""
    return (np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)


def _numbered(steps: np.ndarray, row: str) -> Iterator[str]:
    """``str(n) + row`` for each increasing int64 step n >= 0, one string per digit count."""
    tail = np.frombuffer(row.encode("ascii"), np.uint8)
    # the steps increase, so the steps of each digit count d are one run
    for d, run in enumerate(np.split(steps, np.searchsorted(steps, 10 ** np.arange(1, 19))), 1):
        if run.size:
            text = np.empty((run.size, d + len(tail)), np.uint8)
            text[:, d:] = tail
            for right in range(d, 0, -4):  # four digits at a time, from the right
                limb = run // 10 ** (d - right) % 10_000
                text[:, max(right - 4, 0):right] = _digit_table()[limb, -min(right, 4):]
            yield str(text, "ascii")


def _trajectory_csv(t: CoefficientTensor, x0: SimplexPoint, steps: int,
                    stride: int) -> Iterator[str]:
    """The orbit's CSV in blocks of at most CSV_BLOCK_ROWS rows; every check runs first."""
    traj = iterate(t, x0, steps, stride)
    # each distinct row is formatted once; "%.17g" gives format(v, ".17g")'s bytes
    row = "," + ",".join(["%.17g"] * t.m) + "\n"
    first, inverse = traj.distinct()
    text = [row % tuple(r) for r in traj.rows[first].tolist()]
    header = "n," + ",".join(f"x{i}" for i in range(1, t.m + 1)) + "\n"
    ns, settled, tail = traj.steps, traj.settled, text[inverse[-1]]

    def blocks():
        yield header
        # up to the settled row, step numbers alternate with the shared row texts
        for lo in range(0, settled, CSV_BLOCK_ROWS):
            hi = min(lo + CSV_BLOCK_ROWS, settled)
            parts = [""] * (2 * (hi - lo))
            parts[0::2] = map(str, ns[lo:hi].tolist())
            parts[1::2] = [text[k] for k in inverse[lo:hi].tolist()]
            yield "".join(parts)
        for lo in range(settled, len(ns), CSV_BLOCK_ROWS):
            yield from _numbered(ns[lo:lo + CSV_BLOCK_ROWS], tail)
    return blocks()


def cmd_trajectory(args) -> int:
    t = _resolve_operator(args)
    starts = _resolve_starts(args, t.m)
    if len(starts) == 1:
        _write(args.out, _trajectory_csv(t, starts[0], args.steps, args.stride))
        return 0
    # one CSV file per start, numbered: the format holds a single trajectory
    if not args.out or args.out == "-":
        raise QsoError("--random-starts K > 1 needs --out; files are numbered per start")
    stem, ext = os.path.splitext(args.out)
    for k, x0 in enumerate(starts, start=1):
        path = f"{stem}.{k}{ext or '.csv'}"
        _write(path, _trajectory_csv(t, x0, args.steps, args.stride))
        _write(None, [path + "\n"])
    return 0


def cmd_fixed_points(args) -> int:
    t = _resolve_operator(args)
    found = analysis.find_fixed_points(t, starts=args.starts, tol=args.tol,
                                       seed=args.seed, band=args.band)
    _write_report(args, t, {"tol": args.tol, "band": args.band,
                            "dedup_radius": analysis.DEDUP_RADIUS}, found)
    return 0


def cmd_classify(args) -> int:
    t = _resolve_operator(args)
    rep = analysis.classify_fixed_point(t, _parse_x0(args.x0), band=args.band)
    _write_report(args, t, {"band": args.band}, rep)
    return 0


def _cycle_perm(args):
    if args.perm is None or args.m is None:
        raise QsoError(f"{args.fn.upper()} requires --perm and --m")
    return parse_cycles(args.perm, args.m - 1)


# Each --fn name, and how its Lyapunov function is built from the arguments.
_LYAPUNOV_FNS = {
    "CYCLIC_PRODUCT": lambda args: analysis.cyclic_product(),
    "CYCLE_PRODUCT": lambda args: analysis.cycle_product(_cycle_perm(args), args.cycle_index),
    "CYCLE_SUM": lambda args: analysis.cycle_sum(_cycle_perm(args), args.cycle_index),
    "LAST_COORD": lambda args: analysis.last_coord(args.n0),
    "ABS_DIFF_PRODUCT": lambda args: analysis.abs_diff_product(),
    "COORD_PRODUCT": lambda args: analysis.coord_product(),
}


def _resolve_lyapunov(args) -> analysis.LyapunovFn:
    build = _LYAPUNOV_FNS.get(args.fn.upper())
    if build is None:
        raise QsoError(f"unknown Lyapunov function {args.fn!r}")
    return build(args)


def cmd_lyapunov(args) -> int:
    t = _resolve_operator(args)
    fn = _resolve_lyapunov(args)
    rep = analysis.check_lyapunov(t, fn, args.samples, args.horizon, args.seed,
                                  slack=args.slack)
    _write_report(args, t, {"slack": rep.slack, "n0": rep.n0}, rep)
    return 0 if rep.violations == 0 else FAILURE


def cmd_omega(args) -> int:
    t = _resolve_operator(args)
    starts = _resolve_starts(args, t.m)
    results = [
        {"start": x0, "omega": analysis.omega_estimate(
            t, x0, burn_in=args.burn_in, window=args.window,
            cluster_tol=args.cluster_tol, s_max=args.s_max,
            period_tol=args.period_tol)}
        for x0 in starts
    ]
    _write_report(args, t, {"cluster_tol": args.cluster_tol, "period_tol": args.period_tol},
                  results[0]["omega"] if args.x0 is not None else results)
    return 0


def cmd_ergodic(args) -> int:
    t = _resolve_operator(args)
    starts = _resolve_starts(args, t.m)
    try:
        checkpoints = [int(v) for v in args.checkpoints.split(",")]
    except ValueError:
        raise QsoError(f"cannot parse checkpoints {args.checkpoints!r}")
    results = [
        {"start": x0, "probe": analysis.ergodicity_probe(t, x0, checkpoints)}
        for x0 in starts
    ]
    _write_report(args, t, {}, results[0]["probe"] if args.x0 is not None else results)
    return 0


def cmd_scalar(args) -> int:
    if args.map == "F":
        spec = scalarmaps.ScalarMapSpec("F")
    else:
        spec = scalarmaps.ScalarMapSpec("F_ALPHA", m=args.m, alpha=args.param)
    results: dict = {"map": args.map, "m": args.m, "alpha": args.param}
    if args.eval is not None:
        results["eval"] = {"x": args.eval,
                           "value": float(scalarmaps.eval_map(spec, args.eval))}
    if args.iterate is not None:
        x0, n = args.iterate
        n = int(n) if n.is_integer() else n  # parsed as a float
        results["iterate"] = {"x0": x0, "n": n,
                              "value": float(scalarmaps.iterate_scalar(spec, x0, n))}
    if args.fixed_point:
        if args.map == "F":
            results["fixed_point"] = 0.5
        else:
            results["fixed_point"] = scalarmaps.scalar_fixed_point(args.m, args.param)
    if args.scan_period is not None:
        roots = scalarmaps.low_period_scan(spec, args.scan_period, grid=args.grid,
                                           tol=args.scan_tol)
        results["scan_period"] = {"n": args.scan_period, "grid": args.grid,
                                  "tol": args.scan_tol, "roots": roots}
    if args.conjugacy_check:
        if args.map != "F_ALPHA":
            raise QsoError("--conjugacy-check applies to --map F_ALPHA")
        results["conjugacy_check"] = {
            "grid": scalarmaps.CONJUGACY_GRID,
            "max_dev": scalarmaps.conjugacy_defect(args.m, args.param)}
    _write(args.out, [reports.dumps({
        "operator": f"scalar:{args.map}",
        "parameters": {"m": args.m, "alpha": args.param},
        "seed": None,
        "tolerances": {},
        "results": results,
    })])
    return 0


def cmd_verify(args) -> int:
    try:
        results = verification.run_suite(args.suite, args.seed)
    except KeyError:
        raise QsoError(
            f"unknown suite {args.suite!r}; choose from "
            f"{', '.join(list(verification.SUITES) + ['all'])}"
        )
    lines = [r.line() for r in results]
    passed = sum(r.passed for r in results)
    lines.append(f"SUITE {args.suite}: {passed}/{len(results)} passed (seed {args.seed})")
    _write(args.out, ["\n".join(lines) + "\n"])
    return 0 if passed == len(results) else FAILURE


# --- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qsodyn",
        description="Quadratic stochastic operators on the simplex: build, iterate, analyze.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("families", help="list the operator family registry")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("trajectory", help="iterate an operator and write CSV")
    _add_operator_options(p)
    _add_start_options(p)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--stride", type=int, default=1)

    p = sub.add_parser("fixed-points", help="multistart fixed-point search")
    _add_operator_options(p)
    p.add_argument("--starts", type=int, default=24)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--band", type=float, default=analysis.DEFAULT_BAND)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("classify", help="spectral classification of a fixed point")
    _add_operator_options(p)
    p.add_argument("--x0", required=True)
    p.add_argument("--band", type=float, default=analysis.DEFAULT_BAND)

    p = sub.add_parser("lyapunov", help="check monotonicity along random orbits")
    _add_operator_options(p)
    p.add_argument("--fn", required=True, help=" | ".join(_LYAPUNOV_FNS))
    p.add_argument("--cycle-index", type=int, default=1)
    p.add_argument("--n0", type=int, default=analysis.LAST_COORD_N0,
                   help="burn-in before LAST_COORD monotonicity is asserted")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--horizon", type=int, default=100)
    p.add_argument("--slack", type=float, default=analysis.LYAPUNOV_SLACK)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("omega", help="estimate the limit set of orbits")
    _add_operator_options(p)
    _add_start_options(p)
    p.add_argument("--burn-in", type=int, default=1000)
    p.add_argument("--window", type=int, default=100)
    p.add_argument("--cluster-tol", type=float, default=analysis.DEFAULT_CLUSTER_TOL)
    p.add_argument("--period-tol", type=float, default=analysis.DEFAULT_PERIOD_TOL)
    p.add_argument("--s-max", type=int, default=None)

    p = sub.add_parser("ergodic", help="Cesaro-average fluctuation probe")
    _add_operator_options(p)
    _add_start_options(p)
    p.add_argument("--checkpoints", default=",".join(map(str, verification.CESARO_CHECKPOINTS)))

    p = sub.add_parser("scalar", help="evaluate and analyze the scalar maps")
    p.add_argument("--map", choices=("F", "F_ALPHA"), required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--alpha", "--param", dest="param", type=float, default=None)
    p.add_argument("--eval", type=float, default=None)
    p.add_argument("--iterate", nargs=2, type=float, metavar=("X0", "N"), default=None)
    p.add_argument("--fixed-point", action="store_true")
    p.add_argument("--scan-period", type=int, default=None)
    p.add_argument("--grid", type=int, default=100_000)
    p.add_argument("--scan-tol", type=float, default=1e-10)
    p.add_argument("--conjugacy-check", action="store_true")

    p = sub.add_parser("verify", help="run the built-in verification suites")
    p.add_argument("--suite", required=True, help=" | ".join([*verification.SUITES, "all"]))
    p.add_argument("--seed", type=int, default=7)

    for p in sub.choices.values():
        p.add_argument("--out", default=None)
    return top


# Built on first use and reused: parsing leaves the parser as it was (no
# action has a mutable default or appends to one).
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up at each call, so that a rebinding of a handler is seen
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise QsoError(f"--seed must be >= 0, got {args.seed}")
        # every alias of the parameter (--alpha, --theta, ...) shares dest="param"
        if getattr(args, "param", None) is not None and not math.isfinite(args.param):
            raise QsoError(f"--param must be finite, got {args.param}")
        # refused before any work; other failures to write show at the write
        out = args.out or "-"
        if out != "-" and os.path.isdir(out):
            raise QsoError(f"cannot open {out!r}: Is a directory")
        if out != "-" and not os.path.isdir(os.path.dirname(out) or "."):
            raise QsoError(f"cannot open {out!r}: No such file or directory")
        return handler(args)
    except QsoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        if exc.filename is None:  # only a --tensor-file that cannot be read has one
            raise
        print(f"error: cannot open {exc.filename!r}: {exc.strerror}", file=sys.stderr)
        return USAGE_ERROR
    except (np.linalg.LinAlgError, FloatingPointError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return FAILURE


def cli_entry() -> None:
    sys.exit(main())
