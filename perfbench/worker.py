"""One benchmark run of the in-process workloads, in a fresh interpreter.

    python3 perfbench/worker.py --workload explore --seed 1 --seconds 30 \
        --mode run --trace 0 --result .perfbench/result.json

``--mode setup`` imports ``qsodyn``, builds the operators and generates the
inputs, then exits: ``run.py`` times such processes from spawn to exit as
the set-up time.  ``--mode run`` does the same set-up, repeats timed
rounds of the workload while they fit in ``--seconds`` (at least one),
checks every round's outputs, and writes each operation's times and the
failures to ``--result``.  With ``--trace 1`` it then installs the span
tracer, repeats the set-up, runs one more round and adds the per-function
statistics.

``run.py`` starts ``--mode run`` under ``probe.py``; each operation's time
is then also given at the reference host speed, from the probe slices of
its round (see ``probe.py``).  Started directly, without the probe, it
reports raw times in both places.

Every input (starts, Newton seeds, Lyapunov samples) is drawn from the
workload seed here; the program only sees the generated arguments.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import qsodyn.cli  # noqa: E402  (qsodyn.cli.main is looked up per call, so tracing sees it)
from qsodyn import analysis, families  # noqa: E402
from qsodyn.scalarmaps import scalar_fixed_point  # noqa: E402
from qsodyn.simplex import parse_cycles  # noqa: E402

import probe  # noqa: E402
from golden import VERIFY_ARGV, VERIFY_CHECKS, verify_failures  # noqa: E402
from tracer import Tracer  # noqa: E402

PERM6 = "(1 2)(3 4 5)"
PLANAR_PARAMS = {
    "VALLANDER_THETA": 0.5,
    "GANIKHODJAEV_LAMBDA": 0.1,
    # 0.5 would be the identity map, whose every point is fixed
    "VALLANDER_SPIRAL": 0.3,
    "GSN_ALPHA": 0.5,
    "GSN_BETA": 0.5,
    "JJPH_THETA": 0.5,
}
FIXED_POINT_RESIDUAL = 1e-8


def _x0(rng: np.random.Generator, m: int) -> str:
    """An interior start as the CLI takes it, with every digit kept."""
    x = analysis.sample_interior(rng, m, 1)[0]
    return ",".join(repr(float(v)) for v in x)


def _seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2**31 - 1)))


# --- explore: an interactive analysis session through the CLI ---------------


class Explore:
    """About 26 ``qsodyn.cli.main`` calls, each writing a report file.

    Chosen because it is the only workload on the record-every-step path
    (``trajectory``), the Newton-heavy searches (``fixed-points``) and report
    serialization; its single-orbit Cesaro probe is short (10^5 steps).
    """

    def __init__(self, seed: int, outdir: Path):
        rng = np.random.default_rng(seed)
        self.outdir = outdir
        self.calls: list[tuple[str, list[str], object]] = []
        op = {"REGULAR8": ["--family", "REGULAR", "--m", "8"],
              "QS6": ["--family", "QUASI_STRICT", "--m", "6", "--perm", PERM6],
              "AC6": ["--family", "ALPHA_COMBINATION", "--m", "6", "--perm", PERM6,
                      "--alpha", "0.5"]}
        for label in ("REGULAR8", "QS6", "AC6"):
            self._add(f"fixed-points {label}", ["fixed-points", *op[label], "--starts", "200",
                                                 "--seed", _seed(rng)], self._check_fixed_points)
        for name in families.family_names():
            if families.REGISTRY[name].m_fixed != 3:
                continue
            argv = ["fixed-points", "--family", name, "--starts", "100", "--seed", _seed(rng)]
            if name in PLANAR_PARAMS:
                argv += ["--param", repr(PLANAR_PARAMS[name])]
            self._add(f"fixed-points {name}", argv, self._check_fixed_points)

        self._add("omega GANIKHODJAEV_LAMBDA 0.1",
                  ["omega", "--family", "GANIKHODJAEV_LAMBDA", "--param", "0.1",
                   "--x0", _x0(rng, 3), "--burn-in", "20000", "--window", "500",
                   "--s-max", "50"], self._check_infinite_limit_set)
        self._add("omega KHUKR",
                  ["omega", "--family", "KHUKR", "--random-starts", "20", "--seed", _seed(rng),
                   "--burn-in", "1000", "--window", "20", "--s-max", "8"],
                  self._check_cycles(2))
        self._add("omega QUASI_STRICT m=6",
                  ["omega", *op["QS6"], "--x0", _x0(rng, 6), "--burn-in", "500",
                   "--window", "60", "--s-max", "20"], self._check_cycles(6))

        self.trajectory_steps = 100_000
        self._add("trajectory REGULAR m=5",
                  ["trajectory", "--family", "REGULAR", "--m", "5", "--x0", _x0(rng, 5),
                   "--steps", str(self.trajectory_steps)], self._check_trajectory, ".csv")

        self._add("lyapunov QUASI_STRICT m=6",
                  ["lyapunov", *op["QS6"], "--fn", "CYCLE_PRODUCT", "--cycle-index", "1",
                   "--samples", "300", "--seed", _seed(rng)], self._check_lyapunov)
        self._add("lyapunov REGULAR m=6",
                  ["lyapunov", "--family", "REGULAR", "--m", "6", "--fn", "CYCLIC_PRODUCT",
                   "--samples", "300", "--seed", _seed(rng)], self._check_lyapunov)

        self._add("ergodic ZAKHAREVICH",
                  ["ergodic", "--family", "ZAKHAREVICH", "--x0", _x0(rng, 3),
                   "--checkpoints", "1000,10000,100000"], self._check_ergodic)

    def _add(self, label, argv, check, ext=".json"):
        path = self.outdir / f"{len(self.calls):02d}{ext}"
        self.calls.append((label, argv + ["--out", str(path)], check))

    @property
    def ops(self):
        # qsodyn.cli.main is looked up at each call, so a tracer sees it
        return [(label, lambda argv=argv: qsodyn.cli.main(argv)) for label, argv, _ in self.calls]

    def check(self, codes: list[int]) -> list[str]:
        failures = []
        for (label, argv, check), code in zip(self.calls, codes):
            try:
                if code != 0:
                    raise ValueError(f"exit code {code}")
                check(Path(argv[-1]).read_text())
            except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
                failures.append(f"{label}: {exc}")
        return failures

    @staticmethod
    def _check_fixed_points(text):
        found = json.loads(text)["results"]
        if not found:
            raise ValueError("no fixed point found")
        worst = max(rep["residual"] for rep in found)
        if not worst < FIXED_POINT_RESIDUAL:
            raise ValueError(f"residual {worst!r} >= {FIXED_POINT_RESIDUAL}")

    @staticmethod
    def _check_infinite_limit_set(text):
        omega = json.loads(text)["results"]
        n = len(omega["cluster_points"])
        if n <= 10 or omega["detected_period"] is not None:
            raise ValueError(f"{n} clusters, period {omega['detected_period']}")

    @staticmethod
    def _check_cycles(k):
        def check(text):
            results = json.loads(text)["results"]
            for omega in (r["omega"] for r in results) if isinstance(results, list) else [results]:
                n, period = len(omega["cluster_points"]), omega["detected_period"]
                if n != k or period != k:
                    raise ValueError(f"{n} clusters, period {period}; expected {k} and {k}")
        return check

    def _check_trajectory(self, text):
        rows = text.splitlines()
        if len(rows) != self.trajectory_steps + 2:     # header + steps 0..n
            raise ValueError(f"{len(rows)} CSV lines for {self.trajectory_steps} steps")
        last = [float(v) for v in rows[-1].split(",")]
        dev = max(abs(v - 0.2) for v in last[1:])
        if int(last[0]) != self.trajectory_steps or not dev < 1e-8:
            raise ValueError(f"final step {last[0]} is {dev!r} from the center")

    @staticmethod
    def _check_lyapunov(text):
        violations = json.loads(text)["results"]["violations"]
        if violations != 0:
            raise ValueError(f"{violations} violations")

    @staticmethod
    def _check_ergodic(text):
        for mean in json.loads(text)["results"]["cesaro"]:
            if min(mean) < 0.0 or abs(sum(mean) - 1.0) > 1e-12:
                raise ValueError(f"Cesaro mean {mean} is off the simplex")


# --- basin_sweep: global convergence checked at scale -------------------------


class BasinSweep:
    """``tensor.run_batch`` on 10^4 seeded starts per operator, plus the
    m=4 max-norm and the decay-factor bound checks at 10^5 samples.

    Chosen because nearly all of its time is the batched step on large
    batches, bypassing the single-orbit loop and the analysis logic.  The
    tolerances are the ``verify`` suites' own.  Each step count is about
    three times the largest number of steps any of 10^4 starts needed to
    come within that tolerance on seeds 1 to 3 (for the blends, at the
    slowest weight drawn, 0.3).
    """

    ROWS = 10_000
    SAMPLES = 100_000

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.batches = []
        for m in (3, 5, 8):
            self._add(rng, f"REGULAR m={m}", families.make("REGULAR", m=m), 50,
                      np.full(m, 1.0 / m), 1e-8)
        for m, perm in ((3, "(1 2)"), (5, "(1 2 3)")):
            alpha = round(float(rng.uniform(0.3, 0.9)), 2)
            xm = scalar_fixed_point(m, alpha)
            limit = np.array([(1.0 - xm) / (m - 1)] * (m - 1) + [xm])
            t = families.make("ALPHA_COMBINATION", m=m, permutation=parse_cycles(perm, m - 1),
                              parameter=alpha)
            self._add(rng, f"ALPHA_COMBINATION m={m} alpha={alpha}", t, 200, limit, 1e-8)
        for name, param, steps in (("VALLANDER_THETA", 0.5, 150),
                                   ("GANIKHODJAEV_LAMBDA", 0.8, 100)):
            self._add(rng, f"{name} {param}", families.make(name, parameter=param), steps,
                      np.full(3, 1.0 / 3.0), 1e-6)
        self.check_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=3)]
        self.orbit_steps = sum(len(xs) * n for _, _, xs, n, _, _ in self.batches)

    def _add(self, rng, label, t, steps, limit, tol):
        xs = analysis.sample_interior(rng, t.m, self.ROWS)
        self.batches.append((label, t, xs, steps, limit, tol))

    @property
    def ops(self):
        s4, s5, s8 = self.check_seeds
        return [(label, lambda t=t, xs=xs, n=steps: qsodyn.tensor.run_batch(t, xs, n))
                for label, t, xs, steps, _, _ in self.batches] + [
            ("max_norm_check", lambda: qsodyn.analysis.max_norm_check(self.SAMPLES, s4)),
            ("psi_bound_check m=5", lambda: qsodyn.analysis.psi_bound_check(5, self.SAMPLES, s5)),
            ("psi_bound_check m=8", lambda: qsodyn.analysis.psi_bound_check(8, self.SAMPLES, s8)),
        ]

    def check(self, outputs) -> list[str]:
        finals, (norm, psi5, psi8) = outputs[:-3], outputs[-3:]
        failures = []
        for (label, _, _, _, limit, tol), final in zip(self.batches, finals):
            dev = float(np.max(np.abs(final - limit)))
            if not dev < tol:
                failures.append(f"{label}: max deviation {dev!r} from the limit >= {tol}")
        if not (norm.violations == 0 and norm.min_margin > 0.0):
            failures.append(f"max_norm_check: {norm.violations} violations, "
                            f"min margin {norm.min_margin!r}")
        for psi in (psi5, psi8):
            defect = abs(psi.value_at_center - psi.bound)
            if not (psi.max_violation <= 1e-12 and defect <= 1e-12):
                failures.append(f"psi_bound_check m={psi.m}: violation {psi.max_violation!r}, "
                                f"center defect {defect!r}")
        return failures


# --- verify_all, in process: used by the traced run -----------------------------


class VerifyAll:
    """``qsodyn verify --suite all --seed 7`` through ``qsodyn.cli.main``.

    The untraced ``verify_all`` run times the whole ``python -m qsodyn``
    process (see ``run.py``); this in-process form gives the traced run an
    untraced round to compare against, and both must print the golden bytes.
    """

    @property
    def ops(self):
        return [("verify_all", self._verify)]

    @staticmethod
    def _verify() -> tuple[int, bytes]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = qsodyn.cli.main(VERIFY_ARGV)
        return code, buf.getvalue().encode()

    @staticmethod
    def check(outputs) -> list[str]:
        return verify_failures(*outputs[0])


def _probe_mark() -> tuple[int, float, float]:
    return probe.ACTIVE.mark() if probe.ACTIVE is not None else (0, 0.0, 0.0)


def timed_round(work, tracer: Tracer | None = None) -> tuple[list, list[float], list[float]]:
    """Run each operation of one round once; its outputs, raw wall times and
    times at the reference speed of the probe slices taken in the round."""
    outputs, times, marks = [], [], []
    for label, op in work.ops:
        if tracer is not None:
            tracer.run = label
        before = _probe_mark()
        t0 = time.perf_counter()
        outputs.append(op())
        times.append(time.perf_counter() - t0)
        marks.append([b - a for a, b in zip(before, _probe_mark())])
    slices, slice_s, _ = (sum(col) for col in zip(*marks))
    return outputs, times, [probe.adjust(t, slices, slice_s, probe_s)
                            for t, (_, _, probe_s) in zip(times, marks)]


def _attempted(work, outputs) -> int:
    """Operations attempted in one round: a check for verify_all, else a call."""
    return VERIFY_CHECKS if isinstance(work, VerifyAll) else len(outputs)


def run_rounds(work, seconds: float):
    """Untraced rounds: at least one, and another while the median round
    still fits in ``seconds``, so a run never overshoots by a whole round."""
    op_times, op_adjusted, totals, attempted, failures = [], [], [], 0, []
    start = time.perf_counter()
    while not totals or time.perf_counter() - start + statistics.median(totals) <= seconds:
        outputs, times, adjusted = timed_round(work)
        op_times.append(times)
        op_adjusted.append(adjusted)
        totals.append(sum(times))
        failures += work.check(outputs)
        attempted += _attempted(work, outputs)
    return op_times, op_adjusted, attempted, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("explore", "basin_sweep", "verify_all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True, help="JSON file for the run's measurements")
    ap.add_argument("--spans", help="file for the traced round's spans")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(dir=Path(args.result).parent) as tmp:
        def build():
            if args.workload == "explore":
                return Explore(args.seed, Path(tmp))
            if args.workload == "basin_sweep":
                return BasinSweep(args.seed)
            return VerifyAll()

        work = build()
        if args.mode == "setup":
            return 0
        op_times, op_adjusted, attempted, failures = run_rounds(work, args.seconds)
        result = {"op_times": op_times, "op_adjusted": op_adjusted,
                  "attempted": attempted, "failures": failures,
                  "orbit_steps_per_round": getattr(work, "orbit_steps", None)}
        if args.trace:
            tracer = Tracer()
            tracer.install()
            tracer.run = "setup"
            work = build()          # the same inputs again, with set-up spans
            outputs, times, adjusted = timed_round(work, tracer)
            result["traced_wall_s"] = sum(times)
            result["traced_adjusted_s"] = sum(adjusted)
            tracer.uninstall()
            result["attempted"] += _attempted(work, outputs)
            result["failures"] += [f"traced: {msg}" for msg in work.check(outputs)]
            result["stats"] = tracer.stats()
            result["spans"] = len(tracer.spans)
            if args.spans:
                tracer.write_spans(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
