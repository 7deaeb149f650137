"""qsodyn benchmark: one run of one workload, from the root of a checkout.

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 30 --trace 0

Workloads (see README.md in this directory for why each was chosen):

* ``verify_all``  -- ``python -m qsodyn verify --suite all --seed 7`` as a
  whole process, its stdout checked byte for byte against the golden digest;
* ``explore``     -- about 26 in-process CLI calls of an analysis session;
* ``basin_sweep`` -- batched orbits on 10^4 starts per operator.

Every measurement is made in a fresh child process, started one after
another by this process, which only waits.  The measured child runs under
the host-speed probe of ``probe.py``, and every time in BENCHMARK.json is
given at the probe's reference speed; the raw times are printed next to
them.
``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` reports its per-layer metrics from one traced round.  A
human-readable table and the machine and provenance block come first; the
last line of stdout is the JSON result.  The exit code is 0 only when every
output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"            # results, spans and scratch files
WORKLOADS = ("verify_all", "explore", "basin_sweep")
SETUP_RUNS = 16                         # half before the timed rounds, half after
PROBE_INTERVAL_S = 0.25                 # measured children: about 3% of their time
RUN_LIMIT_S = 170.0                     # a run must end within 180 s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

sys.path.insert(0, str(HERE))
from golden import VERIFY_ARGV, VERIFY_CHECKS, verify_failures  # noqa: E402
from probe import REF_SLICE_S, adjust  # noqa: E402


class Child:
    """Run one child process to completion and report its time and peak memory.

    ``argv`` starts with the interpreter.  With ``probe_interval`` the child
    runs under ``probe.py`` with a tick every ``probe_interval`` seconds, and
    ``adjusted_s`` is its time at the probe's reference speed; otherwise, or
    if no tick came, ``adjusted_s`` is its raw time.
    """

    def __init__(self, argv: list[str], env: dict, deadline: float,
                 probe_interval: float | None, capture: bool = False):
        probe_out = STATE / f"probe-{os.getpid()}.json"
        probe_out.unlink(missing_ok=True)
        if probe_interval:
            argv = [argv[0], str(HERE / "probe.py"), str(probe_out), str(probe_interval),
                    *argv[1:]]
        timeout = max(1.0, deadline - time.perf_counter())
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE if capture else subprocess.DEVNULL)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            self.stdout = proc.stdout.read() if capture else b""
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            if capture:
                proc.stdout.close()
        self.wall_s = time.perf_counter() - t0
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0     # ru_maxrss is in KiB on Linux
        self.probe = {"slices": 0, "slice_s": 0.0, "probe_s": 0.0}
        if probe_out.exists():
            self.probe = json.loads(probe_out.read_text())
            probe_out.unlink()
        self.adjusted_s = adjust(self.wall_s, **self.probe)


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    caches = _cache_sizes()
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "workload_seed": seed,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def round_time(op_times: list[list[float]]) -> float:
    """The time of one round, as the sum over its operations of each one's
    median over the rounds of the run.

    On a shared 2-vCPU host machine speed drifts by tens of percent from one
    second to the next, so a median per operation, of samples taken seconds
    apart, is steadier than the median of a few whole-round totals.
    """
    return sum(statistics.median(col) for col in zip(*op_times)) if op_times else 0.0


def per_layer_values(stats: dict, traced_wall_s: float, overhead_s: float,
                     spans: int) -> dict[str, float]:
    """Every per-layer statistic, derived ratios included, keyed by metric name."""
    out = {"trace.overhead_s": overhead_s, "trace.wall_s": traced_wall_s, "trace.spans": spans}
    for fn, row in stats.items():
        row = dict(row)
        calls, total = row["calls"], row["total_s"]
        row["us_per_call"] = total / calls * 1e6 if calls else 0.0
        if "orbit_steps" in row:
            steps = row["orbit_steps"]
            row["ns_per_orbit_step"] = total / steps * 1e9 if steps else 0.0
        if "starts" in row:
            row["solutions_per_start"] = row["solutions"] / row["starts"] if row["starts"] else 0.0
        for stat, value in row.items():
            out[f"{fn}.{stat}"] = value
    return out


def _print_layer_table(stats: dict, traced_wall_s: float) -> None:
    print(f"{'function':<40} {'calls':>8} {'total_s':>10} {'self_s':>10} {'self%':>6}  counts")
    rows = sorted(stats.items(), key=lambda kv: -kv[1]["self_s"])
    for fn, row in rows:
        if not row["calls"]:
            continue
        extra = " ".join(f"{k}={v}" for k, v in row.items()
                         if k not in ("calls", "total_s", "self_s"))
        share = 100.0 * row["self_s"] / traced_wall_s if traced_wall_s else 0.0
        print(f"{fn:<40} {row['calls']:>8} {row['total_s']:>10.4f} {row['self_s']:>10.4f} "
              f"{share:>5.1f}%  {extra}")


class Plan:
    """The child processes of one run and the deadline they share."""

    def __init__(self, args):
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        self.result_file = STATE / f"{self.tag}.worker.json"
        self.worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--result", str(self.result_file)]
        if args.workload == "verify_all":
            self.setup = [sys.executable, "-m", "qsodyn", "families", "--json"]
        else:
            self.setup = self.worker + ["--mode", "setup"]

    def child(self, argv: list[str], capture: bool = False,
              probe_interval: float | None = PROBE_INTERVAL_S) -> Child:
        return Child(argv, self.env, self.deadline, probe_interval, capture)

    def run_worker(self, *extra: str) -> tuple[Child, dict, list[str]]:
        """Run ``worker.py --mode run``; its result and any failure to produce one."""
        child = self.child(self.worker + ["--mode", "run", *extra])
        if child.exit_code != 0:
            return child, {}, [f"worker exited {child.exit_code}"]
        out = json.loads(self.result_file.read_text())
        self.result_file.unlink()
        return child, out, []


def traced_run(args, plan: Plan, report: dict) -> tuple[dict, int, list[str]]:
    """Per-layer values from one traced round, after the untraced rounds."""
    _, out, failures = plan.run_worker("--trace", "1", "--spans",
                                       str(STATE / f"{plan.tag}.spans.jsonl"))
    if failures:
        return {}, 1, failures
    untraced = round_time(out["op_adjusted"])
    # The span times, and so trace.wall_s, are raw; the overhead compares the
    # traced and untraced rounds at the reference speed.
    values = per_layer_values(out["stats"], out["traced_wall_s"],
                              out["traced_adjusted_s"] - untraced, out["spans"])
    report.update(op_times=out["op_times"], op_adjusted=out["op_adjusted"],
                  traced_wall_s=out["traced_wall_s"], per_function=out["stats"])
    print(f"traced round of {args.workload}: {out['traced_adjusted_s']:.3f} s, untraced "
          f"{untraced:.3f} s over {len(out['op_times'])} rounds (both at the reference "
          f"speed; traced raw {out['traced_wall_s']:.3f} s), {out['spans']} spans")
    _print_layer_table(out["stats"], out["traced_wall_s"])
    return values, out["attempted"], out["failures"]


def end_to_end_run(args, plan: Plan, report: dict, units: dict) -> tuple[dict, int, list[str]]:
    """The timed rounds of the workload, untraced, between set-up processes."""
    setups = [plan.child(plan.setup, probe_interval=None) for _ in range(SETUP_RUNS // 2)]
    failures = []
    steps_per_round = None
    if args.workload == "verify_all":
        op_times, op_adjusted, rss, attempted, probes = [], [], [], 0, []
        start = time.perf_counter()
        while not op_times or (time.perf_counter() - start
                               + _median([t for t, in op_times]) <= args.seconds):
            child = plan.child([sys.executable, "-m", "qsodyn", *VERIFY_ARGV], capture=True)
            op_times.append([child.wall_s])
            op_adjusted.append([child.adjusted_s])
            probes.append(child.probe)
            rss.append(child.peak_rss_mb)
            attempted += VERIFY_CHECKS
            failures += verify_failures(child.exit_code, child.stdout)
    else:
        child, out, failed_run = plan.run_worker("--trace", "0")
        failures += failed_run + out.get("failures", [])
        op_times, rss = out.get("op_times", []), [child.peak_rss_mb]
        op_adjusted, probes = out.get("op_adjusted", []), [child.probe]
        attempted = out.get("attempted", 1)
        steps_per_round = out.get("orbit_steps_per_round")
    setups += [plan.child(plan.setup, probe_interval=None)
               for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
    failures += [f"set-up exited {c.exit_code}" for c in setups if c.exit_code != 0]
    wall_s = round_time(op_adjusted)
    # A set-up process is over before a probe in it could take enough slices
    # (half of it is importing numpy, which the probe needs itself), so the
    # set-ups run without one and are taken at the speed the measured child
    # saw in between them.
    slices, slice_s = (sum(p[k] for p in probes) for k in ("slices", "slice_s"))
    setup_adjusted = [adjust(c.wall_s, slices, slice_s, 0.0) for c in setups]
    values = {"wall_s": wall_s,
              "setup_s": _median(setup_adjusted),
              "peak_rss_mb": max(rss),
              "ops_failed_frac": min(len(failures), attempted) / attempted,
              "raw_wall_s": round_time(op_times),
              "raw_setup_s": _median([c.wall_s for c in setups])}
    counts = {"wall_s": len(op_times), "setup_s": len(setups), "peak_rss_mb": len(rss),
              "ops_failed_frac": 1, "raw_wall_s": len(op_times), "raw_setup_s": len(setups)}
    if steps_per_round:
        values["orbit_steps_per_s"] = steps_per_round / wall_s
        counts["orbit_steps_per_s"] = len(op_times)
    if slices:
        mean_ms = slice_s / slices * 1e3
        print(f"probe: {slices} slices, mean {mean_ms:.3f} ms against the reference "
              f"{REF_SLICE_S * 1e3:.3f} ms")
    report.update(op_times=op_times, op_adjusted=op_adjusted, probes=probes,
                  setup_walls=[c.wall_s for c in setups],
                  setup_adjusted=setup_adjusted)
    for name, value in values.items():
        print(f"{args.workload:<12} {name:<18} {value:>14.6g} {units[name]:<6} "
              f"(n={counts[name]})")
    return values, attempted, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qsodyn" / "__init__.py").is_file():
        print(f"error: no qsodyn sources under {ROOT / 'src'}; run from the root of a "
              "qsodyn checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    STATE.mkdir(exist_ok=True)
    plan = Plan(args)
    # The first process of a fresh checkout compiles byte code; users pay that once.
    plan.child(plan.setup, probe_interval=None)

    report: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "provenance": provenance(args.seed)}
    if args.trace:
        wanted = spec["per_layer"]
        values, attempted, failures = traced_run(args, plan, report)
    else:
        wanted = spec["end_to_end"]
        units = {m["name"]: m["unit"] for m in wanted}
        units.update(ops_failed_frac="ratio", orbit_steps_per_s="1/s", raw_wall_s="s",
                     raw_setup_s="s")
        values, attempted, failures = end_to_end_run(args, plan, report, units)

    failed = min(len(failures), attempted)
    for msg in failures:
        print(f"FAILED: {msg}")
    print("provenance: " + json.dumps(report["provenance"]))
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    report.update(metrics=values, attempted=attempted, failed=failed, failures=failures)
    (STATE / f"{plan.tag}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
