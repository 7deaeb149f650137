"""The compiled kernel against the numpy reference loops.

Every comparison is exact (``np.array_equal``): the single-orbit loops make
the numpy step's own BLAS call, the batched loop sums in the order of
einsum's three-operand contraction, the Newton loop makes numpy's Jacobian
sums and its own LAPACK call, and all sum in numpy's pairwise order, so any
difference is a bug.  The numpy loops are selected by replacing the loader
``tensor._kernel``.
"""

import contextlib
import io
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsodyn import cli, errors, tensor
from qsodyn.analysis import (
    _CORRECT,
    _DONE,
    _SEARCH,
    _default_starts,
    _greedy_linkage,
    _newton_periodic,
    ergodicity_probe,
    find_fixed_points,
    max_norm_check,
    omega_estimate,
)
from qsodyn.families import REGISTRY, make
from qsodyn.simplex import parse_cycles, validate_point
from qsodyn.tensor import (
    apply_batch,
    cesaro_means,
    iterate,
    random_tensor,
    run,
    run_batch,
    run_collect,
)


SRC = Path(__file__).resolve().parents[1] / "src"


def numpy_loops():
    return mock.patch.object(tensor, "_kernel", lambda: None)


@pytest.fixture(scope="module")
def kernel():
    k = tensor._kernel()
    if k is None:
        pytest.skip("compiled kernel unavailable (no C compiler or BLAS symbol)")
    return k


def both(fn, *args):
    """``fn(*args)`` through the kernel and through the numpy loops."""
    fast = fn(*args)
    with numpy_loops():
        ref = fn(*args)
    return fast, ref


@st.composite
def orbit_cases(draw):
    m = draw(st.integers(2, 12))
    t = random_tensor(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), m)
    x = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m)))
    if draw(st.booleans()):
        # boundary start: zero out a proper subset of the coordinates
        zeros = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m - 1))
        x[zeros] = 0.0
    x = validate_point(x / x.sum())
    return t, x, draw(st.integers(0, 2000))


@settings(max_examples=40, deadline=None)
@given(orbit_cases(), st.integers(1, 50))
def test_kernel_matches_numpy_loops(kernel, case, stride):
    t, x0, n = case
    fast, ref = both(run, t, x0.array, n)
    assert np.array_equal(fast, ref)
    fast, ref = both(run_collect, t, x0.array, n)
    assert np.array_equal(fast, ref)
    fast, ref = both(iterate, t, x0, n, stride)
    assert (fast.operator, fast.stride) == (ref.operator, ref.stride)
    assert np.array_equal(fast.steps, ref.steps) and np.array_equal(fast.rows, ref.rows)
    if n >= 1:
        cps = sorted({max(1, n // 7), max(1, n // 2), n})
        fast, ref = both(ergodicity_probe, t, x0, cps)
        assert fast == ref


@st.composite
def mark_cases(draw):
    """Increasing step marks: none, one, a leading 0, gaps of any size."""
    marks = sorted(set(draw(st.lists(st.integers(0, 300), max_size=12))))
    if marks and draw(st.booleans()):
        marks[0] = 0
    return np.array(marks, dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(orbit_cases(), mark_cases(), st.booleans())
def test_walk_matches_numpy_loop(kernel, case, marks, with_sums):
    t, x0, _ = case
    got_sums = np.empty((len(marks), t.m)) if with_sums else None
    ref_sums = None if got_sums is None else np.empty_like(got_sums)
    spy = mock.Mock(wraps=kernel)
    with mock.patch.object(tensor, "_kernel", lambda: spy):
        got = tensor._walk(t, x0.array, marks, got_sums)
    spy.orbit.assert_called_once()
    with numpy_loops():
        ref = tensor._walk(t, x0.array, marks, ref_sums)
    assert got.shape == (len(marks), t.m) and np.array_equal(got, ref)
    if with_sums:
        assert np.array_equal(got_sums, ref_sums)
    # the states are the orbit's own, x^(n) at each mark n, and the sums
    # add x^(0), x^(1), ... in order from 0.0
    if len(marks):
        rows = run_collect(t, x0.array, int(marks[-1]))
        assert np.array_equal(got, rows[marks])
        if with_sums:
            acc, want = np.zeros(t.m), []
            for n, row in enumerate(rows):
                if n in marks:
                    want.append(acc.copy())
                acc = acc + row
            assert np.array_equal(got_sums, want)


def catalog_tensor(family):
    info = REGISTRY[family]
    m = info.m_fixed or 6
    return make(family, m,
                parse_cycles("(1 2)(3 4 5)", m - 1) if info.needs_permutation else None,
                0.3 if info.parameter else None)


@pytest.mark.parametrize("family", sorted(REGISTRY))
def test_kernel_matches_numpy_on_catalog(kernel, family):
    t = catalog_tensor(family)
    m = t.m
    x0 = np.linspace(1.0, 2.0, m) / np.linspace(1.0, 2.0, m).sum()
    fast, ref = both(run_collect, t, x0, 10_000)
    assert np.array_equal(fast, ref)
    assert np.array_equal(run(t, x0, 10_000), ref[-1])


def test_strided_iterate_records_only_strided_rows(kernel):
    t = make("REGULAR", 5)
    x0 = validate_point([0.4, 0.3, 0.2, 0.05, 0.05])
    traj = iterate(t, x0, 1001, stride=100)
    assert traj.steps.tolist() == [0, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000, 1001]
    assert traj.points[0][1] == x0
    full = run_collect(t, x0.array, 1001)
    for n, pt in traj.points:
        assert pt.coords == tuple(full[n].tolist())


@pytest.mark.parametrize("n_steps,stride", [(0, 1), (9, 1), (100, 1), (100, 3), (101, 7), (80, 8)])
def test_iterate_across_collection_blocks(n_steps, stride):
    """The whole orbit comes from one ``_collect`` call, whatever its length
    (it was once collected in blocks)."""
    t = make("KHUKR")
    x0 = validate_point([0.4, 0.36, 0.24])
    calls = []
    collect = tensor._collect

    def recording(*args):
        marks, rows = collect(*args)
        calls.append((args[2:], rows.shape))
        return marks, rows

    with mock.patch.object(tensor, "_collect", recording):
        traj = iterate(t, x0, n_steps, stride)
    want_steps = sorted({*range(0, n_steps + 1, stride), n_steps})
    assert calls == [((n_steps, stride), (len(want_steps), 3))]
    assert traj.steps.tolist() == want_steps
    full = run_collect(t, x0.array, n_steps)
    assert np.array_equal(traj.rows, full[want_steps])


def test_cesaro_means_match_numpy_loop(kernel):
    t = make("ZAKHAREVICH")
    x0 = validate_point([0.3, 0.3, 0.4])
    fast, ref = both(cesaro_means, t, x0, [1, 10, 1000, 20_000])
    assert fast == ref


@pytest.mark.parametrize("bad", [-3, -1, 2.5, 3.0, "4", None])
@pytest.mark.parametrize("fn", [run, run_collect])
def test_bad_n_steps_rejected_before_the_kernel(fn, bad):
    t = make("REGULAR", 3)
    x0 = np.full(3, 1 / 3)
    with mock.patch.object(tensor, "_kernel") as loader:
        with pytest.raises(errors.DimensionMismatch, match="n_steps"):
            fn(t, x0, bad)
    loader.assert_not_called()


def test_point_of_wrong_size_rejected():
    with pytest.raises(errors.DimensionMismatch):
        run(make("REGULAR", 4), np.full(3, 1 / 3), 5)


def test_large_m_falls_back_to_numpy(kernel):
    t = random_tensor(np.random.default_rng(3), tensor._KERNEL_MAX_M + 1)
    assert tensor._kernel_for(t._flat) is None
    assert run(t, np.full(t.m, 1 / t.m), 2).shape == (t.m,)


def test_loader_falls_back_without_compiler(tmp_path, monkeypatch):
    src = tmp_path / "_kernel.c"
    src.write_bytes(tensor._KERNEL_SOURCE.read_bytes())
    monkeypatch.setattr(tensor, "_KERNEL_SOURCE", src)
    monkeypatch.setenv("PATH", str(tmp_path))
    assert tensor._kernel.__wrapped__() is None
    assert list(tmp_path.glob("__pycache__/*")) == []


def test_loader_rejects_a_disagreeing_kernel(monkeypatch):
    monkeypatch.setattr(tensor, "_kernel_agrees", lambda k: False)
    assert tensor._kernel.__wrapped__() is None


def test_self_test_checks_the_single_orbit_loop(kernel):
    short = mock.Mock(wraps=kernel)

    def orbit_one_step_short(flat, x, marks, states, sums=None):
        marks = marks.copy()
        marks[-1] -= 1
        kernel.orbit(flat, x, marks, states, sums)

    short.orbit = orbit_one_step_short
    assert not tensor._kernel_agrees(short)


def test_self_test_checks_the_running_sums(kernel):
    off = mock.Mock(wraps=kernel)

    def orbit_sums_one_ulp_off(flat, x, marks, states, sums=None):
        kernel.orbit(flat, x, marks, states, sums)
        if sums is not None:
            sums[-1, 0] = np.nextafter(sums[-1, 0], np.inf)

    off.orbit = orbit_sums_one_ulp_off
    assert not tensor._kernel_agrees(off)


def test_self_test_checks_the_batched_loop(kernel):
    assert tensor._kernel_agrees(kernel)
    short = mock.Mock(wraps=kernel)
    # one step short of what was asked
    short.batch = lambda p, xs, n_steps: kernel.batch(p, xs, n_steps - 1)
    assert not tensor._kernel_agrees(short)


def test_self_test_checks_the_odd_last_row(kernel):
    # the last row of an odd count shares its vector with itself alone
    odd = mock.Mock(wraps=kernel)

    def batch_odd_row_one_ulp_off(p, xs, n_steps):
        kernel.batch(p, xs, n_steps)
        if len(xs) % 2:
            xs[-1, 0] = np.nextafter(xs[-1, 0], np.inf)

    odd.batch = batch_odd_row_one_ulp_off
    assert not tensor._kernel_agrees(odd)


def test_loader_builds_into_pycache(tmp_path, monkeypatch, kernel):
    src = tmp_path / "_kernel.c"
    src.write_bytes(tensor._KERNEL_SOURCE.read_bytes())
    monkeypatch.setattr(tensor, "_KERNEL_SOURCE", src)
    built = tensor._kernel.__wrapped__()
    assert built is not None
    (lib,) = (tmp_path / "__pycache__").iterdir()
    assert lib.name.startswith("_kernel-") and lib.suffix == ".so"
    # a second load reuses the file
    mtime = os.stat(lib).st_mtime_ns
    assert tensor._kernel.__wrapped__() is not None
    assert os.stat(lib).st_mtime_ns == mtime


def test_kernel_loads_where_it_can():
    # a compiler and numpy's BLAS and LAPACK symbols are there: a kernel
    # that fails its self-test must not pass unnoticed as a silent fallback
    try:
        tensor._numpy_dgemv()
        tensor._numpy_dgesv()
    except (OSError, AttributeError):
        pytest.skip("numpy's BLAS or LAPACK does not export the dgemv or dgesv symbol")
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    assert tensor._kernel() is not None


# --- batched step ----------------------------------------------------------------


@st.composite
def batch_cases(draw):
    # both sides of numpy's 8-term pairwise-sum block, and past 16
    m = draw(st.integers(2, 33))
    rows = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = random_tensor(rng, m)
    xs = rng.exponential(size=(rows, m))
    for r in draw(st.lists(st.integers(0, rows - 1), max_size=rows, unique=True)):
        # boundary start: a vertex, or a face with some coordinates zero
        if draw(st.booleans()):
            xs[r] = np.eye(m)[draw(st.integers(0, m - 1))]
        else:
            xs[r, draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m - 1))] = 0.0
    return t, xs / xs.sum(axis=1, keepdims=True), draw(st.integers(0, 300))


@settings(max_examples=40, deadline=None)
@given(batch_cases())
def test_batch_kernel_matches_numpy_loop(kernel, case):
    fast, ref = both(run_batch, *case)
    assert np.array_equal(fast, ref)


@pytest.mark.parametrize("m", range(3, 9))
@pytest.mark.parametrize("rows", [50, 100])
def test_batch_kernel_matches_numpy_on_verify_shapes(kernel, m, rows):
    t = random_tensor(np.random.default_rng(m), m)
    xs = np.random.default_rng(rows).exponential(size=(rows, m))
    fast, ref = both(run_batch, t, xs / xs.sum(axis=1, keepdims=True), 300)
    assert np.array_equal(fast, ref)


@pytest.mark.parametrize("family", sorted(REGISTRY))
def test_batch_kernel_matches_numpy_on_catalog(kernel, family):
    t = catalog_tensor(family)
    xs = np.random.default_rng(t.m).exponential(size=(10_000, t.m))
    fast, ref = both(run_batch, t, xs / xs.sum(axis=1, keepdims=True), 20)
    assert np.array_equal(fast, ref)


@pytest.mark.parametrize("m", [3, 8])
def test_batch_kernel_runs_for_every_row_count(kernel, m):
    t = random_tensor(np.random.default_rng(m), m)
    spy = mock.Mock(wraps=kernel)
    # one row to past the row counts where einsum's path search would make
    # two matmuls, odd and even counts alike
    for rows in range(1, 2 * m + 2):
        xs = np.random.default_rng(rows).exponential(size=(rows, m))
        xs /= xs.sum(axis=1, keepdims=True)
        want = xs
        for _ in range(3):
            want = apply_batch(t, want)
        spy.batch.reset_mock()
        with (mock.patch.object(tensor, "_kernel", lambda: spy),
              mock.patch.object(tensor, "apply_batch", wraps=apply_batch) as numpy_step):
            got = run_batch(t, xs, 3)
        assert spy.batch.call_count == 1
        assert numpy_step.call_count == 0
        assert np.array_equal(got, want)


def searched_step(t, xs):
    """The batched step before it was fixed to one contraction: einsum with
    a path search, which picks the three-operand contraction for many rows
    and two BLAS matmuls for 1 to about m rows.  Kept as the oracle."""
    ys = np.einsum("ni,nj,ijk->nk", xs, xs, t.p, optimize=True)
    return ys / ys.sum(axis=1, keepdims=True)


def three_operand(t, xs):
    path, _ = np.einsum_path("ni,nj,ijk->nk", xs, xs, t.p, optimize=True)
    return path == ["einsum_path", (0, 1, 2)]


@settings(max_examples=60, deadline=None)
@given(batch_cases())
def test_batch_step_matches_the_searched_step_where_it_contracted_once(case):
    t, xs, n_steps = case
    assume(three_operand(t, xs))
    got = want = xs
    for _ in range(min(n_steps, 50)):
        got, want = apply_batch(t, got), searched_step(t, want)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("m", range(3, 9))
@pytest.mark.parametrize("rows", [50, 100, 10_000])
def test_batch_step_matches_the_searched_step_on_workload_shapes(m, rows):
    # verify's batches have 50 or 100 rows, max_norm_check and the
    # benchmark's basin sweep 10^4: their output is the searched step's
    t = random_tensor(np.random.default_rng(m), m)
    xs = np.random.default_rng(rows).exponential(size=(rows, m))
    xs /= xs.sum(axis=1, keepdims=True)
    assert three_operand(t, xs)
    got = want = xs
    for _ in range(20):
        got, want = apply_batch(t, got), searched_step(t, want)
    assert np.array_equal(got, want)


# Each OpenBLAS core type and the instructions its kernels need, as named in
# the flags of /proc/cpuinfo.
CORE_TYPE_FLAGS = {
    "Prescott": {"pni"},  # SSE3
    "Nehalem": {"ssse3", "sse4_1", "sse4_2"},
    "Sandybridge": {"avx"},
    "Haswell": {"avx2", "fma"},
}

# A child process that prints a digest of run_batch on 1 to 2m+1 rows, m =
# 3 to 12, through the compiled kernel and through the numpy loop.
BATCH_DIGEST = """
import hashlib
from unittest import mock
import numpy as np
from qsodyn import tensor
h = hashlib.sha256()
for loader in (tensor._kernel, lambda: None):
    with mock.patch.object(tensor, "_kernel", loader):
        for m in range(3, 13):
            t = tensor.random_tensor(np.random.default_rng(m), m)
            for rows in range(1, 2 * m + 2):
                xs = np.random.default_rng(rows).exponential(size=(rows, m))
                h.update(tensor.run_batch(t, xs / xs.sum(axis=1, keepdims=True), 20).tobytes())
print(h.hexdigest())
"""


def batch_digest(core_type=None):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("OPENBLAS_CORETYPE", None)
    if core_type is not None:
        env["OPENBLAS_CORETYPE"] = core_type
    done = subprocess.run([sys.executable, "-c", BATCH_DIGEST], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def host_cpu_flags():
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    for line in text.splitlines():
        if line.startswith("flags"):
            return set(line.split(":", 1)[1].split())
    return set()


@pytest.fixture(scope="module")
def default_batch_digest():
    return batch_digest()


@pytest.mark.parametrize("core_type", sorted(CORE_TYPE_FLAGS))
def test_batch_bytes_do_not_depend_on_the_blas_kernel(default_batch_digest, core_type):
    missing = CORE_TYPE_FLAGS[core_type] - host_cpu_flags()
    if missing:
        pytest.skip(f"this CPU lacks {', '.join(sorted(missing))} for {core_type}")
    assert batch_digest(core_type) == default_batch_digest


@pytest.mark.parametrize("theta,x0,n_steps", [
    # verify's s2 inputs at seed 7: the first start drawn at theta 0.9, and
    # the start on the critical line
    (0.9, [0.4078211090584822, 0.30757021167877924, 0.28460867926273853], 2000),
    (0.75, [0.5, 0.2, 0.3], 5000),
])
def test_row_kernel_matches_numpy_on_vallander(kernel, theta, x0, n_steps):
    # a single start, as verify iterates it: the single-orbit loop
    t = make("VALLANDER_THETA", 3, None, theta)
    fast, ref = both(run, t, np.array(x0), n_steps)
    assert np.array_equal(fast, ref)


@pytest.mark.parametrize("bad", [-4, -1, 2.5, 3.0, "4", None])
def test_run_batch_rejects_bad_n_steps_before_the_kernel(bad):
    t = make("REGULAR", 3)
    with mock.patch.object(tensor, "_kernel") as loader:
        with pytest.raises(errors.DimensionMismatch, match="n_steps"):
            run_batch(t, np.full((20, 3), 1 / 3), bad)
    loader.assert_not_called()


@pytest.mark.parametrize("shape", [(), (3,), (20, 4), (20, 2), (2, 20, 3)])
def test_run_batch_rejects_points_of_the_wrong_shape(shape):
    t = make("REGULAR", 3)
    with mock.patch.object(tensor, "_kernel") as loader:
        with pytest.raises(errors.DimensionMismatch, match="shape"):
            run_batch(t, np.full(shape, 1 / 3), 5)
    loader.assert_not_called()


@pytest.mark.parametrize("rows", [1, 50, 10_000])
def test_run_batch_path_reuse_is_bit_identical(rows):
    t = make("ALPHA_COMBINATION", 5, parse_cycles("(1 2 3)", 4), 0.4)
    xs = np.random.default_rng(rows).exponential(size=(rows, 5))
    xs /= xs.sum(axis=1, keepdims=True)
    ref = xs
    for _ in range(20):
        ref = apply_batch(t, ref)
    assert np.array_equal(run_batch(t, xs, 20), ref)


def test_max_norm_check_uses_the_batched_step():
    with mock.patch("qsodyn.analysis.run_batch", wraps=run_batch) as spy:
        rep = max_norm_check(500, 7)
    assert spy.call_count == 1 and spy.call_args.args[2] == 1
    assert rep.violations == 0 and rep.checked + rep.excluded == 500


# --- Newton fixed-point search ---------------------------------------------------------


def newton_both(kernel, t, x0, tol, max_iter=80):
    """``_newton_periodic`` through the kernel and in numpy, and the phases
    in which the kernel handed the start back, one per kernel call."""
    phases = []

    def newton(*args):
        out = kernel.newton(*args)
        phases.append(out[0])
        return out

    spy = mock.Mock(wraps=kernel)
    spy.newton = newton
    fast = _newton_periodic(t, x0, 1, tol, max_iter, spy)
    ref = _newton_periodic(t, x0, 1, tol, max_iter)
    return fast, ref, phases


def same_newton(fast, ref):
    return np.array_equal(fast[0], ref[0]) and fast[1:] == ref[1:]


@st.composite
def newton_cases(draw):
    m = draw(st.integers(2, 12))
    t = random_tensor(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), m)
    kind = draw(st.sampled_from(["vertex", "edge", "interior", "boundary"]))
    if kind == "vertex":
        x = np.eye(m)[draw(st.integers(0, m - 1))]
    elif kind == "edge":
        i, j = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        x = np.zeros(m)
        x[[i, j]] = 0.5
    else:
        x = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m)))
        if kind == "boundary":
            x[draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m - 1))] = 0.0
        x /= x.sum()
    return t, x, draw(st.sampled_from([1e-12, 1e-8])), draw(st.sampled_from([80, 80, 2, 0]))


@settings(max_examples=60, deadline=None)
@given(newton_cases())
def test_newton_kernel_matches_numpy(kernel, case):
    t, x0, tol, max_iter = case
    fast, ref, _ = newton_both(kernel, t, x0, tol, max_iter)
    assert same_newton(fast, ref)


def slow_blend(m, seed=0):
    """A random tensor blended into the identity map: its damped sweeps are
    too slow to converge."""
    idx = np.arange(m)
    ident = np.zeros((m, m, m))
    ident[idx, :, idx] += 0.5
    ident[:, idx, idx] += 0.5
    return tensor.CoefficientTensor(m, 3e-3 * random_tensor(np.random.default_rng(seed), m).p
                                    + (1.0 - 3e-3) * ident)


@pytest.mark.parametrize("t,x0,tol,max_iter,phases", [
    # converges in the search, or after the damped sweeps
    (random_tensor(np.random.default_rng(1), 5), np.eye(5)[2], 1e-12, 80, [_DONE]),
    (slow_blend(3), np.eye(3)[0], 1e-3, 1, [_DONE]),
    # a singular system at the first iteration: numpy makes that iteration
    # with lstsq, then the kernel goes on, into the damped sweeps if that was
    # the last iteration
    (make("ZAKHAREVICH"), np.array([0.5, 0.5, 0.0]), 1e-12, 80, [_SEARCH, _DONE]),
    (make("ZAKHAREVICH"), np.array([0.5, 0.5, 0.0]), 1e-12, 1, [_SEARCH, _DONE]),
    (make("REGULAR", 6), np.array([0.5, 0.5, 0, 0, 0, 0]), 1e-8, 80, [_SEARCH, _DONE]),
    # still off tol after the sweeps: the lstsq correction
    (slow_blend(3), np.eye(3)[0], 1e-3, 0, [_CORRECT]),
    (slow_blend(7, 2), np.full(7, 1 / 7), 1e-12, 2, [_CORRECT]),
])
def test_newton_kernel_hands_back_where_numpy_calls_lstsq(kernel, t, x0, tol, max_iter, phases):
    with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq:
        fast, ref, handed_back = newton_both(kernel, t, x0, tol, max_iter)
    assert handed_back == phases
    assert same_newton(fast, ref)
    # a start the kernel ends alone is one on which numpy never calls lstsq
    assert lstsq.called == (phases != [_DONE])


def test_singular_system_reaches_lstsq_on_the_numpy_path():
    # the first reduced system at this edge midpoint is singular
    t, x0 = make("ZAKHAREVICH"), np.array([0.5, 0.5, 0.0])
    with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq:
        x, resid, ok = _newton_periodic(t, x0, 1, 1e-12)
    assert lstsq.called
    assert np.linalg.matrix_rank(lstsq.call_args_list[0].args[0]) < t.m - 1
    assert ok


PERM6 = "(1 2)(3 4 5)"
# the planar parameters of the explore benchmark workload
PLANAR_PARAMS = {"VALLANDER_THETA": 0.5, "GANIKHODJAEV_LAMBDA": 0.1, "VALLANDER_SPIRAL": 0.3,
                 "GSN_ALPHA": 0.5, "GSN_BETA": 0.5, "JJPH_THETA": 0.5}


def fixed_points_argv(family, seed):
    if REGISTRY[family].m_fixed == 3:
        argv = ["--family", family, "--starts", "100"]
        if family in PLANAR_PARAMS:
            argv += ["--param", repr(PLANAR_PARAMS[family])]
    else:
        argv = {"REGULAR": ["--family", "REGULAR", "--m", "8"],
                "QUASI_STRICT": ["--family", "QUASI_STRICT", "--m", "6", "--perm", PERM6],
                "ALPHA_COMBINATION": ["--family", "ALPHA_COMBINATION", "--m", "6", "--perm", PERM6,
                                      "--alpha", "0.5"]}[family] + ["--starts", "200"]
    return ["fixed-points", *argv, "--seed", str(seed)]


def cli_report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("family", sorted(REGISTRY))
def test_fixed_points_reports_identical_without_kernel(kernel, family, seed):
    argv = fixed_points_argv(family, seed)
    fast = cli_report(argv)
    with numpy_loops():
        ref = cli_report(argv)
    assert fast[0] == 0 and fast == ref


def test_fixed_points_resume_the_kernel_only_after_a_singular_system(kernel):
    t = make("ZAKHAREVICH")
    phases = []

    def newton(*args):
        out = kernel.newton(*args)
        phases.append(out[0])
        return out

    spy = mock.Mock(wraps=kernel)
    spy.newton = newton
    with mock.patch.object(tensor, "_kernel", lambda: spy):
        find_fixed_points(t, starts=10, seed=4)
    # one call per start, and one more after each singular search iteration
    assert _SEARCH in phases
    assert len(phases) == len(_default_starts(t, 10, 4)) + phases.count(_SEARCH)


def test_newton_start_of_the_wrong_size_rejected_before_the_kernel(kernel):
    spy = mock.Mock(wraps=kernel)
    with pytest.raises(errors.DimensionMismatch):
        _newton_periodic(make("KHUKR"), np.full(4, 0.25), 1, 1e-12, kernel=spy)
    spy.newton.assert_not_called()


def test_self_test_checks_the_newton_loop(kernel):
    short = mock.Mock(wraps=kernel)
    # one Newton iteration short of what was asked
    short.newton = lambda p, x, tol, first, max_iter: kernel.newton(p, x, tol, first,
                                                                    max_iter - 1)
    assert not tensor._kernel_agrees(short)


# --- limit-set clustering ----------------------------------------------------------


def reference_linkage(tail, tol):
    """The per-pair Python greedy linkage that omega_estimate used before
    clustering was vectorized, kept as the oracle."""
    reps = []
    counts = []
    for row in tail:
        for idx, rep in enumerate(reps):
            if np.max(np.abs(rep - row)) <= tol:
                counts[idx] += 1
                reps[idx] = rep + (row - rep) / counts[idx]
                break
        else:
            reps.append(row.copy())
            counts.append(1)
    merged = True
    while merged and len(reps) > 1:
        merged = False
        for a in range(len(reps)):
            for b in range(a + 1, len(reps)):
                if np.max(np.abs(reps[a] - reps[b])) <= tol:
                    total = counts[a] + counts[b]
                    reps[a] = (counts[a] * reps[a] + counts[b] * reps[b]) / total
                    counts[a] = total
                    del reps[b], counts[b]
                    merged = True
                    break
            if merged:
                break
    reps.sort(key=lambda r: tuple(r.tolist()))
    return [tuple(r.tolist()) for r in reps]


@pytest.mark.parametrize("family,parameter,x0,burn_in,window", [
    ("GANIKHODJAEV_LAMBDA", 0.1, [0.2, 0.3, 0.5], 2000, 400),
    ("GANIKHODJAEV_LAMBDA", 0.1, [0.6, 0.1, 0.3], 500, 300),
    ("KHUKR", None, [0.4, 0.36, 0.24], 1000, 40),
    ("KHUKR", None, [0.1, 0.5, 0.4], 50, 200),
])
@pytest.mark.parametrize("tol", [1e-6, 1e-4, 1e-2])
def test_linkage_matches_reference(family, parameter, x0, burn_in, window, tol):
    t = make(family, parameter=parameter)
    start = validate_point(x0)
    tail = run_collect(t, run(t, start.array, burn_in), window - 1)
    got = omega_estimate(t, start, burn_in, window, cluster_tol=tol)
    assert [p.coords for p in got.cluster_points] == reference_linkage(tail, tol)


def test_linkage_merge_pass_matches_reference():
    # points whose running means drift within tol of each other
    rng = np.random.default_rng(5)
    pts = 0.5 + rng.normal(scale=0.004, size=(300, 3))
    for tol in (0.003, 0.005, 0.01):
        assert [tuple(r) for r in _greedy_linkage(pts, tol)] == reference_linkage(pts, tol)


@st.composite
def linkage_cases(draw):
    """Point sets for the greedy linkage at a dyadic tol: jitter about a few
    centers, a drift whose running means merge, or a dyadic grid, whose
    first coordinates differ by exactly tol, with signed zeros and repeated
    rows."""
    m = draw(st.integers(2, 8))
    n = draw(st.integers(1, 300))
    tol = 2.0 ** draw(st.integers(-20, -3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["jitter", "drift", "grid"]))
    if kind == "jitter":
        centers = rng.random((draw(st.integers(1, 6)), m))
        scale = draw(st.sampled_from([0.1, 0.5, 1.0, 2.0])) * tol
        pts = centers[rng.integers(len(centers), size=n)] + rng.normal(scale=scale, size=(n, m))
    elif kind == "drift":
        step = draw(st.sampled_from([0.25, 0.5, 1.0])) * tol
        pts = 0.5 + np.cumsum(rng.normal(scale=step, size=(n, m)), axis=0)
    else:
        pts = tol * rng.integers(-2, 3, size=(n, m)).astype(float)
        pts[rng.random((n, m)) < 0.5] *= -1.0  # 0.0 and -0.0
    if draw(st.booleans()):
        pts = pts[rng.integers(n, size=n)]  # repeated rows
    return pts, tol


def bits(rows):
    return np.array(rows, dtype=float).tobytes()


@given(linkage_cases())
@settings(max_examples=100, deadline=None)
def test_linkage_matches_reference_on_drawn_points(case):
    pts, tol = case
    assert bits(_greedy_linkage(pts, tol)) == bits(reference_linkage(pts, tol))


@pytest.mark.parametrize("second,clusters", [
    ([0.25, 0.0], 1),    # |dx_0| == tol exactly: within tol, as in the sup norm
    ([-0.25, -0.0], 1),
    ([0.5, 0.0], 2),     # screened out
    ([0.25, 0.5], 2),    # passes the screen, fails the sup norm
    ([0.0, 0.25], 1),
])
def test_linkage_screen_at_tol(second, clusters):
    pts = np.array([[0.0, 0.0], second])
    got = _greedy_linkage(pts, 0.25)
    assert len(got) == clusters and got == [list(r) for r in reference_linkage(pts, 0.25)]


# --- random tensors -----------------------------------------------------------------


def per_row_random_tensor(rng, m):
    """The per-row loop that random_tensor used before it drew all rows at
    once, kept as the oracle."""
    p = np.zeros((m, m, m))
    for i in range(m):
        for j in range(i, m):
            row = rng.exponential(size=m)
            row /= row.sum()
            row /= math.fsum(row.tolist())
            p[i, j] = row
            p[j, i] = row
    return p


@pytest.mark.parametrize("m,seeds", [*((m, 200) for m in range(2, 18)), (33, 20), (64, 20)])
def test_random_tensor_matches_the_per_row_loop(m, seeds):
    for seed in range(seeds):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_tensor(got_rng, m, "r")
        assert got.p.tobytes() == per_row_random_tensor(want_rng, m).tobytes()
        # the generator is left where the loop left it, for the draws after
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert got.name == "r"
