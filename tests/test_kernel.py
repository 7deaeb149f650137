"""The compiled kernel against the numpy reference loops.

Every comparison is exact (``np.array_equal``): the single-orbit loops make
the numpy step's own BLAS call, the batched loop sums in the order of
einsum's three-operand contraction, and both sum in numpy's pairwise order,
so any difference is a bug, at every lane width of the batched loop that the
CPU runs.  Orbits that reach a fixed point of the step,
where the single-orbit loops stop stepping, are held to plain loops that
make every step.  The Newton search, which runs all its starts
as rows of one array, is held to a per-start oracle in the same way.  The numpy loops are selected by replacing the loader
``tensor._kernel``.
"""

import contextlib
import ctypes
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
    _default_starts,
    _greedy_linkage,
    _newton,
    ergodicity_probe,
    find_fixed_points,
    max_norm_check,
    omega_estimate,
)
from qsodyn.families import REGISTRY, make
from qsodyn.simplex import parse_cycles, validate_point
from qsodyn.tensor import (
    apply_batch,
    cesaro,
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
    # every size up to 12, then 1 to 8 whole blocks of numpy's 8-term
    # pairwise sum with tails of 0 to 7, up to the kernel's largest m
    m = draw(st.one_of(st.integers(2, 12), st.sampled_from([16, 17, 24, 33, 63, 64])))
    t = random_tensor(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), m)
    x = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m)))
    if draw(st.booleans()):
        # boundary start: zero out a proper subset of the coordinates
        zeros = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m - 1))
        x[zeros] = 0.0
    x = validate_point(x / x.sum())
    return t, x, draw(st.integers(0, 2000 if m <= 12 else 200))


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
        got, _ = tensor._walk(t, x0.array, marks, got_sums)
    spy.orbit.assert_called_once()
    with numpy_loops():
        ref, _ = tensor._walk(t, x0.array, marks, ref_sums)
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


@st.composite
def settling_cases(draw):
    """An orbit case whose start is kept, or replaced by one that settles
    early: the vertex e_1 of the tensor changed to fix it (fixed from step
    0), that vertex with -0.0 coordinates (fixed from step 1), or a zero
    start, whose rows after step 0 are NaN."""
    t, x0, n = draw(orbit_cases())
    kind = draw(st.sampled_from(["drawn", "vertex", "vertex -0.0", "zero", "-0.0"]))
    if kind == "drawn":
        return t, x0.array, n
    if kind.startswith("vertex"):
        p = t.p.copy()
        p[0, 0] = np.eye(t.m)[0]
        return tensor.CoefficientTensor(t.m, p), vertex(t.m, -0.0 if "-0.0" in kind else 0.0), n
    return t, np.full(t.m, 0.0 if kind == "zero" else -0.0), n


@settings(max_examples=60, deadline=None)
@given(settling_cases(), st.integers(1, 50))
def test_settled_mark_matches_numpy_loop(kernel, case, stride):
    t, x0, n = case
    marks, got, settled = tensor._collect(t, x0, n, stride)
    with numpy_loops(), np.errstate(invalid="ignore"):
        _, ref, ref_settled = tensor._collect(t, x0, n, stride)
    assert settled == ref_settled and got.tobytes() == ref.tobytes()
    # every row from the settled one on has its bits
    assert (got[settled:].view(np.uint64) == got[settled].view(np.uint64)).all()
    # it is the first mark at or after the first step n with x^(n + 1) = x^(n)
    full = run_collect(t, x0, n)
    same = (full[1:].view(np.uint64) == full[:-1].view(np.uint64)).all(axis=1)
    want = int(np.searchsorted(marks, np.argmax(same))) if same.any() else len(marks) - 1
    assert settled == want


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
        marks, rows, settled = collect(*args)
        calls.append((args[2:], rows.shape))
        return marks, rows, settled

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
    fast, ref = both(lambda *a: cesaro(*a)[0].tolist(), t, x0.array, [1, 10, 1000, 20_000])
    assert fast == ref


@pytest.mark.parametrize("bad", [-3, -1, 2.5, 3.0, "4", None, True])
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
    assert tensor._kernel_for(t.m) is None
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
        return kernel.orbit(flat, x, marks, states, sums)

    short.orbit = orbit_one_step_short
    assert not tensor._kernel_agrees(short)


def test_self_test_checks_the_running_sums(kernel):
    off = mock.Mock(wraps=kernel)

    def orbit_sums_one_ulp_off(flat, x, marks, states, sums=None):
        settled = kernel.orbit(flat, x, marks, states, sums)
        if sums is not None:
            sums[-1, 0] = np.nextafter(sums[-1, 0], np.inf)
        return settled

    off.orbit = orbit_sums_one_ulp_off
    assert not tensor._kernel_agrees(off)


@pytest.mark.parametrize("shift", [-1, 1])
def test_self_test_checks_the_settled_mark(kernel, shift):
    # a settled mark one off would drop a row from iterate's check and the CSV
    off = mock.Mock(wraps=kernel)
    off.orbit = lambda *args: kernel.orbit(*args) + shift
    assert not tensor._kernel_agrees(off)


def test_self_test_checks_the_batched_loop(kernel):
    assert tensor._kernel_agrees(kernel)
    short = mock.Mock(wraps=kernel)
    # one step short of what was asked
    short.batch = lambda t, xs, n_steps: kernel.batch(t, xs, n_steps - 1)
    assert not tensor._kernel_agrees(short)


@pytest.mark.parametrize("lanes", [2, 4, 8])
def test_self_test_checks_the_last_row_of_a_partial_lane_group(kernel, lanes):
    # the last row of a partial group also fills the group's spare lanes;
    # the self-test's row count leaves such a group at every width
    off, partial = mock.Mock(wraps=kernel), []

    def batch_partial_group_one_ulp_off(t, xs, n_steps):
        kernel.batch(t, xs, n_steps)
        partial.append(len(xs) % lanes)
        if partial[-1]:
            xs[-1, 0] = np.nextafter(xs[-1, 0], np.inf)

    off.batch = batch_partial_group_one_ulp_off
    assert not tensor._kernel_agrees(off)
    assert partial[0] > 0


def test_self_test_checks_the_sign_of_a_zero(kernel):
    # np.array_equal takes -0.0 for 0.0, though a step tells the two apart
    off = mock.Mock(wraps=kernel)

    def orbit_writes_negative_zeros(flat, x, marks, states, sums=None):
        settled = kernel.orbit(flat, x, marks, states, sums)
        states[states == 0.0] = -0.0
        return settled

    off.orbit = orbit_writes_negative_zeros
    assert not tensor._kernel_agrees(off)


@pytest.mark.parametrize("right,wrong", [
    pytest.param("fixed = memcmp(prev, x, bytes) == 0;", "fixed = 1;",
                 id="stops_after_the_first_step"),
    pytest.param("        if (sums)\n            for (; n < marks[c]; n++)",
                 "        if (0)\n            for (; n < marks[c]; n++)",
                 id="stops_the_running_sums_once_fixed"),
    # the vertex orbit of the self-test settles at mark 0, not at mark 1
    pytest.param("settled = c > 0 && marks[c - 1] == n ? c - 1 : c;", "settled = c;",
                 id="settles_at_the_mark_after_the_fixed_step"),
    # the -0.0 vertex, fixed from step 1, settles at mark 3 of the marks 0, 3
    # and 4, not at mark 0
    pytest.param("settled = c > 0 && marks[c - 1] == n ? c - 1 : c;",
                 "settled = c > 0 ? c - 1 : c;", id="settles_inside_a_gap"),
    # the pairwise sum's tree, which every loop shares, summed one by one
    pytest.param("((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))",
                 "((((((r[0] + r[1]) + r[2]) + r[3]) + r[4]) + r[5]) + r[6]) + r[7]",
                 id="sums_the_blocks_in_sequence"),
])
def test_self_test_refuses_a_wrong_kernel_source(tmp_path, monkeypatch, kernel, right, wrong):
    source = tensor._KERNEL_SOURCE.read_text()
    assert source.count(right) == 1
    src = tmp_path / "_kernel.c"
    src.write_text(source.replace(right, wrong))
    monkeypatch.setattr(tensor, "_KERNEL_SOURCE", src)
    assert tensor._kernel.__wrapped__() is None
    assert len(list(tmp_path.glob("__pycache__/_kernel-*.so"))) == 1  # it built, and was refused


@pytest.mark.parametrize("m", [3, 9, 17, 64])
@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_a_zero_start_gives_the_numpy_nan_bits(kernel, m, zero):
    # y is all zeros, so each y_k / sum(y) is 0/0, whatever the sign of the sum
    t = random_tensor(np.random.default_rng(m), m)
    x0 = np.full(m, zero)
    with np.errstate(invalid="ignore"):
        for fn, start in ((run, x0), (run_batch, np.tile(x0, (9, 1)))):
            fast, ref = both(fn, t, start, 3)
            assert np.isnan(fast).all() and fast.tobytes() == ref.tobytes()


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
    # a compiler and numpy's BLAS symbol are there: a kernel that fails its
    # self-test must not pass unnoticed as a silent fallback
    try:
        tensor._numpy_dgemv()
    except (OSError, AttributeError):
        pytest.skip("numpy's BLAS does not export the dgemv symbol")
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


# --- lane widths ------------------------------------------------------------------

# The instructions each lane width of the compiled batched loop needs, as named
# in the flags of /proc/cpuinfo.
LANE_FLAGS = {2: set(), 4: {"avx2"}, 8: {"avx512f"}}


@pytest.fixture(scope="module", params=sorted(LANE_FLAGS))
def width_batch(request, kernel):
    """``run_batch`` through the exported loop of one lane width."""
    lanes = request.param
    missing = LANE_FLAGS[lanes] - host_cpu_flags()
    if missing:
        pytest.skip(f"this CPU lacks {', '.join(sorted(missing))} for {lanes} lanes")
    fn = getattr(kernel._lib, f"batch{lanes}")

    def batch(t, xs, n_steps):
        x = np.array(xs, dtype=float, order="C")
        fn(ctypes.c_void_p(t.p.ctypes.data), ctypes.c_int64(t.m), ctypes.c_void_p(x.ctypes.data),
           ctypes.c_int64(len(x)), ctypes.c_int64(n_steps))
        return x

    batch.lanes = lanes
    return batch


def test_the_loader_picks_the_widest_width_the_cpu_has(kernel):
    flags = host_cpu_flags()
    if not flags:
        pytest.skip("no CPU flags to read")
    assert kernel.lanes == max(lanes for lanes, need in LANE_FLAGS.items() if need <= flags)


@settings(max_examples=25, deadline=None)
@given(batch_cases())
def test_each_width_matches_numpy_loop(width_batch, case):
    assert np.array_equal(width_batch(*case), plain_batch(*case))


@pytest.mark.parametrize("family", sorted(REGISTRY))
def test_each_width_matches_numpy_on_catalog(width_batch, family):
    t = catalog_tensor(family)
    xs = np.random.default_rng(t.m).exponential(size=(1000, t.m))
    xs /= xs.sum(axis=1, keepdims=True)
    assert np.array_equal(width_batch(t, xs, 20), plain_batch(t, xs, 20))


@pytest.mark.parametrize("m", [3, 8, 9])
def test_each_width_runs_for_every_row_count(width_batch, m):
    # whole and partial lane groups, one to two groups and a row
    t = random_tensor(np.random.default_rng(m), m)
    for rows in range(1, 2 * width_batch.lanes + 2):
        xs = np.random.default_rng(rows).exponential(size=(rows, m))
        xs /= xs.sum(axis=1, keepdims=True)
        assert np.array_equal(width_batch(t, xs, 5), plain_batch(t, xs, 5))


def test_the_portable_build_runs_two_lanes(tmp_path, monkeypatch, kernel):
    # with its x86-64 part compiled out, as on other CPUs, the kernel builds,
    # passes its self-test and runs the two-lane loop
    source = tensor._KERNEL_SOURCE.read_text()
    assert source.count("#if defined(__x86_64__)") == 2
    src = tmp_path / "_kernel.c"
    src.write_text(source.replace("#if defined(__x86_64__)", "#if 0"))
    monkeypatch.setattr(tensor, "_KERNEL_SOURCE", src)
    portable = tensor._kernel.__wrapped__()
    assert portable is not None and portable.lanes == 2
    assert not hasattr(portable._lib, "batch8")


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


# --- orbits that reach a fixed point of the step ----------------------------------------


def plain_orbit(t, x0, n_steps):
    """x^(0..n_steps) and the running sums x^(0) + ... + x^(n-1), by a loop
    of ``_step`` that makes every step."""
    rows, sums = [np.array(x0, dtype=float)], [np.zeros(t.m)]
    for _ in range(n_steps):
        sums.append(sums[-1] + rows[-1])
        rows.append(tensor._step(t._flat, rows[-1]))
    return np.array(rows), np.array(sums)


def plain_batch(t, xs, n_steps):
    for _ in range(n_steps):
        xs = apply_batch(t, xs)
    return xs


def first_fixed_step(rows):
    """The first n at which x^(n+1) has the bits of x^(n)."""
    same = (rows[1:].view(np.uint64) == rows[:-1].view(np.uint64)).all(axis=1)
    assert same.any()
    return int(np.argmax(same))


def vertex_fixed(m):
    """A random tensor whose (1, 1) row is e_1: the vertex e_1 is fixed."""
    p = random_tensor(np.random.default_rng(m), m).p.copy()
    p[0, 0] = np.eye(m)[0]
    return tensor.CoefficientTensor(m, p)


def toward_vertex(m):
    """x -> 0.1 x + 0.9 e_1: every orbit lands on e_1 exactly, after about
    320 steps."""
    eye = np.eye(m)
    return tensor.CoefficientTensor(m, 0.1 * (eye[:, None, :] + eye[None]) / 2 + 0.9 * eye[0])


def vertex(m, zero=0.0):
    x = np.full(m, zero)
    x[0] = 1.0
    return x


def spread(m):
    return np.linspace(1.0, 2.0, m) / np.linspace(1.0, 2.0, m).sum()


FIXED_ORBITS = {
    # (tensor, start, first fixed step)
    "vertex m=3": (lambda: vertex_fixed(3), lambda: vertex(3), 0),
    "vertex m=9": (lambda: vertex_fixed(9), lambda: vertex(9), 0),
    # the first step turns -0.0 into 0.0: fixed only from step 1
    "vertex m=9 with -0.0": (lambda: vertex_fixed(9), lambda: vertex(9, -0.0), 1),
    "REGULAR m=3": (lambda: make("REGULAR", 3), lambda: np.array([0.5, 0.3, 0.2]), 7),
    "REGULAR m=8": (lambda: make("REGULAR", 8), lambda: spread(8), 6),
    "ZAKHAREVICH": (lambda: make("ZAKHAREVICH"), lambda: np.array([0.3, 0.3, 0.4]), 99),
    "toward e_1 m=9": (lambda: toward_vertex(9), lambda: spread(9), 323),
}


def loops(kind):
    """The compiled loops or the numpy ones."""
    if kind == "numpy":
        return numpy_loops()
    if tensor._kernel() is None:
        pytest.skip("compiled kernel unavailable")
    return contextlib.nullcontext()


@pytest.mark.parametrize("kind", ["kernel", "numpy"])
@pytest.mark.parametrize("name", sorted(FIXED_ORBITS))
def test_walk_matches_a_plain_loop_around_the_fixed_step(kind, name):
    make_tensor, make_start, fixed_at = FIXED_ORBITS[name]
    t, x0 = make_tensor(), make_start()
    n = fixed_at
    rows, sums = plain_orbit(t, x0, n + 3000)
    assert first_fixed_step(rows) == n
    mark_sets = [
        [n], [n + 1], [n, n + 1, n + 2],              # the fixed step on a mark
        [n // 2, n + 7], [max(n - 1, 0), n + 3000],   # between two marks
        [0], [0, 1, 2, 3], [n + 1 + n // 3], [2 * n + 500],
    ]
    with loops(kind):
        for marks in mark_sets:
            marks = np.array(sorted(set(marks)), dtype=np.int64)
            got_sums = np.empty((len(marks), t.m))
            got, _ = tensor._walk(t, x0, marks, got_sums)
            assert got.tobytes() == rows[marks].tobytes(), marks
            assert got_sums.tobytes() == sums[marks].tobytes(), marks
            assert tensor._walk(t, x0, marks)[0].tobytes() == rows[marks].tobytes(), marks


@pytest.mark.parametrize("kind", ["kernel", "numpy"])
@pytest.mark.parametrize("rows", [1, 7, 50])
@pytest.mark.parametrize("m", [3, 9])
@pytest.mark.parametrize("make_tensor,n_steps", [(vertex_fixed, 30), (toward_vertex, 400)])
def test_run_batch_matches_a_plain_loop_with_fixed_rows(kind, rows, m, make_tensor, n_steps):
    t = make_tensor(m)
    xs = np.random.default_rng(rows).exponential(size=(rows, m))
    xs /= xs.sum(axis=1, keepdims=True)
    # every third row starts fixed, so that some lane pairs hold one fixed
    # row and one that moves, and an odd last row is fixed
    xs[::3] = vertex(m)
    want = plain_batch(t, xs, n_steps)
    with loops(kind):
        got = run_batch(t, xs, n_steps)
    assert got.tobytes() == want.tobytes()


# --- Newton fixed-point search ---------------------------------------------------------


def oracle_newton(t, x0, n, tol, max_iter=80):
    """One start of the Newton search for V^n(x) = x, alone: the per-start
    control flow that ``_newton`` runs for every row, with the one-row step
    ``apply_batch(t, x[None])[0]`` and ``tensor.jacobian``."""
    m = t.m

    def project(v):
        y = np.clip(v, 0.0, None)
        s = y.sum()
        if s <= 0.0:
            y, s = np.full_like(v, 1.0 / m), 1.0
        return y / s

    def compose(x, k=n):
        for _ in range(k):
            x = apply_batch(t, x[None])[0]
        return x

    def newton_step(x, r, solve):
        j = tensor.jacobian(t, x)
        for _ in range(n - 1):
            x = compose(x, 1)
            j = tensor.jacobian(t, x) @ j
        dy = solve(j[:m - 1, :m - 1] - np.eye(m - 1) - j[:m - 1, m - 1:m], -r[:m - 1])
        return dy if np.all(np.isfinite(dy)) else None

    def lstsq(a, b):
        return np.linalg.lstsq(a, b, rcond=None)[0]

    def solve_or_lstsq(a, b):
        try:
            return np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            return lstsq(a, b)

    x = project(np.asarray(x0, dtype=float))
    for _ in range(max_iter):
        r = compose(x) - x
        if np.max(np.abs(r)) < tol:
            break
        dy = newton_step(x, r, solve_or_lstsq)
        if dy is None:
            break
        size = np.max(np.abs(dy))
        if size > 0.5:
            dy *= 0.5 / size
        x = project(x + np.append(dy, -dy.sum()))
    else:
        # the search ran out: damped sweeps, then least-squares corrections
        if n == 1:
            eye = np.eye(m)
            lazy = tensor.CoefficientTensor(m, 0.5 * t.p + 0.25 * (eye[:, None, :] + eye[None]))
        for _ in range(500):
            x = apply_batch(lazy, x[None])[0] if n == 1 else project(0.5 * x + 0.5 * compose(x))
        for _ in range(6):
            r = compose(x) - x
            if np.max(np.abs(r)) < tol:
                break
            dy = newton_step(x, r, lstsq)
            if dy is None:
                break
            x = project(x + np.append(dy, -dy.sum()))
    for _ in range(2):
        r = compose(x) - x
        if np.max(np.abs(r)) == 0.0:
            break
        try:
            dy = newton_step(x, r, np.linalg.solve)
        except np.linalg.LinAlgError:
            break
        if dy is None or np.max(np.abs(dy)) > 1e-3:
            break
        x = project(x + np.append(dy, -dy.sum()))
    rmax = float(np.max(np.abs(compose(x) - x)))
    return x, rmax, rmax < max(tol * 100.0, 1e-10)


def newton_against_oracle(t, x0s, n, tol, max_iter=80):
    """``_newton`` on the stack and the oracle on each start, bit for bit;
    returns the lstsq calls of each."""
    with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq:
        xs, rmax, ok = _newton(t, x0s, n, tol, max_iter)
        rows_calls = lstsq.call_count
        for k, x0 in enumerate(x0s):
            x, r, converged = oracle_newton(t, x0, n, tol, max_iter)
            assert np.array_equal(xs[k], x) and rmax[k] == r and ok[k] == converged, k
    return rows_calls, lstsq.call_count - rows_calls


def drawn_start(draw, m):
    kind = draw(st.sampled_from(["vertex", "edge", "interior", "boundary"]))
    if kind == "vertex":
        return np.eye(m)[draw(st.integers(0, m - 1))]
    if kind == "edge":
        i, j = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        x = np.zeros(m)
        x[[i, j]] = 0.5
        return x
    x = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m)))
    if kind == "boundary":
        x[draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m - 1))] = 0.0
    return x / x.sum()


@st.composite
def newton_cases(draw):
    m = draw(st.integers(2, 12))
    t = random_tensor(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), m)
    x0s = [drawn_start(draw, m) for _ in range(draw(st.integers(1, 4)))]
    return (t, x0s, draw(st.sampled_from([1, 2, 3])), draw(st.sampled_from([1e-12, 1e-8])),
            draw(st.sampled_from([80, 80, 2, 0])))


@settings(max_examples=40, deadline=None)
@given(newton_cases())
def test_newton_rows_match_the_per_start_oracle(case):
    newton_against_oracle(*case)


def slow_blend(m, seed=0):
    """A random tensor blended into the identity map: its damped sweeps are
    too slow to converge."""
    idx = np.arange(m)
    ident = np.zeros((m, m, m))
    ident[idx, :, idx] += 0.5
    ident[:, idx, idx] += 0.5
    return tensor.CoefficientTensor(m, 3e-3 * random_tensor(np.random.default_rng(seed), m).p
                                    + (1.0 - 3e-3) * ident)


ZAK_EDGES = [np.array([0.5, 0.5, 0.0]), np.array([0.5, 0.0, 0.5]), np.array([0.0, 0.5, 0.5])]


@pytest.mark.parametrize("t,x0s,tol,max_iter,lstsq_calls", [
    # every row converges in the search
    (random_tensor(np.random.default_rng(1), 5), [np.eye(5)[2], np.eye(5)[0], np.full(5, 0.2)],
     1e-12, 80, 0),
    # the first system of ZAKHAREVICH's edge midpoints is singular: one
    # stacked solve raises, the regular rows are solved, the others go to lstsq
    (make("ZAKHAREVICH"), _default_starts(make("ZAKHAREVICH"), 10, 4), 1e-12, 80, 3),
    (make("ZAKHAREVICH"), [ZAK_EDGES[0], np.eye(3)[1], np.full(3, 1 / 3)], 1e-12, 1, 1),
    (make("REGULAR", 6), [np.array([0.5, 0.5, 0, 0, 0, 0]), np.eye(6)[3]], 1e-8, 80, 1),
    # every row singular at once
    (make("ZAKHAREVICH"), ZAK_EDGES, 1e-12, 80, 3),
    # rows that reach the damped sweeps: converged after them, or still off
    # tol and on to the least-squares corrections
    (slow_blend(3), [np.eye(3)[0], np.eye(3)[1], np.full(3, 1 / 3)], 1e-3, 1, 0),
    (slow_blend(3), [np.eye(3)[0], np.array([0.2, 0.3, 0.5])], 1e-3, 0, 1),
    (slow_blend(7, 2), [np.full(7, 1 / 7), np.eye(7)[6]], 1e-12, 2, 4),
])
def test_newton_rows_match_the_oracle_on_fixed_stacks(t, x0s, tol, max_iter, lstsq_calls):
    # least squares on exactly the systems where the oracle takes it
    assert newton_against_oracle(t, x0s, 1, tol, max_iter) == (lstsq_calls, lstsq_calls)


AC6 = make("ALPHA_COMBINATION", 6, parse_cycles("(1 2)(3 4 5)", 5), 0.5)
GSN_BETA = make("GSN_BETA", None, None, 0.5)
V5_STARTS = _default_starts(make("V5"), 100, 0)
GSN_BETA_STARTS = _default_starts(GSN_BETA, 100, 0)


@pytest.mark.parametrize("t,x0s,lstsq_calls", [
    # e_4 and e_5 are bit-fixed from the first iteration, at residual 0.5;
    # each of their systems is singular, so the oracle solves 80 by lstsq
    (AC6, [np.eye(6)[3], np.eye(6)[4], np.full(6, 1 / 6)], (2, 160)),
    (AC6, [np.array([-0.0, 0.0, 0.0, 1.0, 0.0, 0.0])], (1, 80)),
    # a vertex bit-fixed at iteration 2, and interior starts at 26 and 35
    (make("V5"), [V5_STARTS[0], V5_STARTS[35], V5_STARTS[17]], (0, 0)),
    # interior starts bit-fixed at iterations 24 and 27, beside e_1, which
    # cycles with period 3 from iteration 24
    (GSN_BETA, [GSN_BETA_STARTS[22], GSN_BETA_STARTS[9], np.eye(3)[0]], (0, 0)),
])
def test_newton_rows_that_stop_moving_match_the_oracle(t, x0s, lstsq_calls):
    # a row leaves once an iteration returns its bits, so _newton solves fewer
    # systems than the oracle; the states keep every bit, signs of zero included
    assert newton_against_oracle(t, x0s, 1, 1e-12) == lstsq_calls
    want = np.array([oracle_newton(t, x0, 1, 1e-12)[0] for x0 in x0s])
    assert _newton(t, x0s, 1, 1e-12)[0].tobytes() == want.tobytes()


def test_newton_row_that_cycles_makes_every_iteration():
    # period 3 is no bit-fixed state: e_1 of GSN_BETA(0.5) searches all 80
    # iterations, one residual each, before its damped sweeps
    with mock.patch("qsodyn.analysis.run_batch", wraps=tensor.run_batch) as spy:
        _newton(GSN_BETA, [np.eye(3)[0]], 1, 1e-12)
    steps = [c.args[2] for c in spy.call_args_list]
    assert steps.index(500) == 80 and set(steps[:80]) == {1}


def test_vertex_starts_leave_the_search_after_one_iteration():
    # counts work, not time: without the exit this search made 85 run_batch
    # calls, as e_4 and e_5 ran all 80 search iterations after the other
    # rows had stopped
    with mock.patch("qsodyn.analysis.run_batch", wraps=tensor.run_batch) as spy:
        find_fixed_points(AC6, starts=200, seed=5)
    assert spy.call_count <= 15
    first, second = (c.args[1] for c in spy.call_args_list[:2])
    fixed = [np.eye(6)[3].tobytes(), np.eye(6)[4].tobytes()]
    assert [x.tobytes() for x in first[3:5]] == fixed
    assert not {x.tobytes() for x in second} & set(fixed)


def test_singular_system_reaches_lstsq_on_the_numpy_path():
    # the first reduced system at this edge midpoint is singular
    t = make("ZAKHAREVICH")
    with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq:
        xs, resid, ok = _newton(t, ZAK_EDGES[:1], 1, 1e-12)
    assert lstsq.called
    assert np.linalg.matrix_rank(lstsq.call_args_list[0].args[0]) < t.m - 1
    assert ok.all()


def test_sweeps_run_the_lazy_operator_in_one_batch():
    # n_compose == 1: the 500 damped sweeps are one run_batch call
    t = slow_blend(3)
    with mock.patch("qsodyn.analysis.run_batch", wraps=tensor.run_batch) as spy:
        _newton(t, [np.eye(3)[0], np.eye(3)[1]], 1, 1e-3, 0)
    sweeps = [c for c in spy.call_args_list if c.args[2] == 500]
    assert len(sweeps) == 1 and len(sweeps[0].args[1]) == 2
    lazy = sweeps[0].args[0].p
    assert np.allclose(lazy.sum(axis=2), 1.0) and np.array_equal(lazy, lazy.transpose(1, 0, 2))


def test_newton_start_of_the_wrong_size_rejected_before_the_kernel():
    with mock.patch("qsodyn.analysis.run_batch") as spy, pytest.raises(errors.DimensionMismatch):
        _newton(make("KHUKR"), [np.full(4, 0.25)], 1, 1e-12)
    spy.assert_not_called()


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
