"""Stacks of single orbits and of raw products against the per-start loops
they replaced.

``run``, ``run_collect`` and ``cesaro`` take a (k, m) stack of starts in one
call of the single-orbit loop, and each row has the bits of a call of its own;
``tensor._raw`` takes a stack of points, and of tensors, with the bits of
one ``np.outer(x, x).ravel() @ flat`` per point.  ``check_lyapunov``,
``_classify_points``, the ``quasi_strict`` suite's starts and the ``core``
suite's 1000 random-operator trials run on them.  Each oracle below is the
per-start or per-trial code as it was, kept here, and every measured value
is compared by its bits.
"""

import contextlib
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsodyn import analysis, errors, tensor, verification
from qsodyn.analysis import (
    DEFAULT_BAND,
    _classify_points,
    check_lyapunov,
    cycle_product,
    cyclic_product,
    detect_period_tail,
    find_fixed_points,
    last_coord,
    omega_estimate,
    sample_interior,
)
from qsodyn.families import make, make_alpha_combination, make_quasi_strict
from qsodyn.simplex import SimplexPoint, parse_cycles
from qsodyn.tensor import CoefficientTensor, apply_raw, cesaro, random_tensor, run, run_collect
from qsodyn.verification import _interior_points, suite_core, suite_quasi_strict

PERM6 = parse_cycles("(1 2)(3 4 5)", 5)


def numpy_loops():
    return mock.patch.object(tensor, "_kernel", lambda: None)


def per_row(fn):
    """``fn`` called once per row of a (k, m) stack, as the callers did."""
    def call(t, x0, n):
        x0 = np.asarray(x0)
        return np.stack([fn(t, x, n) for x in x0]) if x0.ndim == 2 else fn(t, x0, n)
    return call


def measured(results) -> dict[str, str]:
    """Each check's measured values, with every float by its repr (its bits)."""
    return {r.name: repr(r.measured) for r in results}


# --- run and run_collect on stacks ------------------------------------------------


@st.composite
def stack_cases(draw):
    """1 to 17 starts: drawn interior points, and starts that settle early on
    a tensor whose (1, 1) row is e_1 (e_1, e_1 with -0.0 zeros, all zeros)."""
    m = draw(st.one_of(st.integers(2, 10), st.sampled_from([16, 17, 33, 64])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = random_tensor(rng, m).p.copy()
    p[0, 0] = np.eye(m)[0]
    e1 = np.eye(m)[0]
    kinds = [sample_interior(rng, m)[0], e1, np.where(e1, 1.0, -0.0), np.zeros(m)]
    rows = draw(st.lists(st.sampled_from(range(4)), min_size=1, max_size=17))
    return CoefficientTensor(m, p), np.array([kinds[k] for k in rows]), draw(st.integers(0, 60))


@settings(max_examples=40, deadline=None)
@given(stack_cases(), st.booleans())
def test_a_stack_has_the_bits_of_one_call_per_row(case, numpy_loop):
    t, xs, n = case
    with numpy_loops() if numpy_loop else contextlib.nullcontext(), np.errstate(invalid="ignore"):
        for fn in (run, run_collect):
            got = fn(t, xs, n)
            want = np.stack([fn(t, x, n) for x in xs])
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if n:  # checkpoints are strictly increasing: n = 1 is one checkpoint
            got = cesaro(t, xs, sorted({1, n}))
            want = [np.stack(a) for a in zip(*(cesaro(t, x, sorted({1, n})) for x in xs))]
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_a_stack_of_starts_is_one_kernel_call():
    kernel = tensor._kernel()
    if kernel is None:
        pytest.skip("compiled kernel unavailable (no C compiler or BLAS symbol)")
    t = make("REGULAR", 5)
    xs = _interior_points(0, 5, 7)
    spy = mock.Mock(wraps=kernel)
    with mock.patch.object(tensor, "_kernel", lambda: spy):
        assert run(t, xs, 9).shape == (7, 5) and run_collect(t, xs, 9).shape == (7, 10, 5)
    assert spy.orbit.call_count == 2


def test_a_stack_takes_any_layout():
    t = make("REGULAR", 4)
    xs = _interior_points(1, 4, 6)
    want = run_collect(t, xs, 20)
    for given in (np.asfortranarray(xs), np.repeat(xs, 2, axis=0)[::2], xs.tolist()):
        assert run_collect(t, given, 20).tobytes() == want.tobytes()
    assert run_collect(t, xs[:0], 20).shape == (0, 21, 4)


@pytest.mark.parametrize("shape", [(), (4, 2), (3, 4, 4), (0,)])
def test_a_start_of_another_shape_is_refused(shape):
    with pytest.raises(errors.DimensionMismatch, match="point has shape"):
        run(make("REGULAR", 4), np.full(shape, 0.25), 3)


# --- the raw product ----------------------------------------------------------------


@pytest.mark.parametrize("m", range(2, 10))
def test_raw_product_of_a_stack_is_one_dgemv_per_point(m):
    rng = np.random.default_rng(m)
    tensors = [random_tensor(rng, m) for _ in range(300)]
    xs = rng.standard_normal((300, m))
    flats = np.array([u._flat for u in tensors])
    want = np.array([np.outer(x, x).ravel() @ u._flat for x, u in zip(xs, tensors)])
    assert tensor._raw(flats, xs).tobytes() == want.tobytes()
    shared = np.array([np.outer(x, x).ravel() @ tensors[0]._flat for x in xs])
    assert tensor._raw(tensors[0]._flat, xs).tobytes() == shared.tobytes()
    assert apply_raw(tensors[0], xs[0]).tobytes() == shared[0].tobytes()


# --- check_lyapunov and _classify_points --------------------------------------------


@pytest.mark.parametrize("t,fn,samples,horizon", [
    (make_quasi_strict(6, PERM6), cycle_product(PERM6, 1), 100, 100),
    (make("REGULAR", 6), cyclic_product(), 300, 30),
    (make_alpha_combination(4, parse_cycles("(1 2 3)", 3), 0.3), last_coord(), 100, 100),
    # blocks of 65536 // 4097 = 15 samples, the last one partial
    (make("REGULAR", 3), cyclic_product(), 40, 4096),
])
@pytest.mark.parametrize("seed", [0, 17])
def test_check_lyapunov_matches_one_run_collect_per_sample(t, fn, samples, horizon, seed):
    got = check_lyapunov(t, fn, samples, horizon, seed)
    with mock.patch.object(analysis, "run_collect", per_row(tensor.run_collect)):
        want = check_lyapunov(t, fn, samples, horizon, seed)
    assert repr(got) == repr(want)


def old_residuals(t, points):
    """``_classify_points``' residuals as it measured them, one run per point."""
    return [float(np.max(np.abs(run(t, x.array, 1) - x.array))) for x in points]


@pytest.mark.parametrize("family,m", [("REGULAR", 5), ("V5", None), ("GSN_BETA", None),
                                      ("ZAKHAREVICH", None)])
def test_classify_points_measures_each_residual_as_one_run(family, m):
    t = make(family, m, None, 0.5 if family == "GSN_BETA" else None)
    reports = find_fixed_points(t, starts=30, seed=2)
    points = [r.point for r in reports]
    assert points and [r.residual for r in reports] == old_residuals(t, points)
    got = _classify_points(t, points, DEFAULT_BAND)
    assert repr(got) == repr([analysis.classify_fixed_point(t, x) for x in points])


def test_classify_points_raises_for_its_first_point_that_is_not_fixed():
    t = make("REGULAR", 3)
    fixed = SimplexPoint((1 / 3, 1 / 3, 1 / 3))
    near, far = SimplexPoint((0.4, 0.3, 0.3)), SimplexPoint((0.9, 0.05, 0.05))
    for points in ([fixed, near, far], [far, fixed, near]):
        first = next(r for r in old_residuals(t, points) if r >= 1e-8)
        with pytest.raises(errors.NotAFixedPoint, match=f"residual {first!r} >="):
            _classify_points(t, points, DEFAULT_BAND)


# --- the quasi_strict suite's starts ---------------------------------------------------


def old_orbit_cycle_structure(t, perm, omega):
    pts = [p.array for p in omega.cluster_points]
    perm_ok = True
    succ = []
    for x in pts:
        y = run(t, x, 1)
        dists = [float(np.max(np.abs(y - z))) for z in pts]
        j = int(np.argmin(dists))
        if dists[j] > 1e-8:
            return False, False
        succ.append(j)
        expected = np.array([x[perm.images[k] - 1] for k in range(perm.n)] + [x[-1]])
        if float(np.max(np.abs(y - expected))) > 1e-8:
            perm_ok = False
    visited = {0}
    j = succ[0]
    while j not in visited:
        visited.add(j)
        j = succ[j]
    return len(visited) == len(pts), perm_ok


def old_quasi_strict_starts(seed):
    """The measured values of the three checks of quasi_strict's 20 starts and
    of its 50 segment starts, by the per-start loops."""
    t6 = make_quasi_strict(6, PERM6)
    starts = _interior_points(seed + 21, 6, 20)
    worst_half = 0.0
    periods, cluster_counts, cycle_ok, permuted_ok = set(), set(), True, True
    for i in range(20):
        orbit = run_collect(t6, starts[i], 400)
        worst_half = max(worst_half, float(np.max(np.abs(orbit[200:, -1] - 0.5))))
        periods.add(detect_period_tail(orbit[-24:], 12))
        omega = omega_estimate(t6, SimplexPoint(tuple(starts[i].tolist())),
                               burn_in=500, window=60, cluster_tol=1e-6, s_max=20)
        cluster_counts.add(len(omega.cluster_points))
        cyc, permuted = old_orbit_cycle_structure(t6, PERM6, omega)
        cycle_ok = cycle_ok and cyc
        permuted_ok = permuted_ok and permuted
    perm4 = parse_cycles("(1 2 3)", 3)
    t4 = make_quasi_strict(4, perm4)
    rng = np.random.default_rng(seed + 31)
    worst = 0.0
    for _ in range(50):
        head = rng.exponential(size=3)
        head = 0.5 * head / head.sum()
        x = np.append(head, 0.5)
        xs = run_collect(t4, x, perm4.order)[-1]
        worst = max(worst, float(np.max(np.abs(xs - x))))
    return {
        "quasi_strict.last_coordinate_half_after_200": {"worst_dev": worst_half, "tol": 1e-10},
        "quasi_strict.limit_orbit_period_6":
            {"periods": ",".join(str(p) for p in sorted(periods, key=str))},
        "quasi_strict.limit_orbit_cyclic_structure":
            {"clusters": ",".join(str(c) for c in sorted(cluster_counts)),
             "single_cycle": cycle_ok, "coordinates_permuted": permuted_ok},
        "quasi_strict.period_s_segment_exact_m4":
            {"worst_residual": worst, "s": perm4.order, "tol": 1e-12},
    }


@pytest.mark.parametrize("seed", [0, 7, 1701])
def test_quasi_strict_starts_match_the_per_start_loops(seed):
    got = measured(suite_quasi_strict(seed))
    for name, values in old_quasi_strict_starts(seed).items():
        assert got[name] == repr(values), name


def omega_with(points):
    return SimpleNamespace(cluster_points=tuple(SimplexPoint(tuple(x)) for x in points))


def test_orbit_cycle_structure_matches_the_per_point_loop():
    t6 = make_quasi_strict(6, PERM6)
    swapped = parse_cycles("(1 3)(2 4 5)", 5)
    cases = 0
    for x in _interior_points(3, 6, 5):
        omega = omega_estimate(t6, SimplexPoint(tuple(x.tolist())), burn_in=500, window=60,
                               cluster_tol=1e-6, s_max=20)
        pts = [p.array.tolist() for p in omega.cluster_points]
        # one cluster short, so that an image is nowhere; clusters in another
        # order; the same clusters read under another permutation
        for perm, variant in ((PERM6, pts), (PERM6, pts[:-1]), (PERM6, pts[::-1]),
                              (swapped, pts)):
            want = old_orbit_cycle_structure(t6, perm, omega_with(variant))
            assert verification._orbit_cycle_structure(t6, perm, omega_with(variant)) == want
            cases += want == (True, True)
    assert 0 < cases < 20


# --- the core suite's random operators ---------------------------------------------------


def old_raw_sum_defect(seed):
    rng = np.random.default_rng(seed + 81)
    worst = 0.0
    for trial in range(1000):
        m = 2 + trial % 5
        t = random_tensor(rng, m)
        x = sample_interior(rng, m, 1)[0]
        y = apply_raw(t, x)
        worst = max(worst, abs(float(y.sum()) - 1.0), -float(np.min(y)))
    return worst


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31))
def test_core_trials_match_the_per_trial_loop(seed):
    got = measured(suite_core(seed))["core.simplex_preserved_raw_sum"]
    assert got == repr({"max_defect": old_raw_sum_defect(seed)})


def old_random_coefficients(rows):
    """``random_tensor``'s coefficients from its (m(m+1)/2, m) draw, as it made them."""
    m = rows.shape[1]
    rows = rows / rows.sum(axis=1, keepdims=True)
    rows /= np.array([math.fsum(row) for row in rows.tolist()])[:, None]
    upper = np.arange(m) >= np.arange(m)[:, None]
    p = np.zeros((m, m, m))
    p[upper] = rows
    p.transpose(1, 0, 2)[upper] = rows
    return p


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 9), st.integers(1, 4))
def test_dirichlet_fill_of_a_stack_is_random_tensor_per_row(seed, m, n):
    rows = np.random.default_rng(seed).exponential(size=(n, m * (m + 1) // 2, m))
    want = np.array([old_random_coefficients(r) for r in rows])
    assert tensor._dirichlet(rows).tobytes() == want.tobytes()
    rng = np.random.default_rng(seed)
    assert np.array([random_tensor(rng, m).p for _ in range(n)]).tobytes() == want.tobytes()


def test_validity_over_a_stack_names_the_first_fault():
    good = make("REGULAR", 4).p
    bad = good.copy()
    bad[1, 2, 3] = bad[2, 1, 3] = -0.5
    tensor._validate(np.array([good, good]))
    with pytest.raises(errors.NegativeCoefficient, match=r"^p\[2,3,4\] = -0.5 is negative$"):
        tensor._validate(np.array([good, bad, good]))
    bad = good.copy()
    bad[3, 3] *= 1 + 2.0**-30
    with pytest.raises(errors.RowSumNotOne, match=r"^row \(i=4, j=4\) sums to "):
        tensor._validate(np.array([good, bad]))
