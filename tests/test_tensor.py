import io
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsodyn import errors, tensor
from qsodyn.families import make, make_quasi_strict, make_regular, make_s2
from qsodyn.simplex import center, parse_cycles, validate_point, vertex
from qsodyn.tensor import (
    CoefficientTensor,
    apply_raw,
    build_tensor,
    cesaro,
    convex_combine,
    iterate,
    jacobian,
    load_tensor,
    random_tensor,
    run,
    run_batch,
    run_collect,
    save_tensor,
)

ZAKHAREVICH_ENTRIES = {
    (1, 1, 1): 1.0, (1, 2, 1): 1.0, (2, 2, 2): 1.0,
    (2, 3, 2): 1.0, (3, 3, 3): 1.0, (1, 3, 3): 1.0,
}


def test_build_minimal_valid():
    t = build_tensor(2, {(1, 1, 1): 1.0, (1, 2, 1): 0.5, (1, 2, 2): 0.5, (2, 2, 2): 1.0})
    assert t.entry(2, 1, 1) == 0.5  # symmetrized


def test_build_row_sum_error_names_pair():
    with pytest.raises(errors.RowSumNotOne, match=r"i=1, j=1"):
        build_tensor(2, {(1, 1, 1): 0.5, (1, 2, 1): 1.0, (2, 2, 2): 1.0})


def test_build_rejects_negative():
    with pytest.raises(errors.NegativeCoefficient):
        build_tensor(2, {(1, 1, 1): -0.1})


def test_build_rejects_non_finite():
    with pytest.raises(errors.NegativeCoefficient):
        build_tensor(2, {(1, 1, 1): float("nan"), (1, 2, 1): 1.0, (2, 2, 2): 1.0})


def test_build_rejects_lower_triangle_input():
    with pytest.raises(errors.AsymmetricInput):
        build_tensor(2, {(2, 1, 1): 1.0})


def faulty_coefficients(*faults):
    """A uniform m=4 coefficient array with the named faults; entries are
    dyadic, so every unfaulted row sums to exactly 1."""
    p = np.full((4, 4, 4), 0.25)
    if "non-finite" in faults:
        p[3, 2, 1] = p[2, 3, 1] = np.nan
    if "asymmetric" in faults:
        p[0, 3, 2] += 2.0**-40
    if "negative" in faults:
        # two equal minima: the first in C order is named
        p[1, 2, 3] = p[2, 1, 3] = -0.5
        p[3, 0, 0] = p[0, 3, 0] = -0.5
    if "row sum" in faults:
        # two bad rows: the first in C order is named
        p[3, 3, 0] += 2.0**-30
        p[1, 3, 1] = p[3, 1, 1] = 0.25 - 2.0**-30
    return p


# Each failure as validate() reported it before it was vectorized, pinned (a
# value is named by its float repr); each array also has every fault that
# validate() checks later.  Construction runs validate(): no call is made.
@pytest.mark.parametrize("faults,error,message", [
    (("non-finite", "asymmetric", "negative", "row sum"), errors.NegativeCoefficient,
     "non-finite coefficient in tensor"),
    (("asymmetric", "negative", "row sum"), errors.AsymmetricInput,
     "p[i,j,k] != p[j,i,k] somewhere"),
    (("negative", "row sum"), errors.NegativeCoefficient,
     "p[1,4,1] = -0.5 is negative"),
    (("row sum",), errors.RowSumNotOne,
     f"row (i=2, j=4) sums to {1 - 2.0**-30!r}, expected 1"),
])
def test_validate_reports_the_first_fault(faults, error, message):
    with pytest.raises(error) as info:
        CoefficientTensor(4, faulty_coefficients(*faults))
    assert type(info.value) is error and str(info.value) == message


def test_a_tensor_owns_a_read_only_c_float64_copy():
    given = make_regular(4).p.copy()
    t = CoefficientTensor(4, given)
    assert given.flags.writeable
    assert t.p.dtype == np.float64 and t.p.flags.c_contiguous and not t.p.flags.writeable
    given[0, 0, 0] = 0.5
    assert t.p[0, 0, 0] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        t.p[0, 0, 0] = 0.5


@pytest.fixture(scope="module")
def kernel():
    k = tensor._kernel()
    if k is None:
        pytest.skip("compiled kernel unavailable (no C compiler or BLAS symbol)")
    return k


# each array holds the catalog tensor's coefficients exactly
@pytest.mark.parametrize("t,layout", [
    (make_regular(5), np.asfortranarray),
    (make_regular(4), lambda p: p.astype(np.float32)),
    (make_quasi_strict(4, parse_cycles("(1 2 3)", 3)), lambda p: p.astype(np.int64)),
    (make_s2("ZAKHAREVICH"), lambda p: p.astype(np.int64)),
], ids=["fortran", "float32", "int64", "int64-planar"])
def test_any_layout_of_the_coefficients_runs_the_compiled_loops(kernel, t, layout):
    given = layout(t.p)
    assert np.array_equal(given.astype(np.float64), t.p)
    u = CoefficientTensor(t.m, given)
    x0 = np.linspace(1.0, 2.0, t.m) / np.linspace(1.0, 2.0, t.m).sum()
    xs = np.random.default_rng(t.m).exponential(size=(9, t.m))
    xs /= xs.sum(axis=1, keepdims=True)
    spy = mock.Mock(wraps=kernel)
    with mock.patch.object(tensor, "_kernel", lambda: spy):
        got = (run(u, x0, 50), run_batch(u, xs, 50), *cesaro(u, x0, [1, 10, 500]))
    assert spy.batch.call_count == 1 and spy.orbit.call_count == 2
    want = (run(t, x0, 50), run_batch(t, xs, 50), *cesaro(t, x0, [1, 10, 500]))
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


def test_a_tensor_compares_and_hashes_by_identity():
    t = make_regular(3)
    assert t == t
    assert (t == CoefficientTensor(t.m, t.p)) is False
    assert (make_regular(3) == make_regular(3)) is False
    assert {t, t} == {t} and hash(t) == hash(t)


@pytest.mark.parametrize("dtype", [complex, object, str])
def test_coefficients_that_are_not_real_numbers_are_refused(dtype):
    with pytest.raises(errors.QsoError, match="bool, integer or float") as info:
        CoefficientTensor(3, make_s2("ZAKHAREVICH").p.astype(dtype))
    assert type(info.value) is errors.QsoError


@pytest.mark.parametrize("m", [-1, 0, 1, 2.0, 3.5, "3", True, np.float64(3.0)])
def test_random_tensor_rejects_a_bad_m_before_drawing(m):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(errors.DimensionMismatch, match="must be an integer >= 2"):
        random_tensor(rng, m)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("m", [np.int64(5), np.int32(5)], ids=["int64", "int32"])
def test_a_numpy_integer_m_is_the_equal_int(m):
    want = random_tensor(np.random.default_rng(0), 5)
    drawn = random_tensor(np.random.default_rng(0), m)
    made = make("REGULAR", m=m)
    for t in (drawn, CoefficientTensor(m, want.p), made):
        assert type(t.m) is int and t.m == 5
    assert np.array_equal(drawn.p, want.p)
    assert made.name == "REGULAR(m=5)" and np.array_equal(made.p, make("REGULAR", 5).p)


@pytest.mark.parametrize("m", [np.float64(3.0), 3.0, 1, -1, 1.5, True],
                         ids=["float64", "float", "one", "negative", "fraction", "bool"])
def test_a_bad_m_is_refused_by_every_builder(m):
    with pytest.raises(errors.DimensionMismatch, match="must be an integer >= 2"):
        CoefficientTensor(m, np.ones((3, 3, 3)))
    with pytest.raises(errors.DimensionMismatch, match="must be an integer >= 2"):
        build_tensor(m, {})
    with pytest.raises(errors.DimensionMismatch, match="must be an integer >= 2"):
        make("REGULAR", m=m)


def test_zakharevich_entries_valid():
    t = build_tensor(3, ZAKHAREVICH_ENTRIES)
    assert np.array_equal(t.p, make_s2("ZAKHAREVICH").p)


def test_apply_center_fixed_for_regular():
    t = make_regular(4)
    c = center(4)
    assert np.max(np.abs(run(t, c.array, 1) - c.array)) < 1e-15


def test_apply_zakharevich_hand_value():
    y = run(make_s2("ZAKHAREVICH"), validate_point([0.5, 0.5, 0.0]).array, 1)
    assert tuple(y) == pytest.approx((0.75, 0.25, 0.0), abs=1e-15)


def test_apply_vertex_returns_diagonal_row():
    rng = np.random.default_rng(0)
    t = random_tensor(rng, 4)
    for i in range(1, 5):
        y = run(t, vertex(4, i).array, 1)
        row = t.p[i - 1, i - 1]
        assert np.max(np.abs(y - row / row.sum())) < 1e-15


def test_apply_dimension_mismatch():
    with pytest.raises(errors.DimensionMismatch):
        run(make_regular(4), center(3).array, 1)


def test_convex_combine_endpoints_exact():
    a, b = make_s2("V1"), make_s2("V0")
    assert np.array_equal(convex_combine(a, b, 1.0).p, a.p)
    assert np.array_equal(convex_combine(a, b, 0.0).p, b.p)


def test_convex_combine_weight_range():
    with pytest.raises(errors.WeightOutOfRange):
        convex_combine(make_s2("V1"), make_s2("V0"), 1.5)


@pytest.mark.parametrize("w", [-0.1, float("nan"), "0.5", None, True, False])
def test_convex_combine_refuses_a_weight_outside_the_unit_interval(w):
    with pytest.raises(errors.WeightOutOfRange, match=r"weight must be a number in \[0, 1\]"):
        convex_combine(make_s2("V1"), make_s2("V0"), w)


def test_convex_combine_half_matches_hand_built_blend():
    # (V1 + V0) / 2 entrywise: each pair row averages the two assignments
    blend = convex_combine(make_s2("V1"), make_s2("V0"), 0.5)
    hand = build_tensor(3, {
        (1, 1, 1): 1.0,
        (2, 2, 2): 1.0,
        (3, 3, 3): 1.0,
        (1, 2, 1): 0.5, (1, 2, 3): 0.5,
        (1, 3, 2): 1.0,
        (2, 3, 1): 0.5, (2, 3, 3): 0.5,
    })
    assert np.max(np.abs(blend.p - hand.p)) < 1e-15


@given(st.integers(2, 6), st.integers(0, 10**6), st.floats(0.0, 1.0))
@settings(max_examples=60)
def test_combination_linearity_in_application(m, salt, w):
    rng = np.random.default_rng(salt)
    t1, t2 = random_tensor(rng, m), random_tensor(rng, m)
    x = rng.exponential(size=m)
    x /= x.sum()
    mixed = apply_raw(convex_combine(t1, t2, w), x)
    direct = w * apply_raw(t1, x) + (1 - w) * apply_raw(t2, x)
    assert np.max(np.abs(mixed - direct)) < 1e-12


@given(st.integers(2, 6), st.integers(0, 10**6))
@settings(max_examples=100)
def test_apply_preserves_simplex_before_renormalization(m, salt):
    rng = np.random.default_rng(salt)
    t = random_tensor(rng, m)
    x = rng.exponential(size=m)
    x /= x.sum()
    y = apply_raw(t, x)
    assert np.min(y) >= 0.0
    assert abs(float(y.sum()) - 1.0) < 1e-12


def test_jacobian_at_center_regular_m4():
    t = make_regular(4)
    j = jacobian(t, center(4))
    assert np.max(np.abs(j - 0.5)) < 1e-15
    eigs = sorted(np.linalg.eigvals(j).real)
    assert eigs == pytest.approx([0.0, 0.0, 0.0, 2.0], abs=1e-12)


@given(st.integers(2, 6), st.integers(0, 10**6))
@settings(max_examples=60)
def test_jacobian_column_sums_are_two(m, salt):
    rng = np.random.default_rng(salt)
    t = random_tensor(rng, m)
    x = rng.exponential(size=m)
    x /= x.sum()
    assert np.max(np.abs(jacobian(t, x).sum(axis=0) - 2.0)) < 1e-12


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(42)
    h = 1e-6
    for trial in range(20):
        m = 2 + trial % 5
        t = random_tensor(rng, m)
        x = rng.exponential(size=m)
        x /= x.sum()
        j = jacobian(t, x)
        for col in range(m):
            e = np.zeros(m)
            e[col] = h
            fd = (apply_raw(t, x + e) - apply_raw(t, x - e)) / (2 * h)
            assert np.max(np.abs(j[:, col] - fd)) < 1e-6


@pytest.mark.parametrize("m", [*range(2, 17), 24, 33, 64])
def test_stacked_jacobian_is_each_point_jacobian_bit_for_bit(m):
    rng = np.random.default_rng(m)
    for _ in range(10):
        t = random_tensor(rng, m)
        xs = rng.exponential(size=(6, m))
        xs /= xs.sum(axis=1, keepdims=True)
        xs[1, 0] = 0.0
        xs[2, -1] = -0.0
        xs[3, ::2] = -0.0
        xs[4, 1::2] = 0.0
        stacked = jacobian(t, xs)
        assert stacked.shape == (6, m, m)
        for x, j in zip(xs, stacked):
            assert jacobian(t, x).tobytes() == j.tobytes()
        assert jacobian(t, xs.reshape(2, 3, m)).tobytes() == stacked.tobytes()


@pytest.mark.parametrize("shape", [(), (4,), (2,), (3, 4), (3, 1), (3, 3, 1)])
def test_jacobian_refuses_a_wrong_last_axis(shape):
    with pytest.raises(errors.DimensionMismatch, match="tensor has m=3"):
        jacobian(make_regular(3), np.full(shape, 0.25))


@pytest.mark.parametrize("m", [3, 6])
def test_apply_raw_of_a_simplex_point_is_the_call_on_its_array(m):
    t, x = random_tensor(np.random.default_rng(m), m), center(m)
    assert apply_raw(t, x).tobytes() == apply_raw(t, x.array).tobytes()


@pytest.mark.parametrize("shape", [(), (4,), (2,), (3, 4), (3, 1), (0,)])
def test_apply_raw_refuses_a_point_as_jacobian_does(shape):
    # one rule and one message for both, a 0-d input included
    for fn in (apply_raw, jacobian):
        with pytest.raises(errors.DimensionMismatch,
                           match=re.escape(f"point has shape {shape}, tensor has m=3")):
            fn(make_regular(3), np.full(shape, 0.25))


def orbit_calls(t):
    """The calls of ``_walk`` on a point or a stack of them."""
    return (lambda x: run(t, x, 5), lambda x: run_collect(t, x, 5),
            lambda x: cesaro(t, x, [1, 4]))


@pytest.mark.parametrize("m", [3, 6])
def test_the_orbit_calls_of_a_simplex_point_are_the_calls_on_its_array(m):
    rng = np.random.default_rng(m)
    t, x = random_tensor(rng, m), rng.exponential(size=m)
    x = validate_point(x / x.sum())
    for call in orbit_calls(t):
        assert np.asarray(call(x)).tobytes() == np.asarray(call(x.array)).tobytes()


@pytest.mark.parametrize("shape", [(), (4,), (2,), (3, 4), (3, 1), (0,), (2, 2, 3)])
def test_the_orbit_calls_refuse_a_point_as_apply_raw_does(shape):
    # apply_raw's rule and message, and at most one axis of starts
    for call in orbit_calls(make_regular(3)):
        with pytest.raises(errors.DimensionMismatch,
                           match=re.escape(f"point has shape {shape}, tensor has m=3")):
            call(np.full(shape, 0.25))


def test_iterate_zero_steps():
    t = make_regular(3)
    traj = iterate(t, center(3), 0)
    assert traj.steps.tolist() == [0]
    assert traj.final.coords == center(3).coords


def test_iterate_converges_to_center():
    t = make_regular(5)
    traj = iterate(t, validate_point([0.4, 0.3, 0.2, 0.05, 0.05]), 200, stride=50)
    assert traj.steps.tolist() == [0, 50, 100, 150, 200]
    assert np.max(np.abs(traj.final.array - center(5).array)) < 1e-8


def test_iterate_period_two_alternation():
    t = make_quasi_strict(3, parse_cycles("(1 2)", 2))
    traj = iterate(t, validate_point([0.3, 0.2, 0.5]), 2)
    pts = [p.coords for _, p in traj.points]
    assert pts[1] == pytest.approx((0.2, 0.3, 0.5), abs=1e-15)
    assert pts[2] == pytest.approx((0.3, 0.2, 0.5), abs=1e-15)


def test_iterate_stride_records_final():
    t = make_regular(3)
    traj = iterate(t, center(3), 7, stride=3)
    assert traj.steps.tolist() == [0, 3, 6, 7]


@pytest.mark.parametrize("n_steps,stride", [(1, 10**15), (1, 10**16), (0, 10**20), (7, 8),
                                            (7, 2**63)])
def test_iterate_at_a_stride_past_the_last_step_records_step_0_and_the_last(n_steps, stride):
    # numpy sizes an arange in floating point: 1 + 10**16 rounds to 10**16
    traj = iterate(make_regular(3), center(3), n_steps, stride)
    assert traj.steps.tolist() == sorted({0, n_steps}) and traj.stride == stride


def test_cesaro_constant_at_fixed_point():
    t = make_regular(4)
    means, _ = cesaro(t, center(4).array, [1, 10, 100])
    for mu in means:
        assert np.max(np.abs(mu - center(4).array)) < 1e-14


def test_cesaro_period_two_average():
    t = make_quasi_strict(3, parse_cycles("(1 2)", 2))
    means, _ = cesaro(t, validate_point([0.3, 0.2, 0.5]).array, [2, 10, 1000])
    for mu in means.tolist():
        assert tuple(mu) == pytest.approx((0.25, 0.25, 0.5), abs=1e-12)


def test_cesaro_requires_increasing_checkpoints():
    with pytest.raises(errors.DimensionMismatch):
        cesaro(make_regular(3), center(3).array, [10, 10])


def test_tensor_text_round_trip():
    t = make_quasi_strict(4, parse_cycles("(1 2 3)", 3))
    buf = io.StringIO()
    save_tensor(t, buf)
    buf.seek(0)
    t2 = load_tensor(buf)
    assert t2.m == 4
    assert np.array_equal(t.p, t2.p)


def test_tensor_text_comments_and_errors():
    text = "# comment\nm 2\n1 1 1 1.0\n1 2 1 0.5\n1 2 2 0.5\n2 2 2 1.0\n"
    t = load_tensor(io.StringIO(text))
    assert t.m == 2
    with pytest.raises(errors.MalformedSyntax):
        load_tensor(io.StringIO("1 1 1 1.0\n"))


def test_an_entry_given_twice_is_refused():
    # a second 1 1 1 line would replace the first without a word
    text = "m 2\n1 1 1 0.5\n1 1 1 1.0\n1 2 1 0.5\n1 2 2 0.5\n2 2 2 1.0\n"
    with pytest.raises(errors.MalformedSyntax, match=r"^entry \(1,1,1\) is given twice$"):
        load_tensor(io.StringIO(text))


@pytest.mark.parametrize("text,error", [
    ("m abc\n", errors.MalformedSyntax),
    ("m 3.0\n", errors.MalformedSyntax),
    ("m 3\n1 1 x 1\n", errors.MalformedSyntax),
    ("m 3\n1 1 1 one\n", errors.MalformedSyntax),
    ("m 3\n1 1 1\n", errors.MalformedSyntax),
    ("m -2\n", errors.DimensionMismatch),
    ("m 1\n1 1 1 1.0\n", errors.DimensionMismatch),
    ("m 0\n", errors.DimensionMismatch),
])
def test_tensor_text_rejects_unparsable_fields_and_small_m(text, error):
    with pytest.raises(error, match="line"):
        load_tensor(io.StringIO(text))
