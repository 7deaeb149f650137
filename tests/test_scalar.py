import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsodyn import errors
from qsodyn.scalarmaps import (
    ScalarMapSpec,
    conjugacy_defect,
    conjugacy_h,
    eval_map,
    f,
    f_alpha,
    iterate_scalar,
    logistic2,
    low_period_scan,
    scalar_fixed_point,
)

F = ScalarMapSpec("F")


def test_f_values():
    assert eval_map(F, 0.5) == 0.5
    assert eval_map(F, 0.0) == 1.0
    assert eval_map(F, 1.0) == 1.0


def test_f_alpha_at_zero_weight_is_f():
    spec = ScalarMapSpec("F_ALPHA", m=5, alpha=0.0)
    grid = np.linspace(0, 1, 1000)
    assert np.max(np.abs(eval_map(spec, grid) - f(grid))) < 1e-15


def test_domain_violation():
    with pytest.raises(errors.DomainViolation):
        eval_map(F, 1.5)
    with pytest.raises(errors.DomainViolation):
        eval_map(F, -0.1)


def test_spec_validation():
    with pytest.raises(errors.MissingParameter):
        ScalarMapSpec("F_ALPHA", m=4)
    with pytest.raises(errors.WeightOutOfRange):
        ScalarMapSpec("F_ALPHA", m=4, alpha=1.5)
    with pytest.raises(errors.DomainViolation):
        ScalarMapSpec("G")


@pytest.mark.parametrize("m,alpha,error", [
    (3.5, 0.5, errors.DimensionTooSmall),
    (4.0, 0.5, errors.DimensionTooSmall),
    ("4", 0.5, errors.DimensionTooSmall),
    (2, 0.5, errors.DimensionTooSmall),
    (4, "0.5", errors.WeightOutOfRange),
    (4, float("nan"), errors.WeightOutOfRange),
    (4, float("inf"), errors.WeightOutOfRange),
    (4, -0.25, errors.WeightOutOfRange),
    (4, True, errors.WeightOutOfRange),
])
def test_f_alpha_parameters_checked_in_one_place(m, alpha, error):
    with pytest.raises(error):
        ScalarMapSpec("F_ALPHA", m=m, alpha=alpha)
    with pytest.raises(error):
        scalar_fixed_point(m, alpha)


def test_numpy_integer_m_accepted():
    spec = ScalarMapSpec("F_ALPHA", m=np.int64(4), alpha=np.float64(0.5))
    assert eval_map(spec, 0.3) == eval_map(ScalarMapSpec("F_ALPHA", m=4, alpha=0.5), 0.3)
    assert scalar_fixed_point(np.int64(4), 0.5) == scalar_fixed_point(4, 0.5)


@given(st.floats(0.0, 1.0))
@settings(max_examples=200)
def test_f_image_sits_above_half(x):
    assert f(x) >= 0.5 - 1e-15
    assert f(x) <= 1.0 + 1e-15


def test_iterate_zero_is_identity():
    assert iterate_scalar(F, 0.37, 0) == 0.37


def test_iterate_f_converges_to_half():
    assert iterate_scalar(F, 0.9, 100) == pytest.approx(0.5, abs=1e-12)


def test_iterate_f_alpha_converges_to_closed_form():
    spec = ScalarMapSpec("F_ALPHA", m=3, alpha=0.5)
    assert iterate_scalar(spec, 0.3, 200) == pytest.approx(3 / 7, abs=1e-12)


def test_fixed_point_closed_form_values():
    assert scalar_fixed_point(4, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert scalar_fixed_point(7, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert scalar_fixed_point(5, 1.0) == pytest.approx(0.2, abs=1e-15)
    assert scalar_fixed_point(3, 0.5) == pytest.approx(3 / 7, abs=1e-15)


@given(st.integers(3, 9), st.floats(0.0, 1.0))
@settings(max_examples=100)
def test_fixed_point_is_fixed(m, alpha):
    xs = scalar_fixed_point(m, alpha)
    assert abs(f_alpha(xs, m, alpha) - xs) < 1e-14


@given(st.integers(3, 9), st.floats(0.001, 1.0))
@settings(max_examples=60)
def test_fixed_point_is_attracting(m, alpha):
    xs = scalar_fixed_point(m, alpha)
    h = 1e-6
    deriv = (f_alpha(xs + h, m, alpha) - f_alpha(xs - h, m, alpha)) / (2 * h)
    assert abs(deriv) < 1.0


def test_conjugacy_identity_on_grid():
    grid = np.linspace(0, 1, 1000)
    for m in (3, 5, 8):
        for alpha in (0.1, 0.5, 0.9):
            spec = ScalarMapSpec("F_ALPHA", m=m, alpha=alpha)
            lhs = conjugacy_h(m, alpha, eval_map(spec, grid))
            rhs = logistic2(conjugacy_h(m, alpha, grid))
            assert np.max(np.abs(lhs - rhs)) < 1e-12, (m, alpha)
            assert conjugacy_defect(m, alpha) == np.max(np.abs(lhs - rhs))


def test_conjugacy_sends_fixed_point_to_half():
    for m in (3, 5, 8):
        for alpha in (0.1, 0.5, 0.9):
            assert conjugacy_h(m, alpha, scalar_fixed_point(m, alpha)) == \
                pytest.approx(0.5, abs=1e-12)


def test_scan_period_one_finds_both_fixed_points():
    roots = low_period_scan(F, 1, grid=10_000)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(0.5, abs=1e-8)
    assert roots[1] == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_scan_finds_no_genuine_cycles(n):
    # after one step every orbit is in [1/2, 1] where the map is increasing,
    # so the only periodic points of any period are the two fixed points
    roots = low_period_scan(F, n, grid=100_000)
    assert roots, "the fixed points must always be found"
    for r in roots:
        assert min(abs(r - 0.5), abs(r - 1.0)) < 1e-8


def test_scan_convergence_of_iterates_from_many_starts():
    rng = np.random.default_rng(6)
    x0 = rng.uniform(1e-3, 1 - 1e-3, size=1000)
    finals = iterate_scalar(F, x0, 500)
    assert np.max(np.abs(finals - 0.5)) < 1e-10


@pytest.mark.parametrize("m,alpha", [(3, 0.2), (5, 0.5), (8, 0.9)])
def test_deformed_map_converges_from_many_starts(m, alpha):
    spec = ScalarMapSpec("F_ALPHA", m=m, alpha=alpha)
    rng = np.random.default_rng(7)
    x0 = rng.uniform(1e-3, 1 - 1e-3, size=1000)
    finals = iterate_scalar(spec, x0, 500)
    assert np.max(np.abs(finals - scalar_fixed_point(m, alpha))) < 1e-10


def test_scan_rejects_coarse_grid():
    with pytest.raises(errors.DomainViolation):
        low_period_scan(F, 2, grid=10)


@pytest.mark.parametrize("args,message", [
    ((2, 1e4), "grid must be an integer >= 1000"),
    ((2.0, 1000), "period n must be an integer >= 1"),
    ((2.5, 1000), "period n must be an integer >= 1"),
    ((0, 1000), "period n must be an integer >= 1"),
], ids=["float_grid", "float_n", "fractional_n", "zero_n"])
def test_scan_rejects_a_bad_period_or_grid(args, message):
    with pytest.raises(errors.DomainViolation, match=message):
        low_period_scan(F, *args)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-10])
def test_low_period_scan_rejects_bad_tolerance(tol):
    with pytest.raises(errors.QsoError, match="tol"):
        low_period_scan(F, 2, grid=1000, tol=tol)


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf"),
                               [0.5, float("nan")]])
def test_domain_rejects_non_finite_points(x):
    with pytest.raises(errors.DomainViolation):
        eval_map(F, x)
    with pytest.raises(errors.DomainViolation):
        iterate_scalar(F, x, 1)


@pytest.mark.parametrize("n", [-1, 2.5, 3.0, float("nan"), "3", None])
def test_iterate_rejects_a_bad_step_count(n):
    with pytest.raises(errors.QsoError, match="n must be an integer >= 0"):
        iterate_scalar(F, 0.3, n)
