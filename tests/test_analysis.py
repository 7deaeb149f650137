import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsodyn import analysis, errors, verification
from qsodyn.analysis import (
    ATTRACTING,
    NON_HYPERBOLIC,
    REPELLING,
    InvariantSetSpec,
    MaxNormReport,
    _max_norm_distance,
    _tangent_spectra,
    abs_diff_product,
    check_invariant_set,
    check_lyapunov,
    classify_fixed_point,
    combine_lyapunov,
    contraction_report,
    coord_product,
    cycle_product,
    cycle_sum,
    cyclic_product,
    detect_period_tail,
    ergodicity_probe,
    find_fixed_points,
    khukr_m_tau,
    last_coord,
    m0_set,
    m_omega_set,
    max_norm_check,
    omega_estimate,
    periodic_absence_search,
    psi_bound_check,
    psi_decay_values,
    sample_interior,
    tangent_basis,
    vallander_diag,
)
from qsodyn.families import (
    make_alpha_combination,
    make_quasi_strict,
    make_regular,
    make_s2,
)
from qsodyn.simplex import SimplexPoint, center, parse_cycles, validate_point, vertex
from qsodyn.tensor import iterate, jacobian, random_tensor, run, run_batch


# --- fixed points and classification -----------------------------------------


def test_find_fixed_points_regular_m4_exact_set():
    reps = find_fixed_points(make_regular(4), starts=24, seed=0)
    pts = sorted(tuple(round(v, 9) for v in r.point.coords) for r in reps)
    assert pts == sorted([
        (1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
        (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0),
        (0.25, 0.25, 0.25, 0.25),
    ])
    for r in reps:
        assert r.residual <= 1e-10


def test_find_fixed_points_alpha_blend():
    perm = parse_cycles("(1 2)", 2)
    reps = find_fixed_points(make_alpha_combination(3, perm, 0.5), starts=24, seed=1)
    assert len(reps) == 2
    by_class = {r.classification: r for r in reps}
    assert by_class[REPELLING].point.coords == (0.0, 0.0, 1.0)
    interior = by_class[ATTRACTING].point
    assert np.max(np.abs(interior.array - np.array([2 / 7, 2 / 7, 3 / 7]))) < 1e-10


def test_find_fixed_points_quasi_strict_m4():
    perm = parse_cycles("(1 2 3)", 3)
    reps = find_fixed_points(make_quasi_strict(4, perm), starts=24, seed=2)
    pts = sorted(tuple(round(v, 9) for v in r.point.coords) for r in reps)
    assert pts == sorted([
        (0.0, 0.0, 0.0, 1.0),
        (round(1 / 6, 9), round(1 / 6, 9), round(1 / 6, 9), 0.5),
    ])


def test_classify_center_attracting_with_zero_spectrum():
    for m in (4, 5, 8):
        rep = classify_fixed_point(make_regular(m), center(m))
        assert rep.classification == ATTRACTING
        assert max(rep.moduli()) < 1e-10
        assert len(rep.tangent_eigenvalues) == m - 1
        assert rep.transversal_eigenvalue == pytest.approx(2.0, abs=1e-12)


def test_classify_vertices_m4_non_hyperbolic():
    t = make_regular(4)
    for i in range(1, 5):
        rep = classify_fixed_point(t, vertex(4, i))
        assert rep.classification == NON_HYPERBOLIC
        assert rep.on_boundary
        assert any(abs(mod - 1.0) < 1e-8 for mod in rep.moduli())


def test_classify_rejects_non_fixed_point():
    with pytest.raises(errors.NotAFixedPoint):
        classify_fixed_point(make_regular(4), validate_point([0.4, 0.3, 0.2, 0.1]))


def test_tangent_basis_is_orthonormal_zero_sum():
    for m in (2, 3, 6):
        b = tangent_basis(m)
        assert np.max(np.abs(b.T @ b - np.eye(m - 1))) < 1e-14
        assert np.max(np.abs(b.sum(axis=0))) < 1e-14


def _match_multisets(a, b, tol):
    a, b = list(a), list(b)
    assert len(a) == len(b)
    for v in a:
        j = int(np.argmin([abs(v - w) for w in b]))
        assert abs(v - b[j]) < tol
        b.pop(j)


def test_tangent_spectrum_plus_two_reproduces_full_spectrum():
    rng = np.random.default_rng(8)
    for trial in range(20):
        m = 3 + trial % 4
        t = random_tensor(rng, m)
        x = SimplexPoint(tuple(sample_interior(rng, m, 1)[0]))
        tang, transversal = _tangent_spectra(jacobian(t, x)[None])
        full = np.linalg.eigvals(jacobian(t, x))
        assert transversal[0] == pytest.approx(2.0, abs=1e-12)
        _match_multisets(list(tang[0]) + [2.0 + 0j], list(full), 1e-8)


# --- Lyapunov machinery --------------------------------------------------------


def test_lyapunov_cyclic_product_regular():
    rep = check_lyapunov(make_regular(6), cyclic_product(), 50, 60, seed=3)
    assert rep.violations == 0


def test_lyapunov_cycle_functions_quasi_strict():
    perm = parse_cycles("(1 2)(3 4 5)", 5)
    t = make_quasi_strict(6, perm)
    for idx in (1, 2):
        assert check_lyapunov(t, cycle_product(perm, idx), 50, 60, seed=4).violations == 0
        assert check_lyapunov(t, cycle_sum(perm, idx), 50, 60, seed=4).violations == 0


def test_lyapunov_last_coord_blend():
    perm = parse_cycles("(1 2 3)", 3)
    t = make_alpha_combination(4, perm, 0.3)
    assert check_lyapunov(t, last_coord(50), 50, 100, seed=5).violations == 0


@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_lyapunov_last_coord_default_burn_in_covers_the_transient(alpha):
    # the documented burn-in is the default: a shorter one counts the early
    # increases of lopsided starts as violations
    t = make_alpha_combination(4, parse_cycles("(1 2 3)", 3), alpha)
    assert last_coord().n0 == analysis.LAST_COORD_N0 == verification.LAST_COORD_N0 == 50
    assert check_lyapunov(t, last_coord(), 100, 100, 7).violations == 0


def test_lyapunov_last_coord_counts_transient_violations():
    # without burn-in, lopsided starts do produce early increases
    perm = parse_cycles("(1 2 3)", 3)
    t = make_alpha_combination(4, perm, 0.3)
    rep = check_lyapunov(t, last_coord(0), 50, 100, seed=5)
    assert rep.violations > 0
    assert rep.worst_violation > 1e-6


def test_lyapunov_planar_catalog_directions():
    assert check_lyapunov(make_s2("GSN_ALPHA", 0.5), abs_diff_product(),
                          50, 60, seed=6).violations == 0
    assert check_lyapunov(make_s2("JJPH_THETA", 0.5), abs_diff_product(),
                          50, 60, seed=6).violations == 0
    for lam in (0.2, 0.8):
        assert check_lyapunov(make_s2("VALLANDER_SPIRAL", lam), coord_product(),
                              50, 60, seed=6).violations == 0


def test_lyapunov_family_guard():
    with pytest.raises(errors.InapplicableFunction):
        check_lyapunov(make_regular(6), last_coord(0), 5, 5, seed=0)


def test_lyapunov_cycle_index_guard():
    perm = parse_cycles("(1 2)", 2)
    with pytest.raises(errors.InapplicableFunction):
        cycle_product(perm, 3)


def test_combined_lyapunov_nonnegative_coefficients():
    perm = parse_cycles("(1 2)(3 4 5)", 5)
    t = make_quasi_strict(6, perm)
    combo = combine_lyapunov([cycle_product(perm, 1), cycle_sum(perm, 2)], [0.5, 2.0])
    assert combo.direction == "NON_DECREASING"
    assert check_lyapunov(t, combo, 30, 50, seed=7).violations == 0
    with pytest.raises(errors.InapplicableFunction):
        combine_lyapunov([cycle_product(perm, 1)], [-1.0])
    with pytest.raises(errors.InapplicableFunction):
        combine_lyapunov([cycle_product(perm, 1), last_coord(0)], [1.0, 1.0])


@pytest.mark.parametrize("coeff", [float("nan"), float("inf")])
def test_combined_lyapunov_refuses_a_non_finite_coefficient(coeff):
    # a NaN would make every value NaN, which no monotonicity check can fail
    perm = parse_cycles("(1 2)(3 4 5)", 5)
    with pytest.raises(errors.InapplicableFunction, match="finite"):
        combine_lyapunov([cycle_product(perm, 1), cycle_sum(perm, 2)], [coeff, 2.0])


# --- periods and limit sets ------------------------------------------------------


def test_detect_period_constant_tail():
    tail = np.tile(np.array([0.2, 0.3, 0.5]), (20, 1))
    assert detect_period_tail(tail, 5) == 1


def test_detect_period_via_trajectory():
    t = make_quasi_strict(3, parse_cycles("(1 2)", 2))
    traj = iterate(t, validate_point([0.3, 0.2, 0.5]), 40)
    assert detect_period_tail(traj.rows, 8) == 2


def test_detect_period_divisor_minimal():
    block = np.array([
        [0.4, 0.1, 0.2, 0.3],
        [0.3, 0.4, 0.1, 0.2],
        [0.2, 0.3, 0.4, 0.1],
        [0.1, 0.2, 0.3, 0.4],
    ])
    tail = np.tile(block, (6, 1))
    assert detect_period_tail(tail, 8) == 4
    for d in (1, 2):  # proper divisor shifts must fail at the same tolerance
        shifted = np.abs(tail[d:] - tail[:-d]).max()
        assert shifted > 1e-9


def test_detect_period_insufficient_tail():
    t = make_regular(3)
    traj = iterate(t, center(3), 30, stride=10)
    with pytest.raises(errors.InsufficientTail):
        detect_period_tail(traj.rows, 10)


def test_detect_period_none_when_aperiodic():
    t = make_s2("GANIKHODJAEV_LAMBDA", 0.1)
    traj = iterate(t, validate_point([0.5, 0.3, 0.2]), 3000)
    assert detect_period_tail(traj.rows, 20) is None


def test_omega_regular_single_cluster_at_center():
    om = omega_estimate(make_regular(5), validate_point([0.4, 0.3, 0.2, 0.05, 0.05]),
                        burn_in=500, window=40)
    assert len(om.cluster_points) == 1
    assert np.max(np.abs(om.cluster_points[0].array - center(5).array)) < 1e-10
    assert om.detected_period == 1


def test_omega_khukr_two_cycle():
    om = omega_estimate(make_s2("KHUKR"), validate_point([0.4, 0.36, 0.24]),
                        burn_in=1000, window=20, s_max=8)
    assert om.detected_period == 2
    assert len(om.cluster_points) == 2
    targets = [np.array([0.5, 0.3, 0.2]), np.array([0.5, 0.2, 0.3])]
    for tgt in targets:
        assert min(np.max(np.abs(p.array - tgt)) for p in om.cluster_points) < 1e-6


def test_omega_quasi_strict_m6_orbit():
    perm = parse_cycles("(1 2)(3 4 5)", 5)
    t = make_quasi_strict(6, perm)
    rng = np.random.default_rng(9)
    x0 = validate_point(sample_interior(rng, 6, 1)[0])
    om = omega_estimate(t, x0, burn_in=500, window=60, s_max=20)
    assert om.detected_period == 6
    assert len(om.cluster_points) == 6
    for p in om.cluster_points:
        assert abs(p.coords[-1] - 0.5) < 1e-8
    # the operator maps the cluster multiset onto itself
    pts = [p.array for p in om.cluster_points]
    for x in pts:
        y = run(t, x, 1)
        assert min(np.max(np.abs(y - z)) for z in pts) < 1e-8


def test_omega_flags_boundary_start():
    om = omega_estimate(make_regular(3), validate_point([0.5, 0.5, 0.0]),
                        burn_in=10, window=10)
    assert om.diagnostics["boundary_start"] is True


def test_gsn_beta_center_convergence_at_sampled_values():
    # above the stability threshold 1 - sqrt(3)/2 everything drains to the
    # center; below it the limit set is an infinite interior curve
    rng = np.random.default_rng(21)
    starts = sample_interior(rng, 3, 20)
    for beta in (0.5, 0.9):
        t = make_s2("GSN_BETA", beta)
        from qsodyn.tensor import run_batch
        finals = run_batch(t, starts, 2000)
        assert np.max(np.abs(finals - 1 / 3)) < 1e-10
    om = omega_estimate(make_s2("GSN_BETA", 0.05), validate_point([0.5, 0.3, 0.2]),
                        burn_in=20_000, window=600, cluster_tol=1e-6, s_max=50)
    assert len(om.cluster_points) > 10
    assert om.detected_period is None


def test_balanced_gsn_and_jjph_drift_to_center():
    # at the balanced weight the center is non-hyperbolic (unit-modulus
    # tangent spectrum) and convergence is only algebraic: assert the
    # difference product has collapsed and the deviation keeps shrinking
    fn = abs_diff_product()
    for name in ("GSN_ALPHA", "JJPH_THETA"):
        t = make_s2(name, 0.5)
        from qsodyn.tensor import run

        mid = run(t, np.array([0.5, 0.3, 0.2]), 2000)
        late = run(t, mid, 8000)
        assert fn(late) < 1e-5
        assert np.max(np.abs(late - 1 / 3)) < np.max(np.abs(mid - 1 / 3))


# --- invariant sets ---------------------------------------------------------------


def test_invariant_m0_exact_propagation():
    perm = parse_cycles("(1 2 3)", 3)
    t = make_quasi_strict(4, perm)
    rep = check_invariant_set(t, m0_set(4), samples=100, horizon=30, seed=10)
    assert rep.max_defect == 0.0


def test_invariant_khukr_m_tau():
    rep = check_invariant_set(make_s2("KHUKR"), khukr_m_tau(1.5),
                              samples=100, horizon=50, seed=11)
    assert rep.max_defect < 1e-9


@pytest.mark.parametrize("tau", [1e-6, 0.01, 17.5, 1e6])
def test_khukr_m_tau_samples_simplex_members_at_any_tau(tau):
    spec, rng = khukr_m_tau(tau), np.random.default_rng(3)
    for _ in range(200):
        x = spec.sample(rng)
        assert x.min() >= 0.0 and abs(x.sum() - 1.0) <= 1e-12 and spec.defect(x) <= 1e-12
    rep = check_invariant_set(make_s2("KHUKR"), spec, samples=50, horizon=20, seed=4)
    assert rep.max_initial_defect <= 1e-12 and rep.max_defect < 1e-9


@pytest.mark.parametrize("tau", [0.5, 1.5])
def test_khukr_m_tau_keeps_its_draws_near_1(tau):
    # the reference: the sampler as it was for a tau near 1, whose draws the
    # invariant-set tests rest on, taking the same stream
    def sample(rng):
        x3 = rng.uniform(0.05, 0.9 / (1.0 + tau))
        x2 = tau * x3 if rng.random() < 0.5 else x3 / tau
        if x2 + x3 >= 0.95:
            x2, x3 = x2 / 2, x3 / 2
        return np.array([1.0 - x2 - x3, x2, x3])
    spec, got, want = khukr_m_tau(tau), np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(500):
        assert spec.sample(got).tobytes() == sample(want).tobytes()


def test_check_invariant_set_refuses_members_off_the_simplex():
    off = InvariantSetSpec("OFF", (), lambda x: 0.0, lambda rng: np.array([-0.5, 1.0, 0.5]))
    with pytest.raises(errors.InapplicableSet, match="simplex"):
        check_invariant_set(make_s2("KHUKR"), off, samples=5, horizon=5, seed=0)


def test_invariant_m_omega_equal_cycle_lengths():
    perm = parse_cycles("(1 2)(3 4)", 4)
    t = make_quasi_strict(5, perm)
    rep = check_invariant_set(t, m_omega_set(5, perm, 1, 2, 2.0),
                              samples=100, horizon=50, seed=12)
    assert rep.max_defect < 1e-9


def test_invariant_m_omega_unequal_cycle_lengths_reports_only():
    # proportionality of cycle products with different lengths is not
    # preserved away from the half-level of the last coordinate; the probe
    # measures the defect rather than asserting it
    perm = parse_cycles("(1 2)(3 4 5)", 5)
    t = make_quasi_strict(6, perm)
    rep = check_invariant_set(t, m_omega_set(6, perm, 1, 2, 2.0),
                              samples=50, horizon=30, seed=13)
    assert np.isfinite(rep.max_defect)


def test_invariant_vallander_diag():
    t = make_s2("VALLANDER_THETA", 0.6)
    rep = check_invariant_set(t, vallander_diag(), samples=100, horizon=50, seed=14)
    assert rep.max_defect < 1e-9


def test_invariant_family_guard():
    with pytest.raises(errors.InapplicableSet):
        check_invariant_set(make_regular(4), m0_set(4), samples=5, horizon=5, seed=0)


NOT_FINITE_AND_POSITIVE = [float("nan"), float("inf"), float("-inf"), 0.0, -1.0]


@pytest.mark.parametrize("call", [
    *[pytest.param(lambda v=v: m_omega_set(5, parse_cycles("(1 2)(3 4)", 4), 1, 2, v),
                   id=f"omega={v}") for v in NOT_FINITE_AND_POSITIVE],
    *[pytest.param(lambda v=v: khukr_m_tau(v), id=f"tau={v}") for v in NOT_FINITE_AND_POSITIVE],
    # x3 / tau overflows for a tau whose reciprocal does
    pytest.param(lambda: khukr_m_tau(5e-324), id="tau=5e-324"),
    # every member's defect is NaN, so no start can be checked
    pytest.param(lambda: check_invariant_set(
        make_s2("VALLANDER_THETA", 0.6),
        InvariantSetSpec("NAN_DEFECT", (), lambda x: float("nan"), vallander_diag().sample),
        samples=5, horizon=5, seed=0), id="nan-initial-defect"),
])
def test_invariant_sets_refuse_what_they_cannot_check(call):
    with pytest.raises(errors.InapplicableSet):
        call()


@pytest.mark.parametrize("kwargs", [{"samples": 0}, {"samples": -1}, {"samples": 2.5},
                                    {"horizon": 0}, {"horizon": -1}, {"horizon": 2.5}])
def test_check_invariant_set_rejects_bad_counts(kwargs):
    counts = {"samples": 5, "horizon": 5, **kwargs}
    name, = kwargs
    with pytest.raises(errors.QsoError, match=name):
        check_invariant_set(make_s2("VALLANDER_THETA", 0.6), vallander_diag(), seed=0, **counts)


# --- contraction -------------------------------------------------------------------


def test_contraction_m3_bound():
    perm = parse_cycles("(1 2)", 2)
    rep = contraction_report(3, perm, 0.5, validate_point([0.6, 0.1, 0.3]))
    assert rep.s == 2
    assert rep.bound == pytest.approx(0.75)
    assert rep.worst_factor is not None
    assert rep.worst_factor <= 0.75 + 1e-9
    assert not rep.vacuous


def test_contraction_m6_mixed_cycles():
    perm = parse_cycles("(1 2)(3 4 5)", 5)
    rng = np.random.default_rng(15)
    x0 = validate_point(sample_interior(rng, 6, 1)[0])
    rep = contraction_report(6, perm, 0.3, x0)
    assert rep.s == 6
    assert rep.worst_factor <= 0.7 + 0.3 ** 6 + 1e-9


def test_contraction_identity_permutation_vacuous():
    perm = parse_cycles("", 3)
    rep = contraction_report(4, perm, 0.5, validate_point([0.4, 0.3, 0.2, 0.1]))
    assert rep.s == 1
    assert rep.bound == pytest.approx(1.0)
    assert rep.vacuous


# --- averages and decay estimates ----------------------------------------------------


def test_ergodicity_fixed_point_zero_fluctuation():
    rep = ergodicity_probe(make_regular(4), center(4), [10, 100, 1000])
    assert rep.fluctuation < 1e-14


def test_ergodicity_validates_checkpoints():
    with pytest.raises(errors.DimensionMismatch):
        ergodicity_probe(make_regular(3), center(3), [100, 50])


@pytest.mark.parametrize("checkpoints", [[], [0, 10], [10, 10], [10, 10_000_001], [10.7, 100.2]],
                         ids=["empty", "zero", "not-increasing", "over-1e7", "non-integer"])
def test_ergodicity_probe_refuses_bad_checkpoints(checkpoints):
    with pytest.raises(errors.DimensionMismatch, match="checkpoints must be"):
        ergodicity_probe(make_regular(3), center(3), checkpoints)


def test_psi_bound_samples_and_center():
    for m in (5, 8):
        rep = psi_bound_check(m, 2000, seed=16)
        assert rep.max_violation <= 1e-12
        assert abs(rep.value_at_center - (4.0 / m) ** m) <= 1e-12
    with pytest.raises(errors.DimensionMismatch):
        psi_bound_check(4, 10, seed=0)


def test_psi_decay_equality_only_at_center():
    xs = np.array([[0.2, 0.2, 0.2, 0.2, 0.2], [0.4, 0.2, 0.2, 0.1, 0.1]])
    vals = psi_decay_values(xs)
    bound = (4.0 / 5) ** 5
    assert vals[0] == pytest.approx(bound, abs=1e-15)
    assert vals[1] < bound


def reference_psi_decay_values(xs):
    """The former formula: the pair sums by np.roll, then each row's np.prod."""
    m = xs.shape[1]
    pair_sums = xs + np.roll(xs, -1, axis=1)
    return np.prod((2.0 + (m - 4) * pair_sums) / (m - 2), axis=1)


@pytest.mark.parametrize("m", [5, 6, 8, 9, 17])
def test_psi_decay_values_match_the_row_product(m):
    xs = sample_interior(np.random.default_rng(m), m, 20_000)
    xs[0], xs[1, :2], xs[1, 2:] = 1.0 / m, 0.5, 0.0
    assert psi_decay_values(xs).tobytes() == reference_psi_decay_values(xs).tobytes()


def test_max_norm_strict_decrease_examples():
    t = make_regular(4)
    x = validate_point([0.7, 0.1, 0.1, 0.1])
    assert max(run(t, x.array, 1)) < 0.7
    # the five fixed points sit exactly on the equality case
    assert max(run(t, center(4).array, 1)) == pytest.approx(0.25, abs=1e-15)
    assert max(run(t, vertex(4, 1).array, 1)) == 1.0
    rep = max_norm_check(2000, seed=17)
    assert rep.violations == 0
    assert rep.min_margin > 0.0


M4_FIXED = np.vstack([np.eye(4), np.full((1, 4), 0.25)])


def reference_max_norm_check(samples, seed, exclusion_radius=1e-9):
    """max_norm_check as it was written before its reductions went column by
    column, kept as the oracle."""
    xs = sample_interior(np.random.default_rng(seed), 4, samples)
    dist = np.min(np.max(np.abs(xs[:, None, :] - M4_FIXED[None, :, :]), axis=2), axis=1)
    keep = dist > exclusion_radius
    ys = run_batch(make_regular(4), xs[keep], 1)
    margins = np.max(xs[keep], axis=1) - np.max(ys, axis=1)
    return MaxNormReport(samples, int(keep.sum()), int((~keep).sum()),
                         float(np.min(margins)), int(np.sum(margins <= 0.0)))


@st.composite
def near_fixed_samples(draw):
    """Random points of the 3-simplex, some of them on or within 1e-9 of a
    vertex or the center."""
    n = draw(st.integers(1, 40))
    xs = sample_interior(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), 4, n)
    for r in draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True)):
        offset = np.array(draw(st.lists(st.floats(-1e-9, 1e-9), min_size=4, max_size=4)))
        xs[r] = M4_FIXED[draw(st.integers(0, 4))] + offset
    return xs


@settings(max_examples=100, deadline=None)
@given(near_fixed_samples())
def test_max_norm_distance_is_the_three_axis_reduction(xs):
    want = np.min(np.max(np.abs(xs[:, None, :] - M4_FIXED[None, :, :]), axis=2), axis=1)
    got = _max_norm_distance(xs, M4_FIXED)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("seed,radius", [(17, 1e-9), (4, 1e-9), (11, 0.05), (3, 0.0)])
def test_max_norm_check_matches_the_three_axis_reduction(seed, radius, monkeypatch):
    monkeypatch.setattr(analysis, "MAX_NORM_EXCLUSION_RADIUS", radius)
    assert max_norm_check(3000, seed) == reference_max_norm_check(3000, seed, radius)


def test_max_norm_check_raises_when_every_sample_is_excluded(monkeypatch):
    # no two points of the simplex are farther apart than 1 in the max norm
    monkeypatch.setattr(analysis, "MAX_NORM_EXCLUSION_RADIUS", 2.0)
    with pytest.raises(errors.QsoError, match="excludes all 100 samples"):
        max_norm_check(100, 1)


# --- periodic absence -----------------------------------------------------------------


def test_periodic_absence_m3_beyond_s(monkeypatch):
    monkeypatch.setattr(analysis, "PERIODIC_SEARCH_STARTS", 30)
    perm = parse_cycles("(1 2)", 2)
    rep = periodic_absence_search(3, perm, 3, seed=18)
    assert rep.counterexamples == ()
    cats = {cat for _, _, cat in rep.solutions}
    assert cats <= {"fixed_point", "periodic_s"}


def test_periodic_absence_m3_at_s_finds_segment(monkeypatch):
    monkeypatch.setattr(analysis, "PERIODIC_SEARCH_STARTS", 30)
    perm = parse_cycles("(1 2)", 2)
    rep = periodic_absence_search(3, perm, 2, seed=19)
    assert rep.counterexamples == ()
    periodic = [pt for pt, _, cat in rep.solutions if cat == "periodic_s"]
    assert len(periodic) > 5
    for pt in periodic:
        assert abs(pt.coords[2] - 0.5) < 1e-8


def test_periodic_absence_m4_after_s(monkeypatch):
    monkeypatch.setattr(analysis, "PERIODIC_SEARCH_STARTS", 30)
    perm = parse_cycles("(1 2 3)", 3)
    rep = periodic_absence_search(4, perm, 4, seed=20)
    assert rep.counterexamples == ()
    assert all(cat == "fixed_point" for _, _, cat in rep.solutions)


@pytest.mark.parametrize("tol", [0.1, 0.5])
def test_a_loose_newton_tolerance_finds_no_periods_beyond_s(tol, monkeypatch):
    # Newton's acceptance is the categories': a row that stopped at a
    # residual below tol but not below 1e-8 is dropped, not a counterexample
    monkeypatch.setattr(analysis, "PERIODIC_SEARCH_TOL", tol)
    rep = periodic_absence_search(4, parse_cycles("(1 2 3)", 3), 4, seed=39)
    assert rep.solutions and rep.counterexamples == ()
    assert all(resid < analysis.FIXED_POINT_RESIDUAL for _, resid, _ in rep.solutions)


@pytest.mark.parametrize("m,cycles", [(3, "(1 2)"), (4, "(1 2 3)"), (6, "(1 2)(3 4 5)")])
def test_both_searches_share_one_search(m, cycles, monkeypatch):
    monkeypatch.setattr(analysis, "PERIODIC_SEARCH_STARTS", 20)
    perm = parse_cycles(cycles, m - 1)
    fixed = find_fixed_points(make_quasi_strict(m, perm), starts=20, seed=3)
    rep = periodic_absence_search(m, perm, 1, seed=3)
    assert [pt for pt, _, _ in rep.solutions] == [r.point for r in fixed]
    assert {cat for _, _, cat in rep.solutions} == {"fixed_point"}


@pytest.mark.parametrize("kwargs", [{"starts": 2.5}, {"starts": "3"}, {"starts": None},
                                    {"tol": float("nan")}, {"tol": "1e-8"}, {"band": None}])
def test_find_fixed_points_rejects_bad_parameters(kwargs):
    with pytest.raises(errors.QsoError):
        find_fixed_points(make_regular(3), **kwargs)


def test_a_bool_is_not_a_count_of_starts():
    with pytest.raises(errors.DimensionMismatch, match="starts must be an integer >= 0"):
        find_fixed_points(make_regular(3), starts=True)


@pytest.mark.parametrize("kwargs,message", [
    # V^0 is the identity, which every start solves
    ({"n": 0}, "n must be an integer >= 1"),
], ids=["n-0"])
def test_periodic_absence_search_rejects_bad_parameters(kwargs, message):
    with pytest.raises(errors.QsoError, match=message):
        periodic_absence_search(4, parse_cycles("(1 2 3)", 3), **{"n": 4, "seed": 0, **kwargs})


@pytest.mark.parametrize("samples", [0, -1, 1.5])
def test_check_lyapunov_rejects_bad_sample_counts(samples):
    with pytest.raises(errors.QsoError, match="samples"):
        check_lyapunov(make_regular(4), cyclic_product(), samples, 10, seed=0)


@pytest.mark.parametrize("name,call", [
    ("burn_in", lambda: omega_estimate(make_s2("KHUKR"), validate_point([0.4, 0.36, 0.24]),
                                       burn_in="3", window=20)),
    ("window", lambda: omega_estimate(make_s2("KHUKR"), validate_point([0.4, 0.36, 0.24]),
                                      burn_in=10, window=2.5)),
    ("window", lambda: omega_estimate(make_s2("KHUKR"), validate_point([0.4, 0.36, 0.24]),
                                      burn_in=10, window=0)),
    ("samples", lambda: psi_bound_check(5, 0, 1)),
    ("m", lambda: psi_bound_check("5", 10, 1)),
    ("m", lambda: psi_bound_check(5.5, 10, 1)),
    ("samples", lambda: max_norm_check(0, 1)),
    ("horizon", lambda: check_lyapunov(make_regular(4), cyclic_product(), 5, "3", seed=0)),
], ids=["omega-burn_in-str", "omega-window-float", "omega-window-0", "psi-samples-0",
        "psi-m-str", "psi-m-float",
        "max_norm-samples-0", "lyapunov-horizon-str"])
def test_api_counts_are_checked(name, call):
    with pytest.raises(errors.DimensionMismatch, match=f"{name} must be an integer >= 1"):
        call()


@pytest.mark.parametrize("kwargs", [{"cluster_tol": float("nan")}, {"cluster_tol": float("inf")},
                                    {"cluster_tol": -1e-6}, {"period_tol": float("nan")},
                                    {"s_max": 0}, {"s_max": -2}, {"s_max": 2.5}])
def test_omega_estimate_rejects_bad_parameters(kwargs):
    with pytest.raises(errors.QsoError):
        omega_estimate(make_s2("KHUKR"), validate_point([0.4, 0.36, 0.24]),
                       burn_in=10, window=20, **kwargs)
