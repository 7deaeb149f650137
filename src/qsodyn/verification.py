"""Built-in verification suites: every documented dynamical claim, checked.

Each suite returns a list of :class:`CheckResult` with the measured values
that justify the verdict.  All tolerances are pinned here; the CLI ``verify``
subcommand prints one PASS/FAIL line per check and the acceptance tests
assert on the same results, so there is exactly one source of truth.

Suites are deterministic given the seed: every random draw goes through a
``numpy.random.default_rng`` seeded from the suite seed, and results carry
no timestamps or environment state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import (
    ATTRACTING,
    LAST_COORD_N0,
    NON_HYPERBOLIC,
    cesaro_distances,
    check_lyapunov,
    classify_fixed_point,
    contraction_report,
    cycle_product,
    cycle_sum,
    cyclic_product,
    detect_period_tail,
    ergodicity_probe,
    last_coord,
    max_norm_check,
    omega_estimate,
    periodic_absence_search,
    psi_bound_check,
    sample_interior,
)
from .families import make_alpha_combination, make_quasi_strict, make_regular, make_s2
from .scalarmaps import (
    ScalarMapSpec,
    conjugacy_defect,
    iterate_scalar,
    low_period_scan,
    scalar_fixed_point,
)
from .simplex import SimplexPoint, center, parse_cycles, validate_point, vertex
from .tensor import (_dirichlet, _raw, _validate, apply_raw, jacobian, random_tensor, run,
                     run_batch, run_collect)

# Divergence threshold for the Zakharevich time-average probe, frozen from
# the committed run of scripts/calibrate_nonergodicity.py (see
# calibration/zakharevich_cesaro.json): half the minimum pairwise distance
# between the Cesaro means at the standard checkpoints.
ZAKHAREVICH_DELTA = 0.0003558293140881741
# The standard checkpoints of that probe, at which the delta was calibrated.
CESARO_CHECKPOINTS = (10_000, 100_000, 1_000_000)
# Seeded start used for the regular-operator control of the same probe.
ERGODIC_CONTROL_SEED = 10


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: dict = field(default_factory=dict)

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        details = " ".join(f"{k}={_fmt(v)}" for k, v in self.measured.items())
        return f"{verdict}  {self.name}  {details}".rstrip()


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _interior_points(seed: int, m: int, n: int) -> np.ndarray:
    return sample_interior(np.random.default_rng(seed), m, n)


# --- suite: the symmetric mixing operator ------------------------------------


def suite_regular(seed: int) -> list[CheckResult]:
    out = []

    # trajectories from 100 random interior starts reach the center by n=200
    for m in (3, 4, 5, 8):
        t = make_regular(m)
        starts = _interior_points(seed + m, m, 100)
        finals = run_batch(t, starts, 200)
        dev = float(np.max(np.abs(finals - 1.0 / m)))
        out.append(CheckResult(
            f"regular.converges_to_center_m{m}", dev < 1e-8,
            {"max_dev": dev, "tol": 1e-8},
        ))

    # decay-factor bound (4/m)^m with equality exactly at the center
    for m in (5, 8):
        rep = psi_bound_check(m, 10_000, seed + 1000 + m)
        eq_defect = abs(rep.value_at_center - rep.bound)
        out.append(CheckResult(
            f"regular.decay_factor_bound_m{m}",
            rep.max_violation <= 1e-12 and eq_defect <= 1e-12,
            {"max_violation": rep.max_violation, "center_equality_defect": eq_defect},
        ))

    # m=4: strict decrease of the max coordinate off the five fixed points
    rep = max_norm_check(10_000, seed + 4)
    out.append(CheckResult(
        "regular.max_norm_strict_decrease_m4",
        rep.violations == 0 and rep.min_margin > 0.0,
        {"min_margin": rep.min_margin, "violations": rep.violations,
         "checked": rep.checked},
    ))

    # cyclic difference product never increases (m=6)
    lrep = check_lyapunov(make_regular(6), cyclic_product(), 100, 100, seed + 6)
    out.append(CheckResult(
        "regular.lyapunov_cyclic_product_m6", lrep.violations == 0,
        {"violations": lrep.violations, "worst": lrep.worst_violation,
         "slack": lrep.slack},
    ))

    # spectral picture: center superattracting for every m; at m=4 the
    # vertices carry modulus-one tangent eigenvalues
    for m in (3, 4, 5, 8):
        rep = classify_fixed_point(make_regular(m), center(m))
        max_mod = max(rep.moduli())
        out.append(CheckResult(
            f"regular.center_attracting_m{m}",
            rep.classification == ATTRACTING and max_mod < 1e-10,
            {"classification": rep.classification, "max_modulus": max_mod},
        ))
    t4 = make_regular(4)
    vertex_classes = [classify_fixed_point(t4, vertex(4, i)).classification
                      for i in range(1, 5)]
    out.append(CheckResult(
        "regular.vertices_non_hyperbolic_m4",
        all(c == NON_HYPERBOLIC for c in vertex_classes),
        {"classifications": ",".join(vertex_classes)},
    ))
    return out


# --- suite: the permutation-driven operator -----------------------------------


def suite_quasi_strict(seed: int) -> list[CheckResult]:
    out = []
    perm6 = parse_cycles("(1 2)(3 4 5)", 5)
    t6 = make_quasi_strict(6, perm6)

    # cycle products and cycle sums never decrease from iterate 1
    for idx in (1, 2):
        for ctor, label in ((cycle_product, "cycle_product"), (cycle_sum, "cycle_sum")):
            lrep = check_lyapunov(t6, ctor(perm6, idx), 100, 100, seed + 10 * idx)
            out.append(CheckResult(
                f"quasi_strict.lyapunov_{label}_{idx}_m6", lrep.violations == 0,
                {"violations": lrep.violations, "worst": lrep.worst_violation},
            ))

    # generic orbits: last coordinate locks onto 1/2, the limit orbit has
    # period 6 = lcm(2, 3), and its 6 clusters are permuted cyclically with
    # the first five coordinates shuffled by the permutation
    starts = _interior_points(seed + 21, 6, 20)
    orbits = run_collect(t6, starts, 400)
    worst_half = float(np.max(np.abs(orbits[:, 200:, -1] - 0.5)))
    periods = {detect_period_tail(orbit[-24:], 12) for orbit in orbits}
    cluster_counts: set[int] = set()
    cycle_ok = True
    permuted_ok = True
    for x in starts:
        omega = omega_estimate(t6, SimplexPoint(tuple(x.tolist())),
                               burn_in=500, window=60, cluster_tol=1e-6, s_max=20)
        cluster_counts.add(len(omega.cluster_points))
        cyc, permuted = _orbit_cycle_structure(t6, perm6, omega)
        cycle_ok = cycle_ok and cyc
        permuted_ok = permuted_ok and permuted
    out.append(CheckResult(
        "quasi_strict.last_coordinate_half_after_200", worst_half < 1e-10,
        {"worst_dev": worst_half, "tol": 1e-10},
    ))
    out.append(CheckResult(
        "quasi_strict.limit_orbit_period_6", periods == {6},
        {"periods": ",".join(str(p) for p in sorted(periods, key=str))},
    ))
    out.append(CheckResult(
        "quasi_strict.limit_orbit_cyclic_structure",
        cluster_counts == {6} and cycle_ok and permuted_ok,
        {"clusters": ",".join(str(c) for c in sorted(cluster_counts)),
         "single_cycle": cycle_ok, "coordinates_permuted": permuted_ok},
    ))

    # the period-s segment {last coordinate = 1/2} is exactly s-periodic
    perm4 = parse_cycles("(1 2 3)", 3)
    t4 = make_quasi_strict(4, perm4)
    s = perm4.order
    heads = np.random.default_rng(seed + 31).exponential(size=(50, 3))
    xs = np.append(0.5 * heads / heads.sum(axis=1, keepdims=True), np.full((50, 1), 0.5), axis=1)
    worst = float(np.max(np.abs(run(t4, xs, s) - xs)))
    out.append(CheckResult(
        "quasi_strict.period_s_segment_exact_m4", worst < 1e-12,
        {"worst_residual": worst, "s": s, "tol": 1e-12},
    ))

    search = periodic_absence_search(4, perm4, s + 1, seed=seed + 32)
    out.append(CheckResult(
        "quasi_strict.no_periods_beyond_s_m4",
        len(search.counterexamples) == 0 and len(search.solutions) > 0,
        {"solutions": len(search.solutions),
         "counterexamples": len(search.counterexamples)},
    ))
    return out


def _orbit_cycle_structure(t, perm, omega) -> tuple[bool, bool]:
    """Does the operator act on the clusters as one cycle, permuting coords?"""
    pts = np.array([p.array for p in omega.cluster_points])
    ys = run(t, pts, 1)
    dists = np.abs(ys[:, None] - pts).max(axis=2)
    if (dists.min(axis=1) > 1e-8).any():
        return False, False
    # each image's nearest cluster point, the first of equals
    succ = dists.argmin(axis=1).tolist()
    expected = np.append(pts[:, np.array(perm.images) - 1], pts[:, -1:], axis=1)
    perm_ok = not (np.abs(ys - expected).max(axis=1) > 1e-8).any()
    # single cycle through all clusters
    visited = {0}
    j = succ[0]
    while j not in visited:
        visited.add(j)
        j = succ[j]
    return len(visited) == len(pts), perm_ok


# --- suite: the convex blend ---------------------------------------------------


def _blend_config(m: int):
    return parse_cycles("(1 2)" if m == 3 else "(1 2 3)", m - 1)


def suite_alpha(seed: int) -> list[CheckResult]:
    out = []

    # last coordinate is non-increasing once past the documented burn-in
    perm4 = parse_cycles("(1 2 3)", 3)
    for alpha in (0.3, 0.7):
        t = make_alpha_combination(4, perm4, alpha)
        lrep = check_lyapunov(t, last_coord(LAST_COORD_N0), 100, 100,
                              seed + int(alpha * 10))
        out.append(CheckResult(
            f"alpha.lyapunov_last_coord_m4_a{alpha}", lrep.violations == 0,
            {"violations": lrep.violations, "worst": lrep.worst_violation,
             "n0": LAST_COORD_N0},
        ))

    # global convergence to the closed-form interior fixed point, its
    # attracting classification, and the per-block contraction bound
    for m in (3, 5):
        perm = _blend_config(m)
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            t = make_alpha_combination(m, perm, alpha)
            xm = scalar_fixed_point(m, alpha)
            xstar = np.array([(1.0 - xm) / (m - 1)] * (m - 1) + [xm])
            starts = _interior_points(seed + 100 * m + int(10 * alpha), m, 50)
            finals = run_batch(t, starts, 500)
            dev = float(np.max(np.abs(finals - xstar)))
            out.append(CheckResult(
                f"alpha.global_convergence_m{m}_a{alpha}", dev < 1e-8,
                {"max_dev": dev, "tol": 1e-8},
            ))

            rep = classify_fixed_point(t, SimplexPoint(tuple(xstar.tolist())))
            out.append(CheckResult(
                f"alpha.interior_fixed_point_attracting_m{m}_a{alpha}",
                rep.classification == ATTRACTING,
                {"classification": rep.classification,
                 "max_modulus": max(rep.moduli())},
            ))

            creps = [contraction_report(m, perm, alpha, SimplexPoint(tuple(x0.tolist())))
                     for x0 in starts[:5]]
            # the first factor, replaced by each later one that is greater
            worst_factor = max((r.worst_factor for r in creps if r.worst_factor is not None),
                               default=None)
            bound = creps[0].bound
            ok = worst_factor is not None and worst_factor <= bound + 1e-9
            out.append(CheckResult(
                f"alpha.contraction_m{m}_a{alpha}", ok,
                {"worst_factor": worst_factor, "bound": bound,
                 "blocks": sum(r.blocks_measured for r in creps)},
            ))
    return out


# --- suite: the planar catalog ---------------------------------------------------


def suite_s2(seed: int) -> list[CheckResult]:
    out = []

    # balanced blend: everything drains to the center
    t = make_s2("VALLANDER_THETA", 0.5)
    finals = run_batch(t, _interior_points(seed + 50, 3, 50), 1000)
    dev = float(np.max(np.abs(finals - 1.0 / 3.0)))
    out.append(CheckResult(
        "s2.vallander_theta05_to_center", dev < 1e-6, {"max_dev": dev}))

    # supercritical blend: starts with x1 > x3 drain to the first vertex
    t = make_s2("VALLANDER_THETA", 0.9)
    e1 = np.array([1.0, 0.0, 0.0])
    xs = sample_interior(np.random.default_rng(seed + 51), 3, 5)
    swap = xs[:, 0] <= xs[:, 2]
    xs[swap] = xs[swap, ::-1]  # swaps x1 and x3
    near = np.abs(xs[:, 0] - xs[:, 2]) < 1e-3
    xs[near, 0] += 1e-2
    xs[near] /= xs[near].sum(axis=1, keepdims=True)
    worst = float(np.max(np.abs(run(t, xs, 2000) - e1)))
    out.append(CheckResult(
        "s2.vallander_theta09_to_e1", worst < 1e-6, {"max_dev": worst}))

    # critical blend: each line x1 - x3 = const carries its own limit point
    t = make_s2("VALLANDER_THETA", 0.75)
    c = 0.2
    r = np.sqrt(1.0 + 3.0 * c * c)
    target = np.array([(1 + 3 * c + r) / 6, (2 - r) / 3, (1 - 3 * c + r) / 6])
    final = run(t, np.array([0.5, 0.2, 0.3]), 5000)
    dev = float(np.max(np.abs(final - target)))
    out.append(CheckResult(
        "s2.vallander_critical_line_limit", dev < 1e-6, {"max_dev": dev}))

    # Ganikhodjaev blend: center-regular at 0.8, infinite limit set at 0.1
    t = make_s2("GANIKHODJAEV_LAMBDA", 0.8)
    finals = run_batch(t, _interior_points(seed + 52, 3, 50), 2000)
    dev = float(np.max(np.abs(finals - 1.0 / 3.0)))
    out.append(CheckResult(
        "s2.ganikhodjaev_l08_to_center", dev < 1e-6, {"max_dev": dev}))

    t = make_s2("GANIKHODJAEV_LAMBDA", 0.1)
    x0 = validate_point(sample_interior(np.random.default_rng(seed + 53), 3, 1)[0])
    om = omega_estimate(t, x0, burn_in=20_000, window=1000,
                        cluster_tol=1e-6, s_max=50)
    out.append(CheckResult(
        "s2.ganikhodjaev_l01_infinite_limit_set",
        len(om.cluster_points) > 10 and om.detected_period is None,
        {"clusters": len(om.cluster_points),
         "period": str(om.detected_period)},
    ))

    # Khukr operator: the ratio-selected two-cycle on {x1 = 1/2}
    t = make_s2("KHUKR")
    om = omega_estimate(t, validate_point([0.4, 0.36, 0.24]),
                        burn_in=1000, window=20, cluster_tol=1e-6, s_max=8)
    targets = (np.array([0.5, 0.2, 0.3]), np.array([0.5, 0.3, 0.2]))
    match = (len(om.cluster_points) == 2 and all(
        min(float(np.max(np.abs(p.array - tgt))) for p in om.cluster_points) < 1e-6
        for tgt in targets))
    out.append(CheckResult(
        "s2.khukr_two_cycle", match and om.detected_period == 2,
        {"clusters": len(om.cluster_points), "period": str(om.detected_period)},
    ))

    # spiral blend at 1/2 is the identity map
    t = make_s2("VALLANDER_SPIRAL", 0.5)
    pts = _interior_points(seed + 54, 3, 50)
    dev = float(np.max(np.abs(run_batch(t, pts, 1) - pts)))
    out.append(CheckResult(
        "s2.spiral_half_is_identity", dev < 1e-12, {"max_dev": dev}))
    return out


# --- suite: scalar maps -----------------------------------------------------------


def suite_scalar(seed: int) -> list[CheckResult]:
    out = []
    spec_f = ScalarMapSpec("F")

    rng = np.random.default_rng(seed + 70)
    x0 = rng.uniform(1e-6, 1.0 - 1e-6, size=1000)
    finals = iterate_scalar(spec_f, x0, 100)
    dev = float(np.max(np.abs(finals - 0.5)))
    out.append(CheckResult(
        "scalar.f_iterates_to_half", dev < 1e-12, {"max_dev": dev}))

    roots = low_period_scan(spec_f, 3, grid=100_000)
    stray = [r for r in roots if min(abs(r - 0.5), abs(r - 1.0)) > 1e-8]
    out.append(CheckResult(
        "scalar.period3_roots_only_fixed", len(roots) > 0 and not stray,
        {"roots": len(roots), "stray": len(stray)},
    ))

    worst = 0.0
    for m in (3, 5, 8):
        for alpha in (0.1, 0.5, 0.9):
            worst = max(worst, conjugacy_defect(m, alpha))
    out.append(CheckResult(
        "scalar.logistic_conjugacy_identity", worst < 1e-12, {"max_dev": worst}))
    return out


# --- suite: core properties --------------------------------------------------------


def suite_core(seed: int) -> list[CheckResult]:
    out = []

    # analytic Jacobian vs central differences of the raw map
    rng = np.random.default_rng(seed + 80)
    worst = 0.0
    h = 1e-6
    for trial in range(20):
        m = 3 + trial % 4
        t = random_tensor(rng, m)
        x = sample_interior(rng, m, 1)[0]
        e = h * np.eye(m)
        cols = (apply_raw(t, x + e) - apply_raw(t, x - e)) / (2 * h)
        worst = max(worst, float(np.max(np.abs(jacobian(t, x) - cols.T))))
    out.append(CheckResult(
        "core.jacobian_matches_finite_differences", worst < 1e-6,
        {"max_dev": worst, "step": h},
    ))

    # random operators keep random points on the simplex: 1000 trials of
    # m = 2 + trial % 5, each a random_tensor then a sample_interior point,
    # from one draw taken 5 trials (285 values) to a row
    draw = np.random.default_rng(seed + 81).exponential(size=(200, 285))
    worst, at = 0.0, 0
    for m in range(2, 7):
        r = m * m * (m + 1) // 2
        p = _dirichlet(draw[:, at:at + r].reshape(200, -1, m))
        _validate(p)
        e = draw[:, at + r:at + r + m]
        at += r + m
        y = _raw(p.reshape(200, m * m, m), e / e.sum(axis=1, keepdims=True))
        worst = max(worst, float(np.abs(y.sum(axis=1) - 1.0).max()), -float(y.min()))
    out.append(CheckResult(
        "core.simplex_preserved_raw_sum", worst <= 1e-12, {"max_defect": worst}))

    # time averages: divergence for Zakharevich, decay for the mixing operator
    zak = ergodicity_probe(make_s2("ZAKHAREVICH"), validate_point([0.3, 0.3, 0.4]),
                           CESARO_CHECKPOINTS)
    min_pairwise = min(cesaro_distances(np.array([p.coords for p in zak.cesaro])))
    out.append(CheckResult(
        "core.zakharevich_time_average_divergence",
        min_pairwise > ZAKHAREVICH_DELTA,
        {"min_pairwise": min_pairwise, "fluctuation": zak.fluctuation,
         "delta": ZAKHAREVICH_DELTA,
         "min_coordinate_final": zak.min_coordinate[-1]},
    ))
    ctrl_rng = np.random.default_rng(ERGODIC_CONTROL_SEED)
    ctrl0 = validate_point(sample_interior(ctrl_rng, 5, 1)[0])
    ctrl = ergodicity_probe(make_regular(5), ctrl0, CESARO_CHECKPOINTS)
    out.append(CheckResult(
        "core.regular_time_average_decay", ctrl.fluctuation < 1e-4,
        {"fluctuation": ctrl.fluctuation, "tol": 1e-4},
    ))
    return out


SUITES = {
    "regular": suite_regular,
    "quasi_strict": suite_quasi_strict,
    "alpha": suite_alpha,
    "s2_theorems": suite_s2,
    "scalar": suite_scalar,
    "core_properties": suite_core,
}


def run_suite(name: str, seed: int) -> list[CheckResult]:
    """Run one suite (or ``all``) and return its check results in order."""
    if name == "all":
        results = []
        for key in SUITES:
            results.extend(SUITES[key](seed))
        return results
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](seed)
