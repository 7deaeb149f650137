"""Acceptance gate: one test per documented claim bundle.

Each test pulls the named checks out of the shared verification-suite run,
prints their PASS/FAIL lines (visible with ``pytest -s`` and in failure
output), and asserts every one of them passed at its pinned tolerance.
The final two tests cover the determinism and exit-code contracts of the
command-line ``verify`` front end.
"""

import pytest

from qsodyn import tensor
from qsodyn.cli import main
from qsodyn.verification import SUITES, run_suite

SEED = 7


@pytest.fixture(scope="module")
def checks():
    results = {}
    for name in SUITES:
        for res in run_suite(name, SEED):
            results[res.name] = res
    return results


def _assert_all(checks, names):
    missing = [n for n in names if n not in checks]
    assert not missing, f"missing checks: {missing}"
    failed = []
    for n in names:
        print(checks[n].line())
        if not checks[n].passed:
            failed.append(checks[n].line())
    assert not failed, "failed checks:\n" + "\n".join(failed)


def test_criterion_1_regular_convergence(checks):
    _assert_all(checks, [f"regular.converges_to_center_m{m}" for m in (3, 4, 5, 8)])


def test_criterion_2_decay_bound_and_max_norm(checks):
    _assert_all(checks, [
        "regular.decay_factor_bound_m5",
        "regular.decay_factor_bound_m8",
        "regular.max_norm_strict_decrease_m4",
    ])


def test_criterion_3_lyapunov_suites(checks):
    _assert_all(checks, [
        "regular.lyapunov_cyclic_product_m6",
        "quasi_strict.lyapunov_cycle_product_1_m6",
        "quasi_strict.lyapunov_cycle_product_2_m6",
        "quasi_strict.lyapunov_cycle_sum_1_m6",
        "quasi_strict.lyapunov_cycle_sum_2_m6",
        "alpha.lyapunov_last_coord_m4_a0.3",
        "alpha.lyapunov_last_coord_m4_a0.7",
    ])


def test_criterion_4_limit_orbit_structure(checks):
    _assert_all(checks, [
        "quasi_strict.last_coordinate_half_after_200",
        "quasi_strict.limit_orbit_period_6",
        "quasi_strict.limit_orbit_cyclic_structure",
    ])


def test_criterion_5_periodic_points(checks):
    _assert_all(checks, [
        "quasi_strict.period_s_segment_exact_m4",
        "quasi_strict.no_periods_beyond_s_m4",
    ])


def test_criterion_6_scalar_maps(checks):
    _assert_all(checks, [
        "scalar.f_iterates_to_half",
        "scalar.period3_roots_only_fixed",
        "scalar.logistic_conjugacy_identity",
    ])


def test_criterion_7_blend_convergence_and_contraction(checks):
    names = []
    for m in (3, 5):
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            names.append(f"alpha.global_convergence_m{m}_a{alpha}")
            names.append(f"alpha.contraction_m{m}_a{alpha}")
    _assert_all(checks, names)


def test_criterion_8_spectral_classification(checks):
    names = [f"regular.center_attracting_m{m}" for m in (3, 4, 5, 8)]
    names.append("regular.vertices_non_hyperbolic_m4")
    for m in (3, 5):
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            names.append(f"alpha.interior_fixed_point_attracting_m{m}_a{alpha}")
    names.append("core.jacobian_matches_finite_differences")
    _assert_all(checks, names)


def test_criterion_9_planar_theorems(checks):
    _assert_all(checks, [
        "s2.vallander_theta05_to_center",
        "s2.vallander_theta09_to_e1",
        "s2.vallander_critical_line_limit",
        "s2.ganikhodjaev_l08_to_center",
        "s2.ganikhodjaev_l01_infinite_limit_set",
        "s2.khukr_two_cycle",
        "s2.spiral_half_is_identity",
    ])


def test_criterion_10_time_average_probe(checks):
    _assert_all(checks, [
        "core.zakharevich_time_average_divergence",
        "core.regular_time_average_decay",
    ])


def test_remaining_core_properties(checks):
    _assert_all(checks, ["core.simplex_preserved_raw_sum"])


def test_criterion_11_determinism(capsys, monkeypatch):
    code1 = main(["verify", "--suite", "all", "--seed", "7"])
    first = capsys.readouterr().out
    # the second run takes the numpy loops: the compiled kernel must not
    # change a single byte
    monkeypatch.setattr(tensor, "_kernel", lambda: None)
    code2 = main(["verify", "--suite", "all", "--seed", "7"])
    second = capsys.readouterr().out
    assert code1 == 0 and code2 == 0
    assert first == second
    assert first.count("\n") > 50


def test_criterion_11_exit_codes(capsys):
    # 0: success
    assert main(["verify", "--suite", "scalar", "--seed", "7"]) == 0
    capsys.readouterr()
    # 1: a check that measurably fails (no burn-in on the transient)
    code = main([
        "lyapunov", "--family", "ALPHA_COMBINATION", "--m", "4",
        "--perm", "(1 2 3)", "--alpha", "0.3", "--fn", "LAST_COORD",
        "--n0", "0", "--samples", "50", "--horizon", "60", "--seed", "7",
    ])
    capsys.readouterr()
    assert code == 1
    # 2: configuration error
    assert main(["verify", "--suite", "bogus"]) == 2
    capsys.readouterr()
