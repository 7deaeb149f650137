import numpy as np
import pytest

from qsodyn import errors
from qsodyn.families import (
    FamilySpec,
    REGISTRY,
    family_names,
    make,
    make_alpha_combination,
    make_quasi_strict,
    make_regular,
    make_s2,
)
from qsodyn.simplex import center, parse_cycles, validate_point, vertex
from qsodyn.tensor import apply_raw, convex_combine, run
from qsodyn.analysis import sample_interior


def test_registry_contains_expected_names():
    names = set(family_names())
    assert {"REGULAR", "QUASI_STRICT", "ALPHA_COMBINATION", "ZAKHAREVICH",
            "KHUKR", "VALLANDER_THETA", "GANIKHODJAEV_LAMBDA",
            "VALLANDER_SPIRAL", "GSN_ALPHA", "GSN_BETA", "JJPH_THETA"} <= names
    assert {f"V{i}" for i in range(8)} <= names
    for info in REGISTRY.values():
        assert info.summary


def test_every_family_builds_a_validated_tensor():
    perm = parse_cycles("(1 2)", 2)
    for name, info in REGISTRY.items():
        kwargs = {}
        if info.needs_permutation:
            kwargs["permutation"] = perm
        if info.parameter:
            kwargs["parameter"] = 0.4
        t = make(name, m=3, **kwargs)
        # rows are exact rationals: residuals at machine zero
        assert np.max(np.abs(t.p.sum(axis=2) - 1.0)) < 1e-15


def test_regular_m3_equals_v0():
    assert np.array_equal(make_regular(3).p, make_s2("V0").p)


def test_regular_vertices_fixed():
    t = make_regular(4)
    for i in range(1, 5):
        v = vertex(4, i)
        assert np.max(np.abs(run(t, v.array, 1) - v.array)) == 0.0


def test_regular_center_fixed_m5():
    t = make_regular(5)
    assert np.max(np.abs(run(t, center(5).array, 1) - center(5).array)) < 1e-15


def test_regular_m_too_small():
    with pytest.raises(errors.DimensionTooSmall):
        make_regular(2)


def test_quasi_strict_one_step_swap():
    t = make_quasi_strict(3, parse_cycles("(1 2)", 2))
    y = run(t, validate_point([0.3, 0.2, 0.5]).array, 1)
    assert tuple(y) == pytest.approx((0.2, 0.3, 0.5), abs=1e-15)


def test_quasi_strict_face_maps_to_last_vertex():
    perm = parse_cycles("(1 2 3)", 3)
    t = make_quasi_strict(4, perm)
    rng = np.random.default_rng(1)
    for _ in range(10):
        head = rng.exponential(size=3)
        head /= head.sum()
        x = validate_point(np.append(head, 0.0))
        assert tuple(run(t, x.array, 1).tolist()) == (0.0, 0.0, 0.0, 1.0)


def test_quasi_strict_last_coordinate_follows_scalar_map():
    from qsodyn.scalarmaps import f

    perm = parse_cycles("(1 2)(3 4)", 4)
    t = make_quasi_strict(5, perm)
    rng = np.random.default_rng(2)
    for x in sample_interior(rng, 5, 20):
        assert apply_raw(t, x)[-1] == pytest.approx(f(x[-1]), abs=1e-15)


def test_quasi_strict_permutation_size_checked():
    with pytest.raises(errors.PermutationSizeMismatch):
        make_quasi_strict(4, parse_cycles("(1 2)", 2))


def test_alpha_combination_endpoints():
    perm = parse_cycles("(1 2 3)", 3)
    assert np.array_equal(make_alpha_combination(4, perm, 1.0).p, make_regular(4).p)
    assert np.array_equal(make_alpha_combination(4, perm, 0.0).p,
                          make_quasi_strict(4, perm).p)


def test_alpha_combination_is_entrywise_blend():
    rng = np.random.default_rng(3)
    for m in (3, 4, 6):
        perm_text = "(1 2)" if m == 3 else "(1 2 3)"
        perm = parse_cycles(perm_text, m - 1)
        for alpha in rng.uniform(0, 1, size=7):
            t = make_alpha_combination(m, perm, float(alpha))
            ref = convex_combine(make_regular(m), make_quasi_strict(m, perm), float(alpha))
            assert np.max(np.abs(t.p - ref.p)) < 1e-15


def test_alpha_combination_interior_fixed_point():
    perm = parse_cycles("(1 2)", 2)
    t = make_alpha_combination(3, perm, 0.5)
    xstar = validate_point([2 / 7, 2 / 7, 3 / 7])
    assert np.max(np.abs(run(t, xstar.array, 1) - xstar.array)) < 1e-15


def test_zakharevich_is_volterra_alias_of_v2():
    t = make_s2("ZAKHAREVICH")
    assert np.array_equal(t.p, make_s2("V2").p)


def test_khukr_fixed_point():
    t = make_s2("KHUKR")
    x = validate_point([0.5, 0.25, 0.25])
    assert np.max(np.abs(run(t, x.array, 1) - x.array)) == 0.0


def test_khukr_ratio_inversion():
    t = make_s2("KHUKR")
    rng = np.random.default_rng(4)
    for x in sample_interior(rng, 3, 50):
        y = apply_raw(t, x)
        assert y[1] / y[2] == pytest.approx(x[2] / x[1], abs=1e-12)


def test_spiral_half_is_identity_on_random_points():
    t = make_s2("VALLANDER_SPIRAL", 0.5)
    rng = np.random.default_rng(5)
    for x in sample_interior(rng, 3, 50):
        assert np.max(np.abs(apply_raw(t, x) - x)) < 1e-12


def test_make_s2_parameter_policing():
    with pytest.raises(errors.MissingParameter):
        make_s2("VALLANDER_THETA")
    with pytest.raises(errors.UnexpectedParameter):
        make_s2("KHUKR", 0.5)
    with pytest.raises(errors.UnknownFamily):
        make_s2("NOPE")
    with pytest.raises(errors.UnknownFamily):
        make_s2("REGULAR")  # not a planar family


def test_family_spec_validation():
    perm = parse_cycles("(1 2)", 2)
    with pytest.raises(errors.MissingParameter):
        FamilySpec("ALPHA_COMBINATION", 3, permutation=perm)
    with pytest.raises(errors.MissingParameter):
        FamilySpec("QUASI_STRICT", 3)
    with pytest.raises(errors.UnexpectedParameter):
        FamilySpec("REGULAR", 4, parameter=0.5)
    with pytest.raises(errors.PermutationSizeMismatch):
        FamilySpec("V0", 4)
    spec = FamilySpec("ALPHA_COMBINATION", 3, permutation=perm, parameter=0.25)
    assert spec.m == 3


def test_combined_planar_weights_match_definitions():
    # weight goes on the first-named constituent of each blend
    cases = {
        "VALLANDER_THETA": ("V1", "V0"),
        "GANIKHODJAEV_LAMBDA": ("V0", "V2"),
        "VALLANDER_SPIRAL": ("V2", "V3"),
        "GSN_ALPHA": ("V4", "V2"),
        "GSN_BETA": ("V5", "V2"),
        "JJPH_THETA": ("V6", "V7"),
    }
    for name, (first, second) in cases.items():
        t = make_s2(name, 0.3)
        ref = convex_combine(make_s2(first), make_s2(second), 0.3)
        assert np.max(np.abs(t.p - ref.p)) < 1e-15, name
