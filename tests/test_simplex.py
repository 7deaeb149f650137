import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsodyn import errors
from qsodyn.simplex import (
    Permutation,
    SimplexPoint,
    center,
    identity_permutation,
    parse_cycles,
    validate_point,
    vertex,
)


def test_validate_center_unchanged():
    p = validate_point([0.25, 0.25, 0.25, 0.25])
    assert p.coords == (0.25, 0.25, 0.25, 0.25)


def test_validate_rejects_negative():
    with pytest.raises(errors.NegativeCoordinate):
        validate_point([0.5, 0.6, -0.1])


def test_validate_rejects_bad_sum():
    with pytest.raises(errors.SumOutOfRange):
        validate_point([0.5, 0.6])


def test_validate_rejects_empty():
    with pytest.raises(errors.EmptyVector):
        validate_point([])


def test_validate_renormalizes_tiny_excess():
    p = validate_point([0.3, 0.7 + 1e-13])
    assert abs(math.fsum(p.coords) - 1.0) <= 1e-12
    assert p.coords[0] == pytest.approx(0.3, abs=1e-12)


def test_validate_clamps_tiny_negative():
    p = validate_point([0.5, 0.5, -1e-13])
    assert p.coords[2] == 0.0


def test_simplex_point_invariants_enforced():
    with pytest.raises(errors.SumOutOfRange):
        SimplexPoint((0.5, 0.4))
    with pytest.raises(errors.NegativeCoordinate):
        SimplexPoint((1.5, -0.5))
    with pytest.raises(errors.DimensionTooSmall):
        SimplexPoint((1.0,))


def test_non_finite_coordinates_rejected():
    with pytest.raises(errors.QsoError):
        validate_point([0.5, float("nan"), 0.5])
    with pytest.raises(errors.QsoError):
        validate_point([0.5, float("inf")])
    with pytest.raises(errors.QsoError):
        SimplexPoint((float("nan"), float("nan")))


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=8)
       .filter(lambda v: sum(v) > 0.1))
def test_validated_points_always_satisfy_invariants(raw):
    total = sum(raw)
    p = validate_point([v / total for v in raw])
    assert min(p.coords) >= 0.0
    assert abs(math.fsum(p.coords) - 1.0) <= 1e-12


def test_parse_transposition():
    p = parse_cycles("(1 2)", 2)
    assert p.images == (2, 1)
    assert p.order == 2


def test_parse_lcm_order():
    p = parse_cycles("(1 2)(3 4 5)", 5)
    assert p.order == 6


def test_parse_identity_spellings():
    for text in ("", "()", "  "):
        p = parse_cycles(text, 3)
        assert p.images == (1, 2, 3)
        assert p.order == 1


def test_parse_fixed_points_recorded_as_one_cycles():
    p = parse_cycles("(1 3)", 4)
    assert p.cycles == ((1, 3), (2,), (4,))


def test_parse_repeated_symbol():
    with pytest.raises(errors.RepeatedSymbol):
        parse_cycles("(1 2)(2 3)", 3)


def test_parse_symbol_out_of_range():
    with pytest.raises(errors.SymbolOutOfRange):
        parse_cycles("(1 4)", 3)


def test_parse_malformed():
    for text in ("(1 2", "1 2)", "(1,2)", "(a b)", ")("):
        with pytest.raises(errors.MalformedSyntax):
            parse_cycles(text, 3)


def test_apply_permutation_examples():
    assert parse_cycles("(1 2)", 2)(1) == 2
    assert identity_permutation(3)(3) == 3
    assert parse_cycles("(1 2)(3 4 5)", 5)(5) == 3


def test_apply_permutation_out_of_range():
    with pytest.raises(errors.IndexOutOfRange):
        identity_permutation(3)(4)


def _brute_force_order(p: Permutation) -> int:
    images = list(range(1, p.n + 1))
    for s in range(1, math.factorial(p.n) + 1):
        images = [p.images[k - 1] for k in images]
        if images == list(range(1, p.n + 1)):
            return s
    raise AssertionError("no order found")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_order_matches_brute_force_exhaustively(n):
    import itertools

    for images in itertools.permutations(range(1, n + 1)):
        p = Permutation.from_images(images)
        assert p.order == _brute_force_order(p)


@given(st.integers(1, 6), st.randoms(use_true_random=False))
@settings(max_examples=30)
def test_iterating_order_times_returns_home(n, rnd):
    images = list(range(1, n + 1))
    rnd.shuffle(images)
    p = Permutation.from_images(images)
    for k in range(1, n + 1):
        v = k
        for _ in range(p.order):
            v = p(v)
        assert v == k


@pytest.mark.parametrize("m", [-1, 0, 1])
def test_center_needs_two_coordinates(m):
    with pytest.raises(errors.DimensionTooSmall):
        center(m)


@pytest.mark.parametrize("call,error", [
    (lambda: center(2.5), errors.DimensionMismatch),
    (lambda: center(3.0), errors.DimensionMismatch),
    (lambda: center(True), errors.DimensionMismatch),
    (lambda: vertex(3.0, 1), errors.DimensionMismatch),
    (lambda: vertex(False, 1), errors.DimensionMismatch),
    (lambda: vertex(3, 1.0), errors.IndexOutOfRange),
    (lambda: vertex(3, True), errors.IndexOutOfRange),
], ids=["center-2.5", "center-3.0", "center-True", "vertex-m-3.0", "vertex-m-False",
        "vertex-i-1.0", "vertex-i-True"])
def test_center_and_vertex_refuse_a_float_or_bool(call, error):
    with pytest.raises(error):
        call()


def test_center_and_vertex_take_numpy_integers():
    assert center(np.int64(4)) == center(4)
    assert vertex(np.int32(3), np.int64(2)) == vertex(3, 2)


def test_vertex_and_center():
    assert vertex(4, 2).coords == (0.0, 1.0, 0.0, 0.0)
    assert center(5).coords == (0.2,) * 5
