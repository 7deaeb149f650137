"""The one sorted-index scan behind the fixed-point dedup and the limit-set
linkage, checked bit for bit against the per-row numpy loops it replaced."""

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsodyn import analysis
from qsodyn.analysis import (
    DEDUP_RADIUS,
    FIXED_POINT_RESIDUAL,
    _greedy_linkage,
    _project,
    _search,
)


# --- the former loops, kept as the oracles ------------------------------------


def reference_search(xs, rmax, ok, radius=DEDUP_RADIUS):
    """``_search`` after its Newton call, as it was before the sorted index:
    one numpy sup-norm scan over every representative per point."""
    ok &= rmax < FIXED_POINT_RESIDUAL
    found = np.empty_like(xs)  # the first len(resids) rows
    resids: list[float] = []
    for x, resid in zip(xs[ok], rmax[ok].tolist()):
        k = len(resids)
        near = np.flatnonzero(np.max(np.abs(found[:k] - x), axis=1) < radius)
        if near.size == 0:
            found[k] = x
            resids.append(resid)
        elif resid < resids[near[0]]:
            found[near[0]] = x
            resids[near[0]] = resid
    order = sorted(range(len(resids)), key=lambda k: tuple(found[k].tolist()))
    return _project(found[order]), [resids[k] for k in order]


def reference_linkage(points: np.ndarray, tol: float) -> list[list[float]]:
    """``_greedy_linkage`` as it was before the sorted index."""
    # column-major: each scan screens on the contiguous first coordinate, then
    # takes the sup norm of the few left, which keeps the same first hit
    reps = np.empty_like(points, order="F")
    counts: list[int] = []
    for row in points:
        k = len(counts)
        hits = np.flatnonzero(np.abs(reps[:k, 0] - row[0]) <= tol)
        if hits.size:
            hits = hits[np.max(np.abs(reps[hits] - row), axis=1) <= tol]
        if hits.size:
            i = hits[0]
            counts[i] += 1
            # running mean keeps the representative centered
            reps[i] = reps[i] + (row - reps[i]) / counts[i]
        else:
            reps[k] = row
            counts.append(1)
    a = 0
    while a < len(counts) - 1:
        k = len(counts)
        hits = a + 1 + np.flatnonzero(np.abs(reps[a, 0] - reps[a + 1:k, 0]) <= tol)
        if hits.size:
            hits = hits[np.max(np.abs(reps[a] - reps[hits]), axis=1) <= tol]
        if not hits.size:
            a += 1
            continue
        b = hits[0]
        total = counts[a] + counts[b]
        reps[a] = (counts[a] * reps[a] + counts[b] * reps[b]) / total
        counts[a] = total
        reps[b:k - 1] = reps[b + 1:k]
        del counts[b]
        a = 0
    return sorted(reps[:len(counts)].tolist())


def searched(xs, rmax, ok, radius=DEDUP_RADIUS):
    """``_search``'s rows and residuals for these Newton results."""
    newton = mock.patch.object(analysis, "_newton", lambda *args: (xs, rmax, ok.copy()))
    with newton, mock.patch.object(analysis, "DEDUP_RADIUS", radius):
        return _search(SimpleNamespace(m=xs.shape[1]), 0, 0, 1, 1e-12)


def assert_search_matches(xs, rmax, ok, radius=DEDUP_RADIUS):
    rows, resids = searched(xs, rmax, ok, radius)
    want_rows, want_resids = reference_search(xs, rmax, ok.copy(), radius)
    assert rows.shape == want_rows.shape and rows.tobytes() == want_rows.tobytes()
    assert resids == want_resids
    return rows, resids


def bits(rows):
    return np.array(rows, dtype=float).tobytes()


def assert_linkage_matches(points, tol):
    got = _greedy_linkage(points, tol)
    want = reference_linkage(points, tol)
    assert len(got) == len(want) and bits(got) == bits(want)
    return got


# --- drawn cases ----------------------------------------------------------------


def clustered(draw, rng, n, m, tol):
    """n rows about a few centers with a spread around ``tol``, or on a grid
    of step ``tol``, some of them repeated, some zeros made -0.0."""
    if draw(st.booleans()):
        centers = rng.random((draw(st.integers(1, 8)), m))
        centers[rng.random(centers.shape) < 0.2] = 0.0
        scale = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0, 4.0])) * tol
        pts = centers[rng.integers(len(centers), size=n)] + rng.normal(scale=scale, size=(n, m))
    else:
        pts = tol * rng.integers(-2, 3, size=(n, m)).astype(float)
    if draw(st.booleans()):
        pts = pts[rng.integers(max(n, 1), size=n)]
    pts[(pts == 0.0) & (rng.random((n, m)) < 0.5)] = -0.0
    return pts


@st.composite
def search_cases(draw):
    """Newton results for the dedup: rows near a few solutions, residuals
    drawn from a handful of values (so ties occur) and some rows rejected."""
    m, n = draw(st.integers(2, 8)), draw(st.integers(0, 300))
    radius = draw(st.sampled_from([DEDUP_RADIUS, 2.0 ** -6, 2.0 ** -20, 5e-324]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = clustered(draw, rng, n, m, radius)
    levels = np.array([0.0, 1e-16, 1e-12, 3e-9, 1e-8, 1e-3])
    rmax = levels[rng.integers(len(levels), size=n)]
    ok = rng.random(n) < 0.9
    return xs, rmax, ok, radius


@settings(max_examples=150, deadline=None)
@given(search_cases())
def test_search_dedup_matches_the_numpy_loop(case):
    assert_search_matches(*case)


@st.composite
def linkage_cases(draw):
    """Points for the linkage at a tol that may be 0: clusters, drifts whose
    running means merge, and NaN coordinates, a NaN first one included."""
    m, n = draw(st.integers(2, 8)), draw(st.integers(0, 300))
    tol = draw(st.sampled_from([0.0, 2.0 ** -20, 1e-6, 2.0 ** -6, 0.1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pts = clustered(draw, rng, n, m, tol or 1e-9)
    else:
        step = draw(st.sampled_from([0.25, 0.5, 1.0])) * (tol or 1e-9)
        pts = 0.5 + np.cumsum(rng.normal(scale=step, size=(n, m)), axis=0)
    if n and draw(st.booleans()):
        nan_cols = [0] if draw(st.booleans()) else list(range(m))
        rows = rng.integers(n, size=draw(st.integers(1, max(1, n // 10))))
        pts[rows, rng.choice(nan_cols, size=len(rows))] = np.nan
    return pts, tol


@settings(max_examples=150, deadline=None)
@given(linkage_cases())
def test_linkage_matches_the_numpy_loop(case):
    assert_linkage_matches(*case)


# --- fixed cases ----------------------------------------------------------------


def test_replacements_carry_a_representative_past_its_first_key():
    # each row replaces the one before it (smaller residual, within the
    # radius), so the representative walks 3.6 radii from where it was
    # first indexed; the last row is within the radius of it only there
    r = DEDUP_RADIUS
    xs = np.array([[0.5 + 0.9 * r * i, 0.5] for i in range(5)]
                  + [[0.5 - 0.5 * r, 0.5], [0.5 + 4.4 * r, 0.5]])
    rmax = np.array([5e-9, 4e-9, 3e-9, 2e-9, 1e-9, 1e-10, 1e-11])
    rows, resids = assert_search_matches(xs, rmax, np.ones(len(xs), bool))
    assert rows.tolist() == _project(xs[[5, 6]]).tolist() and resids == [1e-10, 1e-11]


def test_a_replacement_moves_out_of_reach_of_earlier_members():
    r = DEDUP_RADIUS
    xs = np.array([[0.4, 0.6], [0.4 + 0.9 * r, 0.6], [0.4 - 0.5 * r, 0.6],
                   [0.4 + 1.7 * r, 0.6]])
    rmax = np.array([2e-9, 1e-9, 1e-12, 1e-12])
    rows, resids = assert_search_matches(xs, rmax, np.ones(4, bool))
    # the third row was within the radius of the first, not of its
    # replacement; the fourth replaces the replacement
    assert rows.tolist() == _project(xs[[2, 3]]).tolist() and resids == [1e-12, 1e-12]


def test_dedup_ties_keep_the_first_row():
    r = DEDUP_RADIUS
    xs = np.array([[0.3, 0.7], [0.3 + 0.5 * r, 0.7], [0.3, 0.7 - 0.5 * r]])
    rows, resids = assert_search_matches(xs, np.full(3, 1e-12), np.ones(3, bool))
    assert rows.tolist() == _project(xs[:1]).tolist() and resids == [1e-12]


def test_dedup_radius_is_strict():
    xs = np.array([[0.0, 1.0], [DEDUP_RADIUS, 1.0], [0.0, 1.0 - 0.5 * DEDUP_RADIUS]])
    _, resids = assert_search_matches(xs, np.array([1e-9, 1e-10, 1e-11]), np.ones(3, bool))
    assert resids == [1e-11, 1e-10]


def test_running_means_drift_together_and_the_merge_restarts():
    # the fourth row drifts R1 within tol of R2; their merge lands within tol
    # of R0, which the pass finds only by restarting from the first slot
    pts = np.array([[0.0, 0.0], [1.2, 0.3], [0.3, 1.35], [1.1, 0.5]])
    assert len(assert_linkage_matches(pts, 1.0)) == 1


def test_first_coordinates_agree_while_another_does_not():
    # every key is the same, so each lookup tests the whole window; the third
    # row is within tol of both representatives, and the first wins
    t = 1e-6
    pts = np.array([[0.0, 0.0], [0.0, 2 * t], [0.0, t], [-0.0, 2 * t], [0.0, 0.5 * t]])
    assert assert_linkage_matches(pts, t) == [[0.0, 0.5 * t], [0.0, 2 * t]]
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [-0.0, 0.0], [0.0, 1.0]])
    assert assert_linkage_matches(pts, 0.0) == [[0.0, 0.0], [0.0, 1.0]]
    xs = np.array([[0.0, 0.2, 0.8], [0.0, 0.8, 0.2], [0.0, 0.2 + 0.5 * DEDUP_RADIUS, 0.8]])
    _, resids = assert_search_matches(xs, np.array([2e-9, 1e-9, 1e-12]), np.ones(3, bool))
    assert resids == [1e-12, 1e-9]


@pytest.mark.parametrize("order", [[0, 1], [1, 0]])
def test_the_window_keeps_a_key_that_rounding_puts_past_one_tol(order):
    # |k - x0| rounds to within tol, yet k is below x0 - tol and x0 above
    # k + tol, each as rounded
    x0, tol = 4.866085548615851e-06, 2.0 ** -6
    k = math.nextafter(x0 - tol, -math.inf)
    assert abs(k - x0) <= tol and k + tol < x0
    got = assert_linkage_matches(np.array([[k, 0.5], [x0, 0.5]])[order], tol)
    assert len(got) == 1


def test_nan_rows_match_nothing():
    pts = np.array([[np.nan, 0.5], [0.25, np.nan], [0.25, 0.5], [np.nan, 0.5], [0.25, 0.5]])
    assert len(assert_linkage_matches(pts, 0.1)) == 4


def test_several_hundred_representatives():
    # every row is within 0.4 tol of its center on each coordinate, so each
    # of the 600 centers keeps one representative
    rng = np.random.default_rng(22)
    m, n = 5, 3000
    centers = rng.random((600, m))
    pick = centers[rng.permutation(n) % 600]
    tol = 1e-6
    pts = pick + rng.uniform(-0.4 * tol, 0.4 * tol, size=(n, m))
    assert len(assert_linkage_matches(pts, tol)) == 600
    xs = pick + rng.uniform(-0.4 * DEDUP_RADIUS, 0.4 * DEDUP_RADIUS, size=(n, m))
    rmax = rng.choice([1e-12, 1e-10, 1e-9], size=n)
    rows, _ = assert_search_matches(xs, rmax, np.ones(n, bool))
    assert len(rows) == 600
