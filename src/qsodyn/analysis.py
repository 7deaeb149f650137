"""Dynamical analysis: fixed points, stability, Lyapunov checks, limit sets.

Everything here is pure given (tensor, parameters, seed).  Stability is
always judged on the tangent space of the simplex: the hyperplane of
zero-sum increment vectors.  The complementary direction carries the trivial
eigenvalue 2 (every Jacobian column of the raw quadratic map sums to twice
the coordinate sum), which is reported separately and never enters the
classification.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .errors import (
    DimensionMismatch,
    InapplicableFunction,
    InapplicableSet,
    InsufficientTail,
    NeverEntersRegion,
    NotAFixedPoint,
    QsoError,
)
from .families import make_alpha_combination, make_quasi_strict, make_regular
from .simplex import TAU_ZERO, Permutation, SimplexPoint
from .tensor import (
    MAX_STEPS,
    CoefficientTensor,
    _check_count,
    _check_tolerance,
    _loops,
    _project,
    cesaro,
    jacobian,
    run,
    run_batch,
    run_collect,
)

ATTRACTING = "ATTRACTING"
REPELLING = "REPELLING"
SADDLE = "SADDLE"
NON_HYPERBOLIC = "NON_HYPERBOLIC"

# Moduli within this band of 1 make a fixed point non-hyperbolic.
DEFAULT_BAND = 1e-6
# Converged fixed points closer than this are considered the same solution.
DEDUP_RADIUS = 1e-8
# Residual required of a point for classification to accept it as fixed.
FIXED_POINT_RESIDUAL = 1e-8
# Greedy linkage radius for limit-set clustering.
DEFAULT_CLUSTER_TOL = 1e-6
# Tolerance for period detection on trajectory tails.
DEFAULT_PERIOD_TOL = 1e-9
# Monotonicity slack absorbing renormalization round-off.
LYAPUNOV_SLACK = 1e-12
# Lyapunov burn-in for the last-coordinate function of the blended operator:
# orbits approach the limiting last coordinate from below after lopsided
# transients, with increases decaying at the squared contraction rate.  At
# m = 4 and alpha in {0.3, 0.7} a 3000-start scan shows no increase above
# 1e-12 beyond step 34; 50 leaves margin.
LAST_COORD_N0 = 50
# Orbit points that check_lyapunov evaluates per block of samples.
_LYAPUNOV_BLOCK_POINTS = 1 << 16
# Steps that contraction_report collects per block of its entry search.
_ENTRY_BLOCK_STEPS = 256
# contraction_report's round-off floor of a block's differences, and its
# most steps before the orbit enters the region x_m < 1/2.
CONTRACTION_DIFF_FLOOR = 1e-6
CONTRACTION_MAX_ENTRY_STEPS = 200_000
# periodic_absence_search's seeded interior starts and Newton tolerance.
PERIODIC_SEARCH_STARTS = 40
PERIODIC_SEARCH_TOL = 1e-12
# max_norm_check's radius of excluded samples around each fixed point.
MAX_NORM_EXCLUSION_RADIUS = 1e-9


def sample_interior(rng: np.random.Generator, m: int, n: int = 1) -> np.ndarray:
    """n interior points drawn by normalizing exponential coordinates."""
    e = rng.exponential(size=(n, m))
    return e / e.sum(axis=1, keepdims=True)


@lru_cache(maxsize=None)
def tangent_basis(m: int) -> np.ndarray:
    """Orthonormal (m, m-1) basis of the zero-sum hyperplane (Helmert)."""
    b = np.zeros((m, m - 1))
    for k in range(1, m):
        b[:k, k - 1] = 1.0
        b[k, k - 1] = -float(k)
        b[:, k - 1] /= math.sqrt(k * (k + 1))
    b.setflags(write=False)
    return b


def _tangent_spectra(j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tangent-space eigenvalues of each Jacobian of an (n, m, m) stack, an
    (n, m-1) array, and its transversal value (common column sum), an (n,) array."""
    b = tangent_basis(j.shape[-1])
    return np.linalg.eigvals(b.T @ j @ b), j.sum(axis=1).mean(axis=1)


@dataclass(frozen=True)
class FixedPointReport:
    point: SimplexPoint
    residual: float
    tangent_eigenvalues: tuple[complex, ...]
    classification: str
    transversal_eigenvalue: float
    on_boundary: bool

    def moduli(self) -> list[float]:
        return [abs(v) for v in self.tangent_eigenvalues]


def classify_fixed_point(t: CoefficientTensor, x: SimplexPoint,
                         band: float = DEFAULT_BAND) -> FixedPointReport:
    """Spectral classification of a fixed point on the tangent space."""
    _check_tolerance("band", band)
    return _classify_points(t, [x], band)[0]


def _classify_points(t: CoefficientTensor, points: list[SimplexPoint],
                     band: float) -> list[FixedPointReport]:
    """``classify_fixed_point`` of each point, with one stacked spectrum;
    the first point that is not fixed raises."""
    if not points:
        return []
    xs = np.array([x.array for x in points])
    residuals = np.abs(run(t, xs, 1) - xs).max(axis=1).tolist()
    for residual in residuals:
        if residual >= FIXED_POINT_RESIDUAL:
            raise NotAFixedPoint(f"residual {residual!r} >= {FIXED_POINT_RESIDUAL}")
    eigs, transversal = _tangent_spectra(jacobian(t, xs))
    moduli = np.abs(eigs)
    cls = np.select([np.any(np.abs(moduli - 1.0) <= band, axis=1),
                     np.all(moduli < 1.0 - band, axis=1), np.all(moduli > 1.0 + band, axis=1)],
                    [NON_HYPERBOLIC, ATTRACTING, REPELLING], SADDLE)
    eigs = np.take_along_axis(eigs, np.lexsort((eigs.imag, eigs.real), axis=-1), axis=-1)
    return [
        FixedPointReport(
            point=x,
            residual=residual,
            tangent_eigenvalues=tuple(complex(v) for v in row),
            classification=str(c),
            transversal_eigenvalue=float(tv),
            on_boundary=bool(low <= TAU_ZERO),
        )
        for x, residual, row, c, tv, low in zip(points, residuals, eigs, cls, transversal,
                                                xs.min(axis=1))
    ]


# --- multistart Newton solving ------------------------------------------------


def _compose_jacobian_rows(t: CoefficientTensor, xs: np.ndarray, n: int) -> np.ndarray:
    """Chain-rule Jacobian of the n-fold map along the orbit of each row, as
    a (rows, m, m) stack of ``jacobian``."""
    j = jacobian(t, xs)
    for _ in range(n - 1):
        xs = run_batch(t, xs, 1)
        j = jacobian(t, xs) @ j
    return j


def _lstsq_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.array([np.linalg.lstsq(ak, bk, rcond=None)[0] for ak, bk in zip(a, b)])


def _solve_rows(a: np.ndarray, b: np.ndarray, singular=None) -> np.ndarray:
    """The solution of each system ``a[k] x = b[k]``, by one stacked
    ``np.linalg.solve``.  A singular system gets ``singular`` of its rows,
    or NaN when ``singular`` is None."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # slogdet factors each system as solve does: sign 0 where it is singular
        bad = np.linalg.slogdet(a).sign == 0.0
        x = np.full_like(b, np.nan)
        x[~bad] = np.linalg.solve(a[~bad], b[~bad, :, None])[..., 0]
        if singular is not None:
            x[bad] = singular(a[bad], b[bad])
        return x


def _newton_iterations(t: CoefficientTensor, x: np.ndarray, rows: np.ndarray, n: int,
                       iters: int, below: float, solve, clip: float = 0.0,
                       limit: float = sys.float_info.max) -> np.ndarray:
    """Up to ``iters`` Newton iterations for V^n(x) = x on each of the
    ``rows`` of x, in place; returns the rows that made all of them.

    A row stops at max|r| < ``below``, and at an increment whose largest
    entry is above ``limit`` or not finite; an increment larger than a
    positive ``clip`` is scaled down to it (0.0: no trust region).  The
    increment solves ``solve(a, b)`` in the first m-1 coordinates: the
    unit-sum constraint eliminates the last coordinate, whose increment is
    minus the sum of the others.  A row that an iteration returns bit for
    bit leaves as one that made them all: this is exact, as a row carries
    only its state, so each later one would repeat it.  Around the solve
    each iteration is one ``newton_residual`` and one ``newton_move``.
    """
    m, live, eye = t.m, len(rows), np.eye(t.m - 1)
    rows, xs, fixed = np.array(rows, dtype=np.int64), x[rows], np.zeros(len(x), np.int8)
    ys, b = np.empty_like(xs), np.empty((live, m - 1))
    residual, move = _loops(m).newton_calls(t, n, x, rows, xs, ys, b, fixed)
    for _ in range(iters):
        if not (live := residual(live, below)):
            break
        j = _compose_jacobian_rows(t, xs[:live], n)
        a = j[:, :m - 1, :m - 1] - eye
        a -= j[:, :m - 1, m - 1:]
        if not (live := move(solve(a, b[:live]), live, limit, clip)):
            break
    x[rows[:live]] = xs[:live]
    return np.sort(np.concatenate([rows[:live], np.flatnonzero(fixed)]))


def _newton(t: CoefficientTensor, x0s, n_compose: int, tol: float, max_iter: int = 80):
    """Newton for V^n(x) = x on the affine hull, projected to the simplex,
    from each row of ``x0s``; all starts run as rows of one array, and no
    row's bits depend on the others.

    Each start searches with a trust region, solving singular systems by
    least squares.  One that is still searching after ``max_iter``
    iterations gets 500 damped sweeps x <- (x + V^n(x)) / 2, which reach
    attracting solutions Newton missed, then up to 6 least-squares
    corrections.  Every start ends with up to two plain Newton steps of at
    most 1e-3, which stop at a singular system.  Returns
    ``(xs, residuals, converged)``, one row or entry per start.
    """
    x = _project(np.array(x0s, dtype=float))
    if x.ndim != 2 or x.shape[1] != t.m:
        raise DimensionMismatch(f"starts have shape {x.shape}, expected (n, {t.m})")
    every = np.arange(len(x))
    out = _newton_iterations(t, x, every, n_compose, max_iter, tol,
                             lambda a, b: _solve_rows(a, b, _lstsq_rows), clip=0.5)
    if out.size:
        if n_compose == 1:
            # (V + id) / 2 is the map of p / 2 + e / 2, e[i, j, k] = (d_ik + d_jk) / 2
            eye = np.eye(t.m)
            e = (eye[:, None, :] + eye[None]) / 2
            lazy = CoefficientTensor(t.m, 0.5 * t.p + 0.5 * e)
            x[out] = run_batch(lazy, x[out], 500)
        else:
            xs = x[out]
            for _ in range(500):
                xs = _project(0.5 * xs + 0.5 * run_batch(t, xs, n_compose))
            x[out] = xs
        _newton_iterations(t, x, out, n_compose, 6, tol, _lstsq_rows)
    # polish; below the least positive float, only an exact zero residual stops
    _newton_iterations(t, x, every, n_compose, 2, np.nextafter(0.0, 1.0), _solve_rows,
                       limit=1e-3)
    rmax = np.abs(run_batch(t, x, n_compose) - x).max(axis=1)
    return x, rmax, rmax < max(tol * 100.0, 1e-10)


def _default_starts(t: CoefficientTensor, extra: int, seed) -> list[np.ndarray]:
    m, eye = t.m, np.eye(t.m)
    starts = [*eye, np.full(m, 1.0 / m)]
    starts.extend((eye[i] + eye[j]) / 2 for i in range(m) for j in range(i + 1, m))
    starts.extend(sample_interior(np.random.default_rng(seed), m, extra))
    return starts


class _Reps:
    """Representatives in slot order, as lists of floats, indexed by the sorted
    (first coordinate, slot) pairs of those whose first coordinate is not NaN.
    A match is within tol on that coordinate, so ``first`` tests only the keys
    within 2 tol of the point's, and a NaN matches nothing."""

    def __init__(self, tol: float):
        self.tol, self.rows, self._keys = tol, [], []

    def first(self, x: list[float], after: int = -1) -> int | None:
        """The lowest slot past ``after`` whose row is within tol of ``x`` on
        every coordinate, ``abs(r - v) <= tol`` as numpy computes it."""
        tol, x0 = self.tol, x[0]
        lo = bisect_left(self._keys, (x0 - 2.0 * tol,))
        hi = bisect_right(self._keys, (x0 + 2.0 * tol, math.inf)) if x0 == x0 else lo
        return min((s for _, s in self._keys[lo:hi] if s > after and all(
            abs(r - v) <= tol for r, v in zip(self.rows[s], x))), default=None)

    def add(self, x: list[float]) -> None:
        if x[0] == x[0]:
            insort(self._keys, (x[0], len(self.rows)))
        self.rows.append(x)

    def move(self, s: int, x: list[float]) -> None:
        """Replace the row of slot ``s``."""
        if self.rows[s][0] == self.rows[s][0]:
            del self._keys[bisect_left(self._keys, (self.rows[s][0], s))]
        if x[0] == x[0]:
            insort(self._keys, (x[0], s))
        self.rows[s] = x

    def delete(self, s: int) -> None:
        """Drop slot ``s``; the later slots move down by one."""
        del self.rows[s]
        self._keys = [(k, r - (r > s)) for k, r in self._keys if r != s]


def _search(t: CoefficientTensor, starts: int, seed, n: int, tol: float):
    """Multistart Newton on V^n(x) = x from the vertices, the center, the
    edge midpoints and ``starts`` seeded interior points.  Returns the
    solutions below ``FIXED_POINT_RESIDUAL`` (the others are dropped, never
    fatal), of those within ``DEDUP_RADIUS`` the one with the smallest
    residual, as sorted rows projected onto the simplex, and their residuals."""
    _check_count("starts", starts, 0)
    _check_count("n", n, 1)
    _check_tolerance("tol", tol, positive=True)
    xs, rmax, ok = _newton(t, _default_starts(t, starts, seed), n, tol)
    ok &= rmax < FIXED_POINT_RESIDUAL
    # d < DEDUP_RADIUS is d <= the float below it
    found = _Reps(math.nextafter(DEDUP_RADIUS, 0.0))
    resids: list[float] = []
    for x, resid in zip(xs[ok].tolist(), rmax[ok].tolist()):
        k = found.first(x)
        if k is None:
            found.add(x)
            resids.append(resid)
        elif resid < resids[k]:
            found.move(k, x)
            resids[k] = resid
    order = sorted(range(len(resids)), key=found.rows.__getitem__)
    return _project(np.array(found.rows).reshape(-1, t.m)[order]), [resids[k] for k in order]


def find_fixed_points(t: CoefficientTensor, starts: int = 24, tol: float = 1e-12,
                      seed: int = 0, band: float = DEFAULT_BAND) -> list[FixedPointReport]:
    """Multistart Newton on V(x) = x, classified: the solutions that
    ``_search`` keeps from ``starts`` seeded interior points and the fixed
    starts, each below ``FIXED_POINT_RESIDUAL`` as classification requires."""
    _check_tolerance("band", band)
    rows, _ = _search(t, starts, seed, 1, tol)
    return _classify_points(t, [SimplexPoint(tuple(x)) for x in rows.tolist()], band)


@dataclass(frozen=True)
class PeriodicSearchReport:
    n: int
    s: int
    solutions: tuple[tuple[SimplexPoint, float, str], ...]
    counterexamples: tuple[SimplexPoint, ...]


def periodic_absence_search(m: int, perm: Permutation, n: int,
                            seed: int = 0) -> PeriodicSearchReport:
    """The solutions of V^n(x) = x that ``_search`` finds for the
    permutation-driven operator, each with its residual and category.

    Every solution must be (within ``FIXED_POINT_RESIDUAL``) either a fixed
    point or a point with last coordinate 1/2 whose period divides s, the
    permutation order.  Anything else lands in ``counterexamples`` (expected
    empty).
    """
    t = make_quasi_strict(m, perm)
    s = perm.order
    rows, resids = _search(t, PERIODIC_SEARCH_STARTS, seed, n, PERIODIC_SEARCH_TOL)
    solutions = [(SimplexPoint(tuple(x.tolist())), resid, _categorize_solution(t, x, s))
                 for x, resid in zip(rows, resids)]
    counter = tuple(pt for pt, _, cat in solutions if cat == "other")
    return PeriodicSearchReport(n=n, s=s, solutions=tuple(solutions), counterexamples=counter)


def _categorize_solution(t: CoefficientTensor, x: np.ndarray, s: int) -> str:
    if np.max(np.abs(run(t, x, 1) - x)) < FIXED_POINT_RESIDUAL:
        return "fixed_point"
    if abs(x[-1] - 0.5) < FIXED_POINT_RESIDUAL:
        for d in range(1, s + 1):
            if s % d == 0 and np.max(np.abs(run(t, x, d) - x)) < FIXED_POINT_RESIDUAL:
                return "periodic_s"
    return "other"


# --- Lyapunov functions -------------------------------------------------------


@dataclass(frozen=True)
class LyapunovFn:
    """A scalar function monotone along trajectories of a matching operator.

    ``n0`` is the first iterate from which monotonicity is asserted: some of
    the catalog functions become monotone only after the orbit enters the
    region where their defining estimate holds.
    """

    id: str
    direction: str  # NON_INCREASING or NON_DECREASING
    n0: int
    families: tuple[str, ...]  # registry names this applies to, () = any
    # maps points along the last axis of an array to their values, so that
    # it takes one point or a whole stack of orbits
    fn: callable = field(repr=False)

    def __call__(self, x: np.ndarray) -> float:
        return float(self.fn(np.asarray(x, dtype=float)))


def cyclic_product() -> LyapunovFn:
    """|x1-x2||x2-x3|...|xm-x1|: non-increasing under the mixing operator."""
    def fn(x):
        return np.prod(np.abs(x - np.roll(x, -1, axis=-1)), axis=-1)
    return LyapunovFn("CYCLIC_PRODUCT", "NON_INCREASING", 0, ("REGULAR",), fn)


def cycle_product(perm: Permutation, cycle_index: int) -> LyapunovFn:
    """Product of the coordinates in one cycle of the permutation.

    Non-decreasing from iterate 1 on, once the last coordinate has reached
    its floor of 1/2.
    """
    cyc = _cycle_of(perm, cycle_index)
    idx = np.array(cyc) - 1
    def fn(x):
        return np.prod(np.take(x, idx, axis=-1), axis=-1)
    return LyapunovFn(f"CYCLE_PRODUCT({cycle_index})", "NON_DECREASING", 1,
                      ("QUASI_STRICT",), fn)


def cycle_sum(perm: Permutation, cycle_index: int) -> LyapunovFn:
    """Sum of the coordinates in one cycle of the permutation (from iterate 1)."""
    cyc = _cycle_of(perm, cycle_index)
    idx = np.array(cyc) - 1
    def fn(x):
        # take, unlike x[..., idx], gives contiguous rows, which numpy sums in
        # the pairwise order of a single point's sum
        return np.sum(np.take(x, idx, axis=-1), axis=-1)
    return LyapunovFn(f"CYCLE_SUM({cycle_index})", "NON_DECREASING", 1,
                      ("QUASI_STRICT",), fn)


def _cycle_of(perm: Permutation, cycle_index: int):
    if not 1 <= cycle_index <= len(perm.cycles):
        raise InapplicableFunction(
            f"cycle index {cycle_index} outside 1..{len(perm.cycles)}"
        )
    return perm.cycles[cycle_index - 1]


def last_coord(n0: int = LAST_COORD_N0) -> LyapunovFn:
    """The last coordinate, non-increasing along blended-operator orbits.

    The decrease estimate holds on the region where the last coordinate has
    already reached its limiting band; orbits from lopsided starts need a few
    dozen steps to get there, hence the default burn-in ``LAST_COORD_N0``.
    """
    def fn(x):
        return x[..., -1]
    return LyapunovFn("LAST_COORD", "NON_INCREASING", n0, ("ALPHA_COMBINATION",), fn)


def abs_diff_product() -> LyapunovFn:
    """|x1-x2||x2-x3||x3-x1| on the 2-simplex (balanced planar blends)."""
    def fn(x):
        x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
        return abs(x1 - x2) * abs(x2 - x3) * abs(x3 - x1)
    return LyapunovFn("ABS_DIFF_PRODUCT", "NON_INCREASING", 0,
                      ("GSN_ALPHA", "GSN_BETA", "JJPH_THETA"), fn)


def coord_product() -> LyapunovFn:
    """x1 x2 x3 on the 2-simplex (spiral blends away from the identity)."""
    def fn(x):
        return x[..., 0] * x[..., 1] * x[..., 2]
    return LyapunovFn("COORD_PRODUCT", "NON_INCREASING", 0, ("VALLANDER_SPIRAL",), fn)


def combine_lyapunov(fns: list[LyapunovFn], coeffs: list[float]) -> LyapunovFn:
    """prod(c_i f_i) + sum(c_i f_i) for finite nonnegative coefficients.

    Restricted to same-direction nonnegative components, where monotonicity
    is inherited; sign-mixed combinations are rejected.
    """
    if len(fns) != len(coeffs) or not fns:
        raise InapplicableFunction("need one coefficient per function")
    if not all(0 <= c < math.inf for c in coeffs):
        raise InapplicableFunction("composite Lyapunov functions need finite coefficients >= 0")
    direction = fns[0].direction
    if any(g.direction != direction for g in fns):
        raise InapplicableFunction("cannot mix directions in a composite")
    n0 = max(g.n0 for g in fns)
    fams = tuple(sorted(set.intersection(*(set(g.families) for g in fns))))
    def fn(x):
        vals = np.stack([c * g.fn(x) for c, g in zip(coeffs, fns)], axis=-1)
        return np.prod(vals, axis=-1) + np.sum(vals, axis=-1)
    ident = "COMPOSITE(" + "+".join(g.id for g in fns) + ")"
    return LyapunovFn(ident, direction, n0, fams, fn)


@dataclass(frozen=True)
class LyapunovReport:
    fn_id: str
    direction: str
    n0: int
    slack: float
    samples: int
    horizon: int
    violations: int
    worst_violation: float
    worst_location: tuple[int, int] | None  # (sample index, step n of the earlier point)


def check_lyapunov(t: CoefficientTensor, fn: LyapunovFn, samples: int,
                   horizon: int, seed: int, slack: float = LYAPUNOV_SLACK) -> LyapunovReport:
    """Count monotonicity violations along seeded random trajectories.

    A violation is a step, at index >= fn.n0, where the function moves
    against its declared direction by more than ``slack``.  ``fn.fn`` is
    evaluated once per block of whole orbits.
    """
    if fn.families and t.spec is not None and t.spec.family not in fn.families:
        raise InapplicableFunction(f"{fn.id} applies to {fn.families}, tensor is {t.name!r}")
    _check_count("samples", samples, 1)
    _check_count("n0", fn.n0, 0)
    _check_tolerance("slack", slack)
    _check_count("horizon", horizon, 1)
    if fn.n0 >= horizon:
        raise InapplicableFunction(f"horizon {horizon} must exceed the burn-in n0={fn.n0}")
    rng = np.random.default_rng(seed)
    starts = sample_interior(rng, t.m, samples)
    sign = -1.0 if fn.direction == "NON_INCREASING" else 1.0
    violations = 0
    worst = 0.0
    worst_at: tuple[int, int] | None = None
    # whole orbits in blocks of samples, so that memory stays bounded
    block = max(1, _LYAPUNOV_BLOCK_POINTS // (horizon + 1))
    for first in range(0, samples, block):
        orbits = run_collect(t, starts[first:first + block], horizon)
        vals = fn.fn(orbits)
        if np.shape(vals) != orbits.shape[:-1]:
            raise InapplicableFunction(f"{fn.id} does not map points along the last axis")
        deltas = sign * np.diff(vals, axis=-1)  # >= -slack required
        bad = -deltas[:, fn.n0:]
        hit = bad > slack  # never true for NaN
        violations += int(np.count_nonzero(hit))
        if not hit.any():
            continue
        # the first maximum in (sample, step) order, as a strict > scan finds it
        at = int(np.argmax(np.where(hit, bad, -np.inf)))
        si, n = divmod(at, bad.shape[1])
        if bad[si, n] > worst:
            worst = float(bad[si, n])
            worst_at = (first + si, fn.n0 + n)
    return LyapunovReport(
        fn_id=fn.id, direction=fn.direction, n0=fn.n0, slack=slack,
        samples=samples, horizon=horizon, violations=violations,
        worst_violation=worst, worst_location=worst_at,
    )


# --- periods and limit sets ---------------------------------------------------


def detect_period_tail(tail: np.ndarray, s_max: int, tol: float = DEFAULT_PERIOD_TOL):
    """Smallest s <= s_max with a sustained s-shift match over the tail array."""
    npts = tail.shape[0]
    if npts < 2 * s_max:
        raise InsufficientTail(f"need a stride-1 tail of >= {2 * s_max} points, got {npts}")
    window = tail[-2 * s_max:]
    for s in range(1, s_max + 1):
        if np.max(np.abs(window[s:] - window[:-s])) < tol:
            return s
    return None


@dataclass(frozen=True)
class OmegaSet:
    cluster_points: tuple[SimplexPoint, ...]
    detected_period: int | None
    diagnostics: dict


def _greedy_linkage(points: np.ndarray, tol: float) -> list[list[float]]:
    """Representatives of greedy sup-norm linkage at ``tol``, sorted.

    Each point joins the first representative within ``tol``, whose running
    mean it updates, or starts a new one.  Running means can drift two
    representatives together, so afterwards the first pair (a, b) within
    ``tol`` in the order a < b is merged into a, weighted by counts, and the
    scan restarts from a = 0 until no pair is within ``tol``.
    """
    reps = _Reps(tol)
    counts: list[int] = []
    for row in points.tolist():
        i = reps.first(row)
        if i is None:
            reps.add(row)
            counts.append(1)
        else:
            counts[i] += 1
            # running mean keeps the representative centered
            reps.move(i, [r + (v - r) / counts[i] for r, v in zip(reps.rows[i], row)])
    a = 0
    while a < len(counts) - 1:
        b = reps.first(reps.rows[a], after=a)
        if b is None:
            a += 1
            continue
        ca, cb = counts[a], counts[b]
        reps.move(a, [(ca * r + cb * v) / (ca + cb) for r, v in zip(reps.rows[a], reps.rows[b])])
        counts[a] = ca + cb
        reps.delete(b)
        del counts[b]
        a = 0
    return sorted(reps.rows)


def omega_estimate(t: CoefficientTensor, x0: SimplexPoint, burn_in: int,
                   window: int, cluster_tol: float = DEFAULT_CLUSTER_TOL,
                   s_max: int | None = None,
                   period_tol: float = DEFAULT_PERIOD_TOL) -> OmegaSet:
    """Estimate the limit set: burn in, then cluster a stride-1 window.

    Clustering is greedy sup-norm linkage at ``cluster_tol``; the detected
    period of the window tail is attached when the window is long enough.
    """
    _check_count("burn_in", burn_in, 1, MAX_STEPS)
    _check_count("window", window, 1, MAX_STEPS)
    _check_tolerance("cluster_tol", cluster_tol)
    _check_tolerance("period_tol", period_tol)
    if s_max is not None:
        _check_count("s_max", s_max, 1)
    x = run(t, x0.array, burn_in)
    tail = run_collect(t, x, window - 1)
    reps = _greedy_linkage(tail, cluster_tol)
    smax = s_max if s_max is not None else max(1, window // 2)
    try:
        period = detect_period_tail(tail, smax, period_tol)
    except InsufficientTail:
        period = None
    return OmegaSet(
        cluster_points=tuple(SimplexPoint(tuple(r)) for r in reps),
        detected_period=period,
        diagnostics={
            "burn_in": burn_in,
            "window": window,
            "cluster_tol": cluster_tol,
            "s_max": smax,
            "boundary_start": bool(np.min(x0.array) <= TAU_ZERO),
        },
    )


# --- invariant sets -----------------------------------------------------------


@dataclass(frozen=True)
class InvariantSetSpec:
    """Membership defect + member sampler for one candidate invariant set."""

    id: str
    families: tuple[str, ...]
    defect: callable = field(repr=False)
    sample: callable = field(repr=False)


def m0_set(m: int) -> InvariantSetSpec:
    """Product of the first m-1 coordinates vanishes."""
    def defect(x):
        return float(np.prod(x[: m - 1]))
    def sample(rng):
        x = sample_interior(rng, m, 1)[0]
        x[rng.integers(0, m - 1)] = 0.0
        return x / x.sum()
    return InvariantSetSpec(f"M0(m={m})", ("QUASI_STRICT",), defect, sample)


def m_omega_set(m: int, perm: Permutation, i: int, j: int, omega: float) -> InvariantSetSpec:
    """Cycle-product proportionality: prod over tau_i = omega * prod over tau_j.

    Membership uses the union with the 1/omega branch.  Samples are produced
    by alternately rescaling the tau_i block and renormalizing; for cycles of
    equal length one pass is exact, otherwise the projection iterates.
    """
    if i == j:
        raise InapplicableSet("cycle indices must name two distinct cycles")
    ci = np.array(_cycle_of(perm, i)) - 1
    cj = np.array(_cycle_of(perm, j)) - 1
    _check_tolerance("omega", omega, positive=True, error=InapplicableSet)

    def defect(x):
        pi, pj = float(np.prod(x[ci])), float(np.prod(x[cj]))
        return min(abs(pi - omega * pj), abs(pi - pj / omega))

    def sample(rng):
        x = sample_interior(rng, m, 1)[0]
        for _ in range(400):
            pi, pj = np.prod(x[ci]), np.prod(x[cj])
            scale = (omega * pj / pi) ** (1.0 / len(ci))
            x[ci] *= scale
            x /= x.sum()
            if defect(x) < 1e-14:
                break
        return x

    return InvariantSetSpec(
        f"M_OMEGA(i={i}, j={j}, omega={omega!r})", ("QUASI_STRICT",), defect, sample
    )


def vallander_diag() -> InvariantSetSpec:
    """The planar diagonal x1 = x3."""
    def defect(x):
        return abs(float(x[0] - x[2]))
    def sample(rng):
        a = rng.uniform(0.05, 0.45)
        return np.array([a, 1.0 - 2 * a, a])
    return InvariantSetSpec("VALLANDER_DIAG", ("VALLANDER_THETA", "V0", "V1"), defect, sample)


def khukr_m_tau(tau: float) -> InvariantSetSpec:
    """x2 = tau x3 or x2 = x3 / tau on the 2-simplex."""
    _check_tolerance("tau", tau, positive=True, error=InapplicableSet)
    _check_tolerance("1 / tau", 1.0 / tau, positive=True, error=InapplicableSet)
    def defect(x):
        return min(abs(float(x[1] - tau * x[2])), abs(float(x[1] - x[2] / tau)))
    def sample(rng):
        x3 = rng.uniform(min(0.05, 0.45 / (1.0 + tau)), 0.9 / (1.0 + tau))
        x2 = tau * x3 if rng.random() < 0.5 else x3 / tau
        while x2 + x3 >= 0.95:  # halving is exact, so the defect is kept
            x2, x3 = x2 / 2, x3 / 2
        return np.array([1.0 - x2 - x3, x2, x3])
    return InvariantSetSpec(f"KHUKR_M_TAU(tau={tau!r})", ("KHUKR",), defect, sample)


@dataclass(frozen=True)
class InvariantSetReport:
    set_id: str
    samples: int
    horizon: int
    max_initial_defect: float
    max_defect: float


def check_invariant_set(t: CoefficientTensor, spec: InvariantSetSpec, samples: int,
                        horizon: int, seed: int) -> InvariantSetReport:
    """Sample members, iterate, and report the worst membership defect seen."""
    _check_count("samples", samples, 1)
    _check_count("horizon", horizon, 1)
    if spec.families and t.spec is not None and t.spec.family not in spec.families:
        raise InapplicableSet(f"{spec.id} applies to {spec.families}, tensor is {t.name!r}")
    rng = np.random.default_rng(seed)
    max_initial = 0.0
    max_defect = 0.0
    for _ in range(samples):
        try:
            x = SimplexPoint(tuple(spec.sample(rng).tolist())).array
        except QsoError as exc:
            raise InapplicableSet(f"{spec.id} sampled no simplex point: {exc}") from None
        if x.shape != (t.m,):
            raise InapplicableSet(f"{spec.id} samples dimension {x.shape[0]}, tensor m={t.m}")
        d0 = spec.defect(x)
        if not d0 <= 1e-12:  # a NaN defect is refused too
            raise InapplicableSet(f"sampler produced defect {d0!r}, not <= 1e-12")
        max_initial = max(max_initial, d0)
        # the running max in step order, so that a NaN keeps its place
        max_defect = max([max_defect, *map(spec.defect, run_collect(t, x, horizon)[1:])])
    return InvariantSetReport(spec.id, samples, horizon, max_initial, max_defect)


# --- contraction of the blended operator ---------------------------------------


def _first_then_greater(values: np.ndarray) -> float | None:
    """What ``w = values[0]``, then ``w = v`` for each later ``v > w``, leaves
    in w: the first value if it is NaN, else the largest one that is not;
    None for no values."""
    if not values.size:
        return None
    if np.isnan(values[0]):
        return float(values[0])
    return float(values[~np.isnan(values)].max())


@dataclass(frozen=True)
class ContractionReport:
    alpha: float
    s: int
    bound: float
    vacuous: bool
    entered_at: int
    blocks_measured: int
    worst_factor: float | None
    worst_single_pair_factor: float | None
    diff_floor: float


def contraction_report(m: int, perm: Permutation, alpha: float, x0: SimplexPoint,
                       blocks: int = 64) -> ContractionReport:
    """Measure per-s-block contraction of the pairwise coordinate differences.

    After the orbit enters the half-space where the last coordinate is below
    1/2, each block of s steps must shrink the difference vector over all
    pairs u != v among the first m-1 coordinates, measured in sup norm, by
    at least the factor ``1 - alpha + alpha^s``.  That sup-norm factor is
    ``worst_factor``.  One step sends the (u, v) difference to a mix of the
    old (perm(u), perm(v)) difference, so the ratio of a single pair's own
    difference across a block can transiently exceed the bound whenever the
    permutation shuffles a small difference onto a larger one; the worst
    such single-pair ratio is reported as a diagnostic, not checked.

    Blocks whose starting sup difference is at most ``CONTRACTION_DIFF_FLOOR``
    are skipped: at that scale round-off dominates the ratio.  For s = 1 the
    bound equals 1 and the report is flagged vacuous.  The ``blocks * s``
    steps after entry are collected as one array.
    """
    _check_count("blocks", blocks, 0)
    t = make_alpha_combination(m, perm, alpha)
    s = perm.order
    bound = 1.0 - alpha + alpha ** s
    # the first step n <= CONTRACTION_MAX_ENTRY_STEPS with x_m < 1/2, searched over
    # collected blocks whose first row is the last row of the block before
    x, entered = x0.array, 0
    while True:
        n = min(_ENTRY_BLOCK_STEPS, CONTRACTION_MAX_ENTRY_STEPS - entered)
        rows = run_collect(t, x, n)
        below = np.flatnonzero(rows[:, -1] < 0.5)
        if below.size:
            entered += int(below[0])
            x = rows[below[0]]
            break
        x, entered = rows[-1], entered + n
        if entered == CONTRACTION_MAX_ENTRY_STEPS:
            raise NeverEntersRegion(
                f"last coordinate stayed >= 1/2 for {CONTRACTION_MAX_ENTRY_STEPS} steps")
    # block b is rows b*s to (b+1)*s of one orbit: the loop carries x from
    # block to block exactly as a call per block would
    orbit = run_collect(t, x, blocks * s)
    high = orbit[:, -1] >= 0.5
    inside = ~(high[:-1].reshape(blocks, s).any(axis=1) | high[s::s])
    # |x_u - x_v| over the pairs u < v < m - 1, at every block boundary
    u, v = np.triu_indices(m - 1, 1)
    diffs = np.abs(orbit[::s, u] - orbit[::s, v])
    d0, d1 = diffs[:-1][inside], diffs[1:][inside]
    d0_max = d0.max(axis=1)
    measured = ~(d0_max <= CONTRACTION_DIFF_FLOOR)
    d0, d1, d0_max = d0[measured], d1[measured], d0_max[measured]
    single = d0 > CONTRACTION_DIFF_FLOOR
    worst = _first_then_greater(d1.max(axis=1) / d0_max)
    worst_pair = _first_then_greater(d1[single] / d0[single])
    return ContractionReport(
        alpha=alpha, s=s, bound=bound, vacuous=(s == 1), entered_at=entered,
        blocks_measured=len(d0), worst_factor=worst,
        worst_single_pair_factor=worst_pair, diff_floor=CONTRACTION_DIFF_FLOOR,
    )


# --- time averages -------------------------------------------------------------


@dataclass(frozen=True)
class ErgodicityReport:
    checkpoints: tuple[int, ...]
    cesaro: tuple[SimplexPoint, ...]
    min_coordinate: tuple[float, ...]
    fluctuation: float
    boundary_start: bool


def cesaro_distances(means: np.ndarray) -> list[float]:
    """Sup distances between rows a < b of the (k, m) Cesaro ``means``, pairs in order."""
    a, b = np.triu_indices(len(means), 1)
    return np.abs(means[a] - means[b]).max(axis=1).tolist()


def ergodicity_probe(t: CoefficientTensor, x0: SimplexPoint, checkpoints) -> ErgodicityReport:
    """Cesaro means at the checkpoints plus their worst pairwise deviation.

    Divergent time averages show up as a fluctuation that stays large as the
    checkpoints grow; a regular operator drives it to zero at rate 1/n.
    """
    cps = list(checkpoints)
    # cesaro refuses checkpoints that are not increasing integers in 1..MAX_STEPS
    if not cps:
        raise DimensionMismatch("checkpoints must be non-empty")
    means, states = cesaro(t, x0.array, cps)
    return ErgodicityReport(
        checkpoints=tuple(map(int, cps)),
        cesaro=tuple(SimplexPoint(tuple(mu)) for mu in means.tolist()),
        min_coordinate=tuple(states.min(axis=1).tolist()),
        fluctuation=max([0.0, *cesaro_distances(means)]),
        boundary_start=bool(np.min(x0.array) <= TAU_ZERO),
    )


# --- decay estimates specific to the mixing operator ----------------------------


def psi_decay_values(xs: np.ndarray) -> np.ndarray:
    """The per-step shrink factor of the cyclic difference product.

    For each row x: (1/(m-2)^m) * prod over cyclically consecutive pairs of
    (2 + (m-4)(x_i + x_{i+1})).  Its maximum over the simplex is (4/m)^m,
    attained exactly at the center.
    """
    m = xs.shape[1]
    pair_sums = xs + np.roll(xs, -1, axis=1)
    return np.prod((2.0 + (m - 4) * pair_sums) / (m - 2), axis=1)


@dataclass(frozen=True)
class PsiBoundReport:
    m: int
    samples: int
    bound: float
    max_value: float
    value_at_center: float
    max_violation: float


def psi_bound_check(m: int, samples: int, seed: int) -> PsiBoundReport:
    """Check the shrink factor stays at or below (4/m)^m on random points."""
    _check_count("m", m, 1)
    if m < 5:
        raise DimensionMismatch("the strict-decay bound applies to m >= 5")
    _check_count("samples", samples, 1)
    rng = np.random.default_rng(seed)
    xs = sample_interior(rng, m, samples)
    vals = psi_decay_values(xs)
    bound = (4.0 / m) ** m
    at_center = float(psi_decay_values(np.full((1, m), 1.0 / m))[0])
    return PsiBoundReport(
        m=m, samples=samples, bound=bound,
        max_value=float(np.max(vals)),
        value_at_center=at_center,
        max_violation=float(np.max(vals) - bound),
    )


@dataclass(frozen=True)
class MaxNormReport:
    samples: int
    checked: int
    excluded: int
    min_margin: float
    violations: int


def _max_norm_distance(xs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Max-norm distance of each row of ``xs`` to the nearest row of
    ``points``, reduced one column and one point at a time.  Max and min are
    exact, so this is ``np.min(np.max(np.abs(xs[:, None] - points), axis=2),
    axis=1)`` bit for bit, without its per-row cost over the short axes and
    its (n, len(points), m) temporaries."""
    return reduce(np.minimum, [reduce(np.maximum, [np.abs(col - c) for col, c in zip(xs.T, pt)])
                               for pt in points])


def max_norm_check(samples: int, seed: int) -> MaxNormReport:
    """Strict decrease of the max coordinate under the m=4 mixing operator.

    Holds everywhere except at the five fixed points (vertices and center),
    whose samples within ``MAX_NORM_EXCLUSION_RADIUS`` are excluded.
    """
    _check_count("samples", samples, 1)
    t = make_regular(4)
    rng = np.random.default_rng(seed)
    xs = sample_interior(rng, 4, samples)
    fixed = np.vstack([np.eye(4), np.full((1, 4), 0.25)])
    keep = _max_norm_distance(xs, fixed) > MAX_NORM_EXCLUSION_RADIUS
    if not keep.any():
        raise QsoError(f"MAX_NORM_EXCLUSION_RADIUS {MAX_NORM_EXCLUSION_RADIUS!r} excludes "
                       f"all {samples} samples")
    xs = xs[keep]
    ys = run_batch(t, xs, 1)
    # the largest coordinates, one column at a time as in _max_norm_distance
    margins = reduce(np.maximum, xs.T) - reduce(np.maximum, ys.T)
    return MaxNormReport(
        samples=samples,
        checked=int(keep.sum()),
        excluded=int((~keep).sum()),
        min_margin=float(np.min(margins)),
        violations=int(np.sum(margins <= 0.0)),
    )
