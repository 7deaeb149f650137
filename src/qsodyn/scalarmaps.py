"""One-dimensional maps driving the last coordinate of the blended operators.

``f(x) = 2x^2 - 2x + 1`` governs the last coordinate of the permutation
operator; its parametric deformation ``f_alpha`` does the same for the convex
blend with the symmetric mixing operator.  Both are downward translates of a
parabola whose vertex is the interior fixed point, and both are affinely
conjugate to the logistic map ``y -> 2y(1-y)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooSmall, DomainViolation, MissingParameter
from .tensor import MAX_STEPS, _check_count, _check_tolerance, _check_weight

# Points further than this outside [0, 1] are rejected; closer ones clamped.
DOMAIN_SLACK = 1e-12
# Evenly spaced points of [0, 1] on which conjugacy_defect compares.
CONJUGACY_GRID = 1000


def f(x):
    """The quadratic 2x^2 - 2x + 1 on [0, 1]; minimum 1/2 at x = 1/2."""
    return 2.0 * x * x - 2.0 * x + 1.0


def f_alpha(x, m: int, alpha: float):
    """Deformed map (2 - A) x^2 - 2 (1 - A) x + (1 - A) with A = (m-2) alpha / (m-1)."""
    a = (m - 2) * alpha / (m - 1)
    return (2.0 - a) * x * x - 2.0 * (1.0 - a) * x + (1.0 - a)


def _check_f_alpha(m, alpha) -> None:
    """F_ALPHA's parameters: an integer m >= 3 and a finite real alpha in [0, 1]."""
    _check_count("m", m, 3, error=DimensionTooSmall)
    _check_weight("alpha", alpha)


def logistic2(y):
    """Logistic map at growth rate 2."""
    return 2.0 * y * (1.0 - y)


@dataclass(frozen=True)
class ScalarMapSpec:
    """Which scalar map to evaluate: plain F, or F_ALPHA with (m, alpha)."""

    kind: str
    m: int | None = None
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in ("F", "F_ALPHA"):
            raise DomainViolation(f"unknown scalar map kind {self.kind!r}")
        if self.kind == "F_ALPHA":
            if self.m is None or self.alpha is None:
                raise MissingParameter("F_ALPHA requires m and alpha")
            _check_f_alpha(self.m, self.alpha)


def _check_domain(x):
    arr = np.asarray(x, dtype=float)
    # written so that NaN, which fails every comparison, is rejected too
    if not np.all((arr >= -DOMAIN_SLACK) & (arr <= 1.0 + DOMAIN_SLACK)):
        raise DomainViolation("argument outside [0, 1]")
    return np.clip(arr, 0.0, 1.0)


def eval_map(spec: ScalarMapSpec, x):
    """Evaluate the map at ``x`` (scalar or array) inside [0, 1]."""
    x = _check_domain(x)
    if spec.kind == "F":
        return f(x)
    return f_alpha(x, spec.m, spec.alpha)


def iterate_scalar(spec: ScalarMapSpec, x0, n: int):
    """n-fold composition of the map applied to ``x0``, n <= ``MAX_STEPS``."""
    _check_count("n", n, 0, MAX_STEPS)
    x = _check_domain(x0)
    for _ in range(n):
        x = eval_map(spec, x)
    return x


def scalar_fixed_point(m: int, alpha: float) -> float:
    """Interior fixed point of f_alpha, in closed form.

    It sits at the parabola vertex, so it is superattracting; at alpha = 0 it
    is 1/2 and at alpha = 1 it is 1/m.
    """
    _check_f_alpha(m, alpha)
    return ((1.0 - alpha) * (m - 1) + alpha) / ((2.0 - alpha) * (m - 1) + alpha)


def conjugacy_h(m: int, alpha: float, x):
    """Affine change of variable with h(f_alpha(x)) = 2 h(x) (1 - h(x)).

    With A = (m-2) alpha / (m-1) this is h(x) = ((2 - A) / 2) (1 - x); it
    maps the interior fixed point of f_alpha to 1/2, the fixed point of the
    logistic map at growth rate 2.
    """
    slope = ((m - 2) * alpha - 2.0 * (m - 1)) / (2.0 * (m - 1))
    intercept = (4.0 * (m - 1) - 2.0 * (m - 2) * alpha) / (4.0 * (m - 1))
    return slope * np.asarray(x, dtype=float) + intercept


def conjugacy_defect(m: int, alpha: float) -> float:
    """Largest |h(f_alpha(x)) - logistic2(h(x))| over CONJUGACY_GRID points of [0, 1]."""
    grid = np.linspace(0.0, 1.0, CONJUGACY_GRID)
    lhs = conjugacy_h(m, alpha, eval_map(ScalarMapSpec("F_ALPHA", m=m, alpha=alpha), grid))
    return float(np.max(np.abs(lhs - logistic2(conjugacy_h(m, alpha, grid)))))


def low_period_scan(spec: ScalarMapSpec, n: int, grid: int = 100_000,
                    tol: float = 1e-10) -> list[float]:
    """All x in [0, 1] with |map^n(x) - x| < tol, found by grid + bisection.

    map^n - x has degree 2^n, so root isolation is done the blunt way: a
    uniform grid catches every sign change (and near-zero grid node, which
    covers tangencies and the endpoint root at 1), and bisection refines each
    bracketed root.  Results within 1e-9 of each other are merged.
    """
    _check_count("period n", n, 1, error=DomainViolation)
    _check_count("grid", grid, 1000, error=DomainViolation)
    _check_tolerance("tol", tol)

    xs = np.linspace(0.0, 1.0, grid + 1)
    resid = iterate_scalar(spec, xs, n) - xs
    roots = xs[np.abs(resid) < tol].tolist()

    def residual(x: float) -> float:
        return float(iterate_scalar(spec, x, n) - x)

    sign_change = np.nonzero(np.sign(resid[:-1]) * np.sign(resid[1:]) < 0)[0]
    for idx in sign_change:
        lo, hi = float(xs[idx]), float(xs[idx + 1])
        flo = residual(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fmid = residual(mid)
            if fmid == 0.0 or hi - lo < 1e-15:
                lo = hi = mid
                break
            if (flo < 0) == (fmid < 0):
                lo, flo = mid, fmid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        if abs(residual(root)) < tol:
            roots.append(root)

    roots.sort()
    merged: list[float] = []
    for r in roots:
        if not merged or r - merged[-1] > 1e-9:
            merged.append(r)
        # keep the representative with the smaller residual
        elif abs(residual(r)) < abs(residual(merged[-1])):
            merged[-1] = r
    return merged
