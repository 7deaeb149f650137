"""Coefficient tensors and the generic quadratic stochastic operator.

An operator on the (m-1)-simplex is stored as the dense array ``p`` of
heredity coefficients, symmetric in its first two indices, nonnegative, and
with every pair row summing to one::

    x'_k = sum_{i,j} p[i, j, k] * x_i * x_j

Entries are addressed 1-based through the public builders and the text
exchange format; the underlying numpy array is 0-based.
"""

from __future__ import annotations

import ctypes
import functools
import math
import numbers
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    AsymmetricInput,
    DimensionMismatch,
    MalformedSyntax,
    NegativeCoefficient,
    RowSumNotOne,
    WeightOutOfRange,
)
from .simplex import TAU_SUM, SimplexPoint

if TYPE_CHECKING:
    from .families import FamilySpec

# Pair rows must be stochastic to this absolute tolerance.
ROW_SUM_TOL = 1e-12
# Entries off the Volterra pattern at or below this count as exact zeros.
VOLTERRA_TOL = 1e-15


@dataclass(frozen=True)
class CoefficientTensor:
    """Validated heredity coefficients of a quadratic stochastic operator."""

    m: int
    p: np.ndarray
    name: str = ""
    # the request ``families.make`` built this tensor from; None for any other
    spec: FamilySpec | None = field(default=None, compare=False)

    def __post_init__(self):
        if not (isinstance(self.m, int) and self.m >= 2):
            raise DimensionMismatch(f"tensor dimension {self.m} must be an integer >= 2")
        if self.p.shape != (self.m, self.m, self.m):
            raise DimensionMismatch(f"coefficient array shape {self.p.shape} != {(self.m,) * 3}")
        self.p.setflags(write=False)

    def validate(self) -> None:
        """Check finiteness, symmetry, nonnegativity, and row stochasticity."""
        p = self.p
        if not np.isfinite(p).all():
            raise NegativeCoefficient("non-finite coefficient in tensor")
        if not (p == p.transpose(1, 0, 2)).all():
            raise AsymmetricInput("p[i,j,k] != p[j,i,k] somewhere")
        if p.min() < 0.0:
            i, j, k = np.unravel_index(int(p.argmin()), p.shape)
            raise NegativeCoefficient(f"p[{i + 1},{j + 1},{k + 1}] = {p[i, j, k]!r} is negative")
        sums = p.sum(axis=2)
        bad = np.abs(sums - 1.0) > ROW_SUM_TOL
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise RowSumNotOne(
                f"row (i={i + 1}, j={j + 1}) sums to {sums[i, j]!r}, expected 1"
            )

    def entry(self, i: int, j: int, k: int) -> float:
        """1-based coefficient access."""
        return float(self.p[i - 1, j - 1, k - 1])

    # Flattened (m*m, m) view used by the hot iteration loop.
    @property
    def _flat(self) -> np.ndarray:
        return self.p.reshape(self.m * self.m, self.m)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded iterates of one operator run: ``rows[i]`` holds the
    coordinates at step ``steps[i]``.  Both arrays are read-only."""

    operator: str
    stride: int
    steps: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.steps.setflags(write=False)
        self.rows.setflags(write=False)

    @property
    def final(self) -> SimplexPoint:
        return SimplexPoint(tuple(self.rows[-1].tolist()))

    @functools.cached_property
    def points(self) -> tuple[tuple[int, SimplexPoint], ...]:
        """``(step, point)`` pairs; rows with the same bits share one point."""
        first, inverse = distinct_rows(self.rows)
        distinct = [SimplexPoint(tuple(r)) for r in self.rows[first].tolist()]
        return tuple(zip(self.steps.tolist(), [distinct[k] for k in inverse.tolist()]))

    def tail_array(self) -> np.ndarray:
        """Coordinates of the longest suffix recorded at consecutive steps,
        as a read-only view of ``rows``."""
        gaps = np.flatnonzero(np.diff(self.steps) != 1)
        return self.rows[gaps[-1] + 1 if gaps.size else 0:]


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)``: the first row of each distinct bit pattern of a
    C-contiguous (n, m) array, and each row's pattern, so that
    ``rows[first][inverse]`` is ``rows``.  Bits, not float ``==``: -0.0 and
    0.0 stay apart."""
    bits = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
    return first, inverse


def build_tensor(m: int, entries, name: str = "") -> CoefficientTensor:
    """Build a tensor from sparse 1-based entries given for i <= j.

    ``entries`` maps ``(i, j, k)`` to a value, or is an iterable of
    ``(i, j, k, value)`` rows.  Omitted entries are zero; the (j, i, k)
    mirror of each entry is filled in automatically.
    """
    if isinstance(entries, dict):
        items = [(i, j, k, v) for (i, j, k), v in entries.items()]
    else:
        items = [tuple(row) for row in entries]
    p = np.zeros((m, m, m))
    for i, j, k, v in items:
        for idx in (i, j, k):
            if not 1 <= idx <= m:
                raise DimensionMismatch(f"index {idx} outside 1..{m} in entry {(i, j, k)}")
        if i > j:
            raise AsymmetricInput(f"entry ({i},{j},{k}) has i > j; supply i <= j only")
        if v < 0.0:
            raise NegativeCoefficient(f"p[{i},{j},{k}] = {v!r} is negative")
        p[i - 1, j - 1, k - 1] = v
        p[j - 1, i - 1, k - 1] = v
    t = CoefficientTensor(m, p, name)
    t.validate()
    return t


def is_volterra(t: CoefficientTensor) -> bool:
    """True iff every coefficient with k outside {i, j} is numerically zero."""
    m = t.m
    idx = np.arange(m)
    k_not_i = idx[None, None, :] != idx[:, None, None]
    k_not_j = idx[None, None, :] != idx[None, :, None]
    off_pattern = t.p[k_not_i & k_not_j]
    return bool(np.all(off_pattern <= VOLTERRA_TOL))


def convex_combine(t1: CoefficientTensor, t2: CoefficientTensor, w: float) -> CoefficientTensor:
    """Entrywise ``w * t1 + (1 - w) * t2``."""
    if t1.m != t2.m:
        raise DimensionMismatch(f"cannot combine tensors of dimension {t1.m} and {t2.m}")
    if not 0.0 <= w <= 1.0:
        raise WeightOutOfRange(f"weight {w!r} outside [0, 1]")
    t = CoefficientTensor(t1.m, w * t1.p + (1.0 - w) * t2.p)
    t.validate()
    return t


# --- application, derivatives, iteration ------------------------------------


def _step(flat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The numpy reference step: one renormalized application on a raw array."""
    y = np.outer(x, x).ravel() @ flat
    return y / y.sum()


def apply_raw(t: CoefficientTensor, x) -> np.ndarray:
    """The quadratic form itself, without renormalization.

    Defined for any real vector (used by derivative checks); does not
    require or return a simplex point.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (t.m,):
        raise DimensionMismatch(f"point has {x.shape[0]} coordinates, tensor has m={t.m}")
    return np.outer(x, x).ravel() @ t._flat


def apply(t: CoefficientTensor, x: SimplexPoint) -> SimplexPoint:
    """Apply the operator to a simplex point (renormalized)."""
    if x.m != t.m:
        raise DimensionMismatch(f"point has {x.m} coordinates, tensor has m={t.m}")
    return SimplexPoint(tuple(_step(t._flat, x.array).tolist()))


def apply_batch(t: CoefficientTensor, xs: np.ndarray) -> np.ndarray:
    """Renormalized application to each row of an (n, m) array, as one
    three-operand contraction: no path search and no BLAS call."""
    ys = np.einsum("ijk,nj,ni->nk", t.p, xs, xs)
    return ys / ys.sum(axis=1, keepdims=True)


def jacobian(t: CoefficientTensor, x) -> np.ndarray:
    """Jacobian of the raw (unrenormalized) map at ``x``.

    Entry ``[k, j]`` is the partial derivative of coordinate k with respect
    to x_j: 2 * sum_i p[i, j, k] x_i.  Every column sums to 2 * sum(x).
    """
    arr = x.array if isinstance(x, SimplexPoint) else np.asarray(x, dtype=float)
    if arr.shape != (t.m,):
        raise DimensionMismatch(f"point has {arr.shape[0]} coordinates, tensor has m={t.m}")
    return 2.0 * np.einsum("ijk,i->kj", t.p, arr)


def _check_steps(n_steps) -> None:
    if not isinstance(n_steps, numbers.Integral) or n_steps < 0:
        raise DimensionMismatch(f"n_steps must be an integer >= 0, got {n_steps!r}")


def _kernel_for(coeffs: np.ndarray):
    """The compiled kernel if it can take ``coeffs`` (the flat or the full
    coefficient array) as it is, else None."""
    fits = (coeffs.shape[-1] <= _KERNEL_MAX_M and coeffs.dtype == np.float64
            and coeffs.flags.c_contiguous)
    return _kernel() if fits else None


def _walk(t: CoefficientTensor, x0, marks: np.ndarray, sums: np.ndarray | None = None
          ) -> np.ndarray:
    """States x^(n) at each of the increasing int64 step ``marks``, as a
    (len(marks), m) array.  Row c of ``sums``, if given, gets
    x^(0) + ... + x^(n - 1) for mark n = marks[c].

    The compiled ``orbit`` runs where it can take the coefficients, else the
    numpy loop, bit for bit.  Bad input raises before the kernel is loaded.
    """
    x = np.array(x0, dtype=float)
    if x.shape != (t.m,):
        raise DimensionMismatch(f"point has shape {x.shape}, tensor has m={t.m}")
    flat = t._flat
    states = np.empty((len(marks), t.m))
    kernel = _kernel_for(flat)
    if kernel is not None:
        kernel.orbit(flat, x, marks, states, sums)
        return states
    acc, done = np.zeros(t.m), 0
    for c, mark in enumerate(marks.tolist()):
        for _ in range(mark - done):
            if sums is not None:
                acc += x
            x = _step(flat, x)
        done = mark
        states[c] = x
        if sums is not None:
            sums[c] = acc
    return states


def _collect(t: CoefficientTensor, x0, n_steps: int, stride: int
             ) -> tuple[np.ndarray, np.ndarray]:
    """The steps 0, stride, 2 * stride, ..., n_steps (the last one after a
    partial stride) and the rows x^(n) at them."""
    _check_steps(n_steps)
    marks = np.arange(0, n_steps + stride, stride, dtype=np.int64)
    marks[-1] = n_steps
    return marks, _walk(t, x0, marks)


def run(t: CoefficientTensor, x0: np.ndarray, n_steps: int) -> np.ndarray:
    """Final raw coordinate array after ``n_steps`` renormalized steps."""
    _check_steps(n_steps)
    return _walk(t, x0, np.array([n_steps], dtype=np.int64))[0]


def run_collect(t: CoefficientTensor, x0: np.ndarray, n_steps: int) -> np.ndarray:
    """All iterates x^(0..n_steps) as an (n_steps + 1, m) array."""
    return _collect(t, x0, n_steps, 1)[1]


def run_batch(t: CoefficientTensor, xs: np.ndarray, n_steps: int) -> np.ndarray:
    """Advance every row of an (n, m) array by ``n_steps`` steps of
    ``apply_batch``, all in one call of the compiled ``batch`` where it
    loads, bit for bit.  A single orbit belongs in ``run``."""
    _check_steps(n_steps)
    x = np.array(xs, dtype=float, order="C")
    if x.ndim != 2 or x.shape[1] != t.m:
        raise DimensionMismatch(f"points have shape {x.shape}, expected (n, {t.m})")
    kernel = _kernel_for(t.p)
    if kernel is not None:
        kernel.batch(t.p, x, n_steps)
        return x
    for _ in range(n_steps):
        x = apply_batch(t, x)
    return x


def iterate(t: CoefficientTensor, x0: SimplexPoint, n_steps: int, stride: int = 1) -> Trajectory:
    """Iterate from ``x0``, recording step 0, every stride-th step, and the last.

    Renormalization divides by the coordinate sum after every application so
    that million-step runs cannot drift off the simplex.
    """
    if not isinstance(stride, numbers.Integral) or stride < 1:
        raise DimensionMismatch(f"stride must be an integer >= 1, got {stride!r}")
    steps, rows = _collect(t, x0.array, n_steps, stride)
    # only rows this pass cannot clear are built as points, so the first bad
    # row raises; np.sum is within m * 2**-52 of math.fsum, inside TAU_SUM / 2
    clear = (rows.min(axis=1) >= 0.0) & (np.abs(rows.sum(axis=1) - 1.0) <= TAU_SUM / 2)
    for row in rows[~clear].tolist():
        SimplexPoint(tuple(row))
    return Trajectory(t.name or "tensor", stride, steps, rows)


def cesaro(t: CoefficientTensor, x0: np.ndarray, checkpoints) -> tuple[np.ndarray, np.ndarray]:
    """Cesaro means and iterates at each checkpoint n, as (checkpoints, m) arrays.

    Row c of the first array is the running average (1/n) sum_{k<n} x^(k),
    renormalized; row c of the second is x^(n).  Single pass with an O(m)
    running sum, so checkpoints up to 10^7 are fine.
    """
    cps = [int(n) for n in checkpoints]
    if any(b <= a for a, b in zip(cps, cps[1:])) or (cps and cps[0] < 1):
        raise DimensionMismatch("checkpoints must be strictly increasing positive integers")
    marks = np.array(cps, dtype=np.int64)
    sums = np.empty((len(cps), t.m))
    states = _walk(t, x0, marks, sums)
    means = sums / marks[:, None]
    # the running sum accumulates round-off linearly in n; renormalize (each
    # row summed alone, in the order of a one-row sum)
    return means / means.sum(axis=1, keepdims=True), states


def cesaro_means(t: CoefficientTensor, x0: SimplexPoint, checkpoints) -> list[SimplexPoint]:
    """Running averages (1/n) sum_{k<n} x^(k) at each checkpoint."""
    means, _ = cesaro(t, x0.array, checkpoints)
    return [SimplexPoint(tuple(mu)) for mu in means.tolist()]


# --- compiled kernel -----------------------------------------------------------

# The C loops keep the m*m outer product on the stack.
_KERNEL_MAX_M = 64
_KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")
# Each function starts on a 64-byte line, so that the speed of a loop does
# not depend on the size of the code before it.
_KERNEL_CFLAGS = ("-O2", "-ffp-contract=off", "-falign-functions=64", "-shared", "-fPIC")
# numpy's cblas_dgemv with 64-bit integers, as exported by scipy-openblas64
_NUMPY_DGEMV = "scipy_cblas_dgemv64_"


class _Kernel:
    """The loops of ``_kernel.c``, the single-orbit one bound to numpy's own
    BLAS dgemv.

    Callers pass C-contiguous float64 arrays of matching sizes, increasing
    int64 marks >= 0, m <= 64 and n_steps >= 0; the callers of ``_walk``
    and ``run_batch`` check all of it.  ``x`` and ``xs`` are advanced in
    place.
    """

    def __init__(self, lib: ctypes.CDLL, dgemv: int):
        ptr, i64 = ctypes.c_void_p, ctypes.c_int64
        lib.orbit.argtypes = [ptr, ptr, i64, ptr, ptr, i64, ptr, ptr]
        lib.batch.argtypes = [ptr, i64, ptr, i64, i64]
        for fn in (lib.orbit, lib.batch):
            fn.restype = None
        self._lib = lib
        self._dgemv = dgemv

    def orbit(self, flat, x, marks, states, sums=None):
        self._lib.orbit(self._dgemv, flat.ctypes.data, len(x), x.ctypes.data,
                        marks.ctypes.data, len(marks), states.ctypes.data,
                        None if sums is None else sums.ctypes.data)

    def batch(self, p, xs, n_steps):
        rows, m = xs.shape
        self._lib.batch(p.ctypes.data, m, xs.ctypes.data, rows, n_steps)


def _build_kernel() -> Path:
    """Compile ``_kernel.c`` into ``__pycache__`` unless already built.

    The library is keyed by a hash of the source and flags and renamed into
    place atomically, so concurrent builds cannot load a partial file.
    """
    import hashlib  # only the first kernel use pays for it

    source = _KERNEL_SOURCE.read_bytes()
    key = hashlib.sha256(source + " ".join(_KERNEL_CFLAGS).encode()).hexdigest()[:16]
    cache = _KERNEL_SOURCE.parent / "__pycache__"
    lib = cache / f"_kernel-{key}.so"
    if not lib.exists():
        import subprocess  # only a build needs it
        cache.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix="_kernel-", suffix=".tmp", dir=cache)
        os.close(fd)
        try:
            cc = subprocess.run(["cc", *_KERNEL_CFLAGS, "-o", tmp, str(_KERNEL_SOURCE)],
                                capture_output=True, text=True)
            if cc.returncode:
                raise OSError(f"cc exited {cc.returncode}: {cc.stderr.strip()}")
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return lib


def _numpy_dgemv() -> int:
    """Address of the BLAS dgemv that numpy's matmul calls, looked up
    through numpy's extension module, which links the library."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    symbol = getattr(ctypes.CDLL(umath.__file__), _NUMPY_DGEMV)
    return ctypes.cast(symbol, ctypes.c_void_p).value


def _kernel_agrees(kernel: _Kernel) -> bool:
    """Bitwise comparison of the compiled loops with the numpy ones, for an
    m below and an m above numpy's 8-term pairwise-sum block: the states and
    running sums of one orbit at steps 0 to 5 against ``_step``, five steps
    of 51 rows against ``apply_batch`` (an odd count, so that the last row is
    paired with itself)."""
    rng = np.random.default_rng(0)
    marks = np.arange(6, dtype=np.int64)
    for m in (3, 9):
        t = random_tensor(rng, m)
        xs = rng.exponential(size=(51, m))
        xs /= xs.sum(axis=1, keepdims=True)
        want, want_sums, want_rows = [xs[0]], [np.zeros(m)], xs
        for _ in range(5):
            want_sums.append(want_sums[-1] + want[-1])
            want.append(_step(t._flat, want[-1]))
            want_rows = apply_batch(t, want_rows)
        got, got_sums, got_rows = np.empty((6, m)), np.empty((6, m)), xs.copy()
        kernel.orbit(t._flat, xs[0].copy(), marks, got, got_sums)
        kernel.batch(t.p, got_rows, 5)
        if not (np.array_equal(got, want) and np.array_equal(got_sums, want_sums)
                and np.array_equal(got_rows, want_rows)):
            return False
    return True


@functools.cache
def _kernel() -> _Kernel | None:
    """The compiled loops, built and self-tested on first use.

    None when there is no C compiler, numpy's BLAS does not export the
    dgemv symbol, or the self-test disagrees: the numpy loops then run.
    """
    try:
        kernel = _Kernel(ctypes.CDLL(str(_build_kernel())), _numpy_dgemv())
    except (OSError, AttributeError):
        return None
    return kernel if _kernel_agrees(kernel) else None


# --- text exchange format ----------------------------------------------------


def save_tensor(t: CoefficientTensor, f) -> None:
    """Write the ``m <int>`` header plus one ``i j k value`` line per entry.

    Entries are written 1-based for i <= j, in lexicographic order, with 17
    significant digits.  ``f`` is a path or a text stream.
    """
    if isinstance(f, (str, bytes)):
        with open(f, "w") as fh:
            save_tensor(t, fh)
            return
    f.write(f"m {t.m}\n")
    for i in range(t.m):
        for j in range(i, t.m):
            for k in range(t.m):
                v = t.p[i, j, k]
                if v != 0.0:
                    f.write(f"{i + 1} {j + 1} {k + 1} {format(v, '.17g')}\n")


def _parse_field(kind, text: str, lineno: int):
    try:
        return kind(text)
    except ValueError:
        raise MalformedSyntax(f"line {lineno}: cannot parse {text!r} as {kind.__name__}") from None


def load_tensor(f, name: str = "") -> CoefficientTensor:
    """Parse the text format written by :func:`save_tensor`.

    Lines starting with ``#`` are comments; blank lines are ignored.
    """
    if isinstance(f, (str, bytes)):
        with open(f) as fh:
            try:
                return load_tensor(fh, name)
            except UnicodeDecodeError as exc:
                raise MalformedSyntax(f"{f!r} is not a text file ({exc.reason})") from None
    m = None
    rows = []
    for lineno, line in enumerate(f, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if m is None:
            if len(parts) != 2 or parts[0] != "m":
                raise MalformedSyntax(f"line {lineno}: expected 'm <int>' header, got {text!r}")
            m = _parse_field(int, parts[1], lineno)
            if m < 2:
                raise DimensionMismatch(f"line {lineno}: tensor dimension {m} must be >= 2")
            continue
        if len(parts) != 4:
            raise MalformedSyntax(f"line {lineno}: expected 'i j k value', got {text!r}")
        i, j, k = (_parse_field(int, v, lineno) for v in parts[:3])
        rows.append((i, j, k, _parse_field(float, parts[3], lineno)))
    if m is None:
        raise MalformedSyntax("missing 'm <int>' header")
    return build_tensor(m, rows, name=name)


def random_tensor(rng: np.random.Generator, m: int, name: str = "") -> CoefficientTensor:
    """A random valid tensor: each pair row is an independent Dirichlet draw."""
    if not (isinstance(m, int) and m >= 2):
        raise DimensionMismatch(f"tensor dimension {m} must be an integer >= 2")
    # one draw: the rows (i, j), i <= j, in the order a draw per row takes them
    rows = rng.exponential(size=(m * (m + 1) // 2, m))
    rows /= rows.sum(axis=1, keepdims=True)
    # round-trip through fsum-style normalization to keep the row sum
    # within ROW_SUM_TOL exactly as validate() measures it
    rows /= np.array([math.fsum(row) for row in rows.tolist()])[:, None]
    upper = np.arange(m) >= np.arange(m)[:, None]
    p = np.zeros((m, m, m))
    p[upper] = rows
    p.transpose(1, 0, 2)[upper] = rows
    t = CoefficientTensor(m, p, name)
    t.validate()
    return t
