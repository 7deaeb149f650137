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
    QsoError,
    RowSumNotOne,
    WeightOutOfRange,
)
from .simplex import TAU_SUM, SimplexPoint

if TYPE_CHECKING:
    from .families import FamilySpec

# Pair rows must be stochastic to this absolute tolerance.
ROW_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class CoefficientTensor:
    """Heredity coefficients of a quadratic stochastic operator, valid by construction."""

    m: int
    p: np.ndarray
    name: str = ""
    # the request ``families.make`` built this tensor from; None for any other
    spec: FamilySpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "m", _check_dimension(self.m))
        # a float copy would keep only the real part of a complex array
        if (p := np.asarray(self.p)).dtype.kind not in "biuf":
            raise QsoError(f"coefficients must be bool, integer or float, got dtype {p.dtype}")
        p = np.array(p, dtype=np.float64, order="C")
        if p.shape != (self.m, self.m, self.m):
            raise DimensionMismatch(f"coefficient array shape {p.shape} != {(self.m,) * 3}")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)
        self.validate()

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
    coordinates at step ``steps[i]``.  Both arrays are read-only, and every
    row from ``rows[settled]`` on has its bits (``_walk``'s settled mark)."""

    operator: str
    stride: int
    steps: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)
    settled: int

    def __post_init__(self):
        self.steps.setflags(write=False)
        self.rows.setflags(write=False)

    @property
    def final(self) -> SimplexPoint:
        return SimplexPoint(tuple(self.rows[-1].tolist()))

    @functools.cached_property
    def points(self) -> tuple[tuple[int, SimplexPoint], ...]:
        """``(step, point)`` pairs; rows with the same bits share one point."""
        first, inverse = self.distinct()
        distinct = [SimplexPoint(tuple(r)) for r in self.rows[first].tolist()]
        points = [distinct[k] for k in inverse.tolist()]
        points += points[-1:] * (len(self.rows) - len(points))
        return tuple(zip(self.steps.tolist(), points))

    def distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """``(first, inverse)`` of ``rows[:settled + 1]``: the first row of each
        distinct bit pattern, and each row's pattern (bits, not float ``==``:
        -0.0 and 0.0 stay apart)."""
        head = self.rows[:self.settled + 1]
        bits = head.view(np.dtype((np.void, head.itemsize * head.shape[1]))).ravel()
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
    m = _check_dimension(m)
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
    return CoefficientTensor(m, p, name)


def convex_combine(t1: CoefficientTensor, t2: CoefficientTensor, w: float) -> CoefficientTensor:
    """Entrywise ``w * t1 + (1 - w) * t2``."""
    if t1.m != t2.m:
        raise DimensionMismatch(f"cannot combine tensors of dimension {t1.m} and {t2.m}")
    _check_weight("weight", w)
    return CoefficientTensor(t1.m, w * t1.p + (1.0 - w) * t2.p)


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


def apply_batch(t: CoefficientTensor, xs: np.ndarray) -> np.ndarray:
    """Renormalized application to each row of an (n, m) array, as one
    three-operand contraction: no path search and no BLAS call."""
    ys = np.einsum("ijk,nj,ni->nk", t.p, xs, xs)
    return ys / ys.sum(axis=1, keepdims=True)


def jacobian(t: CoefficientTensor, x) -> np.ndarray:
    """Jacobian of the raw (unrenormalized) map at ``x``, for each point
    along the last axis of ``x``: an (..., m, m) array.

    Entry ``[..., k, j]`` is the partial derivative of coordinate k with
    respect to x_j: 2 * sum_i p[i, j, k] x_i.  Every column sums to
    2 * sum(x).  A stack gives each point's Jacobian bit for bit.
    """
    arr = x.array if isinstance(x, SimplexPoint) else np.asarray(x, dtype=float)
    if arr.shape[-1:] != (t.m,):
        raise DimensionMismatch(f"point has shape {arr.shape}, tensor has m={t.m}")
    return 2.0 * np.einsum("ijk,...i->...kj", t.p, arr)


# The most steps a count that sizes a loop but no array may ask for: 10^7
# steps of one orbit take about a second, a larger count runs until killed.
MAX_STEPS = 10_000_000


def _check_count(name: str, value, least: int, most: int | None = None,
                 error: type[QsoError] = DimensionMismatch) -> None:
    """A non-bool integer ``value`` >= ``least``, and <= ``most`` if given; else ``error``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")
    if most is not None and value > most:
        raise error(f"{name} must be <= {most}, got {value!r}")


def _check_dimension(m) -> int:
    """A tensor dimension: an integer >= 2, as the equal Python int."""
    _check_count("tensor dimension", m, 2)
    return int(m)


def _check_tolerance(name: str, value, positive: bool = False,
                     error: type[QsoError] = QsoError) -> None:
    """A finite real ``value`` >= 0, or > 0 if ``positive``; else ``error``."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value)
            and (value > 0.0 if positive else value >= 0.0)):
        bound = ">" if positive else ">="
        raise error(f"{name} must be a finite number {bound} 0, got {value!r}")


def _check_weight(name: str, value) -> None:
    """A non-bool real ``value`` in [0, 1], which NaN is not; else ``WeightOutOfRange``."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and 0.0 <= value <= 1.0):
        raise WeightOutOfRange(f"{name} must be a number in [0, 1], got {value!r}")


def _kernel_for(m: int):
    """The compiled kernel if its loops take dimension ``m``, else None."""
    return _kernel() if m <= _KERNEL_MAX_M else None


def _orbit(flat, x, marks, states, sums=None) -> int:
    """The numpy loop of ``_walk``, the reference of the compiled ``orbit``:
    its arguments, outputs and settled mark, though ``x`` is left as given."""
    acc, done, fixed, settled = np.zeros(len(x)), 0, False, len(marks) - 1
    for c, mark in enumerate(marks.tolist()):
        while done < mark and not fixed:
            if sums is not None:
                acc += x
            y = _step(flat, x)
            # a step that returns its input bit for bit returns it ever after
            if fixed := y.tobytes() == x.tobytes():
                settled = c - 1 if c > 0 and marks[c - 1] == done else c
            x, done = y, done + 1
        if sums is not None:
            for _ in range(mark - done):
                acc += x
        done = mark
        states[c] = x
        if sums is not None:
            sums[c] = acc
    return settled


def _walk(t: CoefficientTensor, x0, marks: np.ndarray, sums: np.ndarray | None = None
          ) -> tuple[np.ndarray, int]:
    """States x^(n) at each of the increasing int64 step ``marks``, as a
    (len(marks), m) array, and the settled mark: the first mark at or after
    the first step n found fixed (x^(n + 1) has the bits of x^(n)), else the
    last, from which on every state has its bits.  Row c of ``sums``, if
    given, gets x^(0) + ... + x^(n - 1) for mark n = marks[c].

    One call of the compiled ``orbit`` where it takes m, else of ``_orbit``,
    bit for bit.  Bad input raises before the kernel is loaded.
    """
    x = np.array(x0, dtype=float)
    if x.shape != (t.m,):
        raise DimensionMismatch(f"point has shape {x.shape}, tensor has m={t.m}")
    states = np.empty((len(marks), t.m))
    kernel = _kernel_for(t.m)
    return states, (kernel.orbit if kernel else _orbit)(t._flat, x, marks, states, sums)


def _collect(t: CoefficientTensor, x0, n_steps: int, stride: int
             ) -> tuple[np.ndarray, np.ndarray, int]:
    """The steps 0, stride, 2 * stride, ..., n_steps (the last one after a
    partial stride), the rows x^(n) at them and ``_walk``'s settled row."""
    _check_count("n_steps", n_steps, 0)
    marks = np.arange(0, n_steps + stride, stride, dtype=np.int64)
    marks[-1] = n_steps
    return marks, *_walk(t, x0, marks)


def run(t: CoefficientTensor, x0: np.ndarray, n_steps: int) -> np.ndarray:
    """Final raw coordinate array after ``n_steps`` renormalized steps."""
    _check_count("n_steps", n_steps, 0)
    return _walk(t, x0, np.array([n_steps], dtype=np.int64))[0][0]


def run_collect(t: CoefficientTensor, x0: np.ndarray, n_steps: int) -> np.ndarray:
    """All iterates x^(0..n_steps) as an (n_steps + 1, m) array."""
    return _collect(t, x0, n_steps, 1)[1]


def _batch(t, xs, n_steps) -> None:
    """The numpy loop of ``run_batch``, the compiled ``batch``'s reference, in place."""
    for _ in range(n_steps):
        xs[:] = apply_batch(t, xs)


def run_batch(t: CoefficientTensor, xs: np.ndarray, n_steps: int) -> np.ndarray:
    """Advance every row of an (n, m) array by ``n_steps`` steps of
    ``apply_batch``, all in one call of the compiled ``batch`` where it
    loads, bit for bit at any of its lane widths, else of ``_batch``.  A
    single orbit belongs in ``run``."""
    _check_count("n_steps", n_steps, 0)
    x = np.array(xs, dtype=float, order="C")
    if x.ndim != 2 or x.shape[1] != t.m:
        raise DimensionMismatch(f"points have shape {x.shape}, expected (n, {t.m})")
    kernel = _kernel_for(t.m)
    (kernel.batch if kernel else _batch)(t, x, n_steps)
    return x


def iterate(t: CoefficientTensor, x0: SimplexPoint, n_steps: int, stride: int = 1) -> Trajectory:
    """Iterate from ``x0``, recording step 0, every stride-th step, and the last.

    Renormalization divides by the coordinate sum after every application so
    that million-step runs cannot drift off the simplex.
    """
    _check_count("stride", stride, 1)
    steps, rows, settled = _collect(t, x0.array, n_steps, stride)
    # only rows this pass cannot clear are built as points, so the first bad
    # row raises; np.sum is within m * 2**-52 of math.fsum, inside TAU_SUM / 2.
    # The rows after the settled one have its bits: checking it checks them.
    head = rows[:settled + 1]
    clear = (head.min(axis=1) >= 0.0) & (np.abs(head.sum(axis=1) - 1.0) <= TAU_SUM / 2)
    for row in head[~clear].tolist():
        SimplexPoint(tuple(row))
    return Trajectory(t.name or "tensor", stride, steps, rows, settled)


def cesaro(t: CoefficientTensor, x0: np.ndarray, checkpoints) -> tuple[np.ndarray, np.ndarray]:
    """Cesaro means and iterates at each checkpoint n, as (checkpoints, m) arrays.

    Row c of the first array is the running average (1/n) sum_{k<n} x^(k),
    renormalized; row c of the second is x^(n).  Single pass with an O(m)
    running sum; each checkpoint is an integer of at most ``MAX_STEPS``.
    """
    cps = list(checkpoints)
    for n in cps:
        _check_count("checkpoints", n, 1, MAX_STEPS)
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise DimensionMismatch("checkpoints must be strictly increasing positive integers")
    marks = np.array(cps, dtype=np.int64)
    sums = np.empty((len(cps), t.m))
    states, _ = _walk(t, x0, marks, sums)
    means = sums / marks[:, None]
    # the running sum accumulates round-off linearly in n; renormalize (each
    # row summed alone, in the order of a one-row sum)
    return means / means.sum(axis=1, keepdims=True), states


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
    """The loops of ``_kernel.c``: the single-orbit one bound to numpy's own
    BLAS dgemv, and the batched one of the most ``lanes`` this CPU runs.

    Each takes the arguments of its numpy reference, ``_orbit`` or ``_batch``:
    C-contiguous float64 arrays of matching sizes, increasing int64 marks
    >= 0, m <= 64 and n_steps >= 0; the tensor and the callers of ``_walk``
    and ``run_batch`` make sure of them.  ``x`` and ``xs`` are advanced in place.
    """

    def __init__(self, lib: ctypes.CDLL, dgemv: int):
        ptr, i64 = ctypes.c_void_p, ctypes.c_int64
        self.lanes = lib.batch_lanes()
        self._batch = getattr(lib, f"batch{self.lanes}")
        lib.orbit.argtypes, lib.orbit.restype = [ptr, ptr, i64, ptr, ptr, i64, ptr, ptr], i64
        self._batch.argtypes, self._batch.restype = [ptr, i64, ptr, i64, i64], None
        self._lib = lib
        self._dgemv = dgemv

    def orbit(self, flat, x, marks, states, sums=None) -> int:
        return self._lib.orbit(self._dgemv, flat.ctypes.data, len(x), x.ctypes.data,
                               marks.ctypes.data, len(marks), states.ctypes.data,
                               None if sums is None else sums.ctypes.data)

    def batch(self, t, xs, n_steps):
        rows, m = xs.shape
        self._batch(t.p.ctypes.data, m, xs.ctypes.data, rows, n_steps)


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
    """Bitwise comparison of every output of the compiled loops with
    ``_orbit`` and ``_batch``, at an m below and one above numpy's 8-term
    pairwise-sum block: five steps of 51 rows (a partial last group at 2, 4
    and 8 lanes), and three orbits.  The tensor's (1, 1) row is e_1, fixed
    from step 0, and from step 1 with -0.0 zeros: a moving start and e_1
    (batch row 1) at marks 0 to 5, and e_1 with -0.0 zeros at marks 0, 3
    and 4, so that it settles between two of them."""
    rng = np.random.default_rng(0)
    consecutive, strided = np.arange(6, dtype=np.int64), np.array([0, 3, 4], dtype=np.int64)
    got, want = [], []
    for m in (3, 9):
        p = random_tensor(rng, m).p.copy()
        p[0, 0] = np.eye(m)[0]
        t = CoefficientTensor(m, p)
        xs = rng.exponential(size=(51, m))
        xs /= xs.sum(axis=1, keepdims=True)
        xs[1] = p[0, 0]
        starts = [(xs[0], consecutive), (xs[1], consecutive),
                  (np.where(xs[1], 1.0, -0.0), strided)]
        for orbit, batch, out in ((kernel.orbit, kernel.batch, got), (_orbit, _batch, want)):
            rows = xs.copy()
            batch(t, rows, 5)
            out.append(rows.tobytes())
            for x0, marks in starts:
                states, sums = np.empty((2, len(marks), m))
                out += [orbit(t._flat, x0.copy(), marks, states, sums),
                        states.tobytes(), sums.tobytes()]
    return got == want


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
    m = _check_dimension(m)
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
    return CoefficientTensor(m, p, name)
