"""Points on the probability simplex and permutations of its coordinates.

The simplex here is the set of probability vectors on ``m`` symbols.  All
external indices (vertices, permutation symbols, cycle notation) are
1-based; array access on ``SimplexPoint.array`` is plain 0-based numpy.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooSmall,
    EmptyVector,
    IndexOutOfRange,
    MalformedSyntax,
    NegativeCoordinate,
    QsoError,
    RepeatedSymbol,
    SumOutOfRange,
    SymbolOutOfRange,
)

# Unit-sum tolerance after renormalization; also the clamp threshold below
# which a coordinate magnitude is treated as an exact zero at ingest.
TAU_SUM = 1e-12
# Loose tolerance accepted on raw input sums before exact renormalization.
INGEST_SUM_TOL = 1e-9
# A coordinate at or below this puts a point on the boundary of the simplex.
TAU_ZERO = 1e-9


@dataclass(frozen=True)
class SimplexPoint:
    """A validated probability vector.

    Invariants (checked on construction): at least two coordinates, every
    coordinate nonnegative, and the coordinate sum within ``TAU_SUM`` of 1.
    """

    coords: tuple[float, ...]

    def __post_init__(self):
        if len(self.coords) < 2:
            raise DimensionTooSmall("a simplex point needs at least 2 coordinates")
        if not all(math.isfinite(v) for v in self.coords):
            raise QsoError(f"non-finite coordinate in {self.coords}")
        if min(self.coords) < 0.0:
            raise NegativeCoordinate(f"negative coordinate in {self.coords}")
        total = math.fsum(self.coords)
        if abs(total - 1.0) > TAU_SUM:
            raise SumOutOfRange(f"coordinate sum {total!r} deviates from 1 beyond {TAU_SUM}")

    @property
    def m(self) -> int:
        return len(self.coords)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)

    def __getitem__(self, i: int) -> float:
        """Coordinate access, 0-based like any Python sequence."""
        return self.coords[i]



def _check_integer(name: str, value, error: type[QsoError]) -> None:
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")


def center(m: int) -> SimplexPoint:
    """Barycenter (1/m, ..., 1/m)."""
    _check_integer("m", m, DimensionMismatch)
    if m < 2:
        raise DimensionTooSmall("a simplex point needs at least 2 coordinates")
    return SimplexPoint(tuple([1.0 / int(m)] * m))


def vertex(m: int, i: int) -> SimplexPoint:
    """Vertex e_i (1-based)."""
    _check_integer("m", m, DimensionMismatch)
    _check_integer("vertex index", i, IndexOutOfRange)
    if not 1 <= i <= m:
        raise IndexOutOfRange(f"vertex index {i} outside 1..{m}")
    c = [0.0] * m
    c[i - 1] = 1.0
    return SimplexPoint(tuple(c))


def validate_point(raw) -> SimplexPoint:
    """Validate and renormalize a raw coordinate vector.

    Accepts input whose minimum coordinate is >= -TAU_SUM and whose sum is
    within INGEST_SUM_TOL of 1.  Coordinates with magnitude below TAU_SUM are
    clamped to exact zero, then the vector is divided by its sum.
    """
    arr = np.asarray(raw, dtype=float).ravel()
    if arr.size == 0:
        raise EmptyVector("empty coordinate vector")
    if arr.size < 2:
        raise DimensionTooSmall("a simplex point needs at least 2 coordinates")
    if not np.all(np.isfinite(arr)):
        raise QsoError("non-finite coordinate in input")
    if np.min(arr) < -TAU_SUM:
        raise NegativeCoordinate(f"coordinate {float(np.min(arr))!r} below -{TAU_SUM}")
    total = math.fsum(arr.tolist())
    if abs(total - 1.0) > INGEST_SUM_TOL:
        raise SumOutOfRange(f"coordinate sum {total!r} outside 1 +/- {INGEST_SUM_TOL}")
    arr = arr.copy()
    arr[np.abs(arr) < TAU_SUM] = 0.0
    arr /= math.fsum(arr.tolist())
    return SimplexPoint(tuple(arr.tolist()))


# --- permutations of {1, ..., n} --------------------------------------------


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., n} with its disjoint-cycle decomposition.

    ``images[k-1]`` is the image of ``k``.  ``cycles`` partitions the symbols
    (fixed points appear as 1-cycles); each cycle starts at its smallest
    element and cycles are sorted by that element.  ``order`` is the lcm of
    the cycle lengths, the least s with p^s = identity.
    """

    images: tuple[int, ...]
    cycles: tuple[tuple[int, ...], ...]
    order: int

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def from_images(cls, images) -> "Permutation":
        images = tuple(int(v) for v in images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise RepeatedSymbol(f"images {images} are not a bijection of 1..{n}")
        cycles = []
        seen = set()
        for start in range(1, n + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            k = images[start - 1]
            while k != start:
                cyc.append(k)
                seen.add(k)
                k = images[k - 1]
            cycles.append(tuple(cyc))
        order = math.lcm(*(len(c) for c in cycles)) if cycles else 1
        return cls(images=images, cycles=tuple(cycles), order=order)

    def __call__(self, k: int) -> int:
        """Image of the 1-based symbol ``k``."""
        if not 1 <= k <= self.n:
            raise IndexOutOfRange(f"index {k} outside 1..{self.n}")
        return self.images[k - 1]

    def cycle_text(self) -> str:
        nontrivial = [c for c in self.cycles if len(c) > 1]
        if not nontrivial:
            return "()"
        return "".join("(" + " ".join(str(v) for v in c) + ")" for c in nontrivial)


def identity_permutation(n: int) -> Permutation:
    return Permutation.from_images(range(1, n + 1))


_CYCLES_RE = re.compile(r"^(?:\s*\(\s*\d+(?:\s+\d+)*\s*\)\s*)*$")


def parse_cycles(text: str, n: int) -> Permutation:
    """Parse whitespace-tolerant cycle notation like ``"(1 2)(3 4 5)"``.

    Grammar: ``cycles := cycle* ; cycle := "(" int (ws int)* ")"`` over
    1-based symbols; omitted symbols are fixed points.  The identity is
    spelled ``""`` or ``"()"``.
    """
    if n < 1:
        raise SymbolOutOfRange(f"permutation size {n} must be positive")
    stripped = text.strip()
    if stripped in ("", "()"):
        return identity_permutation(n)
    if not _CYCLES_RE.match(stripped):
        raise MalformedSyntax(f"cannot parse cycle notation {text!r}")
    images = list(range(1, n + 1))
    seen: set[int] = set()
    for body in re.findall(r"\(([^()]*)\)", stripped):
        symbols = [int(tok) for tok in body.split()]
        for s in symbols:
            if not 1 <= s <= n:
                raise SymbolOutOfRange(f"symbol {s} outside 1..{n}")
            if s in seen:
                raise RepeatedSymbol(f"symbol {s} appears twice")
            seen.add(s)
        for a, b in zip(symbols, symbols[1:] + symbols[:1]):
            images[a - 1] = b
    return Permutation.from_images(images)
