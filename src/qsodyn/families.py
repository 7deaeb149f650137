"""Named constructors for the operator families studied on the simplex.

Three families live on a simplex of any dimension m >= 3:

* ``REGULAR``           symmetric mixing operator, every trajectory ends at
                        the center;
* ``QUASI_STRICT``      permutation-driven operator whose generic orbits
                        settle on an s-periodic cycle (s = order of the
                        permutation);
* ``ALPHA_COMBINATION`` the convex blend ``alpha * REGULAR +
                        (1 - alpha) * QUASI_STRICT``.

The remaining entries form the classical catalog on the 2-simplex (m = 3):
the eight basic quadratic maps V0..V7, the Zakharevich operator (= V2, the
standard non-ergodic example), the Khukr operator, and five one-parameter
convex blends named after the people who analyzed them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionTooSmall,
    MissingParameter,
    PermutationSizeMismatch,
    UnexpectedParameter,
    UnknownFamily,
)
from .simplex import Permutation
from .tensor import CoefficientTensor, _check_dimension, _check_weight, build_tensor, convex_combine


@dataclass(frozen=True)
class FamilyInfo:
    name: str
    m_fixed: int | None     # 3 for the planar catalog, None = any m >= 3
    parameter: str | None   # name of the convex weight if one is required
    needs_permutation: bool
    summary: str


@dataclass(frozen=True)
class FamilySpec:
    """Resolved request for one family member."""

    family: str
    m: int
    permutation: Permutation | None = None
    parameter: float | None = None

    def __post_init__(self):
        info = family_info(self.family)
        if self.m is None:
            raise MissingParameter(f"{self.family} requires m")
        object.__setattr__(self, "m", _check_dimension(self.m))
        if info.m_fixed is not None and self.m != info.m_fixed:
            raise PermutationSizeMismatch(
                f"{self.family} is defined on m={info.m_fixed}, got m={self.m}"
            )
        if self.m < 3:
            raise DimensionTooSmall(f"{self.family} needs m >= 3, got {self.m}")
        if info.parameter and self.parameter is None:
            raise MissingParameter(f"{self.family} requires parameter {info.parameter}")
        if not info.parameter and self.parameter is not None:
            raise UnexpectedParameter(f"{self.family} takes no parameter")
        if self.parameter is not None:
            _check_weight(info.parameter, self.parameter)
        if isinstance(self.parameter, np.generic):
            # named after the equal Python number, not the numpy type
            object.__setattr__(self, "parameter", self.parameter.item())
        if info.needs_permutation and self.permutation is None:
            raise MissingParameter(f"{self.family} requires a permutation of 1..m-1")
        if not info.needs_permutation and self.permutation is not None:
            raise UnexpectedParameter(f"{self.family} takes no permutation")
        if self.permutation is not None and self.permutation.n != self.m - 1:
            raise PermutationSizeMismatch(
                f"permutation acts on 1..{self.permutation.n}, need 1..{self.m - 1}"
            )

    @property
    def label(self) -> str:
        """The tensor's name, ``family(m=…, pi=…, <parameter>=<value>)``
        with only the arguments the family takes (``m=`` where m is free)."""
        info = family_info(self.family)
        args = [f"m={self.m}"] if info.m_fixed is None else []
        if self.permutation is not None:
            args.append(f"pi={self.permutation.cycle_text()}")
        if info.parameter:
            args.append(f"{info.parameter}={self.parameter!r}")
        return f"{self.family}({', '.join(args)})" if args else self.family


# Each basic planar operator sends the whole product of one unordered pair
# (i, j) to a single output coordinate k; that assignment defines it.
_S2_PAIR_MAPS: dict[str, dict[tuple[int, int], int]] = {
    "V0": {(1, 1): 1, (2, 3): 1, (2, 2): 2, (1, 3): 2, (3, 3): 3, (1, 2): 3},
    "V1": {(1, 1): 1, (1, 2): 1, (2, 2): 2, (1, 3): 2, (3, 3): 3, (2, 3): 3},
    "V2": {(1, 1): 1, (1, 2): 1, (2, 2): 2, (2, 3): 2, (3, 3): 3, (1, 3): 3},
    "V3": {(1, 1): 1, (1, 3): 1, (2, 2): 2, (1, 2): 2, (3, 3): 3, (2, 3): 3},
    "V4": {(2, 2): 1, (1, 2): 1, (3, 3): 2, (2, 3): 2, (1, 1): 3, (1, 3): 3},
    "V5": {(3, 3): 1, (1, 2): 1, (1, 1): 2, (2, 3): 2, (2, 2): 3, (1, 3): 3},
    "V6": {(3, 3): 1, (2, 3): 1, (1, 1): 2, (1, 3): 2, (2, 2): 3, (1, 2): 3},
    "V7": {(2, 2): 1, (2, 3): 1, (3, 3): 2, (1, 3): 2, (1, 1): 3, (1, 2): 3},
    # x'_1 = x1^2 + (x2 + x3)^2, x'_2 = 2 x1 x3, x'_3 = 2 x1 x2
    "KHUKR": {(1, 1): 1, (2, 2): 1, (3, 3): 1, (2, 3): 1, (1, 3): 2, (1, 2): 3},
}
_S2_PAIR_MAPS["ZAKHAREVICH"] = _S2_PAIR_MAPS["V2"]

# Convex blends on the 2-simplex: weight w goes on the first constituent.
# GANIKHODJAEV_LAMBDA carries the weight on V0 (so lambda -> 1 approaches the
# center-regular side): that orientation is the one consistent with its known
# stability thresholds (center attracting iff lambda > 1 - sqrt(3)/2, vertices
# repelling iff lambda > 1/2).
_S2_COMBINATIONS: dict[str, tuple[str, str, str]] = {
    # name: (first, second, parameter name)
    "VALLANDER_THETA": ("V1", "V0", "theta"),         # theta V1 + (1-theta) V0
    "GANIKHODJAEV_LAMBDA": ("V0", "V2", "lambda"),    # lambda V0 + (1-lambda) V2
    "VALLANDER_SPIRAL": ("V2", "V3", "lambda"),       # lambda V2 + (1-lambda) V3
    "GSN_ALPHA": ("V4", "V2", "alpha"),               # alpha V4 + (1-alpha) V2
    "GSN_BETA": ("V5", "V2", "beta"),                 # beta V5 + (1-beta) V2
    "JJPH_THETA": ("V6", "V7", "theta"),              # theta V6 + (1-theta) V7
}

REGISTRY: dict[str, FamilyInfo] = {}


def _register(name, m_fixed, parameter, needs_permutation, summary):
    REGISTRY[name] = FamilyInfo(name, m_fixed, parameter, needs_permutation, summary)


_register("REGULAR", None, None, False,
          "symmetric mixing operator; all trajectories converge to the center")
_register("QUASI_STRICT", None, None, True,
          "permutation-driven operator with s-periodic limit orbits")
_register("ALPHA_COMBINATION", None, "alpha", True,
          "alpha*REGULAR + (1-alpha)*QUASI_STRICT; unique interior attractor")
for _v in ("V0", "V1", "V2", "V3", "V4", "V5", "V6", "V7"):
    _register(_v, 3, None, False, "basic quadratic map on the 2-simplex")
_register("ZAKHAREVICH", 3, None, False,
          "Volterra operator with divergent time averages (identical to V2)")
_register("KHUKR", 3, None, False,
          "planar operator with the 2-periodic limit pair on {x1 = 1/2}")
for _name, (_a, _b, _pn) in _S2_COMBINATIONS.items():
    _register(_name, 3, _pn, False, f"{_pn}*{_a} + (1-{_pn})*{_b} on the 2-simplex")


def family_info(name: str) -> FamilyInfo:
    try:
        return REGISTRY[name]
    except KeyError:
        raise UnknownFamily(f"unknown family {name!r}; known: {', '.join(sorted(REGISTRY))}")


def family_names() -> list[str]:
    return list(REGISTRY)


def _regular(m: int) -> CoefficientTensor:
    w = 1.0 / (m - 2)
    entries = {}
    for k in range(1, m + 1):
        entries[(k, k, k)] = 1.0
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            for k in range(1, m + 1):
                if k != i and k != j:
                    entries[(i, j, k)] = w
    return build_tensor(m, entries)


def _quasi_strict(m: int, perm: Permutation) -> CoefficientTensor:
    entries = {}
    for k in range(1, m):
        entries[(perm.images[k - 1], m, k)] = 1.0
    entries[(m, m, m)] = 1.0
    for i in range(1, m):
        entries[(i, i, m)] = 1.0
        for j in range(i + 1, m):
            entries[(i, j, m)] = 1.0
    return build_tensor(m, entries)


def _pair_map(name: str) -> CoefficientTensor:
    entries = {(i, j, k): 1.0 for (i, j), k in _S2_PAIR_MAPS[name].items()}
    return build_tensor(3, entries)


def make(family: str, m: int | None = None, permutation: Permutation | None = None,
         parameter: float | None = None) -> CoefficientTensor:
    """Validate the request as a :class:`FamilySpec` and build its tensor."""
    if m is None:
        m = family_info(family).m_fixed
    spec = FamilySpec(family, m, permutation, parameter)
    if family == "REGULAR":
        t = _regular(m)
    elif family == "QUASI_STRICT":
        t = _quasi_strict(m, permutation)
    elif family == "ALPHA_COMBINATION":
        t = convex_combine(_regular(m), _quasi_strict(m, permutation), parameter)
    elif family in _S2_COMBINATIONS:
        first, second, _ = _S2_COMBINATIONS[family]
        t = convex_combine(_pair_map(first), _pair_map(second), parameter)
    else:
        t = _pair_map(family)
    return CoefficientTensor(m, t.p, spec.label, spec)


def make_regular(m: int) -> CoefficientTensor:
    """x'_k = x_k^2 + (2/(m-2)) * sum of x_i x_j over pairs avoiding k."""
    return make("REGULAR", m)


def make_quasi_strict(m: int, perm: Permutation) -> CoefficientTensor:
    """x'_k = 2 x_m x_{perm(k)} for k < m; x'_m = x_m^2 + (1 - x_m)^2."""
    return make("QUASI_STRICT", m, perm)


def make_alpha_combination(m: int, perm: Permutation, alpha: float) -> CoefficientTensor:
    """Convex blend ``alpha * REGULAR(m) + (1 - alpha) * QUASI_STRICT(m, perm)``."""
    return make("ALPHA_COMBINATION", m, perm, alpha)


def make_s2(name: str, parameter: float | None = None) -> CoefficientTensor:
    """Member of the planar catalog (m = 3) by family name."""
    if family_info(name).m_fixed != 3:
        raise UnknownFamily(f"{name} is not a planar (m=3) family")
    return make(name, 3, None, parameter)
