"""Explicit kernels, counterexample certificates, and parameterized hosts.

The named step kernels and the two 3x3 weighted-tournament certificates are
pinned exactly.  Every certificate comes from certify, which compares in
rational arithmetic only and rechecks a broken bound on an independent
evaluator.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import Orientation, as_pattern
from .errors import (
    CapExceeded,
    InternalAssertionFailed,
    InvalidDelta,
    InvalidHost,
    InvalidInput,
    NotSkewForEvenPower,
    RangeViolated,
    UnknownName,
    ValidityConditionViolated,
)
from .hom import hom_count, hom_generic, t_kernel_cycle, t_kernel_path
from .tournament import SkewMatrix, WeightedTournament, _freeze, skew

TENSOR_SIZE_CAP = 4096

_KERNELS = {
    "B1": ((0, 1), (-1, 0)),
    "BPrime": ((0, 1, -1), (-1, 0, 0), (1, 0, 0)),
    "MBalanced": ((0, 1, -1), (-1, 0, 1), (1, -1, 0)),
}


@dataclass(frozen=True)
class NamedKernel:
    name: str
    matrix: SkewMatrix


def named_kernel(name: str) -> NamedKernel:
    if name not in _KERNELS:
        raise UnknownName(f"unknown kernel {name!r}; choose from {sorted(_KERNELS)}")
    rows = [[Fraction(x) for x in row] for row in _KERNELS[name]]
    return NamedKernel(name, skew(rows))


def kron(a: SkewMatrix, b) -> list[list]:
    """Kronecker-style product on the product index set (raw rows)."""
    arows = a.rows()
    brows = b.rows() if hasattr(b, "rows") else [list(r) for r in b]
    na, nb = len(arows), len(brows)
    out = [[arows[i][k] * brows[j][l] for k in range(na) for l in range(nb)]
           for i in range(na) for j in range(nb)]
    return out


def tensor_power(b: SkewMatrix, m: int) -> SkewMatrix:
    """m-fold tensor product of the kernel values; skew only for odd m."""
    if m < 1:
        raise InvalidInput("m must be >= 1")
    if b.n**m > TENSOR_SIZE_CAP:
        raise CapExceeded(f"{b.n}^{m} exceeds the tensor size cap")
    if m % 2 == 0:
        raise NotSkewForEvenPower(
            "an even tensor power of a skew kernel is symmetric; "
            "use tensor_density for density products"
        )
    rows = b.rows()
    for _ in range(m - 1):
        rows = kron(b, rows)
    return SkewMatrix(len(rows), _freeze(rows))


def tensor_density(b: SkewMatrix, m: int, pattern: tuple[str, int]):
    """Density of a directed even path / cycle in the m-fold tensor power.

    Uses multiplicativity of densities under tensor products, so any m >= 1
    works regardless of skewness of the power itself.
    """
    kind, size = pattern
    if kind == "path":
        base = t_kernel_path(b, size)
    elif kind == "cycle":
        base = t_kernel_cycle(b, size)
    else:
        raise InvalidInput("pattern kind must be 'path' or 'cycle'")
    return base**m


def ab_construction(a, b) -> SkewMatrix:
    """The 4x4 rank-2 kernel with t(P_(2k+1)) = (-1)^k a b^k.

    Built from u = sqrt(a) v1 + sqrt(1-a) v2 and w, pairwise orthonormal
    half-sign vectors; requires 2 sqrt(b) (sqrt(a) + sqrt(1-a)) < 1/2 so the
    shifted kernel is a valid tournamenton.  Float backend.
    """
    a = float(a)
    bb = float(b)
    if not (0 <= a <= 1) or bb < 0:
        raise InvalidInput("need a in [0,1] and b >= 0")
    if 2 * math.sqrt(bb) * (math.sqrt(a) + math.sqrt(1 - a)) >= 0.5:
        raise ValidityConditionViolated("2 sqrt(b) (sqrt(a) + sqrt(1-a)) must be < 1/2")
    v1 = [0.5, 0.5, 0.5, 0.5]
    v2 = [0.5, 0.5, -0.5, -0.5]
    w = [0.5, -0.5, 0.5, -0.5]
    u = [math.sqrt(a) * x + math.sqrt(1 - a) * y for x, y in zip(v1, v2)]
    c = 4 * math.sqrt(bb)
    rows = [[c * (u[i] * w[j] - w[i] * u[j]) for j in range(4)] for i in range(4)]
    return SkewMatrix(4, _freeze(rows))


class CertDirection(str, enum.Enum):
    VIOLATES_TAS = "ViolatesTAS"
    VIOLATES_TS = "ViolatesTS"


@dataclass(frozen=True)
class Certificate:
    """An exact-arithmetic witness that a pattern's count leaves [<=, >=] bounds."""

    host: WeightedTournament
    pattern: Orientation | None
    direction: CertDirection | None
    threshold: Fraction
    value: Fraction

    def to_json_dict(self) -> dict:
        return {
            "pattern": str(self.pattern) if self.pattern is not None else None,
            "direction": self.direction.value if self.direction else None,
            "value": f"{self.value.numerator}/{self.value.denominator}",
            "threshold": f"{self.threshold.numerator}/{self.threshold.denominator}",
        }


def certify(pattern, host: WeightedTournament, want: CertDirection | None = None) -> Certificate | None:
    """The pattern's exact count in host against n^v/2^e.

    The direction names the bound the count breaks, None at equality.  A
    broken bound is rechecked on hom_generic's frontier sum, which shares no
    code with the kernel.  Given want, a count that does not break that
    bound gives None without a recheck.
    """
    if not host.is_exact:
        raise InvalidHost("certification requires an exact-rational host")
    d, _, o = as_pattern(pattern)
    value = Fraction(hom_count(d, host).raw)
    threshold = Fraction(host.n**d.v, 2**d.e)
    direction = None
    if value > threshold:
        direction = CertDirection.VIOLATES_TAS
    elif value < threshold:
        direction = CertDirection.VIOLATES_TS
    if want is not None and direction is not want:
        return None
    if direction is not None and Fraction(hom_generic(d, host).raw) != value:
        raise InternalAssertionFailed("certificate value failed independent re-verification")
    return Certificate(host, o, direction, threshold, value)


SIX_EDGE_PATTERN = "><>>><"


def certificate(name: str, delta=Fraction(1, 100)) -> Certificate:
    """The two 3x3 counterexample hosts for the six-edge pattern.

    TransitiveTriangle violates the TAS bound; PerturbedCyclic(delta) with
    the default delta = 1/100 violates the TS bound.
    """
    half = Fraction(1, 2)
    if name == "TransitiveTriangle":
        ent = [[half, 1, 1], [0, half, 1], [0, 0, half]]
    elif name == "PerturbedCyclic":
        d = Fraction(delta)
        if not (0 <= d <= 1):
            raise InvalidDelta(f"delta = {d} leaves [0,1]")
        ent = [[half, 1 - d, 0], [d, half, 1], [1, 0, half]]
    else:
        raise UnknownName(f"unknown certificate {name!r}")
    return certify(SIX_EDGE_PATTERN, WeightedTournament(3, _freeze(ent)))


def w_eps(b: SkewMatrix, eps) -> WeightedTournament:
    """The weighted tournament J/2 + eps*B; requires eps*max|B| <= 1/2."""
    exact = b.is_exact and isinstance(eps, (Fraction, int))
    eps = Fraction(eps) if exact else float(eps)
    half = Fraction(1, 2) if exact else 0.5
    m = b.max_abs()
    if eps * m > (Fraction(1, 2) if exact else 0.5 + 1e-12):
        raise RangeViolated(f"eps * max|B| = {eps * m} exceeds 1/2")
    rows = [[half + eps * (b.entries[i][j] if exact else float(b.entries[i][j]))
             for j in range(b.n)] for i in range(b.n)]
    return WeightedTournament(b.n, _freeze(rows))


@dataclass(frozen=True)
class SparseConstruction:
    """m independent sets with exactly one edge between each pair of parts."""

    parts: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    m: int
    k: int  # total vertex count
    e: int

    @property
    def violates(self) -> bool:
        # every orientation has quotient-hom density m^-k, which beats the
        # 2^-e benchmark exactly when e > k log2 m
        return self.k * math.log2(self.m) < self.e


def sparse_non_tas(part_sizes) -> SparseConstruction:
    """Deterministic sparse graph whose every orientation maps onto a small tournament."""
    part_sizes = list(part_sizes)
    if len(part_sizes) < 2:
        raise InvalidInput("need at least two parts")
    if any(s < 1 for s in part_sizes):
        raise InvalidInput("part sizes must be positive")
    parts = []
    nxt = 0
    for s in part_sizes:
        parts.append(tuple(range(nxt, nxt + s)))
        nxt += s
    m = len(parts)
    edges = tuple(
        (parts[p][0], parts[q][0]) for p in range(m) for q in range(p + 1, m)
    )
    return SparseConstruction(tuple(parts), edges, m, nxt, len(edges))
