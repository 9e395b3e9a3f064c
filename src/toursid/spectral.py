"""Spectral moments, symbolic path expansion, and the sign certifier.

A weighted tournament splits as A = J/2 + B with B skew-symmetric, so
1^T M_1...M_e 1 (M_i in {A, A^T}) expands over edge subsets into products of
chain segments 1^T B^a 1.  Odd segments vanish; the surviving polynomial
lives in n and the signed moments S_2t := 1^T B^(2t) 1.

Internally everything is kept in signed S variables (the expansion is linear
in them); the absolute variables X_2t = |1^T B^(2t) 1| used for display and
certification satisfy S_4k = X_4k and S_4k+2 = -X_4k+2, and X_0 := n (an
isolated chain segment contributes one factor n).

The certifier mechanizes the bounding moves valid for |B| <= 1/2:

  (iii)  X_2s <= X_2t (n/2)^(2(s-t))        for s > t >= 0
  (iv)   X_2s^2 <= X_2(s-t) X_2(s+t)

bounding offending monomials by opposite-sign partners, with coefficients
split as needed.  Among certificates that bound each monomial by a chain of
these moves it is complete: Unknown means that no such certificate exists,
not that the bound fails.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .core import as_orientation, directed_path_digraph
from .errors import (
    CapExceeded,
    ConvergenceFailure,
    EntryRangeViolated,
    InternalAssertionFailed,
    InvalidInput,
)
from .hom import hom_count, s_moments_up_to
from .tournament import SkewMatrix

EXPAND_EDGE_CAP = 24
RESIDUAL_TOL = 1e-9  # eigenvalues: largest reconstruction residual, relative to max |B^2|
X_LEMMA_REL_TOL = 1e-9  # check_x_lemma on floats: slack relative to the largest moment

# term key: (power of n, sorted tuple of even S indices)
TermKey = tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class Spectrum:
    """Moduli of the +-i*lambda eigenvalue pairs, descending, zeros included."""

    lambdas: tuple[float, ...]

    @property
    def lmax(self) -> float:
        return self.lambdas[0] if self.lambdas else 0.0


def eigenvalues(b: SkewMatrix) -> Spectrum:
    """Eigenvalue moduli of a skew matrix via a symmetric solve of B^2.

    B^2 is real symmetric with eigenvalues -lambda_i^2, so all arithmetic
    stays real.  The reconstruction residual of the symmetric solve is
    checked against RESIDUAL_TOL.
    """
    m = np.array([[float(x) for x in row] for row in b.entries], dtype=float)
    b2 = m @ m
    try:
        w, vecs = np.linalg.eigh(b2)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise ConvergenceFailure(str(exc)) from exc
    scale = max(1.0, float(np.max(np.abs(b2))))
    resid = np.max(np.abs(b2 @ vecs - vecs * w))
    if resid > RESIDUAL_TOL * scale:
        raise ConvergenceFailure(f"eigensolve residual {resid:.3e}")
    lam = np.sqrt(np.clip(-w, 0.0, None))  # ascending w -> descending lambda
    return Spectrum(tuple(float(x) for x in lam[::2]))


def x_moment(b: SkewMatrix, t: int):
    """X_2t = |1^T B^(2t) 1|, with the bookkeeping convention X_0 = n."""
    if t < 0:
        raise InvalidInput("t must be >= 0")
    if t == 0:
        return Fraction(b.n) if b.is_exact else float(b.n)
    return abs(hom_count(directed_path_digraph(2 * t), b).raw)


@dataclass(frozen=True)
class ClauseReport:
    passed: bool
    margin: object  # rhs - lhs, >= 0 when passed


@dataclass(frozen=True)
class XLemmaReport:
    odd_vanish: ClauseReport
    signs: ClauseReport
    radius_bound: ClauseReport
    cauchy_schwarz: ClauseReport

    @property
    def passed(self) -> bool:
        return all(
            c.passed
            for c in (self.odd_vanish, self.signs, self.radius_bound, self.cauchy_schwarz)
        )


def check_x_lemma(b: SkewMatrix, s: int, t: int) -> XLemmaReport:
    """Evaluate the four moment clauses for a skew B with entries in [-1/2, 1/2].

    (i) odd moments vanish; (ii) 1^T B^(4k) 1 >= 0 and 1^T B^(4k+2) 1 <= 0;
    (iii) the spectral-radius bound; (iv) the Cauchy-Schwarz bound.
    """
    if not (s >= t >= 0):
        raise InvalidInput("need s >= t >= 0")
    half = Fraction(1, 2) if b.is_exact else 0.5 + 1e-15
    if b.max_abs() > half:
        raise EntryRangeViolated("entries must lie in [-1/2, 1/2]")
    n = b.n
    top = 2 * (s + t)
    moments = s_moments_up_to(b, max(top, 2))
    scale = max([1.0] + [abs(float(v)) for k, v in moments.items() if k > 0])
    tol = 0 if b.is_exact else X_LEMMA_REL_TOL * scale

    worst_odd = max((abs(moments[k]) for k in range(1, top + 1, 2)), default=0)
    odd_ok = ClauseReport(worst_odd <= tol, -worst_odd)

    sign_margin = None
    sign_ok = True
    for k in range(2, top + 1, 2):
        good = -moments[k] if k % 4 == 2 else moments[k]
        if sign_margin is None or good < sign_margin:
            sign_margin = good
        if good < -tol:
            sign_ok = False
    signs = ClauseReport(sign_ok, sign_margin)

    x2s, x2t = abs(moments[2 * s]), abs(moments[2 * t])
    if b.is_exact:
        rhs3 = x2t * Fraction(n, 2) ** (2 * (s - t))
    else:
        rhs3 = x2t * (n / 2.0) ** (2 * (s - t))
    radius = ClauseReport(x2s <= rhs3 + tol, rhs3 - x2s)

    rhs4 = abs(moments[2 * (s - t)]) * abs(moments[top])
    cs = ClauseReport(x2s * x2s <= rhs4 + tol * max(1.0, abs(float(rhs4))) if not b.is_exact
                      else x2s * x2s <= rhs4,
                      rhs4 - x2s * x2s)
    return XLemmaReport(odd_ok, signs, radius, cs)


@dataclass(frozen=True)
class SPolynomial:
    """Exact polynomial in n and the signed moments S_2t.

    terms maps (power of n, sorted multiset of even indices) to a Fraction
    coefficient.  Every term of a path expansion with v vertices satisfies
    n-power + sum(index + 1) = v.
    """

    v: int
    e: int
    terms: tuple[tuple[TermKey, Fraction], ...]

    def as_dict(self) -> dict[TermKey, Fraction]:
        return dict(self.terms)

    def indices(self) -> list[int]:
        present = sorted({i for (_, runs), _ in self.terms for i in runs})
        return present

    def to_text(self) -> str:
        """Stable text form: descending n power, then lexicographic multiset."""
        idxs = self.indices()
        parts = []
        for (z, runs), c in sorted(
            self.terms, key=lambda kv: (-kv[0][0], kv[0][1])
        ):
            factors = [f"({c.numerator}/{c.denominator})", f"n^{z}"]
            for i in idxs:
                factors.append(f"S{i}^{runs.count(i)}")
            parts.append("*".join(factors))
        return " + ".join(parts) if parts else "0"


def expand_path(o) -> SPolynomial:
    """Exact symbolic expansion of 1^T prod(J/2 +- B) 1 over edge subsets.

    Dynamic programming over edge positions; states carry the multiset of
    completed even B-runs (odd runs are dropped immediately since they
    vanish) and the open run length.  Each empty chain segment contributes
    a factor n, and their count is v - sum(run + 1) over the runs.
    """
    o = as_orientation(o)
    e = o.e
    if e > EXPAND_EDGE_CAP:
        raise CapExceeded(f"expansion capped at {EXPAND_EDGE_CAP} edges")
    # state: (closed runs sorted tuple, open run length).  After k edges a
    # coefficient is kept times 2^k, so a B step multiplies it by 2d, a gap
    # (a factor 1/2) leaves it as it is, and 2^e divides out once at the end.
    state: dict[tuple[tuple[int, ...], int], int] = {((), 0): 1}
    for d in o.dirs:
        nxt: dict[tuple[tuple[int, ...], int], int] = {}
        for (runs, open_run), coeff in state.items():
            key = (runs, open_run + 1)
            nxt[key] = nxt.get(key, 0) + 2 * d * coeff
            # gap: close the open run; odd closed runs vanish
            if open_run % 2 == 0:
                key = (tuple(sorted(runs + (open_run,))) if open_run else runs, 0)
                nxt[key] = nxt.get(key, 0) + coeff
        state = nxt
    terms: dict[TermKey, int] = {}
    for (runs, open_run), coeff in state.items():
        if open_run % 2 == 0:
            runs = tuple(sorted(runs + (open_run,))) if open_run else runs
            key = (o.v - sum(r + 1 for r in runs), runs)
            terms[key] = terms.get(key, 0) + coeff
    scale = 2**e
    frozen = tuple(sorted(((k, Fraction(c, scale)) for k, c in terms.items() if c),
                          key=lambda kv: kv[0]))
    return SPolynomial(o.v, e, frozen)


def eval_spoly(p: SPolynomial, b: SkewMatrix):
    """Substitute n and the signed moments of b its terms hold; exact on exact input."""
    svals = {r: hom_count(directed_path_digraph(r), b).raw for r in p.indices()}
    total = Fraction(0) if b.is_exact else 0.0
    for (z, runs), c in p.terms:
        term = c * b.n**z
        for r in runs:
            term = term * svals[r]
        total = total + term
    return total


def x_form(p: SPolynomial) -> dict[TermKey, Fraction]:
    """Coefficients in the absolute X variables (sign conversion applied)."""
    out: dict[TermKey, Fraction] = {}
    for (z, runs), c in p.terms:
        flip = sum(1 for r in runs if r % 4 == 2)
        out[(z, runs)] = c * (-1) ** flip
    return out


class CertVerdict(str, enum.Enum):
    CERTIFIED_TAS = "CertifiedTAS"
    CERTIFIED_TS = "CertifiedTS"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class CertificationResult:
    verdict: CertVerdict
    trace: tuple[str, ...]


@lru_cache(maxsize=4096)
def _reachable_factor(src: tuple[int, ...], dst: tuple[int, ...]) -> Fraction | None:
    """Can the X-multiset src be bounded by dst via moves (iii)/(iv)?

    Returns the rational part of the bounding factor (the n part is pinned
    by the degree identity): factor = n^dz * 2^-(sum(src) - sum(dst)).
    Moves: decrease or drop one index (iii), or split an equal pair (a,a)
    into (a-2u, a+2u) (iv), dropping zeros.
    """
    if sum(dst) > sum(src) or len(dst) > len(src):
        return None
    target = tuple(sorted(dst))
    seen = {tuple(sorted(src))}
    frontier = [tuple(sorted(src))]
    while frontier:
        nxt = []
        for cur in frontier:
            if cur == target:
                return Fraction(1, 2 ** (sum(src) - sum(dst)))
            for i, a in enumerate(cur):
                rest = cur[:i] + cur[i + 1 :]
                for bnew in range(0, a, 2):  # (iii): a -> bnew, 0 drops the factor
                    cand = tuple(sorted(rest + (bnew,))) if bnew else rest
                    if cand not in seen and sum(cand) >= sum(target) and len(cand) >= len(target):
                        seen.add(cand)
                        nxt.append(cand)
                for j in range(i + 1, len(cur)):  # (iv) on equal pairs
                    if cur[j] != a:
                        continue
                    rest2 = tuple(x for k, x in enumerate(cur) if k not in (i, j))
                    for u in range(2, a + 1, 2):
                        lo, hi = a - u, a + u
                        cand = tuple(sorted(rest2 + ((lo,) if lo else ()) + (hi,)))
                        if cand not in seen and len(cand) >= len(target):
                            seen.add(cand)
                            nxt.append(cand)
        frontier = nxt
    return None


def _transport(terms: dict[TermKey, Fraction], bad_sign: int, trace: list[str]) -> bool:
    """Absorb every bad-signed monomial into opposite-signed partners, exactly.

    Bounding b by g costs the factor 2^-(sum b - sum g) and reachability is
    transitive, so in units of 2^-sum each bad b supplies |c_b| 2^-sum(b),
    each good g absorbs up to |c_g| 2^-sum(g), and a certificate exists
    exactly when a flow over the reachable pairs saturates every supply.
    Breadth-first augmenting paths decide that, visiting monomials by rank,
    highest first; a supply left with no path fails Hall's condition.  The
    trace gets one line per pair that carries flow.
    """
    order = sorted(terms, key=lambda k: (max(k[1], default=0), sorted(k[1], reverse=True), k[0]),
                   reverse=True)
    bads = [k for k in order if (terms[k] > 0) == (bad_sign > 0)]
    goods = [k for k in order if (terms[k] > 0) != (bad_sign > 0)]
    unit = {k: abs(c) / 2 ** sum(k[1]) for k, c in terms.items()}  # supply or room
    reach = {b: [g for g in goods if _reachable_factor(b[1], g[1]) is not None] for b in bads}
    flow: dict[tuple[TermKey, TermKey], Fraction] = {}
    for source in bads:
        while unit[source]:
            parent, queue, end = {source: None}, [source], None
            for node in queue:
                if node in reach:  # bad: forward along every reachable pair
                    step = reach[node]
                elif unit[node]:  # good with room left
                    end = node
                    break
                else:  # full good: backward along the pairs that fill it
                    step = [b for b in bads if (b, node) in flow]
                for nxt in step:
                    if nxt not in parent:
                        parent[nxt] = node
                        queue.append(nxt)
            if end is None:
                return False
            path, node = [], end
            while parent[node] is not None:
                path.append((parent[node], node))
                node = parent[node]
            amount = min([unit[source], unit[end]] + [flow[v, u] for u, v in path if v in reach])
            unit[source] -= amount
            unit[end] -= amount
            for u, v in path:
                if u in reach:
                    flow[u, v] = flow.get((u, v), 0) + amount
                elif flow[v, u] == amount:
                    del flow[v, u]
                else:
                    flow[v, u] -= amount
    for b in bads:
        for g in goods:
            if (b, g) in flow:
                trace.append(f"bound {_mono_text(b, bad_sign * flow[b, g] * 2 ** sum(b[1]))} by "
                             f"{_mono_text(g, bad_sign * flow[b, g] * 2 ** sum(g[1]))} and cancel")
    return True


def _mono_text(key: TermKey, coeff: Fraction) -> str:
    z, runs = key
    xs = "*".join(f"X{r}" for r in runs) if runs else "1"
    return f"({coeff})*n^{z}*{xs}"


def certify_sign(p: SPolynomial) -> CertificationResult:
    """Try to certify h - n^v/2^e <= 0 (TAS) or >= 0 (TS) mechanically.

    Works in the X variables under the moves valid for |B| <= 1/2, and finds
    a certificate whenever those moves give one.  The all-J term of the
    expansion equals the quasirandom benchmark exactly, so the residual has
    no pure-n monomial.
    """
    residual = x_form(p)
    if residual.pop((p.v, ()), None) != Fraction(1, 2**p.e):
        raise InternalAssertionFailed("the all-J term is not n^v/2^e")
    residual = {k: c for k, c in residual.items() if c}
    if not residual:
        return CertificationResult(
            CertVerdict.CERTIFIED_TAS, ("residual is identically zero (equality)",)
        )
    for bad_sign, verdict, last in (
        (+1, CertVerdict.CERTIFIED_TAS, "all positive monomials absorbed; residual <= 0"),
        (-1, CertVerdict.CERTIFIED_TS, "all negative monomials absorbed; residual >= 0"),
    ):
        trace: list[str] = []
        if _transport(residual, bad_sign, trace):
            return CertificationResult(verdict, (*trace, last))
    return CertificationResult(CertVerdict.UNKNOWN, ("no greedy certificate in either direction",))
