"""Spectral moments, symbolic path expansion, and the sign certifier.

A weighted tournament splits as A = J/2 + B with B skew-symmetric, so
1^T M_1...M_e 1 (M_i in {A, A^T}) expands over edge subsets into products of
chain segments 1^T B^a 1.  Odd segments vanish; the surviving polynomial
lives in n and the signed moments S_2t := 1^T B^(2t) 1.

Internally everything is kept in signed S variables (the expansion is linear
in them); the absolute variables X_2t = |1^T B^(2t) 1| used for display and
certification satisfy S_4k = X_4k and S_4k+2 = -X_4k+2, and X_0 := n (an
isolated chain segment contributes one factor n).

The certifier mechanizes the greedy bounding moves valid for |B| <= 1/2:

  (iii)  X_2s <= X_2t (n/2)^(2(s-t))        for s > t >= 0
  (iv)   X_2s^2 <= X_2(s-t) X_2(s+t)

rewriting offending monomials down onto opposite-sign partners.  It is
deliberately incomplete: Unknown means "no certificate found", not a
disproof.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .core import as_orientation
from .errors import CapExceeded, ConvergenceFailure, EntryRangeViolated, InternalAssertionFailed
from .hom import s_moment, s_moments_up_to
from .tournament import SkewMatrix

EXPAND_EDGE_CAP = 24

# term key: (power of n, sorted tuple of even S indices)
TermKey = tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class Spectrum:
    """Moduli of the +-i*lambda eigenvalue pairs, descending, zeros included."""

    lambdas: tuple[float, ...]

    @property
    def lmax(self) -> float:
        return self.lambdas[0] if self.lambdas else 0.0


def eigenvalues(b: SkewMatrix, residual_tol: float = 1e-9) -> Spectrum:
    """Eigenvalue moduli of a skew matrix via a symmetric solve of B^2.

    B^2 is real symmetric with eigenvalues -lambda_i^2, so all arithmetic
    stays real.  The reconstruction residual of the symmetric solve is
    checked against residual_tol.
    """
    m = np.array([[float(x) for x in row] for row in b.entries], dtype=float)
    b2 = m @ m
    try:
        w, vecs = np.linalg.eigh(b2)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise ConvergenceFailure(str(exc)) from exc
    scale = max(1.0, float(np.max(np.abs(b2))))
    resid = np.max(np.abs(b2 @ vecs - vecs * w))
    if resid > residual_tol * scale:
        raise ConvergenceFailure(f"eigensolve residual {resid:.3e}")
    lam = np.sqrt(np.clip(-w, 0.0, None))  # ascending w -> descending lambda
    return Spectrum(tuple(float(x) for x in lam[::2]))


def x_moment(b: SkewMatrix, t: int):
    """X_2t = |1^T B^(2t) 1|, with the bookkeeping convention X_0 = n."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return Fraction(b.n) if b.is_exact else float(b.n)
    return abs(s_moment(b, 2 * t))


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


def check_x_lemma(b: SkewMatrix, s: int, t: int, rel_tol: float = 1e-9) -> XLemmaReport:
    """Evaluate the four moment clauses for a skew B with entries in [-1/2, 1/2].

    (i) odd moments vanish; (ii) 1^T B^(4k) 1 >= 0 and 1^T B^(4k+2) 1 <= 0;
    (iii) the spectral-radius bound; (iv) the Cauchy-Schwarz bound.
    """
    if not (s >= t >= 0):
        raise ValueError("need s >= t >= 0")
    half = Fraction(1, 2) if b.is_exact else 0.5 + 1e-15
    if b.max_abs() > half:
        raise EntryRangeViolated("entries must lie in [-1/2, 1/2]")
    n = b.n
    top = 2 * (s + t)
    moments = s_moments_up_to(b, max(top, 2 * s, 2))
    scale = max([1.0] + [abs(float(v)) for k, v in moments.items() if k > 0])
    tol = 0 if b.is_exact else rel_tol * scale

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

    x2s = abs(moments[2 * s]) if s > 0 else n
    x2t = abs(moments[2 * t]) if t > 0 else n
    if b.is_exact:
        rhs3 = x2t * Fraction(n, 2) ** (2 * (s - t))
    else:
        rhs3 = x2t * (n / 2.0) ** (2 * (s - t))
    radius = ClauseReport(x2s <= rhs3 + tol, rhs3 - x2s)

    xlo = abs(moments[2 * (s - t)]) if s - t > 0 else n
    xhi = abs(moments[2 * (s + t)]) if s + t > 0 else n
    rhs4 = xlo * xhi
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
    vanish), the count of empty chain segments (each contributes a factor n),
    and the open run length.
    """
    o = as_orientation(o)
    e = o.e
    if e > EXPAND_EDGE_CAP:
        raise CapExceeded(f"expansion capped at {EXPAND_EDGE_CAP} edges")
    # state: (closed runs sorted tuple, zero segment count, open run length).
    # After k edges a coefficient is kept times 2^k, so a B step multiplies
    # it by 2d, a gap (a factor 1/2) leaves it as it is, and 2^e divides out
    # once at the end.
    state: dict[tuple[tuple[int, ...], int, int], int] = {((), 0, 0): 1}
    for d in o.dirs:
        nxt: dict[tuple[tuple[int, ...], int, int], int] = {}
        for (runs, zeros, open_run), coeff in state.items():
            key = (runs, zeros, open_run + 1)
            nxt[key] = nxt.get(key, 0) + 2 * d * coeff
            # gap: close the open run; odd closed runs vanish
            if open_run == 0:
                key = (runs, zeros + 1, 0)
            elif open_run % 2 == 0:
                key = (tuple(sorted(runs + (open_run,))), zeros, 0)
            else:
                continue
            nxt[key] = nxt.get(key, 0) + coeff
        state = nxt
    terms: dict[TermKey, int] = {}
    for (runs, zeros, open_run), coeff in state.items():
        if open_run == 0:
            zeros += 1
        elif open_run % 2 == 0:
            runs = tuple(sorted(runs + (open_run,)))
        else:
            continue
        key = (zeros, runs)
        terms[key] = terms.get(key, 0) + coeff
    scale = 2**e
    frozen = tuple(sorted(((k, Fraction(c, scale)) for k, c in terms.items() if c),
                          key=lambda kv: kv[0]))
    return SPolynomial(o.v, e, frozen)


def eval_spoly(p: SPolynomial, b: SkewMatrix):
    """Substitute n and the signed moments of b; exact on exact input."""
    svals = s_moments_up_to(b, max(p.indices(), default=0))
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


def _eliminate(terms: dict[TermKey, Fraction], bad_sign: int, trace: list[str]) -> bool:
    """Greedily absorb every bad-signed monomial into opposite partners.

    Nearest (highest-index) reachable partner first, with backtracking over
    the partner choice, at most 64 moves deep.  A state whose whole subtree
    failed without meeting that cap fails wherever it comes up again, and
    a failing branch writes no trace line, so it is not searched twice.
    """
    # moves only land on monomials already present, so one ranking serves all
    rank = {k: (max(k[1], default=0), sorted(k[1], reverse=True), k[0]) for k in terms}
    dead: set[frozenset] = set()
    capped = False  # did the subtree being searched meet the depth cap?

    def search(terms: dict[TermKey, Fraction], state: frozenset, depth: int) -> bool:
        # state: the terms as (monomial, numerator, denominator) triples, a
        # key that hashes ints where Fraction.__hash__ is slow
        nonlocal capped
        if depth > 64:
            capped = True
            return False
        bads, goods = [], []
        for k, c in terms.items():
            (bads if (c.numerator > 0) == (bad_sign > 0) else goods).append(k)
        if not bads:
            return True
        if state in dead:
            return False
        outer, capped = capped, False
        worst = max(bads, key=rank.__getitem__)
        coeff = terms[worst]
        goods.sort(key=rank.__getitem__, reverse=True)
        z, runs = worst
        for gz, gruns in goods:
            frac = _reachable_factor(runs, gruns)
            if frac is None:
                continue
            moved = coeff * frac  # n-power lands exactly on the partner by degree
            partner = (gz, gruns)
            old = terms[partner]
            nxt = dict(terms)
            del nxt[worst]
            new = nxt[partner] = old + moved
            gone = {(worst, coeff.numerator, coeff.denominator),
                    (partner, old.numerator, old.denominator)}
            if new == 0:
                del nxt[partner]
                child = state - gone
            else:  # the child's key is its parent's with two triples swapped for one
                child = (state - gone) | {(partner, new.numerator, new.denominator)}
            if search(nxt, child, depth + 1):
                trace.insert(0, f"bound {_mono_text(worst, coeff)} by "
                                f"{_mono_text(partner, moved)} and cancel")
                return True
        if not capped:
            dead.add(state)
        capped = capped or outer
        return False

    return search(terms, frozenset((k, c.numerator, c.denominator) for k, c in terms.items()), 0)


def _mono_text(key: TermKey, coeff: Fraction) -> str:
    z, runs = key
    xs = "*".join(f"X{r}" for r in runs) if runs else "1"
    return f"({coeff})*n^{z}*{xs}"


def certify_sign(p: SPolynomial) -> CertificationResult:
    """Try to certify h - n^v/2^e <= 0 (TAS) or >= 0 (TS) mechanically.

    Works in the X variables under the moves valid for |B| <= 1/2; greedy
    and incomplete by design.  The all-J term of the expansion equals the
    quasirandom benchmark exactly, so the residual has no pure-n monomial.
    """
    residual = x_form(p)
    if residual.pop((p.v, ()), None) != Fraction(1, 2**p.e):
        raise InternalAssertionFailed("the all-J term is not n^v/2^e")
    residual = {k: c for k, c in residual.items() if c}
    if not residual:
        return CertificationResult(
            CertVerdict.CERTIFIED_TAS, ("residual is identically zero (equality)",)
        )
    trace_tas: list[str] = []
    if _eliminate(dict(residual), bad_sign=+1, trace=trace_tas):
        trace_tas.append("all positive monomials absorbed; residual <= 0")
        return CertificationResult(CertVerdict.CERTIFIED_TAS, tuple(trace_tas))
    trace_ts: list[str] = []
    if _eliminate(dict(residual), bad_sign=-1, trace=trace_ts):
        trace_ts.append("all negative monomials absorbed; residual >= 0")
        return CertificationResult(CertVerdict.CERTIFIED_TS, tuple(trace_ts))
    return CertificationResult(
        CertVerdict.UNKNOWN, ("no greedy certificate in either direction",)
    )
