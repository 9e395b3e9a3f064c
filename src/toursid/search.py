"""Refutation and discovery of counting-bound violations.

Stage 1 checks the weighted half-loop form of every unweighted tournament up
to a size cap in exact arithmetic: h must stay >= n^v/2^e (TS) or
<= n^v/2^e (TAS), and the first strict violation becomes an exact
certificate after re-verification on an independent evaluator.  Stage 2
runs a projected-gradient ascent over the skew parametrization of weighted
hosts, rationalizes promising float hosts, and certifies them exactly.

Absence of a violation at desk scale is evidence, not proof.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .construct import Certificate, CertDirection, named_kernel, certificate as known_certificate
from .core import Digraph, Orientation, as_orientation, path_digraph
from .errors import CapExceeded, InternalAssertionFailed, InvalidHost, PreconditionViolated
from .hom import _chain, contract, hom_count, hom_generic, hom_path
from .tournament import (
    Tournament,
    WeightedTournament,
    _freeze,
    skew_decompose,
    tournament_stack,
    transitive,
    with_half_loops,
)

EXHAUSTIVE_CAP = 6
OPTIMIZER_N_CAP = 12
RATIONALIZE_MAX_DEN = 10**4

MODE_TAS = "TAS"
MODE_TS = "TS"


@dataclass(frozen=True)
class RefutationReport:
    pattern_text: str
    mode: str
    n_checked: int
    samples: int
    violation: Certificate | None
    margin_min: Fraction | None

    def to_json_dict(self) -> dict:
        d = {
            "pattern": self.pattern_text,
            "mode": self.mode,
            "n_checked": self.n_checked,
            "samples": self.samples,
            "violation": self.violation.to_json_dict() if self.violation else None,
        }
        if self.margin_min is not None:
            d["margin_min"] = f"{self.margin_min.numerator}/{self.margin_min.denominator}"
        return d


def _pattern_meta(pattern) -> tuple[object, str, int, int]:
    if isinstance(pattern, (str, Orientation)):
        o = as_orientation(pattern)
        return o, str(o), o.v, o.e
    if isinstance(pattern, Digraph):
        return pattern, f"digraph(v={pattern.v},e={pattern.e})", pattern.v, pattern.e
    raise TypeError("pattern must be an orientation or a digraph")


def _exact_count(pattern, host) -> Fraction:
    if isinstance(pattern, Orientation):
        return Fraction(hom_path(pattern, host).raw)
    return Fraction(hom_count(pattern, host).raw)


def _independent_recheck(pattern, host, claimed: Fraction) -> None:
    """Certificates re-verify on the brute-force evaluator before being emitted."""
    d = path_digraph(pattern) if isinstance(pattern, Orientation) else pattern
    if Fraction(hom_generic(d, host).raw) != claimed:
        raise InternalAssertionFailed("certificate value failed independent re-verification")


def _violates(mode: str, value: Fraction, threshold: Fraction) -> bool:
    return value > threshold if mode == MODE_TAS else value < threshold


def certify(pattern, host: WeightedTournament, mode: str) -> Certificate | None:
    """Exact strict comparison against n^v/2^e; None when no violation."""
    if mode not in (MODE_TAS, MODE_TS):
        raise ValueError("mode must be 'TAS' or 'TS'")
    if not host.is_exact:
        raise InvalidHost("certification requires an exact-rational host")
    obj, _, v, e = _pattern_meta(pattern)
    value = _exact_count(obj, host)
    threshold = Fraction(host.n**v, 2**e)
    if not _violates(mode, value, threshold):
        return None
    _independent_recheck(obj, host, value)
    direction = CertDirection.VIOLATES_TAS if mode == MODE_TAS else CertDirection.VIOLATES_TS
    patt = obj if isinstance(obj, Orientation) else None
    return Certificate(host, patt, direction, threshold, value)


def rationalize_host(host: WeightedTournament, max_den: int = RATIONALIZE_MAX_DEN) -> WeightedTournament:
    """Round a float host to nearby small-denominator rationals.

    The upper triangle is rounded and the lower triangle rebuilt as 1 - A to
    keep the tournament constraint exact; the diagonal snaps to 1/2.
    """
    n = host.n
    ent = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        ent[i][i] = Fraction(1, 2)
        for j in range(i + 1, n):
            x = Fraction(float(host.entries[i][j])).limit_denominator(max_den)
            x = min(max(x, Fraction(0)), Fraction(1))
            ent[i][j] = x
            ent[j][i] = 1 - x
    return WeightedTournament(n, _freeze(ent), loops_half=True)


@dataclass(frozen=True)
class OptimizeResult:
    host: WeightedTournament
    value: float
    objective: str
    restarts: int
    iterations: int
    trajectories: tuple[tuple[float, ...], ...]  # accepted values per start


def _path_gradient(o: Orientation, a: list[list[float]], n: int) -> list[list[float]]:
    """d h / d b_ij (upper triangle) via prefix/suffix chain vectors."""
    prefix = _chain(a, n, o.dirs, one=1.0)
    # suffix[k] = M_(k+1) ... M_e 1: the chain of the same path read backwards
    suffix = _chain(a, n, o.reversed_path().dirs, one=1.0)[::-1]
    # dh/dA(u,v) summed over factor occurrences, then combined for b_uv = -b_vu
    dA = [[0.0] * n for _ in range(n)]
    for k, d in enumerate(o.dirs):
        p = prefix[k]
        s = suffix[k + 1]
        if d > 0:
            for u in range(n):
                pu = p[u]
                if pu:
                    row = dA[u]
                    for v in range(n):
                        row[v] += pu * s[v]
        else:
            for u in range(n):
                su = s[u]
                if su:
                    row = dA[u]
                    for v in range(n):
                        row[v] += p[v] * su
    grad = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            grad[i][j] = dA[i][j] - dA[j][i]
    return grad


def _digraph_gradient(d: Digraph, a: list[list[float]], n: int) -> list[list[float]]:
    """d h / d b_ij (upper triangle): the kernel with each arc left open in turn."""
    arr = np.array(a)
    dA = np.zeros((n, n))
    for arc in d.arcs:
        dA += contract(d, arr, open_arc=arc)
    return np.triu(dA - dA.T, 1).tolist()


def _host_from_b(bvals: list[list[float]], n: int) -> list[list[float]]:
    a = [[0.5] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = 0.5 + bvals[i][j]
            a[j][i] = 0.5 - bvals[i][j]
    return a


def _objective_value(pattern, a: list[list[float]], n: int) -> float:
    if isinstance(pattern, Orientation):
        return float(hom_path(pattern, a).raw)
    return float(contract(pattern, np.array(a)))


def _warm_starts(n: int) -> list[list[list[float]]]:
    starts = []
    tb = skew_decompose(with_half_loops(transitive(n)))
    starts.append([[float(x) for x in row] for row in tb.entries])
    if n == 3:
        pc = known_certificate("PerturbedCyclic").host
        sk = skew_decompose(pc)
        starts.append([[float(x) for x in row] for row in sk.entries])
        mb = named_kernel("MBalanced").matrix
        starts.append([[float(x) * 0.25 for x in row] for row in mb.entries])
    if n == 2:
        b1 = named_kernel("B1").matrix
        starts.append([[float(x) * 0.25 for x in row] for row in b1.entries])
    return starts


def optimize_density(
    pattern,
    n: int,
    objective: str = "maximize",
    restarts: int = 4,
    seed: int = 0,
    max_iters: int = 200,
    grad_tol: float = 1e-9,
) -> OptimizeResult:
    """Projected-gradient search for extremal weighted hosts.

    Parametrizes the host by the strict upper triangle of B in [-1/2, 1/2];
    gradients are exact partial derivatives of the counting polynomial.
    Warm starts include the transitive host and, where sizes match, the
    named kernels and the perturbed cyclic host.
    """
    if n > OPTIMIZER_N_CAP:
        raise CapExceeded(f"optimizer capped at n <= {OPTIMIZER_N_CAP}")
    if objective not in ("maximize", "minimize"):
        raise ValueError("objective must be 'maximize' or 'minimize'")
    obj, _, _, _ = _pattern_meta(pattern)
    sign = 1.0 if objective == "maximize" else -1.0
    rng = random.Random(seed)
    starts = _warm_starts(n)
    for _ in range(restarts):
        b = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                b[i][j] = rng.uniform(-0.5, 0.5)
        starts.append(b)
    best_b = None
    best_val = None
    total_iters = 0
    trajectories = []
    for b in starts:
        bcur = [row[:] for row in b]
        a = _host_from_b(bcur, n)
        val = _objective_value(obj, a, n)
        accepted = [val]
        for _ in range(max_iters):
            total_iters += 1
            if isinstance(obj, Orientation):
                grad = _path_gradient(obj, a, n)
            else:
                grad = _digraph_gradient(obj, a, n)
            gmax = max((abs(grad[i][j]) for i in range(n) for j in range(i + 1, n)), default=0.0)
            if gmax <= grad_tol:
                break
            step = 0.5 / max(gmax, 1.0)
            improved = False
            while step > 1e-13:
                cand = [row[:] for row in bcur]
                for i in range(n):
                    for j in range(i + 1, n):
                        x = bcur[i][j] + sign * step * grad[i][j]
                        cand[i][j] = min(0.5, max(-0.5, x))
                ca = _host_from_b(cand, n)
                cval = _objective_value(obj, ca, n)
                if sign * (cval - val) > 0:
                    bcur, a, val = cand, ca, cval
                    accepted.append(val)
                    improved = True
                    break
                step /= 2
            if not improved:
                break
        trajectories.append(tuple(accepted))
        if best_val is None or sign * (val - best_val) > 0:
            best_val = val
            best_b = bcur
    rows = _host_from_b(best_b, n)
    host = WeightedTournament(n, _freeze(rows), loops_half=True)
    return OptimizeResult(host, best_val, objective, len(starts), total_iters,
                          tuple(trajectories))


def refute(
    pattern,
    mode: str,
    n_max: int = 5,
    budget: int = 0,
    seed: int = 0,
    optimizer_n: int | None = None,
) -> RefutationReport:
    """Exhaustive small-host scan, then (budget permitting) optimizer probes.

    For n = 1..n_max in turn, one kernel call counts the pattern in every
    half-loop tournament host at once.  It runs on the integer matrices 2A,
    so it yields 2^e h exactly, to be compared with n^v.  At the first n
    with a strict violation, the lowest-index violating host is rebuilt and
    rechecked on hom_generic before it becomes the certificate.  margin_min
    is the least |h - n^v/2^e| over every host scanned.  budget counts
    optimizer restarts; 0 skips stage 2.
    """
    if mode not in (MODE_TAS, MODE_TS):
        raise ValueError("mode must be 'TAS' or 'TS'")
    if n_max < 1:
        raise PreconditionViolated("the exhaustive stage needs n_max >= 1")
    if n_max > EXHAUSTIVE_CAP:
        raise CapExceeded(f"exhaustive stage capped at n <= {EXHAUSTIVE_CAP}")
    obj, text, v, e = _pattern_meta(pattern)
    d = path_digraph(obj) if isinstance(obj, Orientation) else obj
    margin_min: Fraction | None = None
    samples = 0
    for n in range(1, n_max + 1):
        adj = tournament_stack(n)
        counts = contract(d, (2 * adj + np.eye(n, dtype=adj.dtype)).astype(object))
        target = n**v
        samples += len(adj)
        margin = Fraction(np.abs(counts - target).min(), 2**e)
        margin_min = margin if margin_min is None else min(margin_min, margin)
        hits = np.flatnonzero(_violates(mode, counts, target))
        if hits.size:
            host = with_half_loops(Tournament(n, _freeze(adj[hits[0]].tolist())))
            value = Fraction(counts[hits[0]], 2**e)
            _independent_recheck(obj, host, value)
            direction = (
                CertDirection.VIOLATES_TAS if mode == MODE_TAS else CertDirection.VIOLATES_TS
            )
            cert = Certificate(
                host,
                obj if isinstance(obj, Orientation) else None,
                direction,
                Fraction(target, 2**e),
                value,
            )
            return RefutationReport(text, mode, n, samples, cert, margin_min)
    n_checked = n_max
    if budget > 0:
        n_opt = optimizer_n or max(2, min(n_max, OPTIMIZER_N_CAP))
        objective = "maximize" if mode == MODE_TAS else "minimize"
        result = optimize_density(obj, n_opt, objective, restarts=budget, seed=seed)
        samples += result.restarts
        for max_den in (RATIONALIZE_MAX_DEN, 100):
            cert = certify(obj, rationalize_host(result.host, max_den), mode)
            if cert is not None:
                return RefutationReport(text, mode, n_checked, samples, cert, margin_min)
    return RefutationReport(text, mode, n_checked, samples, None, margin_min)
