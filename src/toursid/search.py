"""Refutation and discovery of counting-bound violations.

Stage 1 checks the weighted half-loop form of every unweighted tournament,
up to isomorphism and up to a size cap, in exact arithmetic: h must stay
>= n^v/2^e (TS) or <= n^v/2^e (TAS), and the first strict violation becomes
an exact certificate after re-verification on an independent evaluator.  Stage 2
runs a projected-gradient ascent over the skew parametrization of weighted
hosts, rationalizes promising float hosts, and certifies them exactly.

Absence of a violation at desk scale is evidence, not proof.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .construct import Certificate, CertDirection, certify, named_kernel
from .construct import certificate as known_certificate
from .core import Digraph, as_pattern
from .errors import (
    CapExceeded,
    InternalAssertionFailed,
    InvalidInput,
    PreconditionViolated,
)
from .hom import contract, contract_grad
from .tournament import (
    ENUMERATION_CAP,
    Tournament,
    WeightedTournament,
    _freeze,
    class_stack,
    half_loop_stack,
    skew_decompose,
    transitive,
    with_half_loops,
)

OPTIMIZER_N_CAP = 12
OPTIMIZER_BUDGET_CAP = 1024  # random starts; each holds about 28 KB of floats at n = 12
RATIONALIZE_MAX_DEN = 10**4
MAX_ITERS = 200
GRAD_TOL = 1e-9
MIN_STEP = 1e-13
HALVINGS_PER_CALL = 8

MODE_TAS = "TAS"
MODE_TS = "TS"


@dataclass(frozen=True)
class RefutationReport:
    pattern_text: str
    mode: str
    n_checked: int
    samples: int
    violation: Certificate | None

    def to_json_dict(self) -> dict:
        return {
            "pattern": self.pattern_text,
            "mode": self.mode,
            "n_checked": self.n_checked,
            "samples": self.samples,
            "violation": self.violation.to_json_dict() if self.violation else None,
        }


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
    return WeightedTournament(n, _freeze(ent))


@dataclass(frozen=True)
class OptimizeResult:
    host: WeightedTournament
    value: float
    objective: str
    restarts: int
    iterations: int
    trajectories: tuple[tuple[float, ...], ...]  # accepted values per start


def _hosts(b: np.ndarray) -> np.ndarray:
    """The weighted hosts 1/2 + B - B^T of a stack of strict upper triangles B."""
    a = b + 0.5
    a -= np.swapaxes(b, -1, -2)
    return a


@lru_cache(maxsize=None)
def _upper(n: int) -> np.ndarray:
    """The read-only mask of the strict upper triangle of an n x n matrix."""
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


def _gradient(d: Digraph, a: np.ndarray) -> np.ndarray:
    """d h / d b_ij (strict upper triangle) for every host in the stack a[..., n, n].

    One reverse sweep through the kernel gives dh/dA; b_ij moves A(i, j)
    up and A(j, i) down.
    """
    dA = contract_grad(d, a)
    return np.where(_upper(a.shape[-1]), dA - np.swapaxes(dA, -1, -2), 0)


@lru_cache(maxsize=None)
def _warm_starts(n: int) -> np.ndarray:
    """The read-only warm starts at n, each a strict upper triangle."""
    starts = [skew_decompose(with_half_loops(transitive(n))).entries]
    if n == 3:
        starts.append(skew_decompose(known_certificate("PerturbedCyclic").host).entries)
        starts.append(np.array(named_kernel("MBalanced").matrix.entries, dtype=float) * 0.25)
    if n == 2:
        starts.append(np.array(named_kernel("B1").matrix.entries, dtype=float) * 0.25)
    warm = np.triu(np.array(starts, dtype=float), 1)
    warm.flags.writeable = False
    return warm


def optimize_density(
    pattern,
    n: int,
    objective: str = "maximize",
    restarts: int = 4,
    seed: int = 0,
) -> OptimizeResult:
    """Projected-gradient search for extremal weighted hosts.

    Parametrizes the host by the strict upper triangle of B in [-1/2, 1/2];
    gradients are exact partial derivatives of the counting polynomial.
    Warm starts include the transitive host and, where sizes match, the
    named kernels and the perturbed cyclic host.  All starts form one stack
    b[R, n, n] on the kernel: each step takes the gradient of every moving
    start at once, then halves the step 0.5 / max(gmax, 1) until it
    improves (Armijo backtracking with a zero slope constant) and keeps the
    largest halving that does.  Each kernel call of that line search tries,
    for every start still searching, the halvings up to one past the one
    that won at its last step; a start that is fresh, or found no winner in
    its call, tries the next HALVINGS_PER_CALL.  The candidates of all
    starts lie in one stack, so a start's result does not depend on the
    others.  Each start stops on its own, at a vanishing gradient, a failed
    line search or MAX_ITERS steps.
    """
    if n > OPTIMIZER_N_CAP:
        raise CapExceeded(f"optimizer capped at n <= {OPTIMIZER_N_CAP}")
    if restarts > OPTIMIZER_BUDGET_CAP:
        raise CapExceeded(f"optimizer budget capped at {OPTIMIZER_BUDGET_CAP} restarts")
    if objective not in ("maximize", "minimize"):
        raise InvalidInput("objective must be 'maximize' or 'minimize'")
    d, _, _ = as_pattern(pattern)
    sign = 1.0 if objective == "maximize" else -1.0
    improves = np.greater if objective == "maximize" else np.less
    rng = random.Random(seed)
    iu, ju = np.triu_indices(n, 1)
    drawn = np.zeros((restarts, n, n))
    drawn[:, iu, ju] = np.reshape(
        [rng.uniform(-0.5, 0.5) for _ in range(restarts * len(iu))], (restarts, len(iu)))
    b = np.concatenate([_warm_starts(n), drawn])
    val = contract(d, _hosts(b)).copy()  # an arc-free pattern gives a read-only broadcast
    accepted = np.full((MAX_ITERS + 1, len(b)), np.nan)  # accepted[t, r]: start r after step t
    accepted[0] = val
    moving = np.arange(len(b))
    width = np.full(len(b), HALVINGS_PER_CALL)  # halvings the next step first tries
    iterations = 0
    for t in range(1, MAX_ITERS + 1):
        iterations += moving.size
        grad = _gradient(d, _hosts(b[moving]))
        gmax = np.abs(grad).max(axis=(-2, -1))
        steep = gmax > GRAD_TOL
        moving, grad, step = moving[steep], grad[steep], 0.5 / np.maximum(gmax[steep], 1.0)
        moved = np.zeros(moving.size, dtype=bool)
        tried = np.zeros(moving.size, dtype=int)  # halvings tried so far at this step
        window = width[moving]
        searching = step > MIN_STEP
        while searching.any():
            # start i[j] tries halvings tried .. tried + window - 1; the
            # candidates lie start after start in one stack
            i = np.flatnonzero(searching)
            w = window[i]
            first = np.cumsum(w) - w
            owner = np.repeat(i, w)
            k = np.arange(owner.size) - np.repeat(first - tried[i], w)
            steps = np.ldexp(step[owner], -k)
            cand = grad[owner]
            cand *= (sign * steps)[:, None, None]
            cand += b[moving[owner]]
            np.clip(cand, -0.5, 0.5, out=cand)
            cval = contract(d, _hosts(cand))
            won = improves(cval, val[moving[owner]]) & (steps > MIN_STEP)
            pick = np.minimum.reduceat(np.where(won, np.arange(won.size), won.size), first)
            hit = pick < won.size  # pick: each start's first (largest) winning step
            rows, pick = moving[i[hit]], pick[hit]
            b[rows], val[rows] = cand[pick], cval[pick]
            accepted[t, rows] = val[rows]
            width[rows] = k[pick] + 2  # up to one past the winning halving
            moved[i[hit]] = True
            if hit.all():
                break
            tried[i] += w
            window[i] = HALVINGS_PER_CALL
            searching[i] = ~hit & (np.ldexp(step[i], -tried[i]) > MIN_STEP)
        moving = moving[moved]
        if not moving.size:
            break
    best = int(np.argmax(sign * val))
    host = WeightedTournament(n, _freeze(_hosts(b[best]).tolist()))
    trajectories = tuple(tuple(col[~np.isnan(col)].tolist()) for col in accepted.T)
    return OptimizeResult(host, float(val[best]), objective, len(b), iterations, trajectories)


def refute(
    pattern,
    mode: str,
    n_max: int = 5,
    budget: int = 0,
    seed: int = 0,
    optimizer_n: int | None = None,
) -> RefutationReport:
    """Exhaustive small-host scan, then (budget permitting) optimizer probes.

    For n = 1..n_max in turn, one kernel call counts the pattern in one
    half-loop host per isomorphism class, the class member of least index
    in tournament_stack(n): h does not change when a host is relabelled, so
    the first violating class starts at the lowest-index violating host.
    It runs on the integer matrices 2A, in int64 under the kernel's
    overflow guard, so it yields 2^e h exactly, to be compared with n^v.
    At the first n with a strict violation, that host is rebuilt and passed
    to certify, which rechecks it independently.  samples counts every
    labeled host.  A rationalized optimizer host is certified only if it
    breaks the mode's bound.  budget counts optimizer restarts, at most
    OPTIMIZER_BUDGET_CAP; 0 skips stage 2.  optimizer_n, when given, is the
    optimizer's host size, 2 <= optimizer_n <= OPTIMIZER_N_CAP.
    """
    if mode not in (MODE_TAS, MODE_TS):
        raise InvalidInput("mode must be 'TAS' or 'TS'")
    if n_max < 1:
        raise PreconditionViolated("the exhaustive stage needs n_max >= 1")
    if budget < 0:
        raise PreconditionViolated("the optimizer budget must be >= 0")
    if budget > OPTIMIZER_BUDGET_CAP:
        raise CapExceeded(f"optimizer budget capped at {OPTIMIZER_BUDGET_CAP} restarts")
    if n_max > ENUMERATION_CAP:
        raise CapExceeded(f"exhaustive stage capped at n <= {ENUMERATION_CAP}")
    if optimizer_n is not None and optimizer_n < 2:
        raise PreconditionViolated("the optimizer needs optimizer_n >= 2")
    if optimizer_n is not None and optimizer_n > OPTIMIZER_N_CAP:
        raise CapExceeded(f"optimizer capped at n <= {OPTIMIZER_N_CAP}")
    d, text, _ = as_pattern(pattern)
    wanted = CertDirection.VIOLATES_TAS if mode == MODE_TAS else CertDirection.VIOLATES_TS
    samples = 0
    for n in range(1, n_max + 1):
        counts = contract(d, half_loop_stack(n))
        target = n**d.v
        samples += 2 ** (n * (n - 1) // 2)
        hits = np.flatnonzero(counts > target if wanted is CertDirection.VIOLATES_TAS
                              else counts < target)
        if hits.size:
            host = with_half_loops(Tournament(n, _freeze(class_stack(n)[hits[0]].tolist())))
            cert = certify(pattern, host, wanted)
            if cert is None or cert.value != Fraction(int(counts[hits[0]]), 2**d.e):
                raise InternalAssertionFailed("the scan's violation failed exact certification")
            return RefutationReport(text, mode, n, samples, cert)
    n_checked = n_max
    if budget > 0:
        n_opt = optimizer_n or max(2, min(n_max, OPTIMIZER_N_CAP))
        objective = "maximize" if mode == MODE_TAS else "minimize"
        result = optimize_density(d, n_opt, objective, restarts=budget, seed=seed)
        samples += result.restarts
        for max_den in (RATIONALIZE_MAX_DEN, 100):
            cert = certify(pattern, rationalize_host(result.host, max_den), wanted)
            if cert is not None:
                return RefutationReport(text, mode, n_checked, samples, cert)
    return RefutationReport(text, mode, n_checked, samples, None)
