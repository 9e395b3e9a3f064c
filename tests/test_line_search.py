"""The optimizer's windowed line search against a frozen copy of the loop
that tried HALVINGS_PER_CALL step sizes of every searching start per call.

Both accept the largest improving halving of 0.5 / max(gmax, 1), so every
OptimizeResult field must agree exactly, not just to a tolerance.
"""

import random
from itertools import product

import numpy as np
import pytest

from toursid import search
from toursid.construct import certificate, named_kernel
from toursid.core import digraph, path_digraph
from toursid.hom import contract, contract_grad
from toursid.search import optimize_density
from toursid.tournament import WeightedTournament, _freeze, skew_decompose, transitive, with_half_loops

HALVINGS = 8
MAX_ITERS, GRAD_TOL, MIN_STEP = 200, 1e-9, 1e-13


def _ref_hosts(b):
    return 0.5 + b - np.swapaxes(b, -1, -2)


def _ref_gradient(d, a):
    dA = contract_grad(d, a)
    return np.triu(dA - np.swapaxes(dA, -1, -2), 1)


def _ref_warm_starts(n):
    starts = [skew_decompose(with_half_loops(transitive(n))).entries]
    if n == 3:
        starts.append(skew_decompose(certificate("PerturbedCyclic").host).entries)
        starts.append(np.array(named_kernel("MBalanced").matrix.entries, dtype=float) * 0.25)
    if n == 2:
        starts.append(np.array(named_kernel("B1").matrix.entries, dtype=float) * 0.25)
    return np.triu(np.array(starts, dtype=float), 1)


def _reference(d, n, objective, restarts, seed, count=None):
    """The fixed-window loop; count, if given, collects each call's host count."""
    sign = 1.0 if objective == "maximize" else -1.0
    rng = random.Random(seed)
    iu, ju = np.triu_indices(n, 1)
    drawn = np.zeros((restarts, n, n))
    drawn[:, iu, ju] = np.reshape(
        [rng.uniform(-0.5, 0.5) for _ in range(restarts * len(iu))], (restarts, len(iu)))
    b = np.concatenate([_ref_warm_starts(n), drawn])
    val = contract(d, _ref_hosts(b)).copy()
    accepted = np.full((MAX_ITERS + 1, len(b)), np.nan)
    accepted[0] = val
    moving = np.arange(len(b))
    iterations = 0
    for t in range(1, MAX_ITERS + 1):
        iterations += moving.size
        grad = _ref_gradient(d, _ref_hosts(b[moving]))
        gmax = np.abs(grad).max(axis=(-2, -1))
        steep = gmax > GRAD_TOL
        moving, grad, step = moving[steep], grad[steep], 0.5 / np.maximum(gmax[steep], 1.0)
        moved = np.zeros(moving.size, dtype=bool)
        searching = step > MIN_STEP
        while searching.any():
            i = np.flatnonzero(searching)
            steps = step[i, None] / 2.0 ** np.arange(HALVINGS)
            cand = np.clip(b[moving[i], None] + (sign * steps)[..., None, None] * grad[i, None],
                           -0.5, 0.5)
            cval = contract(d, _ref_hosts(cand))
            if count is not None:
                count.append(cval.size)
            won = (sign * (cval - val[moving[i], None]) > 0) & (steps > MIN_STEP)
            hit, first = won.any(axis=1), won.argmax(axis=1)
            rows = moving[i[hit]]
            b[rows], val[rows] = cand[hit, first[hit]], cval[hit, first[hit]]
            accepted[t, rows] = val[rows]
            moved[i[hit]] = True
            step[i] = steps[:, -1] / 2
            searching[i] = ~hit & (step[i] > MIN_STEP)
        moving = moving[moved]
        if not moving.size:
            break
    best = int(np.argmax(sign * val))
    host = WeightedTournament(n, _freeze(_ref_hosts(b[best]).tolist()))
    trajectories = tuple(tuple(col[~np.isnan(col)].tolist()) for col in accepted.T)
    return search.OptimizeResult(host, float(val[best]), objective, len(b), iterations,
                                 trajectories)


SQUARE = digraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
CYCLE5 = digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
TREE6 = digraph(6, [(0, 1), (2, 1), (1, 3), (3, 4), (5, 3)])
PATHS = ["".join(dirs) for e in range(1, 6) for dirs in product("<>", repeat=e)]

# (pattern, n, restarts, seed): the paths with e <= 5 at n = 2, 3, 4, the
# square, the directed 5-cycle and tree6 at n = 3, 5, and the four probes of
# the benchmark's optimize workload (the TS probe on one fixed seed)
GRID = ([(p, n, 2, k) for k, p in enumerate(PATHS) for n in (2, 3, 4)]
        + [(d, n, 3, n) for d in (SQUARE, CYCLE5, TREE6) for n in (3, 5)])
PROBES = [(">>><<", 10, 32, 1), (">>>><<<<>", 8, 32, 2), (SQUARE, 5, 4, 3), ("><>>><", 3, 16, 0)]


def _check(pattern, n, restarts, seed, objective):
    d = path_digraph(pattern) if isinstance(pattern, str) else pattern
    want = _reference(d, n, objective, restarts, seed)
    got = optimize_density(pattern, n, objective, restarts=restarts, seed=seed)
    assert got == want, (pattern, n, objective)


@pytest.mark.parametrize("objective", ["maximize", "minimize"])
def test_windowed_line_search_matches_the_fixed_window_loop(objective):
    for case in GRID:
        _check(*case, objective)


@pytest.mark.parametrize("objective", ["maximize", "minimize"])
@pytest.mark.parametrize("probe", range(len(PROBES)))
def test_benchmark_probes_match_the_fixed_window_loop(probe, objective):
    _check(*PROBES[probe], objective)


def test_square_probe_sends_few_candidates_through_the_kernel(monkeypatch):
    # every one of the 5 starts wins at the first halving for all 200 steps:
    # 5 initial values, 8 halvings per start at step 1, then 2 per start-step
    sizes = []
    monkeypatch.setattr(search, "contract", lambda d, a: sizes.append(a[..., 0, 0].size)
                        or contract(d, a))
    res = optimize_density(SQUARE, 5, "maximize", 4, 3)
    assert [len(traj) for traj in res.trajectories] == [MAX_ITERS + 1] * 5
    assert sum(sizes) == 5 + 5 * 8 + 2 * 5 * (MAX_ITERS - 1) == 2035
    calls = []
    _reference(SQUARE, 5, "maximize", 4, 3, calls)
    assert 5 + sum(calls) == 8005
