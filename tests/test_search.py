import dataclasses
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from test_tournament import stack_tournaments
from toursid.construct import CertDirection, certificate
from toursid.core import Orientation, cycle_digraph, digraph, path_digraph
from toursid.errors import CapExceeded, InternalAssertionFailed, InvalidHost, PreconditionViolated
from toursid.hom import contract, contract_grad, hom_count, hom_generic
from toursid.search import (
    MODE_TAS,
    MODE_TS,
    _gradient,
    _hosts,
    certify,
    optimize_density,
    rationalize_host,
    refute,
)
from toursid.tournament import WeightedTournament, _freeze, with_half_loops

F = Fraction


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_stacked_gradient_matches_central_differences(n):
    # every orientation with at most five edges, and the square, on a stack
    # of three seeded hosts; all 2 * n(n-1)/2 moved stacks in one kernel call
    rng = np.random.default_rng(n)
    iu, ju = np.triu_indices(n, 1)
    b = np.triu(rng.uniform(-0.4, 0.4, (3, n, n)), 1)
    h = 1e-6
    shift = np.zeros((len(iu), n, n))
    shift[np.arange(len(iu)), iu, ju] = h
    moved = np.stack([b[:, None] + shift, b[:, None] - shift])
    patterns = [path_digraph(Orientation(dirs)) for e in range(1, 6)
                for dirs in product((1, -1), repeat=e)]
    for d in patterns + [digraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])]:
        up, down = contract(d, _hosts(moved))
        want = np.zeros_like(b)
        want[:, iu, ju] = (up - down) / (2 * h)
        got = _gradient(d, _hosts(b))
        assert got.shape == b.shape
        assert np.abs(got - want).max() <= 1e-7 * n**d.v, (sorted(d.arcs), n)


def test_refute_finds_tas_violation_for_six_edge_pattern():
    rep = refute("><>>><", MODE_TAS, n_max=3)
    cert = rep.violation
    assert cert is not None
    assert cert.direction is CertDirection.VIOLATES_TAS
    assert cert.value > cert.threshold
    assert cert.host.is_exact
    # the first hit is already on two vertices; the 3-vertex transitive host
    # in the same hull violates by a wider margin (certified separately)
    assert rep.n_checked <= 3


def test_refute_no_tas_violation_for_tas_pattern():
    rep = refute(">><<", MODE_TAS, n_max=4)
    assert rep.violation is None
    assert rep.samples == 1 + 2 + 8 + 64


def test_refute_no_ts_violation_for_wedge():
    rep = refute("><", MODE_TS, n_max=4)
    assert rep.violation is None


def test_refute_cap():
    with pytest.raises(CapExceeded):
        refute(">", MODE_TAS, n_max=7)


def test_refute_tree_pattern():
    # the oriented 1-2-3 tree, through the contraction kernel
    arcs = [(0, 1), (1, 2), (2, 6), (3, 2), (4, 3), (5, 4)]
    d = digraph(7, arcs)
    rep = refute(d, MODE_TAS, n_max=3)
    assert rep.violation is None


def test_certify_rejects_float_host():
    host = WeightedTournament(2, _freeze([[0.5, 0.6], [0.4, 0.5]]))
    with pytest.raises(InvalidHost):
        certify("><", host)


def test_certify_equality_is_no_violation():
    half = F(1, 2)
    host = WeightedTournament(2, _freeze([[half, half], [half, half]]))
    assert certify(">>", host).direction is None


def test_certify_paper_hosts():
    tas = certify("><>>><", certificate("TransitiveTriangle").host)
    assert tas.direction is CertDirection.VIOLATES_TAS and tas.value == F(2307, 64)
    ts = certify("><>>><", certificate("PerturbedCyclic").host)
    assert ts.direction is CertDirection.VIOLATES_TS and ts.value < F(2187, 64)
    assert certify("><>>><", tas.host, CertDirection.VIOLATES_TS) is None
    assert certify("><>>><", ts.host, CertDirection.VIOLATES_TS) == ts


def test_certify_refuses_a_value_the_recheck_contradicts(monkeypatch):
    # a kernel that counts one too many still sees the TAS violation, and
    # the frontier recheck must refuse it, on a path and on a 4-cycle, and
    # when it builds a named host; the hosts are built before the patch
    from toursid import construct

    def off_by_one(d, host):
        count = hom_count(d, host)
        return dataclasses.replace(count, raw=count.raw + 1)

    cycle = cycle_digraph("<><>")
    cycle_host = refute(cycle, MODE_TAS, n_max=2).violation.host
    path_host = certificate("TransitiveTriangle").host
    monkeypatch.setattr(construct, "hom_count", off_by_one)
    for pattern, host in (("><>>><", path_host), (cycle, cycle_host)):
        with pytest.raises(InternalAssertionFailed, match="re-verification"):
            certify(pattern, host)
    with pytest.raises(InternalAssertionFailed, match="re-verification"):
        certificate("TransitiveTriangle")


def test_rationalize_host_round_trip():
    w = certificate("PerturbedCyclic").host
    floaty = WeightedTournament(3, _freeze([[float(x) for x in row] for row in w.entries]))
    back = rationalize_host(floaty)
    assert back == w  # small denominators recover exactly


def test_optimizer_rediscovers_tas_violation():
    res = optimize_density("><>>><", n=3, objective="maximize", restarts=2, seed=1)
    assert res.value >= 36.05 - 1e-6


def test_optimizer_warm_start_beats_ts_threshold():
    res = optimize_density("><>>><", n=3, objective="minimize", restarts=2, seed=1)
    assert res.value <= 34.171875 - 1e-7


def test_optimizer_cannot_exceed_tas_bound_small():
    # ">>" is anti-extremal at the quasirandom host: the maximizer stays at 2
    res = optimize_density(">>", n=2, objective="maximize", restarts=4, seed=3)
    assert res.value <= 2.0 + 1e-9


def test_refute_stage_two_produces_exact_ts_certificate():
    rep = refute("><>>><", MODE_TS, n_max=3, budget=1, seed=0)
    assert rep.violation is not None
    assert rep.violation.direction is CertDirection.VIOLATES_TS
    assert rep.violation.value < F(2187, 64)
    # exact re-verification happened inside; check the host is rational
    assert rep.violation.host.is_exact


def test_reports_serialize():
    rep = refute("><", MODE_TS, n_max=3)
    d = rep.to_json_dict()
    assert d["violation"] is None
    assert d["mode"] == "TS"
    assert set(d) == {"pattern", "mode", "n_checked", "samples", "violation"}


def test_optimizer_accepted_steps_are_monotone():
    for pattern in ("><>>><", digraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])):
        res = optimize_density(pattern, n=3, objective="maximize", restarts=3, seed=5)
        for traj in res.trajectories:
            assert all(b >= a - 1e-12 for a, b in zip(traj, traj[1:]))
        res2 = optimize_density(pattern, n=3, objective="minimize", restarts=3, seed=5)
        for traj in res2.trajectories:
            assert all(b <= a + 1e-12 for a, b in zip(traj, traj[1:]))


def test_each_optimizer_step_takes_one_gradient_call(monkeypatch):
    # one call per step whatever e is: the loop runs until no start moved,
    # one step past the longest trajectory, or for MAX_ITERS steps
    from toursid import search

    calls = []
    monkeypatch.setattr(search, "contract_grad",
                        lambda d, a: calls.append(a.shape) or contract_grad(d, a))
    for pattern in (">", "><>>><", ">>>><<<<>", digraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])):
        calls.clear()
        res = optimize_density(pattern, n=4, objective="maximize", restarts=3, seed=2)
        longest = max(len(traj) for traj in res.trajectories)
        assert len(calls) == min(longest, search.MAX_ITERS)
        assert sum(shape[0] for shape in calls) == res.iterations


def _refute_by_host_loop(pattern, mode, n_max):
    """refute's exhaustive stage, one host at a time on the brute-force oracle."""
    d = path_digraph(pattern) if isinstance(pattern, str) else pattern
    samples = 0
    for n in range(1, n_max + 1):
        threshold = F(n**d.v, 2**d.e)
        hit = None
        for t in stack_tournaments(n):
            host = with_half_loops(t)
            value = F(hom_generic(d, host).raw)
            samples += 1
            violated = value > threshold if mode == MODE_TAS else value < threshold
            if hit is None and violated:
                hit = (host, value)
        if hit is not None:
            return n, samples, hit
    return n_max, samples, None


def test_refute_batched_matches_per_host_loop():
    square = digraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    cases = [(">><>", MODE_TAS), (">><>", MODE_TS), ("><>>><", MODE_TAS),
             ("><", MODE_TS), (">><<", MODE_TAS), (square, MODE_TAS), (square, MODE_TS),
             (cycle_digraph(Orientation((1, 1, -1, 1, -1))), MODE_TS),
             (digraph(5, [(0, 1), (2, 1), (1, 3), (3, 4)]), MODE_TAS)]
    for pattern, mode in cases:
        rep = refute(pattern, mode, n_max=4)
        n, samples, hit = _refute_by_host_loop(pattern, mode, 4)
        assert (rep.n_checked, rep.samples) == (n, samples)
        if hit is None:
            assert rep.violation is None
        else:
            assert (rep.violation.host, rep.violation.value) == hit


@pytest.mark.parametrize("n_max", [0, -1])
def test_refute_rejects_an_empty_scan(n_max):
    with pytest.raises(PreconditionViolated):
        refute(">><<", MODE_TAS, n_max=n_max)


def test_optimizer_starts_run_independently_in_the_stack():
    # the first starts follow the same trajectories whatever else is stacked
    square = digraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for pattern in ("><>>><", square):
        for objective in ("maximize", "minimize"):
            few = optimize_density(pattern, n=3, objective=objective, restarts=2, seed=7)
            many = optimize_density(pattern, n=3, objective=objective, restarts=5, seed=7)
            assert many.trajectories[:len(few.trajectories)] == few.trajectories
            assert (few.restarts, many.restarts) == (5, 8)


# (orientation, mode, optimizer n) -> certificate value of refute(n_max=1,
# budget=2, seed=0); every other orientation with e <= 4 finds no violation
# at n = 2, 3 in either mode.  Recorded when each start ran on its own.
PINNED_VIOLATIONS = {
    ("<<", MODE_TS, 2): F(3, 2), ("<<", MODE_TS, 3): F(19, 4), ("<<<", MODE_TS, 2): F(1),
    ("<<<", MODE_TS, 3): F(33, 8), ("<<<<", MODE_TS, 2): F(5, 8),
    ("<<<<", MODE_TS, 3): F(51, 16), ("<<<>", MODE_TS, 2): F(11, 8),
    ("<<<>", MODE_TS, 3): F(147, 16), ("<<><", MODE_TAS, 2): F(19, 8),
    ("<<><", MODE_TAS, 3): F(291, 16), ("<<>>", MODE_TS, 2): F(13, 8),
    ("<<>>", MODE_TS, 3): F(195, 16), ("<>", MODE_TAS, 2): F(5, 2),
    ("<>", MODE_TAS, 3): F(35, 4), ("<><", MODE_TAS, 2): F(3), ("<><", MODE_TAS, 3): F(129, 8),
    ("<><<", MODE_TAS, 2): F(19, 8), ("<><<", MODE_TAS, 3): F(291, 16),
    ("<><>", MODE_TAS, 2): F(29, 8), ("<><>", MODE_TAS, 3): F(483, 16),
    ("<>><", MODE_TAS, 2): F(21, 8), ("<>><", MODE_TAS, 3): F(339, 16),
    ("<>>>", MODE_TS, 2): F(11, 8), ("<>>>", MODE_TS, 3): F(147, 16),
    ("><", MODE_TAS, 2): F(5, 2), ("><", MODE_TAS, 3): F(35, 4),
    ("><<<", MODE_TS, 2): F(11, 8), ("><<<", MODE_TS, 3): F(147, 16),
    ("><<>", MODE_TAS, 2): F(21, 8), ("><<>", MODE_TAS, 3): F(339, 16),
    ("><>", MODE_TAS, 2): F(3), ("><>", MODE_TAS, 3): F(129, 8),
    ("><><", MODE_TAS, 2): F(29, 8), ("><><", MODE_TAS, 3): F(483, 16),
    ("><>>", MODE_TAS, 2): F(19, 8), ("><>>", MODE_TAS, 3): F(291, 16),
    (">>", MODE_TS, 2): F(3, 2), (">>", MODE_TS, 3): F(19, 4), (">><<", MODE_TS, 2): F(13, 8),
    (">><<", MODE_TS, 3): F(195, 16), (">><>", MODE_TAS, 2): F(19, 8),
    (">><>", MODE_TAS, 3): F(291, 16), (">>>", MODE_TS, 2): F(1),
    (">>>", MODE_TS, 3): F(33, 8), (">>><", MODE_TS, 2): F(11, 8),
    (">>><", MODE_TS, 3): F(147, 16), (">>>>", MODE_TS, 2): F(5, 8),
    (">>>>", MODE_TS, 3): F(51, 16),
}


def test_optimizer_verdicts_on_short_paths_are_pinned():
    got = {}
    for e in range(1, 5):
        for dirs in product("><", repeat=e):
            for mode in (MODE_TAS, MODE_TS):
                for n in (2, 3):
                    rep = refute("".join(dirs), mode, n_max=1, budget=2, seed=0, optimizer_n=n)
                    if rep.violation is not None:
                        got["".join(dirs), mode, n] = rep.violation.value
    assert got == PINNED_VIOLATIONS


def test_optimizer_certificates_past_the_generic_cap():
    # 8^11 maps on an 8-vertex host: a recheck on hom_generic raised CapExceeded
    ts = refute("<<<>><>><>", MODE_TS, n_max=1, budget=32, seed=1, optimizer_n=8).violation
    tas = refute("<<>><<<>><", MODE_TAS, n_max=1, budget=32, seed=1, optimizer_n=8).violation
    assert (ts.direction, tas.direction) == (CertDirection.VIOLATES_TS, CertDirection.VIOLATES_TAS)
    assert ts.threshold == tas.threshold == 2**23
    assert ts.value == F(1071918557, 128) < 2**23 < tas.value
    for cert in (ts, tas):
        assert cert.host.n == 8
        assert cert.value == hom_generic(path_digraph(cert.pattern), cert.host).raw


def test_optimizer_host_on_the_wrong_side_is_not_rechecked(monkeypatch):
    # the minimizer's host for the transitive 4-tournament ends above
    # n^v/2^e; with every recheck over the generic cap, as the transitive
    # 8-tournament's is at optimizer_n = 6, refute must still report no
    # violation rather than raise
    from toursid import hom

    t4 = digraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    monkeypatch.setattr(hom, "GENERIC_CAP", 0)
    assert refute(t4, MODE_TS, n_max=1, budget=1, seed=0, optimizer_n=4).violation is None


# (class, mode) pairs of oriented 12- to 14-cycles that the n <= 6 scan
# finds violated on a host with more than 10^9 maps: only a recheck whose
# work does not grow as n^v certifies them
CYCLES_PAST_THE_MAP_CAP = [
    ("<<<<<<<><><>", MODE_TAS), ("<<<<<<<><><>>", MODE_TAS), ("<<<<<<><><<>>", MODE_TAS),
    ("<<<<<<>><><>>", MODE_TAS), ("<<<<><<>><><>", MODE_TS), ("<<<><<<><<><>", MODE_TS),
    ("<<<><<><<<><>", MODE_TS), ("<<<<<><><><><>", MODE_TS), ("<<<><<<><<><>>", MODE_TS),
]


@pytest.mark.parametrize("cycle,mode", CYCLES_PAST_THE_MAP_CAP)
def test_cycle_certificates_past_the_map_cap(cycle, mode):
    d = cycle_digraph(cycle)
    cert = refute(d, mode, n_max=6).violation
    assert cert is not None and cert.value == hom_count(d, cert.host).raw
    assert cert.host.n ** d.v > 10**9


@pytest.mark.parametrize("optimizer_n,error", [
    (0, PreconditionViolated), (1, PreconditionViolated), (-3, PreconditionViolated),
    (13, CapExceeded),
])
def test_optimizer_n_is_checked_before_the_scan(optimizer_n, error, monkeypatch):
    from toursid import search

    def never(d, a):
        raise AssertionError("contract ran")

    monkeypatch.setattr(search, "contract", never)
    with pytest.raises(error, match="optimizer"):
        refute(">><<", MODE_TAS, n_max=2, budget=2, seed=0, optimizer_n=optimizer_n)


def test_budget_past_the_cap_raises_before_any_kernel_call(monkeypatch):
    from toursid import search

    def never(d, a):
        raise AssertionError("contract ran")

    monkeypatch.setattr(search, "contract", never)
    monkeypatch.setattr(search, "contract_grad", never)
    over = search.OPTIMIZER_BUDGET_CAP + 1
    with pytest.raises(CapExceeded):
        refute(">><<", MODE_TAS, n_max=2, budget=over, seed=0)
    with pytest.raises(CapExceeded):
        optimize_density(">><<", n=3, restarts=over)


def test_refute_passes_the_kernel_one_shared_half_loop_stack(monkeypatch):
    from toursid import search

    seen = []
    monkeypatch.setattr(search, "contract", lambda d, a: seen.append(a) or contract(d, a))
    for _ in range(2):
        refute(">><<", MODE_TAS, n_max=4)
    assert len(seen) == 8 and all(a is b for a, b in zip(seen[:4], seen[4:]))
    for n, a in enumerate(seen[:4], 1):
        assert a.shape[1:] == (n, n) and a.dtype == np.uint8 and not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0, 0] = 0
