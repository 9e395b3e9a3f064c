"""The exhaustive scans count one host per isomorphism class; every report
must equal the one of the labeled scan over all of tournament_stack(n)."""

from fractions import Fraction
from itertools import permutations, product
from math import factorial

import numpy as np
import pytest

import toursid
from test_cli import GOLDEN_FILES
from toursid.construct import CertDirection, certify
from toursid.core import Orientation, as_pattern, cycle_digraph, digraph, parse_digraph_text
from toursid.hom import contract
from toursid.search import MODE_TAS, MODE_TS, RefutationReport, refute
from toursid.tournament import Tournament, _freeze, tournament_stack, with_half_loops
from toursid.trees import (
    ExhaustiveReport,
    _labeled_counts,
    amgm_check,
    glued_pair_digraph,
    strong_tas_check,
)

PATHS = [str(Orientation(dirs)) for e in range(1, 7) for dirs in product((1, -1), repeat=e)]
CYCLES = [cycle_digraph(Orientation(dirs)) for ell in (3, 4, 5)
          for dirs in product((1, -1), repeat=ell)]
GOLDEN_DIGRAPHS = [parse_digraph_text(text) for text in GOLDEN_FILES.values()
                   if text.startswith("digraph")]


# --- the labeled scans before they moved onto the class rows, frozen ---------


def _labeled_refute(pattern, mode, n_max):
    """refute's exhaustive stage over every labeled host."""
    d, text, _ = as_pattern(pattern)
    wanted = CertDirection.VIOLATES_TAS if mode == MODE_TAS else CertDirection.VIOLATES_TS
    samples = 0
    for n in range(1, n_max + 1):
        adj = tournament_stack(n)
        counts = contract(d, 2 * adj + np.eye(n, dtype=np.uint8))
        target = n**d.v
        samples += len(adj)
        hits = np.flatnonzero(counts > target if wanted is CertDirection.VIOLATES_TAS
                              else counts < target)
        if hits.size:
            host = with_half_loops(Tournament(n, _freeze(adj[hits[0]].tolist())))
            return RefutationReport(text, mode, n, samples, certify(pattern, host, wanted))
    return RefutationReport(text, mode, n_max, samples, None)


def _labeled_strong_tas(d, i_set, n_max):
    i_set = sorted(set(i_set))
    checked, k = 0, len(i_set)
    for n in range(1, n_max + 1):
        adj = tournament_stack(n)
        counts = _labeled_counts(d, adj, i_set)
        hits = np.flatnonzero(counts > min(n ** (d.v - k) // 2**d.e, factorial(n)))
        if hits.size:
            s, a = divmod(int(hits[0]), counts.shape[1])
            return ExhaustiveReport(False, checked + int(hits[0]) + 1, {
                "n": n, "adj": Tournament(n, _freeze(adj[s].tolist())).adj,
                "embedding": tuple(zip(i_set, list(permutations(range(n), k))[a])),
                "count": int(counts[s, a]), "bound": Fraction(n ** (d.v - k), 2**d.e)})
        checked += counts.size
    return ExhaustiveReport(True, checked, None)


def _labeled_amgm(h, w, n_max, count=_labeled_counts):
    d, v_new, _ = glued_pair_digraph(h, w)
    checked = 0
    for n in range(1, n_max + 1):
        adj = tournament_stack(n)
        n_h = count(h, adj, ()).astype(np.int64)
        counts = count(d, adj, (v_new,))
        hits = np.flatnonzero(counts > n_h * n_h // 4)
        if hits.size:
            s, t = divmod(int(hits[0]), n)
            return ExhaustiveReport(False, checked + int(hits[0]) + 1, {
                "n": n, "adj": Tournament(n, _freeze(adj[s].tolist())).adj, "t": t,
                "count": int(counts[s, t]), "bound": Fraction(int(n_h[s, 0]) ** 2, 4)})
        checked += counts.size
    return ExhaustiveReport(True, checked, None)


# --- labeled against class scans ---------------------------------------------


@pytest.mark.parametrize("mode, refuted_at", [(MODE_TAS, {2, 3, 4}), (MODE_TS, {2, 5})])
def test_refute_on_paths_and_cycles_equals_the_labeled_scan(mode, refuted_at):
    seen = set()
    for pattern in PATHS + CYCLES:
        rep = refute(pattern, mode, n_max=5)
        assert rep == _labeled_refute(pattern, mode, 5), (pattern, mode)
        if rep.violation is not None:
            seen.add(rep.n_checked)
    assert seen == refuted_at


@pytest.mark.parametrize("mode", [MODE_TAS, MODE_TS])
def test_refute_on_the_golden_digraphs_equals_the_labeled_scan_at_the_cap(mode):
    # a 12-vertex golden digraph is refuted in TAS mode at n = 6
    for d in GOLDEN_DIGRAPHS:
        assert refute(d, mode, n_max=6) == _labeled_refute(d, mode, 6), (d.arcs, mode)


def _anchor_sets(d):
    for anchors in ((), (0,), (0, d.v - 1)):
        if not any(u in anchors and w in anchors for u, w in d.arcs):
            yield anchors


def test_strong_tas_equals_the_labeled_scan():
    patterns = [as_pattern(p)[0] for p in PATHS] + CYCLES + GOLDEN_DIGRAPHS
    failing_at = set()
    for d in patterns:
        for anchors in _anchor_sets(d):
            rep = strong_tas_check(d, anchors, n_max=5)
            assert rep == _labeled_strong_tas(d, anchors, 5), (d.arcs, anchors)
            if not rep.passed:
                failing_at.add(rep.counterexample["n"])
    assert failing_at == {3, 4, 5}


def test_strong_tas_at_the_cap_equals_the_labeled_scan():
    # failures at n = 3, 5 and 6, and passes
    for d in (digraph(3, [(1, 2)]), digraph(3, [(0, 2), (1, 2)]), digraph(3, [(0, 1), (1, 2)])):
        for anchors in _anchor_sets(d):
            rep = strong_tas_check(d, anchors, n_max=6)
            assert rep == _labeled_strong_tas(d, anchors, 6), (d.arcs, anchors)


def _on_a_cyclic_triangle(adj):
    """For every host of the stack and vertex t, whether t lies on a directed
    triangle: the same under any relabelling of host and t together."""
    a = adj.astype(np.int64)
    return np.einsum("sij,sjk,ski->si", a, a, a) > 0


AMGM_HOSTS = [(digraph(1, []), 0), (digraph(2, [(0, 1)]), 1), (digraph(2, [(0, 1)]), 0),
              (digraph(3, [(0, 1), (1, 2)]), 1), (digraph(3, [(0, 1), (2, 1)]), 0)]


def test_amgm_equals_the_labeled_scan():
    for h, w in AMGM_HOSTS:
        assert amgm_check(h, w, n_max=6) == _labeled_amgm(h, w, 6), (h.arcs, w)


@pytest.mark.parametrize("n_raised", [3, 4, 5])
def test_forced_amgm_violations_equal_the_labeled_scan(monkeypatch, n_raised):
    # the AM-GM step is a theorem, so raise the glued count at n_raised of
    # every vertex on a directed triangle: a relabelling moves the raised
    # entries with the host, as it moves a true count
    real = toursid.trees._labeled_counts

    def raised(d, adj, anchors):
        counts = real(d, adj, anchors)
        if anchors and adj.shape[1] == n_raised:
            counts = counts + 100 * _on_a_cyclic_triangle(adj).astype(np.uint16)
        return counts

    monkeypatch.setattr(toursid.trees, "_labeled_counts", raised)
    for h, w in AMGM_HOSTS:
        rep = amgm_check(h, w, n_max=5)
        assert not rep.passed and rep.counterexample["n"] == n_raised
        assert rep == _labeled_amgm(h, w, 5, raised), (h.arcs, w)
