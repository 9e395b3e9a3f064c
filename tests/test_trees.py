import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations, permutations, product

import numpy as np
import pytest

from toursid.core import digraph, tree
from toursid.errors import (
    CapExceeded,
    InternalAssertionFailed,
    InvalidInput,
    NotCaterpillar,
    NotIndependent,
    PreconditionViolated,
)
from toursid.tournament import Tournament, enumerate_tournaments, tournament_stack
import toursid
from toursid.trees import (
    PROV_CATERPILLAR,
    PROV_ISO_PAIR,
    PROV_UNKNOWN,
    STRONG_TAS_CAP,
    ExhaustiveReport,
    IsoPair,
    _labeled_counts,
    _match_rooted,
    _verify_isopair,
    amgm_check,
    find_isomorphic_pair,
    glued_pair_digraph,
    is_caterpillar,
    orient_caterpillar,
    orient_tree_tas,
    strong_tas_check,
)

# worked caterpillar: spine 0..5, pendants 6 at 1; 7,8,9 at 2; 10,11 at 3
WORKED = tree(12, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                   (1, 6), (2, 7), (2, 8), (2, 9), (3, 10), (3, 11)])
WORKED_ARCS = {(0, 1), (2, 1), (2, 3), (3, 4), (4, 5),
               (1, 6), (7, 2), (2, 8), (9, 2), (3, 10), (11, 3)}

# spider trees: legs of the given lengths from vertex 0
def spider(*legs):
    edges = []
    nxt = 1
    for L in legs:
        prev = 0
        for _ in range(L):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return tree(nxt, edges)


TREE_123 = spider(1, 2, 3)
TREE_234 = spider(2, 3, 4)


def test_path_is_caterpillar():
    t = tree(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    ok, spine = is_caterpillar(t)
    assert ok and spine == [1, 2, 3]


def test_123_is_caterpillar():
    ok, spine = is_caterpillar(TREE_123)
    assert ok
    assert len(spine) == 4  # the four internal vertices form a path


def test_234_is_not_caterpillar():
    ok, _ = is_caterpillar(TREE_234)
    assert not ok


def test_star_is_caterpillar():
    assert is_caterpillar(tree(4, [(0, 1), (1, 2), (1, 3)]))[0]


def test_orient_worked_example():
    assert set(orient_caterpillar(WORKED).arcs) == WORKED_ARCS


def test_orient_two_vertices():
    t = tree(2, [(0, 1)])
    assert orient_caterpillar(t).arcs == ((0, 1),)


def test_orient_star():
    t = tree(4, [(0, 1), (1, 2), (1, 3)])
    assert set(orient_caterpillar(t).arcs) == {(0, 1), (1, 3), (2, 1)}


def test_orient_rejects_non_caterpillar():
    with pytest.raises(NotCaterpillar):
        orient_caterpillar(TREE_234)


def test_spine_balance_invariant():
    # at internal spine vertices: in = out for even degree, off by one for odd
    from toursid.trees import canonical_longest_path

    for t in (WORKED, TREE_123, spider(1, 1, 4), tree(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])):
        ori = orient_caterpillar(t)
        spine = canonical_longest_path(t)
        arcs = set(ori.arcs)
        for x in spine[1:-1]:
            indeg = sum(1 for u, w in arcs if w == x)
            outdeg = sum(1 for u, w in arcs if u == x)
            if t.degree(x) % 2 == 0:
                assert indeg == outdeg
            else:
                assert abs(indeg - outdeg) == 1


def test_two_leaves_share_parent():
    t = tree(3, [(0, 1), (0, 2)])
    pair = find_isomorphic_pair(t)
    assert pair is not None
    assert pair.v == 0
    assert {next(iter(pair.h1)), next(iter(pair.h2))} == {1, 2}


def test_path_three_vertices_pair():
    t = tree(3, [(0, 1), (1, 2)])
    pair = find_isomorphic_pair(t)
    assert pair is not None and pair.v == 1


def test_even_path_has_no_pair():
    # branch sizes at any vertex of an even path differ, so no pair exists
    t = tree(6, [(i, i + 1) for i in range(5)])
    assert find_isomorphic_pair(t) is None


def test_234_has_no_pair():
    assert find_isomorphic_pair(TREE_234) is None


def test_pair_phi_is_isomorphism():
    t = spider(2, 2, 3)
    pair = find_isomorphic_pair(t)
    assert pair is not None
    phi = pair.phi_dict()
    edges = {frozenset(e) for e in t.edges}
    for a, b in t.edges:
        if a in phi and b in phi:
            assert frozenset((phi[a], phi[b])) in edges


# on the path 0-1-2-3 the leaves {0} and {3} are isomorphic, but not at one vertex
@pytest.mark.parametrize("t,pair,match", [
    (tree(4, [(0, 1), (1, 2), (2, 3)]),
     IsoPair(frozenset({0}), frozenset({3}), 1, 0, ((0, 3),)), "cut condition"),
    (tree(3, [(0, 1), (1, 2)]),
     IsoPair(frozenset({0}), frozenset({0, 2}), 1, 0, ((0, 2),)), "overlapping"),
    (tree(3, [(0, 1), (1, 2)]),
     IsoPair(frozenset({0}), frozenset({2}), 1, 0, ((0, 2), (1, 2))), "into h2"),
], ids=["cut", "overlap", "domain"])
def test_verify_isopair_rejects_broken_pairs(t, pair, match):
    with pytest.raises(InternalAssertionFailed, match=match):
        _verify_isopair(t, pair)


def test_match_rooted_rejects_unlike_branches():
    # branches 1 -> 3 and 2 -> 4 -> 5 hang at 0 with one child each
    adj = tree(6, [(0, 1), (0, 2), (1, 3), (2, 4), (4, 5)]).adjacency()
    with pytest.raises(InternalAssertionFailed):
        _match_rooted(adj, 1, 0, 2, 0, {})


def test_verify_isopair_still_checks_under_python_O():
    script = ("from toursid.core import tree\n"
              "from toursid.trees import IsoPair, _verify_isopair\n"
              "try:\n"
              "    _verify_isopair(tree(4, [(0, 1), (1, 2), (2, 3)]),\n"
              "                    IsoPair(frozenset({0}), frozenset({3}), 1, 0, ((0, 3),)))\n"
              "except Exception as exc:\n"
              "    print(type(exc).__name__)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(toursid.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert proc.stdout == "InternalAssertionFailed\n"


def test_orient_123_caterpillar_branch():
    ori = orient_tree_tas(TREE_123)
    assert ori.provenance == PROV_CATERPILLAR
    assert len(ori.arcs) == 6


def test_orient_234_unknown():
    ori = orient_tree_tas(TREE_234)
    assert ori.provenance == PROV_UNKNOWN
    assert ori.arcs is None


def test_orient_spider_iso_pair():
    ori = orient_tree_tas(spider(2, 2, 3))
    assert ori.provenance == PROV_ISO_PAIR
    pair = find_isomorphic_pair(spider(2, 2, 3))
    phi = pair.phi_dict()
    arcs = set(ori.arcs)
    assert (pair.w, pair.v) in arcs
    assert (pair.v, phi[pair.w]) in arcs
    # the second branch carries the phi-image of the first branch's arcs
    for a, b in ori.arcs:
        if a in pair.h1 and b in pair.h1:
            assert (phi[a], phi[b]) in arcs


def test_strong_tas_wedge_pair_passes():
    d = digraph(3, [(0, 1), (1, 2)])  # w -> v -> w'
    rep = strong_tas_check(d, [1], n_max=5)
    assert rep.passed


def test_strong_tas_single_arc_fails_at_source():
    rep = strong_tas_check(digraph(2, [(0, 1)]), [0], n_max=5)
    assert not rep.passed
    assert rep.counterexample["count"] > rep.counterexample["bound"]


def test_strong_tas_empty_anchor_is_plain_bound():
    # the one-arc pattern meets the plain bound n^2/2 at every small n
    rep = strong_tas_check(digraph(2, [(0, 1)]), [], n_max=4)
    assert rep.passed


def test_strong_tas_independence_required():
    with pytest.raises(NotIndependent):
        strong_tas_check(digraph(2, [(0, 1)]), [0, 1], n_max=3)


@pytest.mark.parametrize("anchors", [[9], [-1], [0, 3]])
def test_strong_tas_anchors_must_be_vertices(anchors):
    with pytest.raises(InvalidInput):
        strong_tas_check(digraph(3, [(0, 1), (0, 2)]), anchors, n_max=3)


def test_strong_tas_cap():
    with pytest.raises(CapExceeded):
        strong_tas_check(digraph(2, [(0, 1)]), [0], n_max=STRONG_TAS_CAP + 1)


@pytest.mark.parametrize("n_max", [0, -1])
def test_anchored_checks_need_a_host_size(n_max):
    # with no host checked, a pass would be vacuous
    with pytest.raises(PreconditionViolated):
        strong_tas_check(digraph(3, [(0, 1), (1, 2)]), [1], n_max=n_max)
    with pytest.raises(PreconditionViolated):
        amgm_check(digraph(1, []), 0, n_max=n_max)


def test_glued_pair_shape():
    h = digraph(2, [(0, 1)])
    d, v, w_prime = glued_pair_digraph(h, 1)
    assert d.v == 5 and v == 4 and w_prime == 3
    assert (1, 4) in d.arcs and (4, 3) in d.arcs


def test_amgm_single_vertex():
    assert amgm_check(digraph(1, []), 0, n_max=4).passed


def test_amgm_single_arc_head():
    assert amgm_check(digraph(2, [(0, 1)]), 1, n_max=4).passed


def test_amgm_n1_trivial():
    assert amgm_check(digraph(1, []), 0, n_max=1).passed


def test_produced_orientations_pass_small_refutation():
    # smoke test: provenance != Unknown implies no bound violation at n <= 4
    from toursid.search import MODE_TAS, refute

    for t in (TREE_123, spider(2, 2, 3), WORKED):
        ori = orient_tree_tas(t)
        assert ori.provenance != PROV_UNKNOWN
        rep = refute(ori.as_digraph(), MODE_TAS, n_max=4)
        assert rep.violation is None, (t, ori.arcs)


def test_amgm_reports_are_pinned():
    # recorded before the anchored checks moved onto the host stack
    for h, w in ((digraph(1, []), 0), (digraph(2, [(0, 1)]), 1),
                 (digraph(3, [(0, 1), (1, 2)]), 1)):
        assert amgm_check(h, w, n_max=5) == ExhaustiveReport(True, 5405, None)


# --- per-host oracle ---------------------------------------------------------


@lru_cache(maxsize=None)
def _hosts(n):
    return tuple(enumerate_tournaments(n))


@lru_cache(maxsize=256)
def _copies(d, host):
    """Every arc-preserving injective map V(d) -> V(host), by brute force."""
    return [phi for phi in permutations(range(host.n), d.v)
            if all(host.adj[phi[u]][phi[w]] for u, w in d.arcs)]


def _copies_by_anchor_image(d, host, anchors):
    return Counter(tuple(phi[a] for a in anchors) for phi in _copies(d, host))


def _strong_tas_by_host_loop(d, anchors, n_max):
    """strong_tas_check, one host and one anchor embedding at a time."""
    anchors = sorted(anchors)
    checked = 0
    for n in range(1, n_max + 1):
        scaled_bound = n ** (d.v - len(anchors))  # the bound times 2^e
        for host in _hosts(n):
            counts = _copies_by_anchor_image(d, host, anchors)
            for image in permutations(range(n), len(anchors)):
                checked += 1
                if counts[image] << d.e > scaled_bound:
                    return ExhaustiveReport(False, checked, {
                        "n": n, "adj": host.adj, "embedding": tuple(zip(anchors, image)),
                        "count": counts[image], "bound": F(scaled_bound, 2**d.e)})
    return ExhaustiveReport(True, checked, None)


def _amgm_by_host_loop(h, w, n_max):
    """amgm_check, one host and one image of the glue vertex at a time."""
    d, v_new, _ = glued_pair_digraph(h, w)
    checked = 0
    for n in range(1, n_max + 1):
        for host in _hosts(n):
            n_h = len(_copies(h, host))
            counts = _copies_by_anchor_image(d, host, [v_new])
            for t in range(n):
                checked += 1
                if 4 * counts[(t,)] > n_h * n_h:
                    return ExhaustiveReport(False, checked, {
                        "n": n, "adj": host.adj, "t": t, "count": counts[(t,)],
                        "bound": F(n_h * n_h, 4)})
    return ExhaustiveReport(True, checked, None)


def _oriented_digraphs(v):
    pairs = list(combinations(range(v), 2))
    for choice in product((None, 0, 1), repeat=len(pairs)):
        yield digraph(v, [(a, b) if c == 0 else (b, a)
                          for (a, b), c in zip(pairs, choice) if c is not None])


def _independent_sets(d):
    for k in range(d.v + 1):
        for anchors in combinations(range(d.v), k):
            if not any(u in anchors and w in anchors for u, w in d.arcs):
                yield anchors


def test_strong_tas_matches_the_per_host_loop():
    cases = failing = 0
    for v in range(1, 5):
        for d in _oriented_digraphs(v):
            for anchors in _independent_sets(d):
                rep = strong_tas_check(d, anchors, n_max=4)
                assert rep == _strong_tas_by_host_loop(d, anchors, 4), (d.arcs, anchors)
                cases += 1
                failing += not rep.passed
    assert (cases, failing) == (5360, 394)


def test_amgm_matches_the_per_host_loop():
    for v in range(1, 4):
        for h in _oriented_digraphs(v):
            for w in range(v):
                assert amgm_check(h, w, n_max=4) == _amgm_by_host_loop(h, w, 4), (h.arcs, w)


def test_strong_tas_wide_pattern_needs_no_wide_integers():
    # 2^66 does not fit in an int64; the check must still pass exactly
    d = digraph(12, list(combinations(range(12), 2)))
    rep = strong_tas_check(d, [], n_max=5)
    assert rep == _strong_tas_by_host_loop(d, [], 5) == ExhaustiveReport(True, 1099, None)


def test_labeled_counts_match_the_permutation_count():
    # the benchmark's anchored patterns and glued pairs on every host n <= 4
    # and on 32 seeded hosts at n = 5 and 6, against a per-host count over
    # itertools.permutations; v > n and |anchors| > n leave an empty axis
    p2, p4a = digraph(3, [(0, 1), (1, 2)]), digraph(4, [(0, 1), (1, 2), (2, 3)])
    cases = [(p2, (1,)), (p4a, (0, 2)), (digraph(4, [(0, 1), (2, 1), (2, 3)]), (1,))]
    for h, w in ((digraph(1, []), 0), (digraph(2, [(0, 1)]), 1), (p2, 1)):
        d, v_new, _ = glued_pair_digraph(h, w)
        cases += [(h, ()), (d, (v_new,))]
    rng = np.random.default_rng(1606)
    for n in (1, 2, 3, 4, 5, 6):
        adj = tournament_stack(n)
        if n > 4:
            adj = adj[np.sort(rng.choice(len(adj), 32, replace=False))]
        hosts = [Tournament(n, tuple(map(tuple, a.tolist()))) for a in adj]
        for d, anchors in cases:
            counts = _labeled_counts(d, adj, anchors)
            images = list(permutations(range(n), len(anchors)))
            assert counts.shape == (len(adj), len(images))
            want = [[_copies_by_anchor_image(d, host, anchors)[image] for image in images]
                    for host in hosts]
            assert counts.tolist() == want, (d.arcs, anchors, n)
    assert _labeled_counts(p4a, tournament_stack(3), (0, 2)).tolist() == [[0] * 6] * 8
    assert _labeled_counts(p4a, tournament_stack(1), (0, 2)).shape == (1, 0)


STAR = digraph(6, [(0, 3), (1, 3), (2, 3), (3, 4), (3, 5)])


def test_reports_at_the_cap_are_pinned():
    # equal to the reports of the per-arc flat gather with its cap lifted to 6
    assert STRONG_TAS_CAP == 6
    p4a = digraph(4, [(0, 1), (1, 2), (2, 3)])
    assert strong_tas_check(p4a, (0, 2), 6) == ExhaustiveReport(True, 1_004_340, None)
    assert strong_tas_check(STAR, (0, 1, 2), 6) == ExhaustiveReport(True, 3_995_184, None)
    assert amgm_check(digraph(2, [(0, 1)]), 1, 6) == ExhaustiveReport(True, 202_013, None)


@pytest.mark.parametrize("d, anchors, count, bound, embedding, checked", [
    (digraph(3, [(1, 2)]), (1,), 20, 18, ((1, 5),), 5411),
    (digraph(3, [(0, 2), (1, 2)]), (0,), 10, 9, ((0, 4),), 5410),
])
def test_first_failures_at_the_cap(d, anchors, count, bound, embedding, checked):
    # both pass at n <= 5, so only the lifted cap finds them
    rep = strong_tas_check(d, anchors, 6)
    assert strong_tas_check(d, anchors, 5).passed
    assert rep == _strong_tas_by_host_loop(d, anchors, 6)
    assert (rep.passed, rep.checked) == (False, checked)
    ce = rep.counterexample
    assert (ce["n"], ce["count"], ce["bound"], ce["embedding"]) == (6, count, bound, embedding)


def test_the_star_at_the_cap_stays_small():
    # one (anchor images, completions, hosts) uint8 array and its counts:
    # a second array of that size alive next to the counts would pass 64 MB
    tournament_stack(6)
    tracemalloc.start()
    try:
        assert strong_tas_check(STAR, (0, 1, 2), 6).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak


def test_the_star_at_the_cap_counts_in_uint16():
    # uint16 counts take a quarter of the int64 ones: the star's peak falls
    # from about 55 MB to about 48 MB
    tournament_stack(6)
    assert _labeled_counts(STAR, tournament_stack(5), (0, 1, 2)).dtype == np.uint16
    tracemalloc.start()
    try:
        assert strong_tas_check(STAR, (0, 1, 2), 6).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20, peak


def test_labeled_counts_refuse_counts_past_uint16(monkeypatch):
    # a 9-vertex path anchored at one vertex has perm(9, 8) = 362,880
    # completions at n = 10; the guard trips before any map table is built
    monkeypatch.setattr(toursid.trees, "_injective_maps", None)
    with pytest.raises(InternalAssertionFailed, match="uint16"):
        _labeled_counts(digraph(9, [(i, i + 1) for i in range(8)]),
                        np.zeros((1, 10, 10), dtype=np.uint8), (0,))
