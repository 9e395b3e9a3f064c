from fractions import Fraction
from itertools import product

import math

from toursid.core import (
    Orientation,
    cycle_digraph,
    digraph,
    directed_path_digraph,
    disjoint_union,
    path_digraph,
)
from toursid.signed import cycle_counts, path_counts, walk_fractions

D1 = ">>>>><><>"
D2 = ">><>><>"

P3 = directed_path_digraph(2)
P5 = directed_path_digraph(4)
P7 = directed_path_digraph(6)
P9 = directed_path_digraph(8)
TWO_P3 = disjoint_union(P3, P3)


# --- the generic subset-scan oracle ------------------------------------------
#
# Sums copy signs over the edge subsets of the host that are isomorphic to the
# pattern.  It walks graphs with its own code, not the library's, so the window
# counts are checked against an independent computation.


def _seq_dirs(seq, arcs):
    """The +-1 direction profile of arcs along a vertex sequence."""
    return tuple(1 if (seq[i], seq[i + 1]) in arcs else -1 for i in range(len(seq) - 1))


def _pattern_paths(q):
    """Each component of q as a vertex sequence along its path, from its lower end."""
    adj = [[] for _ in range(q.v)]
    for u, w in q.arcs:
        adj[u].append(w)
        adj[w].append(u)
    seen, comps = set(), []
    for s in range(q.v):
        if s in seen:
            continue
        comp, stack = {s}, [s]
        while stack:
            for y in adj[stack.pop()]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        ends = [x for x in comp if len(adj[x]) <= 1]
        if any(len(adj[x]) > 2 for x in comp) or (len(comp) > 1 and len(ends) != 2):
            raise ValueError("pattern components must be paths")
        seq, prev = [min(ends)], None
        while nxts := [y for y in adj[seq[-1]] if y != prev]:
            prev = seq[-1]
            seq.append(nxts[0])
        comps.append(seq)
    return comps


def _host_paths(d, edges):
    """Each simple path of `edges` edges in d, once (start < end), with its profile."""
    adj = [[] for _ in range(d.v)]
    for u, w in d.arcs:
        adj[u].append(w)
        adj[w].append(u)
    out = []

    def extend(seq):
        if len(seq) == edges + 1:
            if seq[0] < seq[-1]:
                out.append((tuple(seq), _seq_dirs(seq, d.arcs)))
            return
        for y in adj[seq[-1]]:
            if y not in seq:
                seq.append(y)
                extend(seq)
                seq.pop()

    for s in range(d.v):
        extend([s])
    return out


def signed_count(q, d):
    """C(q, d); the components of q must be paths with an even number of arcs."""
    profiles = [_seq_dirs(seq, q.arcs) for seq in _pattern_paths(q) if len(seq) > 1]
    if any(len(p) % 2 for p in profiles):
        raise ValueError("pattern component has an odd number of arcs")
    if not profiles:
        return 1 if q.v <= d.v else 0
    # a reversed profile gives the same copies; identical profiles are
    # interchangeable, so count ordered placements and divide
    keys = [min(p, tuple(-x for x in reversed(p))) for p in profiles]
    placements = {k: _host_paths(d, len(k)) for k in set(keys)}
    denom = math.prod(math.factorial(keys.count(k)) for k in set(keys))
    total = 0

    def place(idx, used, sign):
        nonlocal total
        if idx == len(profiles):
            total += sign
            return
        for seq, hdirs in placements[keys[idx]]:
            if used & set(seq):
                continue
            dis = sum(1 for a, b in zip(hdirs, profiles[idx]) if a != b)
            place(idx + 1, used | set(seq), sign * (-1) ** (dis % 2))

    place(0, frozenset(), 1)
    assert total % denom == 0
    return total // denom


def test_d1_fixture():
    assert path_counts(D1).triple() == (0, 2, -11)


def test_d2_computed_values():
    # the window oracle gives (-2, -2, 2) for this string; the generic
    # subset-scan oracle below independently confirms all three
    c = path_counts(D2)
    assert c.triple() == (-2, -2, 2)
    host = path_digraph(D2)
    assert signed_count(P3, host) == -2
    assert signed_count(P5, host) == -2
    assert signed_count(TWO_P3, host) == 2


def test_no_seven_edge_path_has_claimed_d2_triple():
    # exhaustive: (0, -2, 2) is not realized by any 7-edge orientation
    hits = [
        dirs
        for dirs in product((1, -1), repeat=7)
        if path_counts(Orientation(dirs)).triple() == (0, -2, 2)
    ]
    assert hits == []


def test_single_window_disagreement():
    assert path_counts("><").c_p3 == -1


def test_directed_path_closed_forms():
    for ell in range(6, 13):
        c = path_counts(">" * (ell - 1))
        assert c.c_p3 == ell - 2
        assert c.c_p5 == ell - 4
        assert c.c_2p3 == math.comb(ell - 4, 2)


def test_directed_path_ell_10_fixture():
    assert path_counts(">>>>>>>>>").triple() == (8, 6, 15)


def test_min_k_search():
    # all-zero prefix counts with a nonzero higher window
    c = path_counts(">>>><><")
    assert c.triple()[0] == 0
    assert (c.c_p5, c.c_2p3) == (0, -6)
    assert c.min_k is None  # C(P7) = 0 and no longer window fits
    d = path_counts(">" * 12)
    assert d.min_k == 3 and d.c_min_k == 7  # directed path: C(P7) = 12 - 6 + 1


def test_window_equals_generic_exhaustive():
    patterns = {2: P3, 4: P5, 6: P7, 8: P9}
    for e in range(2, 11):
        for dirs in product((1, -1), repeat=e):
            o = Orientation(dirs)
            host = path_digraph(o)
            c = path_counts(o)
            assert c.c_p3 == signed_count(P3, host)
            if e >= 4:
                assert c.c_p5 == signed_count(P5, host)
                assert c.c_2p3 == signed_count(TWO_P3, host)
            if e >= 6 and e <= 8:
                got = signed_count(P7, host)
                from toursid.signed import _window_sums

                assert _window_sums(dirs, 6) == got


def test_cycle_window_equals_generic():
    for ell in range(3, 10):
        for dirs in product((1, -1), repeat=ell):
            o = Orientation(dirs)
            host = cycle_digraph(o)
            c = cycle_counts(o)
            assert c.c_p3 == signed_count(P3, host)
            assert c.c_p5 == signed_count(P5, host)
            assert c.c_2p3 == signed_count(TWO_P3, host)
            if ell >= 7:
                # the wrapped width-6 windows, read through min_k / c_min_k
                c_p7 = signed_count(P7, host)
                if c_p7:
                    assert (c.min_k, c.c_min_k) == (3, c_p7)
                else:
                    assert c.min_k != 3


def test_cycle_fixtures():
    assert cycle_counts(">>>>>").c_p3 == 5  # directed C5
    assert cycle_counts("><><").c_p3 == -4  # alternating C4
    assert cycle_counts(">>>>>>").c_2p3 == 3  # directed C6: 3 disjoint window pairs


def test_sign_well_defined_under_all_isomorphisms():
    # recompute the generic count with the reversed traversal of every host
    # path; equality means the chosen isomorphism does not matter
    for e in (4, 6):
        for dirs in list(product((1, -1), repeat=e))[::5]:
            o = Orientation(dirs)
            host = path_digraph(o)
            forward = signed_count(P5 if e >= 4 else P3, host)
            flipped_host = digraph(host.v, {(w, u) for u, w in host.arcs})
            # reversing every host arc flips each window by its (even) width
            assert signed_count(P5, flipped_host) == forward


def test_walk_fractions_small():
    w3 = walk_fractions(3)
    assert w3.p_zero == 0
    assert w3.p_pos == Fraction(1, 2)
    w4 = walk_fractions(4)
    assert w4.p_zero == Fraction(3, 8)
    assert w4.p_pos == Fraction(5, 16)


def test_walk_fractions_match_window_enumeration():
    # window signs of an e-edge path are a free (e-1)-step sign pattern, two
    # orientations per pattern
    for e in range(2, 14):
        n = e - 1
        zero = sum(
            1
            for dirs in product((1, -1), repeat=e)
            if path_counts(Orientation(dirs)).c_p3 == 0
        )
        assert Fraction(zero, 2**e) == walk_fractions(n).p_zero


def test_window_sign_equals_walk_distribution_exhaustive():
    # the full distribution of C(P3), not just the mass at zero
    from collections import Counter

    e = 9
    n = e - 1
    dist = Counter(
        path_counts(Orientation(dirs)).c_p3 for dirs in product((1, -1), repeat=e)
    )
    for endpoint, count in dist.items():
        k = (endpoint + n) // 2
        assert count == 2 * math.comb(n, k)


def test_p9_window_equals_generic():
    from toursid.signed import _window_sums

    for e in (8, 9, 10):
        for dirs in product((1, -1), repeat=e):
            o = Orientation(dirs)
            host = path_digraph(o)
            assert _window_sums(o.dirs, 8) == signed_count(P9, host)
