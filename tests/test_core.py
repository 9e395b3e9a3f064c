import re

import pytest
from hypothesis import given, strategies as st

from toursid.construct import named_kernel, tensor_power
from toursid.core import (
    Orientation,
    _neighbours,
    _path_order,
    _simple_paths,
    alternating_cycle,
    as_cycle,
    digraph,
    directed_path_digraph,
    disjoint_union,
    format_digraph_text,
    format_orientation,
    format_tree_text,
    parse_digraph_text,
    parse_orientation,
    parse_tree_text,
    path_digraph,
    subdivide,
    tree,
)
from toursid.errors import EmptyInput, InvalidCharacter, InvalidInput, OddLength, TooShort
from toursid.stochastic import resolve_beta_star
from toursid.tournament import blowup, random_tournament, transitive
from toursid.trees import amgm_check


@pytest.mark.parametrize("call,message", [
    (lambda: random_tournament(-1, 0), "need at least one vertex"),
    (lambda: blowup(transitive(2), [0, 1]), "part sizes must be positive"),
    (lambda: tensor_power(named_kernel("B1").matrix, 0), "m must be >= 1"),
    (lambda: subdivide(digraph(2, [(0, 1)]), 0), "k must be >= 1"),
    (lambda: amgm_check(digraph(2, [(0, 1)]), 99, 3), "w must be a vertex of h"),
    (lambda: resolve_beta_star(0), "max_edges must be >= 2"),
], ids=["random_tournament", "blowup", "tensor_power", "subdivide", "amgm_check",
        "resolve_beta_star"])
def test_guarded_preconditions_raise_invalid_input(call, message):
    # errors.py: no guarded precondition raises a bare ValueError
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        call()


def test_parse_single_edge():
    assert parse_orientation(">").dirs == (1,)


def test_parse_six_edge_pattern():
    assert parse_orientation("><>>><").dirs == (1, -1, 1, 1, 1, -1)


def test_parse_aliases():
    assert parse_orientation("RL").dirs == parse_orientation("><").dirs


def test_parse_bad_char_position():
    with pytest.raises(InvalidCharacter) as exc:
        parse_orientation(">x")
    assert exc.value.position == 1


def test_parse_empty():
    with pytest.raises(EmptyInput):
        parse_orientation("")


@given(st.text(alphabet="><RL", min_size=1, max_size=40))
def test_parse_format_round_trip(s):
    canonical = s.replace("R", ">").replace("L", "<")
    assert format_orientation(parse_orientation(s)) == canonical


def test_reversed_path_is_same_digraph():
    o = parse_orientation(">><")
    r = o.reversed_path()
    assert str(r) == "><<"  # read from the far end, arrows flip


def test_subdivide_identity():
    d = digraph(2, [(0, 1)])
    assert subdivide(d, 1) is d


def test_subdivide_single_arc():
    d = subdivide(digraph(2, [(0, 1)]), 3)
    assert d.v == 4
    assert d.arcs == frozenset({(0, 2), (2, 3), (3, 1)})


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_subdivide_counts(k):
    base = path_digraph(">><>")
    d = subdivide(base, k)
    assert d.v == base.v + base.e * (k - 1)
    assert d.e == base.e * k


def test_subdivided_alternating_cycle_flips():
    # expanding each edge into 3 keeps its direction, so flips scale by 3
    c = alternating_cycle(6)
    c3 = c.subdivided(3)
    assert (c3.length, c3.flips) == (18, 9)
    # same digraph as subdividing the cycle digraph
    from toursid.core import cycle_digraph

    assert sorted(cycle_digraph(c3).arcs) is not None
    assert len(cycle_digraph(c3).arcs) == 18


@pytest.mark.parametrize("two_ell,flips", [(4, 2), (6, 3), (8, 4)])
def test_alternating_cycle(two_ell, flips):
    c = alternating_cycle(two_ell)
    assert c.flips == flips
    assert c.orientation.dirs[:2] == (1, -1)


def test_alternating_cycle_errors():
    with pytest.raises(OddLength):
        alternating_cycle(3)
    with pytest.raises(TooShort):
        alternating_cycle(2)


def test_disjoint_union_2p3():
    p3 = directed_path_digraph(2)
    two = disjoint_union(p3, p3)
    assert (two.v, two.e) == (6, 4)
    assert (3, 4) in two.arcs and (0, 1) in two.arcs


def test_disjoint_union_edgeless():
    a = digraph(1, [])
    u = disjoint_union(a, a)
    assert (u.v, u.e) == (2, 0)


def test_digraph_rejects_digons_and_loops():
    with pytest.raises(ValueError):
        digraph(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        digraph(2, [(0, 0)])


def test_cycle_too_short():
    with pytest.raises(TooShort):
        as_cycle("><")


def test_digraph_text_round_trip():
    d = digraph(4, [(0, 1), (2, 1), (3, 0)])
    assert parse_digraph_text(format_digraph_text(d)) == d


def test_pattern_texts_reject_a_repeated_arc_or_edge():
    # read as a set, the repeat would count once
    with pytest.raises(InvalidInput, match="repeated arc 0 1"):
        parse_digraph_text("digraph v=3\n0 1\n1 2\n0 1\n")
    with pytest.raises(InvalidInput, match="repeated edge 1 0"):
        parse_tree_text("tree v=2\n0 1\n1 0\n")


def test_tree_text_round_trip():
    t = tree(4, [(0, 1), (1, 2), (1, 3)])
    assert parse_tree_text(format_tree_text(t)) == t


def test_tree_validation():
    with pytest.raises(ValueError):
        tree(4, [(0, 1), (2, 3)])  # disconnected with right count? no: 2 edges != 3
    with pytest.raises(ValueError):
        tree(4, [(0, 1), (1, 2), (0, 2)])  # cycle, vertex 3 disconnected


def test_digraph_subdivision_matches_cycle_subdivision():
    # subdividing the alternating 6-cycle as a digraph gives the same degree
    # profile as expanding its orientation: an 18-cycle with 3 sinks/sources
    from toursid.core import cycle_digraph

    c = alternating_cycle(6)
    via_digraph = subdivide(cycle_digraph(c), 3)
    via_orientation = cycle_digraph(c.subdivided(3))
    for d in (via_digraph, via_orientation):
        assert (d.v, d.e) == (18, 18)
        indeg = [sum(1 for u, w in d.arcs if w == x) for x in range(18)]
        outdeg = [sum(1 for u, w in d.arcs if u == x) for x in range(18)]
        assert all(i + o == 2 for i, o in zip(indeg, outdeg))
        assert sorted(indeg).count(2) == 3  # sinks
        assert sorted(outdeg).count(2) == 3  # sources
    assert via_orientation.e == 18 and c.subdivided(3).flips == 9


def test_neighbours_are_sorted_and_symmetric():
    assert _neighbours(4, [(2, 0), (1, 2), (3, 2)]) == [[2], [2], [0, 1, 3], [2]]
    assert _neighbours(2, []) == [[], []]


# the path 3 - 0 - 4 - 1 numbered out of order, a star at 0, a 4-cycle, the
# path 0 - 1 beside the edge 2 - 3, and a triangle with the tail 2 - 3
PATH = _neighbours(5, [(3, 0), (0, 4), (4, 1)])
STAR = _neighbours(4, [(0, 1), (0, 2), (0, 3)])
CYCLE = _neighbours(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
TWO = _neighbours(4, [(0, 1), (2, 3)])
PAW = _neighbours(4, [(0, 1), (1, 2), (2, 0), (2, 3)])


@pytest.mark.parametrize("adj,vertices,order", [
    (PATH, set(), []),
    (PATH, {4}, [4]),
    (PATH, {0, 1, 3, 4}, [1, 4, 0, 3]),
    (PATH, {0, 1, 4}, [0, 4, 1]),
    (PATH, {1, 3}, None),
    (STAR, {0, 1, 2, 3}, None),
    (STAR, {0, 2, 3}, [2, 0, 3]),
    (CYCLE, {0, 1, 2, 3}, None),
    (CYCLE, {1, 2, 3}, [1, 2, 3]),
    (TWO, {0, 1, 2, 3}, None),
    (TWO, {2, 3}, [2, 3]),
    (PAW, {0, 1, 2, 3}, None),
], ids=["empty", "vertex", "path", "subpath", "apart", "star", "star-path",
        "cycle", "cycle-path", "two", "one", "paw"])
def test_path_order(adj, vertices, order):
    assert _path_order(adj, vertices) == order


def test_simple_paths_of_a_given_length():
    assert sorted(_simple_paths(CYCLE, 0, 2)) == [(0, 1, 2), (0, 3, 2)]
    assert list(_simple_paths(CYCLE, 0, 0)) == [(0,)]
    assert list(_simple_paths(TWO, 0, 2)) == []
    # no path repeats a vertex, so the cycle's longest paths have 3 edges
    assert len(list(_simple_paths(CYCLE, 2, 3))) == 2
    assert list(_simple_paths(CYCLE, 2, 4)) == []
