from fractions import Fraction

import pytest

from toursid.errors import CapExceeded, InvalidInput, MissingHalfLoops
from toursid.hom import hom_generic
from toursid.core import digraph
from toursid.spectral import eigenvalues
from toursid.tournament import (
    SkewMatrix,
    Tournament,
    WeightedTournament,
    _freeze,
    cutnorm_bruteforce,
    blowup,
    format_tournament_text,
    format_weighted_text,
    parse_tournament_text,
    parse_weighted_text,
    random_tournament,
    skew,
    skew_decompose,
    tournament_stack,
    transitive,
    with_half_loops,
)


def stack_tournaments(n):
    """Every tournament on n vertices as a Tournament, in the order of tournament_stack."""
    return [Tournament(n, _freeze(adj.tolist())) for adj in tournament_stack(n)]


def test_enumerate_counts():
    assert len(tournament_stack(1)) == 1
    assert len(tournament_stack(3)) == 8
    assert len(tournament_stack(5)) == 1024 == len(stack_tournaments(5))


def test_enumerate_distinct():
    seen = {t.adj for t in stack_tournaments(4)}
    assert len(seen) == 64


def test_enumerate_cyclic_triangles():
    # among the 8 tournaments on 3 vertices exactly 2 are the cyclic triangle
    c3 = digraph(3, [(0, 1), (1, 2), (2, 0)])
    cyclic = sum(
        1
        for t in stack_tournaments(3)
        if hom_generic(c3, t).raw > 0
    )
    assert cyclic == 2


def test_enumerate_cap():
    for n in (0, 7, 8):
        with pytest.raises(CapExceeded, match="enumeration capped at n <= 6"):
            tournament_stack(n)


def test_stack_order_is_upper_triangle_bits():
    # pairs (0,1), (0,2), ... (n-2,n-1) from the most significant bit down;
    # a set bit orients the pair forward
    for n in (3, 4):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        stack = tournament_stack(n)
        assert stack.shape == (2 ** len(pairs), n, n)
        for k, adj in enumerate(stack):
            bits = [(k >> (len(pairs) - 1 - p)) & 1 for p in range(len(pairs))]
            assert [adj[i][j] for i, j in pairs] == bits
            assert (adj + adj.T).tolist() == [[int(i != j) for j in range(n)] for i in range(n)]


def test_random_tournament_deterministic():
    a = random_tournament(50, seed=7)
    b = random_tournament(50, seed=7)
    assert a == b
    assert random_tournament(50, seed=8) != a


def test_random_tournament_balance():
    n = 100
    total = 0.0
    sweeps = 20
    for seed in range(sweeps):
        t = random_tournament(n, seed)
        total += sum(sum(row) for row in t.adj) / n
    mean_out = total / sweeps
    assert abs(mean_out - (n - 1) / 2) <= 4 * n**0.5


def test_transitive():
    t = transitive(3)
    assert t.arcs() == {(0, 1), (0, 2), (1, 2)}
    assert transitive(2).arcs() == {(0, 1)}


def test_transitive_acyclic():
    t = transitive(4)
    assert len(t.arcs()) == 6
    c3 = digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert hom_generic(c3, t).raw == 0


def test_with_half_loops_matrix():
    w = with_half_loops(transitive(3))
    half = Fraction(1, 2)
    assert w.entries == (
        (half, 1, 1),
        (0, half, 1),
        (0, 0, half),
    )


def test_with_half_loops_complement():
    w = with_half_loops(random_tournament(6, seed=3))
    for i in range(6):
        for j in range(6):
            assert w.entries[i][j] + w.entries[j][i] == 1


def test_skew_decompose_round_trip():
    w = with_half_loops(random_tournament(5, seed=1))
    b = skew_decompose(w)
    half = Fraction(1, 2)
    for i in range(5):
        assert b.entries[i][i] == 0
        for j in range(5):
            assert half + b.entries[i][j] == w.entries[i][j]
            assert b.entries[i][j] == -b.entries[j][i]


def test_skew_decompose_2x2():
    b = skew_decompose(with_half_loops(transitive(2)))
    assert b.entries == ((0, Fraction(1, 2)), (Fraction(-1, 2), 0))


def test_skew_decompose_needs_half_loops():
    w = WeightedTournament(2, _freeze([[0, 1], [0, 0]]))
    with pytest.raises(MissingHalfLoops):
        skew_decompose(w)


def test_half_loops_are_read_from_the_diagonal():
    half = Fraction(1, 2)
    assert WeightedTournament(2, _freeze([[half, 1], [0, half]])).loops_half
    assert not WeightedTournament(2, _freeze([[half, 1], [0, 0]])).loops_half
    # floats within the tolerance count, exact entries only at 1/2 itself
    assert WeightedTournament(2, _freeze([[0.5 + 1e-13, 1.0], [0.0, 0.5]])).loops_half
    assert not WeightedTournament(2, _freeze([[0.5 + 1e-9, 1.0], [0.0, 0.5]])).loops_half
    assert not WeightedTournament(1, _freeze([[half + Fraction(1, 10**20)]])).loops_half


def test_tournament_entries_must_be_0_or_1():
    # the pair sums to 1, but 2 and -1 are no arcs: hom counts came out negative
    with pytest.raises(InvalidInput, match="entries must be 0 or 1"):
        Tournament(2, ((0, 2), (-1, 0)))
    with pytest.raises(InvalidInput, match="entries must be 0 or 1"):
        Tournament(2, ((0, 0.5), (0.5, 0)))
    # a bad pair sum later in the matrix keeps its own message
    with pytest.raises(InvalidInput, match=r"pair \(0,2\) must have exactly one arc"):
        Tournament(3, ((0, 2, 1), (-1, 0, 1), (1, 1, 0)))


def test_weighted_tournament_rejects_nan():
    nan = float("nan")
    with pytest.raises(InvalidInput, match=r"entry \(0,1\) = nan outside \[0,1\]"):
        WeightedTournament(2, ((0.5, nan), (nan, 0.5)))


def test_skew_matrix_rejects_nan():
    nan = float("nan")
    with pytest.raises(InvalidInput, match=r"entry \(0,1\) = nan outside \[-1,1\]"):
        SkewMatrix(2, ((0.0, nan), (nan, 0.0)))


def test_constructed_hosts_are_pinned():
    # recorded before the three builders shared one pair loop; guards the draw order
    assert random_tournament(6, 3).adj == (
        (0, 1, 0, 1, 0, 0), (0, 0, 1, 1, 0, 1), (1, 0, 0, 1, 0, 1),
        (0, 0, 0, 0, 0, 1), (1, 1, 1, 1, 0, 0), (1, 0, 0, 0, 1, 0))
    assert transitive(4).adj == ((0, 1, 1, 1), (0, 0, 1, 1), (0, 0, 0, 1), (0, 0, 0, 0))
    assert blowup(random_tournament(3, 1), [2, 1, 3], "random", 5).adj == (
        (0, 0, 1, 0, 0, 0), (1, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 0),
        (1, 1, 1, 0, 0, 0), (1, 1, 1, 1, 0, 0), (1, 1, 1, 1, 1, 0))


def test_blowup_identity():
    t = transitive(3)
    assert blowup(t, [1, 1, 1]) == t


def test_blowup_cyclic_triangle_counts():
    cyc = parse_tournament_text("tournament n=3\n010\n001\n100\n")
    b = blowup(cyc, [2, 2, 2], inner="transitive")
    assert b.n == 6
    part_of = [0, 0, 1, 1, 2, 2]
    crossing = sum(
        1
        for i in range(6)
        for j in range(6)
        if b.adj[i][j] and part_of[i] != part_of[j]
    )
    assert crossing == 12


def test_cutnorm_zero():
    z = skew([[0, 0], [0, 0]])
    assert cutnorm_bruteforce(z) == 0


def test_cutnorm_2x2_exact():
    b = skew([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]])
    assert cutnorm_bruteforce(b) == Fraction(1, 8)


def test_cutnorm_matches_naive_scan():
    import random as pyrandom

    rng = pyrandom.Random(5)
    n = 5
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = Fraction(rng.randint(-10, 10), 20)
            rows[i][j] = x
            rows[j][i] = -x
    b = skew(rows)
    best = Fraction(0)
    for xm in range(1 << n):
        for ym in range(1 << n):
            s = sum(
                rows[i][j]
                for i in range(n)
                if xm >> i & 1
                for j in range(n)
                if ym >> j & 1
            )
            best = max(best, abs(s))
    assert cutnorm_bruteforce(b) == Fraction(best, n * n)


def test_sandwich_bound_random():
    # n ||B||_box <= lmax(B) <= n sqrt(2 ||B||_box) for entries in [-1/2, 1/2]
    for seed in range(8):
        t = random_tournament(10, seed)
        b = skew_decompose(with_half_loops(t))
        cut = float(cutnorm_bruteforce(b))
        lmax = eigenvalues(b.to_float()).lmax
        n = 10
        assert n * cut <= lmax + 1e-9
        assert lmax <= n * (2 * cut) ** 0.5 + 1e-9


def test_tournament_text_round_trip():
    t = random_tournament(6, seed=9)
    assert parse_tournament_text(format_tournament_text(t)) == t


def test_weighted_text_round_trip():
    w = with_half_loops(random_tournament(4, seed=2))
    assert parse_weighted_text(format_weighted_text(w)) == w


def test_weighted_text_decimals():
    w = parse_weighted_text("wtournament n=2\n0.5 0.25\n0.75 0.5\n")
    assert w.entries[0][1] == Fraction(1, 4)


def test_enumeration_is_lexicographic():
    ts = stack_tournaments(3)
    # first: all upper-triangle bits 0 (every pair oriented j -> i)
    assert ts[0].arcs() == {(1, 0), (2, 0), (2, 1)}
    # last: all bits 1 = transitive order
    assert ts[-1] == transitive(3)


def test_blowup_quasirandom_density_converges_above_benchmark():
    # blowing up the transitive triangle with quasirandom parts drives the
    # six-edge pattern density toward 2307/64/3^7 = 0.016482 > 2^-6; finite
    # hosts discount it by the loopless correction, crossing the benchmark
    # once the parts are large enough
    from toursid.hom import hom_path

    densities = []
    for m in (2, 5, 20, 50):
        t = blowup(transitive(3), [m, m, m], inner="random", seed=11)
        rows = [[float(x) for x in row] for row in t.adj]
        densities.append(hom_path("><>>><", rows).density)
    assert densities == sorted(densities)  # monotone toward the limit
    assert densities[-1] > 2**-6
    assert densities[-1] < 2307 / 64 / 3**7
