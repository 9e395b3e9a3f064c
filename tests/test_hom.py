from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from test_tournament import stack_tournaments
from toursid.core import (
    Orientation,
    cycle_digraph,
    digraph,
    directed_path_digraph,
    disjoint_union,
    parse_orientation,
    path_digraph,
)
from toursid.construct import named_kernel
from toursid.errors import CapExceeded, InvalidInput
from toursid.hom import (
    GENERIC_CAP,
    _frontier_steps,
    _plan,
    contract,
    contract_grad,
    hom_count,
    hom_cycle,
    hom_generic,
    hom_path,
    t_kernel_cycle,
    t_kernel_path,
)
from toursid.tournament import (
    WeightedTournament,
    random_tournament,
    skew,
    skew_decompose,
    tournament_stack,
    transitive,
    with_half_loops,
)

K2_HOST = with_half_loops(transitive(2))


def test_single_arc_into_k2():
    # 1/2 + 1/2 + 1 + 0 over the four maps
    assert hom_generic(digraph(2, [(0, 1)]), K2_HOST).raw == 2


def test_forward_path_unweighted_transitive():
    d = directed_path_digraph(2)
    assert hom_generic(d, transitive(3)).raw == 1  # only 0 -> 1 -> 2


def test_all_half_matrix_density():
    half = Fraction(1, 2)
    host = with_half_loops(transitive(1))
    d = digraph(1, [])
    assert hom_generic(d, host).density == 1
    rows = [[half] * 3 for _ in range(3)]
    from toursid.tournament import WeightedTournament, _freeze

    w = WeightedTournament(3, _freeze(rows))
    patt = digraph(4, [(0, 1), (2, 1), (2, 3)])
    assert hom_generic(patt, w).density == Fraction(1, 2**3)


def test_generic_cap():
    # the cap bounds the v * n^(w+1) steps of the widest frontier w
    from itertools import combinations

    wide = digraph(10, list(combinations(range(10), 2)))  # w = 9: 10 * 6^10 steps
    assert _frontier_steps(tuple(wide.arcs), 10)[0] == 9 and 10 * 6**10 > GENERIC_CAP
    with pytest.raises(CapExceeded):
        hom_generic(wide, with_half_loops(transitive(6)))
    assert hom_generic(digraph(30, []), K2_HOST).raw == 2**30  # w = 0
    c12 = cycle_digraph("<<<<<<<><><>")  # 6^12 maps, 12 * 6^3 steps
    for seed in (1, 2):
        host = with_half_loops(random_tournament(6, seed=seed))
        assert hom_generic(c12, host).raw == hom_count(c12, host).raw


def test_hom_path_forward_closed_form():
    # 1^T A^n 1 = (2n+2)/2^n for the two-vertex host with a unit arc
    for n in range(1, 9):
        o = Orientation(tuple([1] * n))
        assert hom_path(o, K2_HOST).raw == Fraction(2 * n + 2, 2**n)


def test_hom_path_matches_generic_exhaustive():
    hosts = [with_half_loops(t) for n in (2, 3) for t in stack_tournaments(n)]
    for e in range(1, 5):
        for dirs in product((1, -1), repeat=e):
            o = Orientation(dirs)
            d = path_digraph(o)
            for host in hosts[:16]:
                assert hom_path(o, host).raw == hom_generic(d, host).raw


def test_hom_cycle_matches_generic():
    host = with_half_loops(transitive(2))
    for ell in (3, 4):
        for dirs in product((1, -1), repeat=ell):
            o = Orientation(dirs)
            assert (
                hom_cycle(o, host).raw == hom_generic(cycle_digraph(o), host).raw
            )


def test_hom_cycle_c3_all_half():
    from toursid.tournament import WeightedTournament, _freeze

    half = Fraction(1, 2)
    w = WeightedTournament(2, _freeze([[half, half], [half, half]]))
    assert hom_cycle(">>>", w).density == Fraction(1, 8)


def test_hom_cycle_c3_cyclic_triangle():
    from toursid.tournament import parse_tournament_text

    cyc = parse_tournament_text("tournament n=3\n010\n001\n100\n")
    assert hom_cycle(">>>", cyc).raw == 3  # three rotations of the one cyclic map


def test_contract_forest_matches_generic():
    t = with_half_loops(random_tournament(4, seed=6))
    patt = digraph(6, [(0, 1), (1, 2), (1, 3), (4, 5)])
    assert hom_count(patt, t).raw == hom_generic(patt, t).raw


def test_t_kernel_path_b1():
    b1 = named_kernel("B1").matrix
    assert t_kernel_path(b1, 4) == Fraction(1, 16)
    assert t_kernel_path(b1, 2) == Fraction(-1, 4)
    assert t_kernel_path(b1, 3) == 0


def test_t_kernel_path_bprime():
    bp = named_kernel("BPrime").matrix
    # computed from the matrix: 1^T B^2 1 = -2, 1^T B^4 1 = 4
    assert t_kernel_path(bp, 2) == Fraction(-2, 27)
    assert t_kernel_path(bp, 4) == Fraction(4, 243)


def test_t_kernel_cycle_mbalanced():
    mb = named_kernel("MBalanced").matrix
    assert t_kernel_cycle(mb, 4) == Fraction(2, 9)
    assert t_kernel_cycle(mb, 6) == Fraction(-2, 27)
    assert t_kernel_cycle(mb, 5) == 0


def test_kernel_cycle_matches_generic():
    b1 = named_kernel("B1").matrix
    for ell in (4, 6):
        o = Orientation(tuple([1] * ell))
        d = cycle_digraph(o)
        assert t_kernel_cycle(b1, ell) == hom_generic(d, b1).density


def test_sign_lemma_random():
    # 1^T B^(2k) 1 <= 0 when 2k = 2 mod 4, >= 0 when 2k = 0 mod 4; same for traces
    for seed in range(20):
        b = skew_decompose(with_half_loops(random_tournament(7, seed)))
        for k in (1, 2, 3):
            tp = t_kernel_path(b, 2 * k)
            tc = t_kernel_cycle(b, 2 * k) if 2 * k >= 4 else None
            if k % 2 == 1:
                assert tp <= 0
                assert tc is None or tc <= 0
            else:
                assert tp >= 0
                assert tc is None or tc >= 0


def test_cauchy_schwarz_p5_vs_2p3():
    for seed in range(20):
        b = skew_decompose(with_half_loops(random_tournament(6, seed)))
        t5 = t_kernel_path(b, 4)
        t3 = t_kernel_path(b, 2)
        assert t5 >= t3 * t3 >= 0


def test_balancedness_iff_p3_zero():
    mb = named_kernel("MBalanced").matrix
    assert all(sum(row) == 0 for row in mb.entries)
    assert t_kernel_path(mb, 2) == 0
    b1 = named_kernel("B1").matrix
    assert t_kernel_path(b1, 2) != 0
    assert any(sum(row) != 0 for row in b1.entries)


def test_2p3_equals_p3_squared_generic():
    # density of the disjoint union is the product of densities
    b = skew_decompose(with_half_loops(random_tournament(4, seed=13)))
    p3 = directed_path_digraph(2)
    two_p3 = disjoint_union(p3, p3)
    assert hom_generic(two_p3, b).density == hom_generic(p3, b).density ** 2


def half_loop_stack(n):
    """Every half-loop host on n vertices as one exact (Fraction) stack."""
    return np.array([with_half_loops(t).rows() for t in stack_tournaments(n)], dtype=object)


def test_path_evaluators_agree_e6_n4():
    # the contraction kernel, through contract and hom_path, against the
    # frontier sum: exhaustive agreement for e <= 6 over every host n <= 4
    hosts_small = [[with_half_loops(t) for t in stack_tournaments(n)] for n in (1, 2, 3)]
    hosts_four = [with_half_loops(t) for t in stack_tournaments(4)]
    stacks = {n: half_loop_stack(n) for n in (1, 2, 3, 4)}
    for e in range(1, 7):
        for dirs in product((1, -1), repeat=e):
            o = Orientation(dirs)
            d = path_digraph(o)
            for n, hosts in enumerate(hosts_small, start=1):
                expected = [hom_generic(d, host).raw for host in hosts]
                assert [hom_path(o, host).raw for host in hosts] == expected
                assert list(contract(d, stacks[n])) == expected
            assert list(contract(d, stacks[4])) == [hom_generic(d, h).raw for h in hosts_four]


def test_cycle_evaluator_agrees_with_bruteforce():
    hosts = [with_half_loops(t) for n in (2, 3) for t in stack_tournaments(n)]
    for ell in (3, 4, 5):
        for dirs in product((1, -1), repeat=ell):
            o = Orientation(dirs)
            d = cycle_digraph(o)
            for host in hosts:
                assert hom_cycle(o, host).raw == hom_generic(d, host).raw


def test_contract_matches_generic_on_cycles_and_digraphs():
    # every cycle with length <= 5, a forest with an isolated vertex, the
    # arc-free digraph (h = n^v) and the square, on every host n <= 3
    patterns = [cycle_digraph(Orientation(dirs))
                for ell in (3, 4, 5) for dirs in product((1, -1), repeat=ell)]
    patterns += [
        digraph(5, [(1, 0), (1, 2), (3, 1)]),
        digraph(3, []),
        digraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    ]
    for n in (1, 2, 3):
        stack = half_loop_stack(n)
        hosts = [with_half_loops(t) for t in stack_tournaments(n)]
        for d in patterns:
            assert list(contract(d, stack)) == [hom_generic(d, h).raw for h in hosts]
        assert list(contract(digraph(3, []), stack)) == [n**3] * len(hosts)


def test_contract_exact_types_and_float_stack():
    # unweighted ints stay ints, Fractions stay exact, floats agree closely
    d = digraph(4, [(0, 1), (2, 1), (1, 3)])
    ints = tournament_stack(4).astype(object)
    counts = contract(d, ints)
    assert all(type(c) is int for c in counts)
    assert list(counts) == [hom_generic(d, t).raw for t in stack_tournaments(4)]
    exact = half_loop_stack(3)
    floats = contract(d, exact.astype(float))
    assert np.allclose(floats, contract(d, exact).astype(float), rtol=1e-12, atol=0)


def test_contract_long_path_past_einsum_letters():
    # 61 pattern vertices: one subscript string would need more than 52 letters
    o = Orientation(tuple((1, 1, -1) * 20))
    d = path_digraph(o)
    stack = half_loop_stack(3)
    hosts = [with_half_loops(t) for t in stack_tournaments(3)]
    assert list(contract(d, stack)) == [hom_generic(d, h).raw for h in hosts]


def test_contract_wide_star_merges_its_leaf_factors():
    # 70 leaves on one centre: h = sum_i (row sum i)^70; merged factors keep
    # the centre's einsum within numpy's operand limit
    d = digraph(71, [(0, i) for i in range(1, 71)])
    hosts = [with_half_loops(t) for t in stack_tournaments(3)]
    assert list(contract(d, half_loop_stack(3))) == [
        sum(sum(row) ** 70 for row in h.rows()) for h in hosts]


def per_map_gradient(d, a):
    """dh/dA(i, j) by brute force: for each map and each arc, the other arcs'
    product goes to the entry the arc's ends land on."""
    n, arcs = len(a), sorted(d.arcs)
    grad = [[0] * n for _ in range(n)]
    for phi in product(range(n), repeat=d.v):
        for k, (u, w) in enumerate(arcs):
            p = 1
            for kk, (x, y) in enumerate(arcs):
                if kk != k:
                    p *= a[phi[x]][phi[y]]
            grad[phi[u]][phi[w]] += p
    return grad


# a path, a cycle, the 5-arc digraph, a forest with an isolated vertex, one
# arc (entered as A^T) and the arc-free pattern
SWEEP_PATTERNS = [
    path_digraph(">><<>"),
    cycle_digraph("><>>"),
    digraph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (2, 0)]),
    digraph(5, [(1, 0), (1, 2), (3, 1)]),
    digraph(2, [(1, 0)]),
    digraph(3, []),
]


def test_reverse_sweep_matches_the_per_map_gradient():
    # exact on object stacks: Fraction hosts, one host alone and a stack of
    # two, and int rows, which the sweep runs as object ints
    hosts = [with_half_loops(random_tournament(3, seed=s)).rows() for s in (4, 5)]
    ints = tournament_stack(3)[[1, 5]]
    for d in SWEEP_PATTERNS:
        want = [per_map_gradient(d, a) for a in hosts]
        assert contract_grad(d, np.array(hosts, dtype=object)).tolist() == want
        assert contract_grad(d, np.array(hosts[0], dtype=object)).tolist() == want[0]
        got = contract_grad(d, ints)
        assert got.dtype == object
        assert got.tolist() == [per_map_gradient(d, a.tolist()) for a in ints]


def test_hom_count_matches_oracle_on_weighted_and_skew_hosts():
    b = skew_decompose(with_half_loops(random_tournament(4, seed=3)))
    d = digraph(5, [(0, 1), (1, 2), (2, 0), (3, 2), (3, 4)])
    assert hom_count(d, b).raw == hom_generic(d, b).raw
    assert hom_count(d, b.to_float()).raw == pytest.approx(float(hom_generic(d, b).raw))


def test_an_empty_raw_host_is_invalid_input():
    # host objects refuse n = 0 when built; raw rows are refused on reading
    d = path_digraph(">")
    for count in (lambda: hom_count(d, []), lambda: hom_generic(d, []),
                  lambda: hom_path(">", [])):
        with pytest.raises(InvalidInput, match="need at least one vertex"):
            count()


def map_loop(d, rows):
    """The brute-force map sum, one map at a time in pure Python, over the
    host's own entries, unscaled: the reference the integer-scaled frontier
    sum hom_generic must reproduce in value and type."""
    n = len(rows)
    arcs = sorted(d.arcs)
    total = 0
    for phi in product(range(n), repeat=d.v):
        p = 1
        for u, w in arcs:
            p = p * rows[phi[u]][phi[w]]
            if not p:
                break
        total += p
    return total


def _seeded_exact_hosts():
    """Rationalized float hosts (denominators up to 10^4), skew hosts with
    negative entries and mixed int/Fraction rows, three of each."""
    from toursid.search import rationalize_host
    from toursid.tournament import WeightedTournament, _freeze

    rng = np.random.default_rng(11)
    hosts = []
    for n in (3, 4, 4):
        b = np.triu(rng.uniform(-0.5, 0.5, (n, n)), 1)
        floats = WeightedTournament(n, _freeze((0.5 + b - b.T).tolist()))
        hosts.append(rationalize_host(floats, 10**4))
    for n in (3, 4, 4):
        ent = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                ent[i][j] = Fraction(int(rng.integers(-30, 31)), int(rng.integers(30, 61)))
                ent[j][i] = -ent[i][j]
        hosts.append(skew(ent))
    for n in (2, 3, 4):
        # ints where i + j is odd, Fractions elsewhere (the diagonal included)
        rows = [[int(rng.integers(-2, 3)) for _ in range(n)] for _ in range(n)]
        for i, j in product(range(n), repeat=2):
            if (i + j) % 2 == 0:
                rows[i][j] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 13)))
        hosts.append(rows)
    return hosts


def test_scaled_generic_matches_the_fraction_reference():
    # same value and same result type on every half-loop host n <= 4 and on
    # the seeded rational, skew and mixed hosts
    from toursid.hom import host_entries

    patterns = [path_digraph(parse_orientation(">><")), cycle_digraph(parse_orientation(">><<")),
                digraph(4, [(0, 1), (2, 1), (1, 3), (3, 0)])]
    hosts = [with_half_loops(t) for n in (1, 2, 3, 4) for t in stack_tournaments(n)]
    for host in hosts + _seeded_exact_hosts():
        rows = host_entries(host)[1]
        for d in patterns:
            got, want = hom_generic(d, host).raw, map_loop(d, rows)
            assert got == want and type(got) is type(want) is Fraction


def test_generic_matches_the_map_loop():
    # value and type against the one-map-at-a-time loop: int rows, object
    # ints past 2^63, Fractions, floats, one vertex, no arcs, n = 1, and
    # patterns whose frontier drops and regains vertices
    from itertools import combinations

    from toursid.hom import host_entries

    rng = np.random.default_rng(8)
    spread = digraph(9, [(0, 1), (1, 5), (8, 0), (4, 6), (6, 7), (7, 3), (2, 8)])
    small = [digraph(1, []), digraph(3, []), digraph(3, [(0, 2)]),
             path_digraph(parse_orientation("><<")), cycle_digraph(parse_orientation(">>>"))]
    half_loop = [with_half_loops(t) for n in (1, 2, 3, 4) for t in stack_tournaments(n)]
    big = [rng.integers(-10**12, 10**12, (n, n)).tolist() for n in (1, 2, 3)]
    big.append([[10**12] * 3] * 3)
    floats = [rng.uniform(-1, 1, (n, n)).tolist() for n in (1, 2, 3, 4)]
    cases = [(d, h) for d in small for h in half_loop + _seeded_exact_hosts() + big + floats]
    zeros = [[0.0] * 3] * 3  # every product is 0.0: still a float
    cases += [(spread, h) for h in (half_loop[10], big[2], floats[2], zeros)]  # all n = 3
    # 66 arcs on n = 2: a count near 2^78, so only object ints hold it
    transitive66 = digraph(12, list(combinations(range(12), 2)))
    cases += [(transitive66, [[2, 2], [2, 2]]), (transitive66, [[1, 2], [0, 1]])]
    # K4 minus an arc, and an in-star with its leaves listed first (width 1)
    k4_minus = digraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    in_star = digraph(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
    assert _frontier_steps(tuple(in_star.arcs), 5)[0] == 1
    cases += [(d, h) for d in (k4_minus, in_star)
              for h in half_loop + _seeded_exact_hosts() + big[:3] + floats]
    for d, host in cases:
        got, want = hom_generic(d, host).raw, map_loop(d, host_entries(host)[1])
        assert type(got) is type(want), (d, host)
        if isinstance(want, float):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
        else:
            assert got == want
    assert map_loop(transitive66, [[2, 2], [2, 2]]) == 2**78
    # entries of 10^12 push the 3-arc path past 2^63 on n = 3
    assert hom_generic(small[3], big[3]).raw == 3**4 * 10**36 > 2**63


def test_planned_contract_matches_bruteforce_and_repeats_itself():
    # the plan is cached per pattern; replaying it gives the brute force on
    # floats and the same bits on every call, the reverse sweep included
    rng = np.random.default_rng(5)
    b = np.triu(rng.uniform(-0.5, 0.5, (6, 4, 4)), 1)
    stack = 0.5 + b - np.swapaxes(b, -1, -2)
    for d in SWEEP_PATTERNS:
        brute = [hom_generic(d, h.tolist()).raw for h in stack]
        first = contract(d, stack).copy()
        assert np.allclose(first, brute, rtol=1e-12, atol=0)
        assert np.array_equal(contract(d, stack), first)
        grad = contract_grad(d, stack)
        assert np.array_equal(contract_grad(d, stack), grad)
        want = [per_map_gradient(d, h.tolist()) for h in stack]
        assert np.allclose(grad, want, rtol=1e-12, atol=1e-12)
        # Euler: h is homogeneous of degree e in A, so <A, dh/dA> = e h
        assert np.allclose((grad * stack).sum(axis=(-2, -1)), d.e * first, rtol=1e-12, atol=0)


def test_int64_object_and_fraction_kernels_agree():
    # every path with e <= 6 and every cycle with length <= 5 on every host
    # n <= 4: 2A in int64, 2A in object ints and A in Fractions give one count
    patterns = [path_digraph(Orientation(dirs))
                for e in range(1, 7) for dirs in product((1, -1), repeat=e)]
    patterns += [cycle_digraph(Orientation(dirs))
                 for ell in (3, 4, 5) for dirs in product((1, -1), repeat=ell)]
    for n in (1, 2, 3, 4):
        twice = 2 * tournament_stack(n) + np.eye(n, dtype=np.uint8)
        fractions = half_loop_stack(n)
        for d in patterns:
            fixed = contract(d, twice)
            objects = contract(d, twice.astype(object))
            exact = contract(d, fractions)
            assert fixed.dtype == np.int64 and objects.dtype == object
            assert fixed.tolist() == objects.tolist() == [2**d.e * x for x in exact]


def test_int64_guard_at_its_boundary():
    from toursid.hom import fits_int64

    assert fits_int64(2, 31, 31, 2) and not fits_int64(2, 32, 31, 2)  # 2^62 | 2^63
    assert fits_int64(1, 5, 62, 2) and not fits_int64(1, 5, 63, 2)
    assert fits_int64(3, 39, 0, 0) and not fits_int64(3, 40, 0, 0)  # 3^39 < 2^63 < 3^40
    assert fits_int64(2, 62, 5, 0) and not fits_int64(2, 63, 5, 0)  # m = 0 bounds as 1
    assert fits_int64(1, 1, 1, 2**63 - 1) and not fits_int64(1, 1, 1, 2**63)


def test_kernel_takes_object_ints_past_the_guard():
    # 11 vertices and 52 arcs on n = 2 with entries up to 2 bound the count by
    # exactly 2^63, so the kernel must leave int64; on the all-2 host the
    # count is 2^63 itself, which int64 cannot hold.  One arc fewer stays in
    # int64, and the 66-arc transitive pattern is far past the bound.
    from itertools import combinations

    arcs = list(combinations(range(11), 2))
    rng = np.random.default_rng(3)
    stack = np.concatenate([np.full((1, 2, 2), 2), rng.integers(0, 3, (5, 2, 2))])
    for d, dtype in ((digraph(11, arcs[3:]), object), (digraph(11, arcs[4:]), np.int64),
                     (digraph(12, list(combinations(range(12), 2))), object)):
        counts = contract(d, stack)
        assert counts.dtype == dtype
        assert counts.tolist() == [hom_generic(d, host.tolist()).raw for host in stack]
        assert counts[0] == 2 ** (d.v + d.e)
        assert type(hom_count(d, stack[0].tolist()).raw) is int


def test_hom_count_is_exact_on_scaled_entries_past_int64():
    # scaled by 2^64 the entries are 1, 2^63 and 2^64 - 1: numpy alone would
    # store them as float64, which loses the count
    tiny = Fraction(1, 2**64)
    host = WeightedTournament(2, ((Fraction(1, 2), tiny), (1 - tiny, Fraction(1, 2))))
    for o in (">><", "><>>"):
        d = path_digraph(parse_orientation(o))
        got = hom_count(d, host).raw
        assert type(got) is Fraction and got == hom_generic(d, host).raw == hom_path(o, host).raw


def test_numpy_integer_hosts_count_exactly_in_python_ints():
    import warnings

    small = np.array([[3, 1], [0, 3]])
    big = np.full((2, 2), 2**40, dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for host, o, want in ((small, ">>", 24), (big, ">>>", 2**124)):
            for got in (hom_count(path_digraph(o), host).raw,
                        hom_generic(path_digraph(o), host).raw,
                        hom_path(o, host).raw):
                assert type(got) is int and got == want


# Patterns whose elimination has a two-matrix step, which an exact stack runs
# as one matmul: the square, the directed 4- and 5-cycles, the directed
# 4-cycle 0 -> 1 -> 3 -> 2 -> 0 (its second step takes its second operand as
# the left one), two 5-cycles of mixed orientation, K4 minus an arc (each of
# its operands transposed in turn), and the transitive K4 with a cyclic
# triangle hung at vertex 3, whose plan also eliminates a vertex with three
# neighbours through its einsum.
MATMUL_PATTERNS = [
    digraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    cycle_digraph(">>>>"),
    digraph(4, [(0, 1), (1, 3), (3, 2), (2, 0)]),
    cycle_digraph(">>>>>"),
    cycle_digraph(">><><"),
    cycle_digraph("><<<>"),
    digraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    digraph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 3)]),
]


def _matmul_steps(d):
    return [step for step in _plan(tuple(d.arcs), d.v).steps if step[-1]]


def test_plan_marks_its_two_matrix_steps():
    assert len(_matmul_steps(MATMUL_PATTERNS[0])) == 2
    assert _matmul_steps(path_digraph(">><<>")) == []
    for d in MATMUL_PATTERNS:
        assert _matmul_steps(d), d
    # the K4 with a triangle also has a step whose result is a 3-label factor
    mixed = _plan(tuple(MATMUL_PATTERNS[-1].arcs), 6)
    assert any(len(rest) == 3 for _, _, rest, _, _ in mixed.steps)


def test_matmul_steps_match_the_brute_force():
    # every 2A + I host n <= 4 (uint8, run in int64), seeded int64 hosts at
    # n = 6 and object ints and Fractions against hom_generic
    for n in (1, 2, 3, 4):
        stack = 2 * tournament_stack(n) + np.eye(n, dtype=np.uint8)
        for d in MATMUL_PATTERNS:
            counts = contract(d, stack)
            assert counts.dtype == np.int64
            assert counts.tolist() == [hom_generic(d, h.tolist()).raw for h in stack], (d, n)
    ints = np.random.default_rng(15).integers(-3, 4, (4, 6, 6))
    fractions = half_loop_stack(3)
    for d in MATMUL_PATTERNS:
        counts = contract(d, ints)
        assert counts.dtype == np.int64
        assert counts.tolist() == [hom_generic(d, h.tolist()).raw for h in ints], d
        assert contract(d, fractions).tolist() == [hom_generic(d, h.tolist()).raw
                                                   for h in fractions], d


def test_matmul_steps_run_object_ints_past_the_guard():
    # the directed 17-cycle on n = 2 with entries up to 8: the bound is 2^68,
    # so the stack runs as object ints; the all-8 host gives 2^17 * 8^17
    from toursid.hom import fits_int64

    d = cycle_digraph(">" * 17)
    assert not fits_int64(2, d.v, d.e, 8)
    rng = np.random.default_rng(17)
    stack = np.concatenate([np.full((1, 2, 2), 8), rng.integers(-8, 9, (3, 2, 2))])
    counts = contract(d, stack)
    assert counts.dtype == object
    assert counts.tolist() == [hom_generic(d, h.tolist()).raw for h in stack]
    assert counts[0] == 2**68


def test_matmul_steps_count_fraction_hosts_through_hom_count():
    for seed in (1, 2, 3):
        t = random_tournament(5, seed=seed)
        rng = np.random.default_rng(seed)
        rows = [[Fraction(int(x), 7) for x in row] for row in rng.integers(0, 8, (5, 5))]
        for d in MATMUL_PATTERNS:
            for host in (with_half_loops(t), rows):
                got = hom_count(d, host)
                assert type(got.raw) is Fraction
                assert got == hom_generic(d, host), (d, seed)


# The float bits of contract and contract_grad on a seeded float stack,
# recorded while every float step ran as its einsum.  Matmul sums in another
# order, so sending float steps through it changes these bits and with them
# the optimizer's pinned results.
FLOAT_BITS = {
    "square": (digraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
               ['0x1.3882268f9d622p+6', '0x1.793e442346e66p+4', '0x1.0500c16664c98p+6',
                '0x1.ad47221a80588p+5', '0x1.d74ed6c70de7ap+5', '0x1.a759cc51a702ap+5'],
               "c0159b614ebee99c747cafa030d846fe27566c6dc8e9477b5d5925ff47c3ca29"),
    "cycle5": (cycle_digraph(">>>>>"),
               ['0x1.b87fb8b9e035ap+7', '0x1.374229ddfd258p+5', '0x1.6e557f3873c4bp+7',
                '0x1.f444682dedbc6p+6', '0x1.1f5424b49baf4p+7', '0x1.e5c574ed5facap+6'],
               "9a1cc52dd950dcc3d5fbdffba5ef77eb4f6a10eafef9c96abcdc1e04c2ffa355"),
}


@pytest.mark.parametrize("name", sorted(FLOAT_BITS))
def test_float_stacks_keep_their_einsum_bits(name):
    import hashlib

    d, values, grad_digest = FLOAT_BITS[name]
    a = np.random.default_rng(15).random((6, 5, 5))
    assert [float(x).hex() for x in contract(d, a)] == values
    grad = ",".join(float(x).hex() for x in contract_grad(d, a).ravel())
    assert hashlib.sha256(grad.encode()).hexdigest() == grad_digest
