import math
from fractions import Fraction

import pytest

from toursid.construct import (
    CertDirection,
    SparseConstruction,
    ab_construction,
    certificate,
    named_kernel,
    sparse_non_tas,
    tensor_density,
    tensor_power,
    w_eps,
)
from toursid.core import digraph
from toursid.errors import (
    InvalidDelta,
    NotSkewForEvenPower,
    RangeViolated,
    UnknownName,
    ValidityConditionViolated,
)
from toursid.hom import hom_cycle, hom_generic, hom_path, t_kernel_cycle, t_kernel_path
from toursid.tournament import parse_weighted_text, format_weighted_text

F = Fraction

THRESHOLD = F(3**7, 2**6)  # the six-edge benchmark 2187/64


def test_named_kernels_exact():
    assert named_kernel("B1").matrix.entries == ((0, 1), (-1, 0))
    assert named_kernel("BPrime").matrix.entries == ((0, 1, -1), (-1, 0, 0), (1, 0, 0))
    assert named_kernel("MBalanced").matrix.entries == (
        (0, 1, -1),
        (-1, 0, 1),
        (1, -1, 0),
    )
    with pytest.raises(UnknownName):
        named_kernel("nope")


def test_b1_densities():
    b1 = named_kernel("B1").matrix
    assert t_kernel_path(b1, 4) == F(1, 16)
    assert t_kernel_path(b1, 2) ** 2 == F(1, 16)


def test_mbalanced_row_sums():
    mb = named_kernel("MBalanced").matrix
    assert all(sum(row) == 0 for row in mb.entries)


def test_tensor_identity():
    b1 = named_kernel("B1").matrix
    assert tensor_power(b1, 1) == b1


def test_tensor_even_power_rejected():
    with pytest.raises(NotSkewForEvenPower):
        tensor_power(named_kernel("B1").matrix, 2)


def test_tensor_cube_p3_density():
    b1 = named_kernel("B1").matrix
    cube = tensor_power(b1, 3)
    assert cube.n == 8
    assert t_kernel_path(cube, 2) == F(-1, 4) ** 3
    assert t_kernel_path(cube, 2) == tensor_density(b1, 3, ("path", 2))


def test_tensor_multiplicativity_bprime():
    bp = named_kernel("BPrime").matrix
    for m in (1, 2, 3, 4):
        assert tensor_density(bp, m, ("path", 4)) == t_kernel_path(bp, 4) ** m
    cube = tensor_power(bp, 3)
    assert t_kernel_path(cube, 4) == t_kernel_path(bp, 4) ** 3
    assert t_kernel_cycle(cube, 4) == t_kernel_cycle(bp, 4) ** 3


def test_ab_construction_identity():
    for a in (0.25, 0.5, 1.0):
        for b in (F(1, 256), F(1, 64)):
            if 2 * math.sqrt(b) * (math.sqrt(a) + math.sqrt(1 - a)) >= 0.5:
                continue
            kb = ab_construction(a, b)
            for k in range(1, 7):
                expect = (-1) ** k * a * float(b) ** k
                assert t_kernel_path(kb, 2 * k) == pytest.approx(expect, abs=1e-10)


def test_ab_construction_examples():
    kb = ab_construction(1, F(1, 100))
    assert t_kernel_path(kb, 2) == pytest.approx(-0.01, abs=1e-12)
    kb2 = ab_construction(0.5, F(1, 100))
    assert t_kernel_path(kb2, 4) == pytest.approx(0.5 * 0.01**2, abs=1e-12)


def test_ab_construction_validity():
    with pytest.raises(ValidityConditionViolated):
        ab_construction(1, F(1, 4))


def test_transitive_certificate():
    cert = certificate("TransitiveTriangle")
    assert cert.direction is CertDirection.VIOLATES_TAS
    assert cert.value == F(2307, 64)
    assert cert.value > THRESHOLD
    assert abs(float(cert.value) - 36.05) <= 0.02


def test_perturbed_cyclic_certificate():
    cert = certificate("PerturbedCyclic")
    assert cert.direction is CertDirection.VIOLATES_TS
    assert cert.value < THRESHOLD
    assert abs(float(cert.value) - 34.17178) <= 1e-4


def test_pure_cyclic_sits_on_the_benchmark():
    cert = certificate("PerturbedCyclic", delta=0)
    assert cert.direction is None
    assert cert.value == THRESHOLD


def test_certificate_bad_delta():
    with pytest.raises(InvalidDelta):
        certificate("PerturbedCyclic", delta=F(3, 2))


def test_certificate_independent_of_path_evaluator():
    from toursid.core import path_digraph

    cert = certificate("TransitiveTriangle")
    d = path_digraph(cert.pattern)
    assert hom_generic(d, cert.host).raw == cert.value


def test_certificate_serialization_round_trip():
    cert = certificate("TransitiveTriangle")
    again = parse_weighted_text(format_weighted_text(cert.host))
    assert again == cert.host


def test_w_eps_balanced_cycle_identity():
    # for a balanced kernel only the full-cycle term survives:
    # t_C(W_eps) = 2^-l + (-1)^t eps^l t_C_l(B)
    mb = named_kernel("MBalanced").matrix
    eps = F(1, 4)
    w = w_eps(mb, eps)
    for t_flips, dirs in ((0, ">>>>"), (1, ">>><")):
        got = hom_cycle(dirs, w).density
        expect = F(1, 16) + (-1) ** t_flips * eps**4 * t_kernel_cycle(mb, 4)
        assert got == expect


def test_w_eps_zero_gives_benchmark():
    b1 = named_kernel("B1").matrix
    w = w_eps(b1, 0)
    for text in (">>", "><>"):
        assert hom_path(text, w).density == F(1, 2 ** len(text))


def test_w_eps_entries():
    w = w_eps(named_kernel("B1").matrix, F(1, 4))
    flat = {x for row in w.entries for x in row}
    assert flat == {F(1, 4), F(1, 2), F(3, 4)}


def test_w_eps_range():
    with pytest.raises(RangeViolated):
        w_eps(named_kernel("B1").matrix, F(3, 4))


def test_sparse_nine_units():
    sc = sparse_non_tas([1] * 9)
    assert (sc.m, sc.k, sc.e) == (9, 9, 36)
    assert sc.violates  # 9 log2 9 = 28.53 < 36


def test_sparse_four_pairs():
    sc = sparse_non_tas([2, 2, 2, 2])
    assert (sc.m, sc.k, sc.e) == (4, 8, 6)
    assert not sc.violates


def test_sparse_violation_boundary_is_exact():
    # 16^30 = 2^120 only ties the benchmark; one vertex fewer beats it
    tie = sparse_non_tas([2] * 14 + [1] * 2)
    assert (tie.m, tie.k, tie.e) == (16, 30, 120)
    assert not tie.violates
    beat = sparse_non_tas([2] * 13 + [1] * 3)
    assert (beat.m, beat.k, beat.e) == (16, 29, 120)
    assert beat.violates


def test_sparse_violation_bracket_equals_the_exact_power():
    # every m in 2..60 with k in m..3m vertices and e = m(m-1)/2 edges
    for m in range(2, 61):
        e = m * (m - 1) // 2
        for k in range(m, 3 * m + 1):
            assert SparseConstruction((), (), m, k, e).violates == (m**k < 2**e), (m, k)
    # 1000 parts of 1000: decided by the bracket, with no 10^6-digit power
    assert not SparseConstruction((), (), 1000, 10**6, 499_500).violates


def test_sparse_two_units():
    sc = sparse_non_tas([1, 1])
    assert sc.e == 1 and not sc.violates


def test_sparse_quotient_homomorphism():
    import random

    sc = sparse_non_tas([2, 1, 3, 1])
    part_of = {}
    for k, part in enumerate(sc.parts):
        for x in part:
            part_of[x] = k
    rng = random.Random(0)
    for _ in range(100):
        arcs = []
        for u, w in sc.edges:
            arcs.append((u, w) if rng.random() < 0.5 else (w, u))
        d = digraph(sc.k, arcs)
        # contracting parts maps each arc to a distinct ordered part pair
        quotient = {(part_of[u], part_of[w]) for u, w in d.arcs}
        assert len(quotient) == sc.e
        assert all(p != q for p, q in quotient)
        seen_pairs = {frozenset(p) for p in quotient}
        assert len(seen_pairs) == sc.e  # a tournament on the parts


def test_sparse_density_beats_benchmark():
    # orient the 9-part construction arbitrarily; the quotient map itself is a
    # homomorphism into the induced 9-vertex tournament, so the density is at
    # least 9^-9, which beats the 2^-36 benchmark
    import random

    sc = sparse_non_tas([1] * 9)
    rng = random.Random(1)
    arcs = []
    for u, w in sc.edges:
        arcs.append((u, w) if rng.random() < 0.5 else (w, u))
    d = digraph(9, arcs)
    adj = [[0] * 9 for _ in range(9)]
    for u, w in d.arcs:
        adj[u][w] = 1
    from toursid.tournament import Tournament, _freeze

    host = Tournament(9, _freeze(adj))
    assert all(host.adj[u][w] for u, w in d.arcs)  # identity map contributes 1
    assert F(1, 9**9) > F(1, 2**36)
