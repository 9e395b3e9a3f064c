"""Acceptance suite: one check per numbered criterion, each printing a
PASS/FAIL line (run with -s to see them inline).

Three sub-assertions carry reference values that the independent oracles in
this repository contradict; they are kept as stated, isolated in their own
test functions (suffixed labels), and are expected to stay red:

  1-D2      the seven-edge fixture triple (0, -2, 2) -- the window and
            subset-scan oracles both give (-2, -2, 2), and an exhaustive
            scan shows no seven-edge orientation attains (0, -2, 2)
  4-BPrime  the 3x3 kernel's densities 1/8 and 1/16 -- the matrix pinned
            alongside them forces 4/243 and 4/729
  5-display the five-edge one-flip expansion's X2^2 coefficient -1 -- exact
            evaluation forces -1/2 (see test_spectral for the witness)

Everything else must pass at the stated tolerances.
"""

import math
import random
import time
from fractions import Fraction
from itertools import product

import numpy as np

from test_tournament import stack_tournaments
from toursid.classify import Verdict, classify_cycle, classify_path
from toursid.construct import (
    CertDirection,
    ab_construction,
    certificate,
    named_kernel,
    sparse_non_tas,
    tensor_density,
    tensor_power,
)
from toursid.core import Orientation, alternating_cycle, digraph, tree
from toursid.errors import PreconditionViolated
from toursid.hom import hom_path, t_kernel_cycle, t_kernel_path
from toursid.search import MODE_TAS, MODE_TS, certify, refute
from toursid.signed import path_counts, walk_fractions
from toursid.spectral import (
    CertVerdict,
    certify_sign,
    check_x_lemma,
    eigenvalues,
    eval_spoly,
    expand_path,
    x_form,
)
from toursid.stochastic import (
    fg_process,
    lyapunov_estimate,
    ratio_chain,
    resolve_beta_star,
    sample_fg,
)
from toursid.tournament import (
    cutnorm_bruteforce,
    skew,
    skew_decompose,
    with_half_loops,
)
from toursid.trees import (
    PROV_UNKNOWN,
    amgm_check,
    orient_caterpillar,
    orient_tree_tas,
    strong_tas_check,
)

F = Fraction

D1 = ">>>>><><>"
D2 = ">><>><>"
SIX_EDGE = "><>>><"
BENCH_6 = F(3**7, 2**6)

TAS_ROWS = [">>", ">>>", ">>>>", ">>><", ">><<", ">>>>>", ">>>><", ">>><>",
            ">><>>", ">>><<", "<>>><"]
TS_ROWS = ["><", "<><", ">><>", "><><", "><<>", ">><><", "><>><", ">><<>", "><><>"]
IMPARTIAL_ROWS = [">", "<>>"]


def report(label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {label}: {status}{suffix}")
    assert ok, f"criterion {label} failed{suffix}"


# --- 1. signed-count fixtures --------------------------------------------------


def test_criterion_1_signed_counts():
    t0 = time.monotonic()
    ok = path_counts(D1).triple() == (0, 2, -11)
    for ell in range(6, 13):
        c = path_counts(">" * (ell - 1))
        ok &= c.c_p3 == ell - 2
        ok &= c.c_p5 == ell - 4
        ok &= c.c_2p3 == math.comb(ell - 4, 2)
    elapsed = time.monotonic() - t0
    report("1", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_1_d2_reference_triple():
    got = path_counts(D2).triple()
    report("1-D2", got == (0, -2, 2), f"computed {got}")


# --- 2. classifier fixtures -----------------------------------------------------


def test_criterion_2_classifier_fixtures():
    t0 = time.monotonic()
    ok = classify_path(D1).verdict is Verdict.NEITHER
    ok &= classify_path(">>>>>").verdict is Verdict.LTAS
    ok &= classify_path("><").verdict is Verdict.LTS
    for k in (5, 7):
        text = ">" * k + "<>" * ((k - 1) // 2)
        ok &= classify_path(text).verdict is Verdict.NEITHER
    ok &= classify_cycle(">>>>>").verdict is Verdict.LTAS
    ok &= classify_cycle(">>>>>>>").verdict is Verdict.LTAS
    sub = alternating_cycle(6).subdivided(3)
    ok &= classify_cycle(sub).verdict is Verdict.NEITHER
    try:
        classify_path(D2)
        ok = False
    except PreconditionViolated:
        pass
    elapsed = time.monotonic() - t0
    report("2", ok and elapsed < 1.0, f"{elapsed:.3f}s")


# --- 3. counterexample certificates -----------------------------------------------


def test_criterion_3_certificates():
    t0 = time.monotonic()
    tas = certificate("TransitiveTriangle")
    ts = certificate("PerturbedCyclic")
    ok = tas.direction is CertDirection.VIOLATES_TAS
    ok &= tas.value > BENCH_6  # exact comparison
    ok &= abs(float(tas.value) - 36.05) <= 0.02
    ok &= ts.direction is CertDirection.VIOLATES_TS
    ok &= ts.value < BENCH_6
    ok &= abs(float(ts.value) - 34.17178) <= 1e-4
    ok &= tas.host.is_exact and ts.host.is_exact
    elapsed = time.monotonic() - t0
    report("3", ok and elapsed < 1.0, f"{elapsed:.3f}s")


# --- 4. kernel fixtures -----------------------------------------------------------


def test_criterion_4_kernels():
    b1 = named_kernel("B1").matrix
    mb = named_kernel("MBalanced").matrix
    ok = t_kernel_path(b1, 4) == F(1, 16)
    ok &= t_kernel_path(b1, 2) ** 2 == F(1, 16)
    spec = eigenvalues(mb.to_float())
    ok &= abs(spec.lambdas[0] - math.sqrt(3)) <= 1e-12
    ok &= abs(spec.lambdas[1]) <= 1e-12
    ok &= t_kernel_cycle(mb, 4) == F(2, 9)
    ok &= t_kernel_cycle(mb, 6) == F(-2, 27)
    for a in (0.25, 0.5, 1.0):
        for b in (F(1, 256), F(1, 64)):
            kb = ab_construction(a, b)
            for k in range(1, 7):
                got = t_kernel_path(kb, 2 * k)
                ok &= abs(got - (-1) ** k * a * float(b) ** k) <= 1e-10
    bp = named_kernel("BPrime").matrix
    cube = tensor_power(bp, 3)
    for pattern in (("path", 2), ("path", 4), ("cycle", 4)):
        fn = t_kernel_path if pattern[0] == "path" else t_kernel_cycle
        ok &= fn(cube, pattern[1]) == fn(bp, pattern[1]) ** 3
        ok &= tensor_density(bp, 4, pattern) == fn(bp, pattern[1]) ** 4
    report("4", bool(ok))


def test_criterion_4_bprime_reference_densities():
    bp = named_kernel("BPrime").matrix
    t5 = t_kernel_path(bp, 4)
    t23 = t_kernel_path(bp, 2) ** 2
    report("4-BPrime", t5 == F(1, 8) and t23 == F(1, 16), f"computed {t5}, {t23}")


# --- 5. expansion suite --------------------------------------------------------


# the eleven displayed expansions, x-variable coefficients keyed by
# (n power, multiset of indices); the "><<<<" entry is as printed
DISPLAYED = {
    "><<<": {(5, ()): F(1, 16), (2, (2,)): F(-1, 4), (0, (4,)): F(-1)},
    ">><<": {(5, ()): F(1, 16), (2, (2,)): F(-1, 4), (0, (4,)): F(1)},
    "><<<<": {(6, ()): F(1, 32), (3, (2,)): F(-1, 4), (0, (2, 2)): F(-1)},
    ">><<<": {(6, ()): F(1, 32), (3, (2,)): F(-1, 4), (0, (2, 2)): F(1, 2)},
    "><<<<<": {(7, ()): F(1, 64), (4, (2,)): F(-3, 16), (1, (2, 2)): F(-1, 4),
               (2, (4,)): F(1, 4), (0, (6,)): F(1)},
    ">><<<<": {(7, ()): F(1, 64), (4, (2,)): F(-3, 16), (1, (2, 2)): F(1, 4),
               (2, (4,)): F(1, 4), (0, (6,)): F(-1)},
    ">>><<<": {(7, ()): F(1, 64), (4, (2,)): F(-3, 16), (1, (2, 2)): F(3, 4),
               (2, (4,)): F(-1, 4), (0, (6,)): F(1)},
    "><<<<<<": {(8, ()): F(1, 128), (5, (2,)): F(-1, 8), (3, (4,)): F(1, 4),
                (0, (2, 4)): F(1)},
    ">><<<<<": {(8, ()): F(1, 128), (5, (2,)): F(-1, 8), (2, (2, 2)): F(1, 4),
                (3, (4,)): F(1, 4), (0, (2, 4)): F(-1)},
    ">>><<<<": {(8, ()): F(1, 128), (5, (2,)): F(-1, 8), (2, (2, 2)): F(1, 2)},
    "><<<<<<<": {(9, ()): F(1, 256), (6, (2,)): F(-5, 64), (3, (2, 2)): F(1, 8),
                 (4, (4,)): F(3, 16), (0, (2, 2, 2)): F(1, 4), (1, (2, 4)): F(1, 2),
                 (2, (6,)): F(-1, 4), (0, (8,)): F(-1)},
}


def test_criterion_5_expansion_suite():
    t0 = time.monotonic()
    ok = True
    for text, expected in DISPLAYED.items():
        if text == "><<<<":
            continue  # as-printed value checked separately below
        got = {k: c for k, c in x_form(expand_path(text)).items() if c}
        ok &= got == expected
    # the two-edge expansion from the worked example: n^3/4 - 1^T B^2 1
    ok &= expand_path("><").as_dict() == {(3, ()): F(1, 4), (0, (2,)): F(-1)}
    mism = 0
    hosts = []
    for n in range(1, 5):
        hosts.extend(with_half_loops(t) for t in stack_tournaments(n))
    pairs = [(w, skew_decompose(w)) for w in hosts]
    for e in range(1, 7):
        for dirs in product((1, -1), repeat=e):
            o = Orientation(dirs)
            poly = expand_path(o)
            for w, b in pairs:
                if eval_spoly(poly, b) != hom_path(o, w).raw:
                    mism += 1
    elapsed = time.monotonic() - t0
    report("5", ok and mism == 0 and elapsed < 10.0, f"{mism} mismatches, {elapsed:.1f}s")


def test_criterion_5_displayed_five_edge_one_flip():
    got = {k: c for k, c in x_form(expand_path("><<<<")).items() if c}
    report("5-display", got == DISPLAYED["><<<<"], f"computed {sorted(got.items())}")


# --- 6. mechanical certifier -----------------------------------------------------


def test_criterion_6_certifier():
    ok = True
    for e in range(3, 8):
        for flip_at in range(1, e):
            text = ">" * flip_at + "<" * (e - flip_at)
            ok &= certify_sign(expand_path(text)).verdict is CertVerdict.CERTIFIED_TAS
    ok &= certify_sign(expand_path("><")).verdict is CertVerdict.CERTIFIED_TS
    ok &= certify_sign(expand_path("><<<<<<<")).verdict is CertVerdict.UNKNOWN
    for text in TS_ROWS:
        v = certify_sign(expand_path(text)).verdict
        ok &= v is not CertVerdict.CERTIFIED_TAS
    for text in TAS_ROWS:
        v = certify_sign(expand_path(text)).verdict
        ok &= v is not CertVerdict.CERTIFIED_TS
    report("6", ok)


# --- 7. moment-lemma property suite ------------------------------------------------


def _random_skew_float(n, rng, scale=0.5):
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = rng.uniform(-scale, scale)
            rows[i][j] = x
            rows[j][i] = -x
    return skew(rows)


def test_criterion_7_moment_lemma():
    rng = random.Random(20240)
    failures = 0
    for _ in range(1000):
        n = rng.randint(2, 20)
        b = _random_skew_float(n, rng)
        s = rng.randint(1, 3)
        t = rng.randint(0, s)
        if not check_x_lemma(b, s, t).passed:
            failures += 1
    for seed in range(200):
        n = 3 + seed % 13
        b = _random_skew_float(n, random.Random(seed))
        for k in (1, 2, 3):
            tp = t_kernel_path(b, 2 * k)
            tc = t_kernel_cycle(b, 2 * k) if 2 * k >= 4 else 0.0
            good = (tp <= 1e-12 and tc <= 1e-12) if k % 2 else (tp >= -1e-12 and tc >= -1e-12)
            failures += not good
        t5, t3 = t_kernel_path(b, 4), t_kernel_path(b, 2)
        failures += not (t5 >= t3 * t3 >= -1e-15)
    mb = named_kernel("MBalanced").matrix
    failures += t_kernel_path(mb, 2) != 0
    failures += t_kernel_path(named_kernel("B1").matrix, 2) == 0
    # projecting out the row sums balances any skew matrix
    braw = _random_skew_float(8, rng)
    srow = [sum(row) for row in braw.rows()]
    rows = [
        [braw.entries[i][j] - (srow[i] - srow[j]) / 8 for j in range(8)]
        for i in range(8)
    ]
    bbal = skew([[x / 2 for x in row] for row in rows])
    failures += abs(t_kernel_path(bbal, 2)) > 1e-15
    report("7", failures == 0, f"{failures} failures")


# --- 8. local perturbation and cut-norm sandwich -------------------------------------


def _np_path_density(dirs, a):
    n = a.shape[0]
    vec = np.ones(n)
    for d in dirs:
        vec = vec @ a if d > 0 else vec @ a.T
    return float(vec.sum()) / n ** (len(dirs) + 1)


def test_criterion_8_wedge_perturbation():
    rng = random.Random(512)
    n = 6
    kernels = []
    for _ in range(500):
        b = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                b[i, j] = rng.uniform(-0.5, 0.5)
                b[j, i] = -b[i, j]
        lmax = float(np.max(np.abs(np.linalg.eigvalsh(1j * b).real)))
        target = 1e-3 * n
        if lmax > 0:
            b *= target / lmax
        kernels.append(b)
    pos_patterns, neg_patterns = [], []
    while len(pos_patterns) < 20 or len(neg_patterns) < 20:
        e = rng.randint(3, 11)
        dirs = tuple(rng.choice((1, -1)) for _ in range(e))
        c3 = path_counts(Orientation(dirs)).c_p3
        if c3 > 0 and len(pos_patterns) < 20:
            pos_patterns.append(dirs)
        elif c3 < 0 and len(neg_patterns) < 20:
            neg_patterns.append(dirs)
    bad = 0
    for dirs in pos_patterns:
        bench = 2.0 ** -len(dirs)
        for b in kernels:
            bad += not (_np_path_density(dirs, 0.5 + b) <= bench + 1e-15)
    for dirs in neg_patterns:
        bench = 2.0 ** -len(dirs)
        for b in kernels:
            bad += not (_np_path_density(dirs, 0.5 + b) >= bench - 1e-15)
    # cut-norm sandwich on 100 random kernels with entries in [-1/2, 1/2]
    for seed in range(100):
        m = 4 + seed % 9  # sizes 4..12
        bs = _random_skew_float(m, random.Random(1000 + seed))
        cut = cutnorm_bruteforce(bs)
        lmax = eigenvalues(bs).lmax
        bad += not (m * cut <= lmax + 1e-9)
        bad += not (lmax <= m * math.sqrt(2 * cut) + 1e-9)
    report("8", bad == 0, f"{bad} failures")


# --- 9. localwalk exactness ------------------------------------------------------


def test_criterion_9_localwalk():
    ok = True
    for e in range(2, 14):
        n = e - 1
        lts = ltas = zero = 0
        for dirs in product((1, -1), repeat=e):
            c3 = path_counts(Orientation(dirs)).c_p3
            zero += c3 == 0
            lts += c3 < 0
            ltas += c3 > 0
        if n % 2 == 1:
            ok &= zero == 0 and lts == ltas == 2 ** (e - 1)
        else:
            ok &= F(zero, 2**e) == walk_fractions(n).p_zero
            ok &= lts == ltas == (2**e - zero) // 2
    report("9", ok)


# --- 10. stochastic suite ---------------------------------------------------------


def test_criterion_10_stochastic():
    from toursid.tournament import WeightedTournament, _freeze

    t0 = time.monotonic()
    k_host = WeightedTournament(2, _freeze([[F(1, 2), F(1)], [F(0), F(1, 2)]]))
    ok = True
    for e in range(1, 13):
        acc = 0
        for dirs in product((1, -1), repeat=e):
            st = fg_process(dirs)
            ok &= st.total == hom_path(Orientation(dirs), k_host).raw
            acc += st.total
        ok &= acc == 2 * 2**e  # exact martingale mean
    ok &= resolve_beta_star(12) == F(1, 4)

    t_lyap = time.monotonic()
    est = lyapunov_estimate("recurrence", steps=10**7, seed=1, beta=F(1, 8))
    lyap_elapsed = time.monotonic() - t_lyap
    ok &= abs(est.lambda_hat - (-0.0083)) <= 0.003
    ok &= lyap_elapsed < 60.0

    fg_est = lyapunov_estimate("fg", steps=2 * 10**6, seed=2)
    ok &= fg_est.ci95_high < 0
    ok &= abs(fg_est.lambda_hat - (-0.043)) <= 0.004  # pinned long-run value

    tail = sample_fg(10**5, 400, seed=3)
    ok &= tail.frac_at_least < 0.01

    rc = ratio_chain(F(1, 8), 10**6, seed=4)
    ok &= rc.all_inside

    ok &= -F(1, 8) ** 2 / (2 * F(9, 2)) == -F(1, 576)
    elapsed = time.monotonic() - t0
    report("10", ok, f"{elapsed:.1f}s, lambda(1/8)={est.lambda_hat:.5f}, "
                     f"lambda(fg)={fg_est.lambda_hat:.5f}")


# --- 11. trees suite --------------------------------------------------------------


WORKED = tree(12, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                   (1, 6), (2, 7), (2, 8), (2, 9), (3, 10), (3, 11)])
WORKED_ARCS = {(0, 1), (2, 1), (2, 3), (3, 4), (4, 5),
               (1, 6), (7, 2), (2, 8), (9, 2), (3, 10), (11, 3)}
TREE_123 = tree(7, [(0, 1), (1, 2), (2, 6), (2, 3), (3, 4), (4, 5)])
FIGURE_123_ARCS = [(0, 1), (1, 2), (2, 6), (3, 2), (4, 3), (5, 4)]
TREE_234 = tree(10, [(0, 1), (1, 2), (0, 3), (3, 4), (4, 5), (0, 6), (6, 7), (7, 8), (8, 9)])


def test_criterion_11_trees():
    t0 = time.monotonic()
    ok = set(orient_caterpillar(WORKED).arcs) == WORKED_ARCS

    produced = orient_tree_tas(TREE_123)
    ok &= produced.arcs is not None
    rep1 = refute(produced.as_digraph(), MODE_TAS, n_max=5)
    ok &= rep1.violation is None
    rep2 = refute(digraph(7, FIGURE_123_ARCS), MODE_TAS, n_max=5)
    ok &= rep2.violation is None

    ok &= orient_tree_tas(TREE_234).provenance == PROV_UNKNOWN

    ok &= strong_tas_check(digraph(3, [(0, 1), (1, 2)]), [1], n_max=5).passed
    ok &= not strong_tas_check(digraph(2, [(0, 1)]), [0], n_max=5).passed
    ok &= amgm_check(digraph(1, []), 0, n_max=4).passed
    ok &= amgm_check(digraph(2, [(0, 1)]), 1, n_max=4).passed

    sc = sparse_non_tas([1] * 9)
    ok &= sc.violates
    rng = random.Random(0)
    part_of = {x: k for k, part in enumerate(sc.parts) for x in part}
    for _ in range(100):
        arcs = [(u, w) if rng.random() < 0.5 else (w, u) for u, w in sc.edges]
        d = digraph(sc.k, arcs)
        quotient = {(part_of[u], part_of[w]) for u, w in d.arcs}
        ok &= len(quotient) == sc.e and all(p != q for p, q in quotient)
    elapsed = time.monotonic() - t0
    report("11", ok and elapsed < 300.0, f"{elapsed:.1f}s")


# --- 12. refutation controls --------------------------------------------------------


def test_criterion_12_refutation_controls():
    t0 = time.monotonic()
    ok = True
    for text in TAS_ROWS + IMPARTIAL_ROWS:
        ok &= refute(text, MODE_TAS, n_max=5).violation is None
    for text in TS_ROWS + IMPARTIAL_ROWS:
        ok &= refute(text, MODE_TS, n_max=5).violation is None

    found = refute(SIX_EDGE, MODE_TAS, n_max=3)
    ok &= found.violation is not None
    ok &= found.violation.value > found.violation.threshold
    ok &= (certify(SIX_EDGE, certificate("TransitiveTriangle").host).direction
           is CertDirection.VIOLATES_TAS)

    ts_opt = refute(SIX_EDGE, MODE_TS, n_max=3, budget=1, seed=0)
    ok &= ts_opt.violation is not None
    ok &= ts_opt.violation.direction is CertDirection.VIOLATES_TS
    ok &= ts_opt.violation.value < BENCH_6
    elapsed = time.monotonic() - t0
    report("12", ok and elapsed < 900.0, f"{elapsed:.1f}s")
