import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest

from test_tournament import stack_tournaments
import toursid
from toursid.construct import named_kernel, w_eps
from toursid.core import Orientation
from toursid.errors import CapExceeded, EntryRangeViolated, InternalAssertionFailed
from toursid.hom import hom_path
from toursid.search import refute
from toursid.spectral import (
    CertificationResult,
    CertVerdict,
    SPolynomial,
    _mono_text,
    certify_sign,
    check_x_lemma,
    eigenvalues,
    eval_spoly,
    expand_path,
    x_form,
    x_moment,
)
from toursid.tournament import (
    random_tournament,
    skew,
    skew_decompose,
    transitive,
    with_half_loops,
)

F = Fraction


def _random_skew(n, seed, scale=0.5):
    rng = random.Random(seed)
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = rng.uniform(-scale, scale)
            rows[i][j] = x
            rows[j][i] = -x
    return skew(rows)


def _random_rational_skew(n, seed, den=8):
    rng = random.Random(seed)
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = F(rng.randint(-den // 2, den // 2), den)
            rows[i][j] = x
            rows[j][i] = -x
    return skew(rows)


# --- eigenvalues -------------------------------------------------------------


def test_eigenvalues_mbalanced():
    spec = eigenvalues(named_kernel("MBalanced").matrix.to_float())
    assert len(spec.lambdas) == 2
    assert abs(spec.lambdas[0] - math.sqrt(3)) < 1e-12
    assert abs(spec.lambdas[1]) < 1e-12


def test_eigenvalues_rotation():
    spec = eigenvalues(skew([[0.0, 0.5], [-0.5, 0.0]]))
    assert spec.lambdas == pytest.approx((0.5,))


def test_eigenvalues_zero():
    spec = eigenvalues(skew([[0.0] * 4 for _ in range(4)]))
    assert spec.lambdas == (0.0, 0.0)


def test_lmax_bounded_by_entries():
    for seed in range(5):
        b = _random_skew(9, seed)
        assert eigenvalues(b).lmax <= 9 / 2 + 1e-9


# --- x_moment ----------------------------------------------------------------


def test_x_moment_b1():
    b1 = named_kernel("B1").matrix
    assert x_moment(b1, 1) == 2  # B^2 = -I so |1^T B^2 1| = 2
    assert x_moment(b1, 0) == 2  # X_0 = n by convention


def test_x_moment_half_rotation():
    b = skew([[F(0), F(1, 2)], [F(-1, 2), F(0)]])
    assert x_moment(b, 1) == F(1, 2)


def test_x_moment_spectral_formula():
    # X_2t = sum_i c_i^2 lambda_i^(2t) with sum c_i^2 = n
    import numpy as np

    for seed in range(5):
        b = _random_skew(7, seed)
        m = np.array(b.rows())
        w, vecs = np.linalg.eigh(m @ m)
        c2 = (vecs.T @ np.ones(7)) ** 2
        lam2 = np.clip(-w, 0, None)
        for t in (1, 2, 3):
            expect = float(np.sum(c2 * lam2**t))
            assert x_moment(b, t) == pytest.approx(expect, rel=1e-9, abs=1e-9)


# --- check_x_lemma ------------------------------------------------------------


def test_x_lemma_random_float():
    for seed in range(30):
        b = _random_skew(10, seed)
        assert check_x_lemma(b, 3, 1).passed


def test_x_lemma_zero_matrix_equalities():
    b = skew([[F(0)] * 3 for _ in range(3)])
    rep = check_x_lemma(b, 2, 1)
    assert rep.passed
    assert rep.radius_bound.margin == 0
    assert rep.cauchy_schwarz.margin == 0


def test_x_lemma_scaled_mbalanced_exact():
    mb = named_kernel("MBalanced").matrix
    b = mb.scaled(F(1, 2))
    rep = check_x_lemma(b, 2, 1)
    assert rep.passed
    x2, x4, x6 = (x_moment(b, t) for t in (1, 2, 3))
    assert rep.cauchy_schwarz.margin == x2 * x6 - x4 * x4


def test_x_lemma_entry_range():
    with pytest.raises(EntryRangeViolated):
        check_x_lemma(named_kernel("MBalanced").matrix, 2, 1)


# --- expansion ----------------------------------------------------------------


def test_expand_two_edges():
    # h = n^3/4 - 1^T B^2 1
    p = expand_path("><")
    assert p.as_dict() == {(3, ()): F(1, 4), (0, (2,)): F(-1)}


def test_expand_single_edge():
    assert expand_path(">").as_dict() == {(2, ()): F(1, 2)}


def test_expand_one_flip_four_edges():
    p = expand_path("><<<")
    assert p.as_dict() == {(5, ()): F(1, 16), (2, (2,)): F(1, 4), (0, (4,)): F(-1)}


# X-form coefficients of the eleven displayed one-to-three-flip expansions
APPENDIX_X_FORMS = {
    "><<<": {(5, ()): F(1, 16), (2, (2,)): F(-1, 4), (0, (4,)): F(-1)},
    ">><<": {(5, ()): F(1, 16), (2, (2,)): F(-1, 4), (0, (4,)): F(1)},
    # the X2^2 coefficient here is pinned by the exact evaluator (the
    # eval-equals-hom tests below); -1 in place of -1/2 fails on e.g. B1/2
    "><<<<": {(6, ()): F(1, 32), (3, (2,)): F(-1, 4), (0, (2, 2)): F(-1, 2)},
    ">><<<": {(6, ()): F(1, 32), (3, (2,)): F(-1, 4), (0, (2, 2)): F(1, 2)},
    "><<<<<": {
        (7, ()): F(1, 64),
        (4, (2,)): F(-3, 16),
        (1, (2, 2)): F(-1, 4),
        (2, (4,)): F(1, 4),
        (0, (6,)): F(1),
    },
    ">><<<<": {
        (7, ()): F(1, 64),
        (4, (2,)): F(-3, 16),
        (1, (2, 2)): F(1, 4),
        (2, (4,)): F(1, 4),
        (0, (6,)): F(-1),
    },
    ">>><<<": {
        (7, ()): F(1, 64),
        (4, (2,)): F(-3, 16),
        (1, (2, 2)): F(3, 4),
        (2, (4,)): F(-1, 4),
        (0, (6,)): F(1),
    },
    "><<<<<<": {
        (8, ()): F(1, 128),
        (5, (2,)): F(-1, 8),
        (3, (4,)): F(1, 4),
        (0, (2, 4)): F(1),
    },
    ">><<<<<": {
        (8, ()): F(1, 128),
        (5, (2,)): F(-1, 8),
        (2, (2, 2)): F(1, 4),
        (3, (4,)): F(1, 4),
        (0, (2, 4)): F(-1),
    },
    ">>><<<<": {
        (8, ()): F(1, 128),
        (5, (2,)): F(-1, 8),
        (2, (2, 2)): F(1, 2),
    },
    "><<<<<<<": {
        (9, ()): F(1, 256),
        (6, (2,)): F(-5, 64),
        (3, (2, 2)): F(1, 8),
        (4, (4,)): F(3, 16),
        (0, (2, 2, 2)): F(1, 4),
        (1, (2, 4)): F(1, 2),
        (2, (6,)): F(-1, 4),
        (0, (8,)): F(-1),
    },
}


@pytest.mark.parametrize("text", sorted(APPENDIX_X_FORMS))
def test_expand_matches_displayed_x_forms(text):
    got = {k: c for k, c in x_form(expand_path(text)).items() if c}
    assert got == APPENDIX_X_FORMS[text]


def test_expansion_degree_identity():
    for e in range(1, 9):
        for dirs in list(product((1, -1), repeat=e))[:: max(1, e)]:
            p = expand_path(Orientation(dirs))
            for (z, runs), _ in p.terms:
                assert z + sum(r + 1 for r in runs) == p.v
                assert all(r % 2 == 0 and r >= 2 for r in runs)


def test_expansion_reversal_invariant():
    for text in ("><<<", ">><><", "><>><<"):
        o = Orientation(tuple(1 if c == ">" else -1 for c in text))
        assert expand_path(o).as_dict() == expand_path(o.reversed_path()).as_dict()


def test_expand_cap():
    with pytest.raises(CapExceeded):
        expand_path(">" * 25)


def _expand_oracle(o: Orientation) -> SPolynomial:
    """The expansion DP in Fractions: a B step multiplies a coefficient by d
    and a gap by 1/2 (the reference for expand_path's scaled integers)."""
    half = F(1, 2)
    state = {((), 0, 0): F(1)}
    for d in o.dirs:
        nxt = {}

        def add(key, val):
            if val:
                nxt[key] = nxt.get(key, F(0)) + val

        for (runs, zeros, open_run), coeff in state.items():
            add((runs, zeros, open_run + 1), coeff * d)
            if open_run == 0:
                add((runs, zeros + 1, 0), coeff * half)
            elif open_run % 2 == 0:
                add((tuple(sorted(runs + (open_run,))), zeros, 0), coeff * half)
        state = nxt
    terms = {}
    for (runs, zeros, open_run), coeff in state.items():
        if open_run == 0:
            zeros += 1
        elif open_run % 2 == 0:
            runs = tuple(sorted(runs + (open_run,)))
        else:
            continue
        terms[(zeros, runs)] = terms.get((zeros, runs), F(0)) + coeff
    frozen = tuple(sorted(((k, c) for k, c in terms.items() if c), key=lambda kv: kv[0]))
    return SPolynomial(o.v, o.e, frozen)


def test_expansion_matches_the_fraction_oracle():
    rng = random.Random(1124)
    orientations = [Orientation(dirs) for e in range(1, 11) for dirs in product((1, -1), repeat=e)]
    for _ in range(40):
        e = rng.randint(11, 24)
        orientations.append(Orientation(tuple(rng.choice((1, -1)) for _ in range(e))))
    for o in orientations:
        p = expand_path(o)
        assert p == _expand_oracle(o), o
        assert all(type(c) is F for _, c in p.terms)


def test_to_text_stable():
    txt = expand_path("><<<").to_text()
    assert txt == "(1/16)*n^5*S2^0*S4^0 + (1/4)*n^2*S2^1*S4^0 + (-1/1)*n^0*S2^0*S4^1"


# --- eval_spoly ---------------------------------------------------------------


def test_eval_matches_hom_exhaustive():
    hosts = []
    for n in range(1, 5):
        hosts.extend(with_half_loops(t) for t in stack_tournaments(n))
    polys = {}
    for e in range(1, 7):
        for dirs in product((1, -1), repeat=e):
            polys[dirs] = expand_path(Orientation(dirs))
    mismatches = 0
    for dirs, poly in polys.items():
        o = Orientation(dirs)
        for host in hosts:
            b = skew_decompose(host)
            if eval_spoly(poly, b) != hom_path(o, host).raw:
                mismatches += 1
    assert mismatches == 0


def test_eval_on_random_rational_kernels():
    for seed in range(40):
        b = _random_rational_skew(5, seed)
        host = w_eps(b, 1)
        for text in (">>><", "><><", "><<<<"):
            assert eval_spoly(expand_path(text), b) == hom_path(text, host).raw


def test_eval_zero_kernel_gives_benchmark():
    b = skew([[F(0)] * 3 for _ in range(3)])
    for text in (">><", "><><>"):
        p = expand_path(text)
        assert eval_spoly(p, b) == F(3**p.v, 2**p.e)



def test_eval_counts_only_the_moments_the_terms_hold(monkeypatch):
    count, asked = toursid.spectral.hom_count, []

    def recording(d, host):
        asked.append(d.e)
        return count(d, host)

    monkeypatch.setattr(toursid.spectral, "hom_count", recording)
    b = _random_rational_skew(4, 3)
    for text in ("><<<", "><><>", ">>>>>><", "><<<<<<<<"):
        p = expand_path(text)
        asked.clear()
        value = eval_spoly(p, b)
        assert asked == p.indices() and len(asked) < max(asked)
        assert value == hom_path(text, w_eps(b, 1)).raw

# --- certify_sign ---------------------------------------------------------------


def test_certify_two_edge_ts():
    assert certify_sign(expand_path("><")).verdict is CertVerdict.CERTIFIED_TS


def test_certify_one_flip_family():
    for e in range(3, 8):
        for flip_at in range(1, e):
            text = ">" * flip_at + "<" * (e - flip_at)
            res = certify_sign(expand_path(text))
            assert res.verdict is CertVerdict.CERTIFIED_TAS, text


def test_certify_one_flip_eight_edges_unknown():
    res = certify_sign(expand_path("><<<<<<<"))
    assert res.verdict is CertVerdict.UNKNOWN


def test_certify_trace_is_nonempty():
    res = certify_sign(expand_path(">><<"))
    assert res.trace
    assert any("cancel" in line or "residual" in line for line in res.trace)


TABLE1 = {
    ">": "Impartial",
    "><": "TS",
    ">>": "TAS",
    ">>>": "TAS",
    "<>>": "Impartial",
    "<><": "TS",
    ">>>>": "TAS",
    ">>><": "TAS",
    ">><>": "TS",
    ">><<": "TAS",
    "><><": "TS",
    "><<>": "TS",
    ">>>>>": "TAS",
    ">>>><": "TAS",
    ">>><>": "TAS",
    ">><>>": "TAS",
    ">>><<": "TAS",
    ">><><": "TS",
    "><>><": "TS",
    "<>>><": "TAS",
    ">><<>": "TS",
    "><><>": "TS",
}


def _frozen_reachable_factor(src, dst):
    """A frozen copy of spectral._reachable_factor: the rational part of the
    factor bounding the X-multiset src by dst through moves (iii) and (iv),
    found breadth first, or None."""
    if sum(dst) > sum(src) or len(dst) > len(src):
        return None
    target = tuple(sorted(dst))
    seen = {tuple(sorted(src))}
    frontier = [tuple(sorted(src))]
    while frontier:
        nxt = []
        for cur in frontier:
            if cur == target:
                return Fraction(1, 2 ** (sum(src) - sum(dst)))
            for i, a in enumerate(cur):
                rest = cur[:i] + cur[i + 1 :]
                for bnew in range(0, a, 2):  # (iii): a -> bnew, 0 drops the factor
                    cand = tuple(sorted(rest + (bnew,))) if bnew else rest
                    if cand not in seen and sum(cand) >= sum(target) and len(cand) >= len(target):
                        seen.add(cand)
                        nxt.append(cand)
                for j in range(i + 1, len(cur)):  # (iv) on equal pairs
                    if cur[j] != a:
                        continue
                    rest2 = tuple(x for k, x in enumerate(cur) if k not in (i, j))
                    for u in range(2, a + 1, 2):
                        lo, hi = a - u, a + u
                        cand = tuple(sorted(rest2 + ((lo,) if lo else ()) + (hi,)))
                        if cand not in seen and len(cand) >= len(target):
                            seen.add(cand)
                            nxt.append(cand)
        frontier = nxt
    return None


def _eliminate_oracle(terms, bad_sign, trace, depth=0):
    """The certifier's backtracking search with no pruning and no memo, on
    its own frozen reachability search, so it shares no search code with
    the certifier."""
    if depth > 64:
        return False
    bads = [k for k, c in terms.items() if (c > 0) == (bad_sign > 0)]
    if not bads:
        return True
    rank = lambda k: (max(k[1], default=0), sorted(k[1], reverse=True), k[0])  # noqa: E731
    worst = max(bads, key=rank)
    coeff = terms[worst]
    goods = sorted((k for k, c in terms.items() if (c > 0) != (bad_sign > 0)), key=rank,
                   reverse=True)
    for gz, gruns in goods:
        frac = _frozen_reachable_factor(worst[1], gruns)
        if frac is None:
            continue
        moved = coeff * frac
        nxt = dict(terms)
        del nxt[worst]
        nxt[(gz, gruns)] = nxt.get((gz, gruns), F(0)) + moved
        if nxt[(gz, gruns)] == 0:
            del nxt[(gz, gruns)]
        if _eliminate_oracle(nxt, bad_sign, trace, depth + 1):
            trace.insert(0, f"bound {_mono_text(worst, coeff)} by "
                            f"{_mono_text((gz, gruns), moved)} and cancel")
            return True
    return False


def _certify_oracle(p):
    residual = x_form(p)
    bench = residual.pop((p.v, ()), None)
    assert bench == F(1, 2**p.e)
    residual = {k: c for k, c in residual.items() if c}
    if not residual:
        return CertificationResult(
            CertVerdict.CERTIFIED_TAS, ("residual is identically zero (equality)",))
    for bad_sign, verdict, last in (
        (+1, CertVerdict.CERTIFIED_TAS, "all positive monomials absorbed; residual <= 0"),
        (-1, CertVerdict.CERTIFIED_TS, "all negative monomials absorbed; residual >= 0"),
    ):
        trace = []
        if _eliminate_oracle(dict(residual), bad_sign, trace):
            return CertificationResult(verdict, (*trace, last))
    return CertificationResult(CertVerdict.UNKNOWN, ("no greedy certificate in either direction",))


# found by the transport decision and missed by the backtracking search
TRANSPORT_ONLY_TAS = (">>><<>><>>", ">><>><<>>>", "<<><<>><<<", "<<<>><<><<")


def test_certifier_finds_every_certificate_of_the_unpruned_search():
    # the transport decision is complete, so it keeps every verdict of the
    # backtracking search; its plans may split a coefficient, so traces differ
    texts = [Orientation(dirs) for e in range(1, 11) for dirs in product((1, -1), repeat=e)]
    texts += [">><<>><<>><<", "><<<><<>>>><"]
    verdicts, gained = set(), []
    for o in texts:
        p = expand_path(o)
        got, greedy = certify_sign(p).verdict, _certify_oracle(p).verdict
        if greedy is not CertVerdict.UNKNOWN:
            assert got is greedy, o
        elif got is not CertVerdict.UNKNOWN:
            assert got is CertVerdict.CERTIFIED_TAS, o
            gained.append(str(o))
        verdicts.add(got)
    assert verdicts == set(CertVerdict)
    assert sorted(gained) == sorted(TRANSPORT_ONLY_TAS)


@pytest.mark.parametrize("text", TRANSPORT_ONLY_TAS)
def test_transport_only_verdicts_survive_the_exhaustive_scan(text):
    assert certify_sign(expand_path(text)).verdict is CertVerdict.CERTIFIED_TAS
    assert refute(text, "TAS", n_max=6).violation is None


@pytest.mark.parametrize("text", ["><<<<<<<", "<<<>><>><>", "<<>><<<>><"])
def test_uncertifiable_paths_stay_unknown(text):
    # the last two have optimizer-found violating weighted hosts (TS, TAS)
    res = certify_sign(expand_path(text))
    assert res == CertificationResult(
        CertVerdict.UNKNOWN, ("no greedy certificate in either direction",))


_LINE = re.compile(r"bound \((\S+)\)\*n\^(\d+)\*(\S+) by \((\S+)\)\*n\^(\d+)\*(\S+) and cancel")


def _moves_closure(runs):
    """Every X-multiset reachable from runs by moves (iii) and (iv)."""
    seen, todo = {runs}, [runs]
    while todo:
        cur = todo.pop()
        for i, a in enumerate(cur):
            rest = cur[:i] + cur[i + 1:]
            out = [rest + (b,) for b in range(2, a, 2)] + [rest]  # (iii), down to X_0
            if a in rest:  # (iv) on a pair (a, a)
                j = rest.index(a)
                pair_rest = rest[:j] + rest[j + 1:]
                out += [pair_rest + (a - u, a + u) for u in range(2, a, 2)]
                out.append(pair_rest + (2 * a,))
            for m in out:
                m = tuple(sorted(m))
                if m not in seen:
                    seen.add(m)
                    todo.append(m)
    return seen


def _check_plan(p, res):
    """Recheck a certificate's trace against the residual, line by line."""
    residual = {k: c for k, c in x_form(p).items() if c and k != (p.v, ())}
    bad_sign = 1 if res.verdict is CertVerdict.CERTIFIED_TAS else -1
    shares, absorbed = {}, {}
    for line in res.trace[:-1]:
        m = _LINE.fullmatch(line)
        assert m, line
        c, z, xs, d, zg, gs = m.groups()
        b = (int(z), tuple(int(x[1:]) for x in xs.split("*")))
        g = (int(zg), tuple(int(x[1:]) for x in gs.split("*")))
        c, d = F(c), F(d)
        assert residual[b] * bad_sign > 0 and residual[g] * bad_sign < 0, line
        assert c * bad_sign > 0 and g[1] in _moves_closure(b[1]), line
        assert d == c / 2 ** (sum(b[1]) - sum(g[1])), line
        assert g[0] - b[0] == sum(r + 1 for r in b[1]) - sum(r + 1 for r in g[1]), line
        shares[b] = shares.get(b, 0) + c
        absorbed[g] = absorbed.get(g, 0) + d
    assert shares == {b: c for b, c in residual.items() if c * bad_sign > 0}
    assert all(abs(d) <= abs(residual[g]) for g, d in absorbed.items())


def test_every_certificate_plan_is_valid():
    checked = 0
    for e in range(1, 11):
        for dirs in product((1, -1), repeat=e):
            p = expand_path(Orientation(dirs))
            res = certify_sign(p)
            if res.verdict is not CertVerdict.UNKNOWN and len(res.trace) > 1:
                _check_plan(p, res)
                checked += 1
    assert checked > 500


def test_certify_rejects_a_wrong_benchmark_term():
    p = expand_path(">><<")
    bad = SPolynomial(p.v, p.e, tuple((k, c * 2 if k == (p.v, ()) else c) for k, c in p.terms))
    with pytest.raises(InternalAssertionFailed):
        certify_sign(bad)


def test_certify_sign_verdicts_hold_under_python_O():
    # -O strips asserts: removing the benchmark term must not sit inside one
    src = os.path.dirname(os.path.dirname(os.path.abspath(toursid.__file__)))
    code = ("import sys; from toursid.cli import main; "
            "[main(['certify-sign', o, '--json']) for o in sys.argv[1:]]")
    proc = subprocess.run([sys.executable, "-O", "-c", code, ">><<", ">>>>"],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, check=True)
    verdicts = [json.loads(line)["verdict"] for line in proc.stdout.splitlines()]
    assert verdicts == ["CertifiedTAS", "CertifiedTAS"]


def test_certifier_never_wrong_direction_on_short_paths():
    for text, status in TABLE1.items():
        verdict = certify_sign(expand_path(text)).verdict
        if status == "TS":
            assert verdict is not CertVerdict.CERTIFIED_TAS or _is_impartial(text)
        if status == "TAS":
            assert verdict is not CertVerdict.CERTIFIED_TS


def _is_impartial(text):
    # impartial rows have an identically-zero residual, where either verdict
    # is a true statement
    p = expand_path(text)
    residual = {k: c for k, c in x_form(p).items() if c}
    residual.pop((p.v, ()), None)
    return not residual
