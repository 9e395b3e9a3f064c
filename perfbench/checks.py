"""Output checks with the benchmark's own exact arithmetic.

Nothing here imports ``toursid``: every recount is a separate, plain
implementation, so a wrong answer in the program cannot also be wrong here
for the same reason.  A check raises ``CheckFailed``; the runner counts it.
"""

from __future__ import annotations

import functools
import json
import math
import random
import statistics
from fractions import Fraction
from itertools import product

DIRS = {">": 1, "<": -1}


class CheckFailed(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def load_json(text):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise CheckFailed(f"stdout is not JSON: {text[:80]!r}") from exc


def dirs_of(orientation):
    return [DIRS[c] for c in orientation]


def parse_weighted(text):
    """Rows of a ``wtournament n=<n>`` file as Fractions."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    expect(lines and lines[0].startswith("wtournament n="), "bad host header")
    n = int(lines[0].split("=", 1)[1])
    rows = [[Fraction(tok) for tok in lines[1 + i].split()] for i in range(n)]
    expect(all(len(r) == n for r in rows), "host rows have the wrong length")
    for i in range(n):
        expect(rows[i][i] == Fraction(1, 2), "host diagonal is not 1/2")
        for j in range(i + 1, n):
            expect(rows[i][j] + rows[j][i] == 1, "host is not a weighted tournament")
            expect(0 <= rows[i][j] <= 1, "host entry outside [0,1]")
    return rows


def brute_path_count(orientation, rows):
    """Sum over all n^v vertex maps of the product of arc weights."""
    dirs = dirs_of(orientation)
    n = len(rows)
    total = Fraction(0)
    for phi in product(range(n), repeat=len(dirs) + 1):
        p = Fraction(1)
        for i, d in enumerate(dirs):
            p *= rows[phi[i]][phi[i + 1]] if d > 0 else rows[phi[i + 1]][phi[i]]
            if not p:
                break
        total += p
    return total


def chain_path_count(orientation, rows):
    """The same count by summing over one path vertex at a time."""
    n = len(rows)
    vec = [Fraction(1)] * n
    for d in dirs_of(orientation):
        if d > 0:
            vec = [sum(vec[i] * rows[i][j] for i in range(n)) for j in range(n)]
        else:
            vec = [sum(vec[i] * rows[j][i] for i in range(n)) for j in range(n)]
    return sum(vec)


def threshold(n, v, e):
    return Fraction(n**v, 2**e)


def check_certificate(orientation, mode, claimed, host_text, sidecar_text=None):
    """Recount a certificate host and confirm it is strictly on the violating side."""
    rows = parse_weighted(host_text)
    n, v, e = len(rows), len(orientation) + 1, len(orientation)
    value = brute_path_count(orientation, rows)
    expect(value == claimed["value"], f"certificate value {claimed['value']} != recount {value}")
    bound = threshold(n, v, e)
    expect(claimed["threshold"] == bound, "certificate threshold is not n^v/2^e")
    if mode == "TAS":
        expect(value > bound, "certificate does not exceed n^v/2^e")
    else:
        expect(value < bound, "certificate is not below n^v/2^e")
    if sidecar_text is not None:
        side = load_json(sidecar_text)
        expect(Fraction(side["value"]) == value, "sidecar value differs from the recount")
        expect(Fraction(side["threshold"]) == bound, "sidecar threshold differs")


def check_verify(stdout, files, pattern, mode, survives, refuted_at=None, out=None):
    """A scan report: survives through max n, or is refuted at the stated n."""
    rep = load_json(stdout)
    expect(rep["mode"] == mode, "report mode differs")
    if survives is not None:
        expect(rep["violation"] is None, f"{rep['pattern']}: expected no violation")
        expect(rep["n_checked"] == survives, f"scan stopped at n={rep['n_checked']}")
        return
    viol = rep["violation"]
    expect(viol is not None, f"{pattern}: expected a violation at n={refuted_at}")
    expect(rep["n_checked"] == refuted_at, f"refuted at n={rep['n_checked']}, not {refuted_at}")
    expect(viol["pattern"] == pattern, "certificate names another pattern")
    want = "ViolatesTAS" if mode == "TAS" else "ViolatesTS"
    expect(viol["direction"] == want, f"direction {viol['direction']} != {want}")
    expect(out + ".wt" in files and out + ".json" in files, "certificate files missing")
    claimed = {"value": Fraction(viol["value"]), "threshold": Fraction(viol["threshold"])}
    check_certificate(pattern, mode, claimed, files[out + ".wt"], files[out + ".json"])


def check_passed(stdout):
    expect(load_json(stdout)["passed"] is True, "anchored check did not pass")


def path_window_sum(dirs, width):
    return sum(math.prod(dirs[i:i + width]) for i in range(len(dirs) - width + 1))


def cycle_window_sum(dirs, width):
    ell = len(dirs)
    if ell < width + 1:
        return 0
    return sum(math.prod(dirs[(i + t) % ell] for t in range(width)) for i in range(ell))


def own_counts(orientation, cycle):
    dirs = dirs_of(orientation)
    f = cycle_window_sum if cycle else path_window_sum
    return f(dirs, 2), f(dirs, 4)


def check_counts(stdout, orientation, cycle):
    rep = load_json(stdout)
    expect(rep["input"] == orientation, "counts echo another input")
    expect(rep["kind"] == ("cycle" if cycle else "path"), "counts kind differs")
    c3, c5 = own_counts(orientation, cycle)
    expect((rep["c_p3"], rep["c_p5"]) == (c3, c5),
           f"C(P3),C(P5) {rep['c_p3']},{rep['c_p5']} != {c3},{c5}")


def check_classify(stdout, orientation, cycle):
    """Counts recomputed; when C(P3) != 0 on a path its sign fixes the verdict."""
    rep = load_json(stdout)
    expect(rep["input"] == orientation and rep["e"] == len(orientation), "classify echo differs")
    expect(rep["verdict"] in ("LTS", "LTAS", "Neither", "Unknown", "Impartial"), "unknown verdict")
    c3, c5 = own_counts(orientation, cycle)
    expect((rep["counts"]["c_p3"], rep["counts"]["c_p5"]) == (c3, c5), "classify counts differ")
    if not cycle and len(orientation) >= 2 and c3:
        expect(rep["verdict"] == ("LTAS" if c3 > 0 else "LTS"),
               "C(P3) sign disagrees with the verdict")


def random_skew(rng, n):
    """Skew B with entries in [-1/2, 1/2], so J/2 + B is a weighted tournament."""
    b = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = Fraction(rng.randint(-16, 16), 32)
            b[i][j], b[j][i] = x, -x
    return b


def moments(b, top):
    n = len(b)
    vec = [Fraction(1)] * n
    out = {}
    for k in range(1, top + 1):
        vec = [sum(vec[i] * b[i][j] for i in range(n)) for j in range(n)]
        out[k] = sum(vec)
    return out


def eval_expansion(text, n, s):
    """Evaluate ``(p/q)*n^z*S2^a*...`` terms joined by `` + ``."""
    if text.strip() == "0":
        return Fraction(0)
    total = Fraction(0)
    for term in text.strip().split(" + "):
        factors = term.split("*")
        expect(factors[0].startswith("(") and factors[0].endswith(")"), "bad coefficient")
        val = Fraction(factors[0][1:-1])
        for f in factors[1:]:
            base, power = f.split("^")
            val *= (n if base == "n" else s[int(base[1:])]) ** int(power)
        total += val
    return total


def host_from_skew(b):
    n = len(b)
    return [[Fraction(1, 2) + b[i][j] for j in range(n)] for i in range(n)]


def check_expand(stdout, orientation, host_seed):
    """The polynomial at a seeded random rational host equals the exact path count."""
    rng = random.Random(host_seed)
    for n in (3, 4):
        b = random_skew(rng, n)
        got = eval_expansion(stdout, n, moments(b, len(orientation)))
        want = chain_path_count(orientation, host_from_skew(b))
        expect(got == want, f"expansion gives {got}, exact count {want} (n={n})")


def check_certify_sign(stdout, orientation, host_seed):
    """A certified direction must hold on seeded random hosts."""
    rep = load_json(stdout)
    expect(rep["orientation"] == orientation, "certify-sign echo differs")
    verdict = rep["verdict"]
    expect(verdict in ("CertifiedTAS", "CertifiedTS", "Unknown"), "unknown verdict")
    if verdict == "Unknown":
        return
    rng = random.Random(host_seed)
    v, e = len(orientation) + 1, len(orientation)
    for n in (2, 3, 4):
        h = chain_path_count(orientation, host_from_skew(random_skew(rng, n)))
        bound = threshold(n, v, e)
        ok = h <= bound if verdict == "CertifiedTAS" else h >= bound
        expect(ok, f"{verdict} contradicted on a random host with n={n}")


def check_fg(stdout, orientation):
    rep = load_json(stdout)
    dirs = dirs_of(orientation)
    f, g = Fraction(1), Fraction(1)
    for i in range(len(dirs)):
        balanced = i == 0 or dirs[i - 1] == dirs[i]
        f, g = (f / 2 + g, g / 2) if balanced else (g / 2 + f, f / 2)
    expect((Fraction(rep["f"]), Fraction(rep["g"])) == (f, g), "f/g differ from the recount")
    expect(Fraction(rep["total"]) == f + g and rep["steps"] == len(dirs),
           "fg total or steps differ")


def fg_log_ratios(n):
    """ln(x_n)/n for every balance sequence of an n-step f/g chain, in floats.

    The first indicator is 1 and the other n-1 are free, so the 2^(n-1)
    sequences are equally likely.
    """
    out = []
    for free in product((1, 0), repeat=n - 1):
        f, g = 1.0, 1.0
        for bal in (1,) + free:
            f, g = (0.5 * f + g, 0.5 * g) if bal else (0.5 * g + f, 0.5 * f)
        out.append(math.log((f + g) / 2.0) / n)
    return out


SAMPLE_EXACT_MAX_N = 12


def check_fg_sample(stdout, n, trials):
    """Echoes and ranges; up to n = 12 also the exact law of the chain.

    The sample mean of ln(x_n)/n and the share with x_n >= 1 must lie within
    five standard errors of their exact values over all 2^(n-1) sequences.
    """
    rep = load_json(stdout)
    expect((rep["n"], rep["trials"], rep["exhaustive"]) == (n, trials, False), "echo differs")
    expect(0.0 <= rep["frac_at_least"] <= 1.0, "fraction outside [0,1]")
    expect(math.isfinite(rep["mean_log_ratio"]), "mean log ratio is not finite")
    if n > SAMPLE_EXACT_MAX_N:
        return
    logs = fg_log_ratios(n)
    mu, sd = statistics.fmean(logs), statistics.pstdev(logs)
    p = sum(x >= 0.0 for x in logs) / len(logs)
    expect(abs(rep["mean_log_ratio"] - mu) <= 5 * sd / math.sqrt(trials) + 1e-12,
           f"mean log ratio {rep['mean_log_ratio']} is far from the exact {mu}")
    expect(abs(rep["frac_at_least"] - p) <= 5 * math.sqrt(p * (1 - p) / trials) + 1e-12,
           f"share with x_n >= 1 {rep['frac_at_least']} is far from the exact {p}")


LYAPUNOV_REF_STEPS = 200_000
LYAPUNOV_REF_BATCHES = 100


@functools.lru_cache(maxsize=None)
def lyapunov_reference(mode, beta):
    """(estimate, standard error) of the exponent from a simulation of its own.

    ``fg`` runs the f/g chain itself and ``recurrence`` the ratio
    t = x_n/x_(n-1) of x_n = x_(n-1) +- beta x_(n-2), each with batch means
    and with Python's own generator in place of numpy's.
    """
    rng = random.Random(f"{mode}:{beta}")
    batch = LYAPUNOV_REF_STEPS // LYAPUNOV_REF_BATCHES
    means = []
    if mode == "fg":
        f, g, scale, prev = 1.0, 1.0, 0.0, 0.0
        for b in range(LYAPUNOV_REF_BATCHES):
            for i in range(batch):
                if (b == 0 and i == 0) or rng.getrandbits(1):
                    f, g = 0.5 * f + g, 0.5 * g
                else:
                    f, g = 0.5 * g + f, 0.5 * f
                s = f + g
                if not 1e-100 < s < 1e100:
                    scale += math.log(s)
                    f, g = f / s, g / s
            now = scale + math.log((f + g) / 2.0)
            means.append((now - prev) / batch)
            prev = now
    else:
        t = 1.0
        for _ in range(LYAPUNOV_REF_BATCHES):
            acc = 0.0
            for _ in range(batch):
                t = 1.0 + beta / t if rng.getrandbits(1) else 1.0 - beta / t
                acc += math.log(t)
            means.append(acc / batch)
    return statistics.fmean(means), statistics.stdev(means) / math.sqrt(len(means))


def check_lyapunov(stdout, mode, steps, seed, beta=None):
    """Echoes, then the estimate against an independent simulation.

    The two must agree within five combined standard errors; the job's own
    error is read off its 95% interval.
    """
    rep = load_json(stdout)
    expect(rep["mode"] == mode and rep["steps"] == steps and rep["seed"] == seed, "echo differs")
    lo, lam, hi = rep["ci95_low"], rep["lambda_hat"], rep["ci95_high"]
    expect(all(math.isfinite(x) for x in (lo, lam, hi)), "estimate is not finite")
    expect(lo <= lam <= hi, "lambda_hat lies outside its confidence interval")
    ref, ref_se = lyapunov_reference(mode, None if beta is None else float(Fraction(beta)))
    se = (hi - lo) / (2 * 1.96)
    expect(abs(lam - ref) <= 5 * math.hypot(se, ref_se),
           f"lambda_hat {lam} is far from the independent estimate {ref} +- {ref_se}")


def check_localwalk(stdout, steps):
    rep = load_json(stdout)
    p0 = Fraction(math.comb(steps, steps // 2), 2**steps) if steps % 2 == 0 else Fraction(0)
    expect(Fraction(rep["p_zero"]) == p0, "P(walk ends at 0) differs")
    expect(Fraction(rep["p_pos"]) == Fraction(rep["p_neg"]) == (1 - p0) / 2, "tail masses differ")


def check_sparse(stdout, sizes):
    rep = load_json(stdout)
    m, k = len(sizes), sum(sizes)
    expect((rep["m"], rep["k"], rep["e"]) == (m, k, m * (m - 1) // 2), "sizes differ")
    expect(len(rep["edges"]) == rep["e"], "edge list length differs")
    expect(rep["violates"] == (k * math.log2(m) < rep["e"]), "violates flag differs")


def check_kernel(stdout, name):
    rep = load_json(stdout)
    expect(rep["name"] == name, "kernel name differs")
    b = [[Fraction(x) for x in row] for row in rep["rows"]]
    n = len(b)
    s = moments(b, 4)
    t3, t5 = Fraction(s[2], n**3), Fraction(s[4], n**5)
    expect(Fraction(rep["t_p3"]) == t3 and Fraction(rep["t_p5"]) == t5, "kernel densities differ")
    expect(Fraction(rep["t_2p3"]) == t3 * t3, "t_2P3 differs")


def check_named_certificate(stdout, files, out):
    rep = load_json(stdout)
    expect(out + ".wt" in files and out + ".json" in files, "certificate files missing")
    rows = parse_weighted(files[out + ".wt"])
    o = rep["pattern"]
    value = brute_path_count(o, rows)
    bound = threshold(len(rows), len(o) + 1, len(o))
    expect(Fraction(rep["value"]) == value, "certificate value differs from the recount")
    expect(Fraction(rep["threshold"]) == bound, "threshold is not n^v/2^e")
    want = "ViolatesTAS" if value > bound else "ViolatesTS" if value < bound else None
    expect(rep["direction"] == want, f"direction {rep['direction']} != {want}")
    expect(load_json(files[out + ".json"]) == rep, "sidecar differs from stdout")


def check_refute_report(report, pattern, mode, violation):
    """A library ``RefutationReport``; certificates are recounted by brute force."""
    if not violation:
        expect(report.violation is None, f"{report.pattern_text}: unexpected violation")
        return
    cert = report.violation
    expect(cert is not None, f"{report.pattern_text}: expected a violation")
    host = "wtournament n=%d\n" % cert.host.n + "\n".join(
        " ".join(f"{Fraction(x).numerator}/{Fraction(x).denominator}" for x in row)
        for row in cert.host.entries) + "\n"
    check_certificate(pattern, mode, {"value": cert.value, "threshold": cert.threshold}, host)


def check_exhaustive_report(report):
    expect(report.passed is True, "anchored check did not pass")
