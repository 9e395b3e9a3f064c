"""The four workloads as lists of jobs.

A job runs the CLI in-process (``argv``) or, where the CLI cannot reach,
one library call (``call``).  ``{tmp}`` in an argument is replaced by the
pass's scratch directory, so every pass writes its own files.  ``check``
receives the job's output after the timed phase and raises ``CheckFailed``.

The scans have fixed inputs because they are exhaustive.  The seed drives
the certifying optimizer probe and the session's job contents; sizes are
fixed per job slot, so the work per pass changes little from seed to seed.
Every pass of a run repeats the same jobs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import checks

WORKLOADS = ("scan-path", "scan-digraph", "optimize", "session")

PATTERN_FILES = {
    # non-forest: evaluated by the brute-force hom_generic
    "square.dg": "digraph v=4\n0 1\n1 2\n2 3\n0 3\n",
    "cycle5.dg": "digraph v=5\n0 1\n1 2\n2 3\n3 4\n4 0\n",
    # forest: evaluated by the tree DP hom_forest
    "tree6.dg": "digraph v=6\n0 1\n2 1\n1 3\n3 4\n5 3\n",
    "p2.dg": "digraph v=3\n0 1\n1 2\n",
    "p4a.dg": "digraph v=4\n0 1\n1 2\n2 3\n",
    "p4b.dg": "digraph v=4\n0 1\n2 1\n2 3\n",
}


@dataclass
class Job:
    label: str
    check: Callable
    argv: list | None = None
    call: Callable | None = None
    outputs: list = field(default_factory=list)  # --out prefixes, relative to {tmp}
    rerun: bool = False  # seeded job re-run after timing for byte-identical stdout


def _cli(label, argv, check, outputs=(), rerun=False):
    return Job(label, check, argv=list(argv), outputs=list(outputs), rerun=rerun)


def _verify(pattern, n, survives=None, refuted_at=None, out=None):
    argv = ["verify", "--mode", "tas", "--pattern", pattern, "--max-n", str(n), "--json"]
    if out:
        argv += ["--out", "{tmp}/" + out]
    return _cli(
        f"verify {pattern} n<={n}", argv,
        lambda r: checks.check_verify(r.stdout, r.files, pattern, "TAS", survives,
                                      refuted_at, out),
        outputs=[out] if out else [],
    )


def scan_path(seed, small=False):
    n = 4 if small else 5
    return [
        _verify(">>><<", n, survives=n),
        _verify("><><<<", n, refuted_at=4, out="cert-a"),
        _verify(">>><><", n, refuted_at=4, out="cert-b"),
    ]


def scan_digraph(seed, small=False):
    from toursid import core, trees

    def verify_file(name, n):
        return _cli(f"verify {name} n<={n}",
                    ["verify", "--mode", "tas", "--pattern-file", "{pat}/" + name,
                     "--max-n", str(n), "--json"],
                    lambda r, n=n: checks.check_verify(r.stdout, r.files, None, "TAS", n))

    def strong(name, anchors, n):
        return _cli(f"strong-tas {name} I={anchors} n<={n}",
                    ["strong-tas", "--file", "{pat}/" + name, "--independent", anchors,
                     "--max-n", str(n)],
                    lambda r: checks.check_passed(r.stdout))

    def amgm(label, h, w, n):
        return Job(f"amgm {label} n<={n}",
                   lambda r: checks.check_exhaustive_report(r.value),
                   call=lambda: trees.amgm_check(h, w, n))

    big, mid = (3, 3) if small else (5, 4)
    return [
        verify_file("square.dg", big),
        verify_file("cycle5.dg", mid),
        verify_file("tree6.dg", big),
        strong("p2.dg", "1", big),
        strong("p4a.dg", "0,2", big),
        strong("p4b.dg", "1", big),
        amgm("K1", core.digraph(1, []), 0, big),
        amgm("arc", core.digraph(2, [(0, 1)]), 1, big),
        amgm("P2", core.digraph(3, [(0, 1), (1, 2)]), 1, big),
    ]


def optimize(seed, small=False):
    """Four ``search.refute`` probes, called directly to reach optimizer n > 6.

    A TAS probe's time swings by 10-25% with its seed, since each start runs
    until it converges or reaches 200 steps, and a run holds only four or
    five passes.  So the TAS probes use fixed seeds, as the scans use fixed
    inputs, and only the cheap TS probe, the one that certifies, takes its
    seed from ``seed``.
    """
    from toursid import core, search

    square = core.digraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    # (pattern, mode, optimizer n, restarts, optimizer seed, finds a violation)
    probes = [
        (">>><<", "TAS", 10, 32, 1, False),
        (">>>><<<<>", "TAS", 8, 32, 2, False),
        (square, "TAS", 5, 4, 3, False),
        ("><>>><", "TS", 3, 16, random.Random(seed).randrange(1 << 30), True),
    ]
    if small:
        probes = [(p, m, min(n, 4), 2, s, v) for p, m, n, b, s, v in probes]
    jobs = []
    for pattern, mode, n_opt, budget, s, violation in probes:
        name = pattern if isinstance(pattern, str) else "square"
        jobs.append(Job(
            f"refute {name} {mode} N={n_opt} B={budget} seed={s}",
            lambda r, p=pattern, m=mode, v=violation: checks.check_refute_report(r.value, p, m, v),
            call=lambda p=pattern, m=mode, n=n_opt, b=budget, s=s: search.refute(
                p, m, n_max=1, budget=b, seed=s, optimizer_n=n),
            rerun=violation,  # the cheap probe, and the one that certifies
        ))
    return jobs


def _orientation(rng, e):
    return "".join(rng.choice("<>") for _ in range(e))


# A fixed 12-edge orientation: 12-edge certify-sign calls have a heavy
# seed-dependent tail (up to seconds each), so one fixed input keeps that
# size in every pass without making pass time depend on the seed.
CERTIFY_FIXED = ">><<>><<>><<"


def session(seed, small=False):
    """122 short CLI jobs with fixed sizes per slot and seeded contents."""
    rng = random.Random(seed)
    jobs = []
    scale = 10 if small else 1

    def add(label, argv, check, outputs=(), rerun=False):
        jobs.append(_cli(label, argv, check, outputs, rerun))

    for e in (2, 4, 5, 6, 8, 9, 10, 12, 13, 14):  # v = e + 1 is not 0 mod 4
        o = _orientation(rng, e)
        add(f"classify-path {o}", ["classify-path", o, "--json"],
            lambda r, o=o: checks.check_classify(r.stdout, o, cycle=False))
        add(f"counts {o}", ["counts", o, "--json"],
            lambda r, o=o: checks.check_counts(r.stdout, o, cycle=False))
    for ell in (3, 5, 6, 7, 9, 10, 11, 13, 14, 15):  # length is not 0 mod 4
        o = _orientation(rng, ell)
        add(f"classify-cycle {o}", ["classify-cycle", o, "--json"],
            lambda r, o=o: checks.check_classify(r.stdout, o, cycle=True))
        add(f"counts --cycle {o}", ["counts", o, "--cycle", "--json"],
            lambda r, o=o: checks.check_counts(r.stdout, o, cycle=True))
    for e in range(2, 25, 2):
        o = _orientation(rng, e)
        host_seed = rng.randrange(1 << 30)
        add(f"expand {o}", ["expand", o],
            lambda r, o=o, h=host_seed: checks.check_expand(r.stdout, o, h))
    for e in (4, 5, 6, 7, 8, 9, 10, 11, 4, 6, 8, 12):
        o = CERTIFY_FIXED if e == 12 else _orientation(rng, e)
        host_seed = rng.randrange(1 << 30)
        add(f"certify-sign {o}", ["certify-sign", o, "--json"],
            lambda r, o=o, h=host_seed: checks.check_certify_sign(r.stdout, o, h))
    for e in (1, 3, 5, 8, 12, 16, 20, 25, 30, 40):
        o = _orientation(rng, e)
        add(f"fg {o}", ["fg", "--orientation", o], lambda r, o=o: checks.check_fg(r.stdout, o))
    for n, trials in ((10, 100), (20, 1000), (50, 5000), (100, 10000), (200, 10000), (400, 2000)):
        trials //= scale
        s = rng.randrange(1 << 30)
        add(f"fg --sample {n} {trials}", ["fg", "--sample", str(n), str(trials), "--seed", str(s)],
            lambda r, n=n, t=trials: checks.check_fg_sample(r.stdout, n, t), rerun=n == 100)
    for mode in ("recurrence", "fg"):
        for steps in (10**6, 10**5, 10**5, 10**4, 10**4):
            steps //= scale
            s = rng.randrange(1 << 30)
            argv = ["lyapunov", "--mode", mode, "--steps", str(steps), "--seed", str(s)]
            beta = None
            if mode == "recurrence":
                beta = f"{rng.randint(1, 16)}/64"
                argv += ["--beta", beta]
            add(f"lyapunov {mode} {steps}", argv,
                lambda r, m=mode, st=steps, s=s, b=beta: checks.check_lyapunov(
                    r.stdout, m, st, s, b),
                rerun=steps == 10**4)
    for _ in range(10):
        steps = rng.randint(1, 300)
        add(f"localwalk {steps}", ["localwalk", "--steps", str(steps)],
            lambda r, st=steps: checks.check_localwalk(r.stdout, st))
    for m in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12):
        sizes = [rng.randint(1, 3) for _ in range(m)]
        parts = ",".join(map(str, sizes))
        add(f"sparse {parts}", ["sparse", "--parts", parts],
            lambda r, sz=sizes: checks.check_sparse(r.stdout, sz))
    for name in ("B1", "BPrime", "MBalanced") * 2:
        add(f"kernels {name}", ["kernels", name, "--json"],
            lambda r, nm=name: checks.check_kernel(r.stdout, nm))
    for k in range(6):
        out = f"named-{k}"
        argv = ["certificate", "TransitiveTriangle", "--out", "{tmp}/" + out]
        if k % 2:
            argv[1:2] = ["PerturbedCyclic", "--delta", f"{rng.randint(1, 100)}/1000"]
        add(" ".join(argv[:4]), argv,
            lambda r, out=out: checks.check_named_certificate(r.stdout, r.files, out),
            outputs=[out])
    return jobs


JOB_LISTS = {
    "scan-path": scan_path,
    "scan-digraph": scan_digraph,
    "optimize": optimize,
    "session": session,
}


def build(name, seed, small=False):
    return JOB_LISTS[name](seed, small)
