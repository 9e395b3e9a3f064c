"""Command-line surface.

Every subcommand is scriptable: identical inputs and seeds produce
byte-identical output, exact values serialize as "p/q" strings, results go
to stdout and structured errors to stderr.  Every handler prints through
_emit (lyapunov --csv writes its own rows) and returns nothing; main decides
the exit code: 0 success, 1 domain error, 2 usage error (from argparse).

Each command handler imports the modules it runs when it first runs, and the
parser holds no library objects, so starting the program loads only the
command in use: the classifiers, `counts`, `localwalk` and `fg --orientation`
run without numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import CapExceeded, InvalidInput, ToursidError


def _frac(x) -> str:
    f = Fraction(x)
    try:
        return f"{f.numerator}/{f.denominator}"
    except ValueError:  # past Python's int-to-str digit limit
        raise CapExceeded(
            f"exact value has more than {sys.get_int_max_str_digits()} digits"
        ) from None


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(args, payload, lines=None) -> None:
    """The text lines, if there are any and --json is not set; else payload as one JSON line."""
    if lines and not args.json:
        sys.stdout.write("".join(line + "\n" for line in lines))
    else:
        sys.stdout.write(_json_line(payload))


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"{path} is not UTF-8 text: {exc}") from None


def _parse(convert, text: str, flag: str):
    """convert(text), with a malformed value reported as InvalidInput."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidInput(f"bad value {text!r} for {flag}") from None


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")] if text else []


def _cmd_classify(args) -> None:
    from . import classify

    res = getattr(classify, args.classify)(args.orientation, best_effort=args.best_effort)
    head = res.input_text
    if res.flips is not None:
        head = f"cycle {head} (flips={res.flips})"
    _emit(args, res.to_json_dict(), [f"{head}: {res.verdict.value} [{res.rule}]"])


def _cmd_counts(args) -> None:
    from dataclasses import asdict

    from . import signed

    if args.cycle:
        c = signed.cycle_counts(args.orientation)
    else:
        c = signed.path_counts(args.orientation)
    payload = {"input": args.orientation, "kind": "cycle" if args.cycle else "path", **asdict(c)}
    _emit(args, payload, [
        f"C(P3)={c.c_p3} C(P5)={c.c_p5} C(2P3)={c.c_2p3} "
        f"min_k={c.min_k} C(P_2k+1)={c.c_min_k}"
    ])


def _load_host(args):
    from .tournament import Tournament, _parse_host, with_half_loops

    host = _parse_host(_read_file(args.host_file))
    if isinstance(host, Tournament) and not args.no_loops:
        return with_half_loops(host)
    return host


def _cmd_hom(args) -> None:
    from . import core, hom

    host = _load_host(args)
    if args.float_backend:
        host = [[float(x) for x in row] for row in hom.host_entries(host)[1]]
    if args.pattern_cycle:
        res = hom.hom_cycle(args.pattern_cycle, host)
        label = f"cycle {args.pattern_cycle}"
    elif args.pattern_file:
        d = core.parse_digraph_text(_read_file(args.pattern_file))
        res = hom.hom_count(d, host)
        label = f"digraph v={d.v}"
    else:
        res = hom.hom_path(args.pattern_path, host)
        label = f"path {args.pattern_path}"
    raw, dens = res.raw, res.density
    if isinstance(raw, (Fraction, int)):
        payload = {"pattern": label, "h": _frac(raw), "t": _frac(dens)}
    else:
        payload = {"pattern": label, "h": raw, "t": dens}
    _emit(args, payload, [f"h = {payload['h']}", f"t = {payload['t']}"])


def _cmd_expand(args) -> None:
    from . import spectral

    p = spectral.expand_path(args.orientation)
    terms = [
        {"n_power": z, "s_indices": list(runs), "coeff": _frac(c)}
        for (z, runs), c in p.terms
    ]
    _emit(args, {"orientation": args.orientation, "v": p.v, "e": p.e, "terms": terms},
          [p.to_text()])


def _cmd_certify_sign(args) -> None:
    from . import spectral

    p = spectral.expand_path(args.orientation)
    res = spectral.certify_sign(p)
    _emit(args, {
        "orientation": args.orientation,
        "verdict": res.verdict.value,
        "trace": list(res.trace),
    }, [res.verdict.value] + [f"  {line}" for line in res.trace])


def _cmd_kernels(args) -> None:
    from . import construct, hom

    k = construct.named_kernel(args.name)
    t_p3 = hom.t_kernel_path(k.matrix, 2)
    payload = {
        "name": k.name,
        "n": k.matrix.n,
        "rows": [[_frac(x) for x in row] for row in k.matrix.entries],
        "t_p3": _frac(t_p3),
        "t_p5": _frac(hom.t_kernel_path(k.matrix, 4)),
        "t_2p3": _frac(t_p3**2),
    }
    _emit(args, payload, [f"{k.name}: n={k.matrix.n}"] +
          [" ".join(_frac(x) for x in row) for row in k.matrix.entries] +
          [f"t_P3={payload['t_p3']} t_P5={payload['t_p5']} t_2P3={payload['t_2p3']}"])


def _write_certificate(prefix: str, cert) -> None:
    """The certificate's host as prefix.wt and its sidecar as prefix.json."""
    from .tournament import format_weighted_text

    with open(prefix + ".wt", "w", encoding="utf-8") as fh:
        fh.write(format_weighted_text(cert.host))
    with open(prefix + ".json", "w", encoding="utf-8") as fh:
        fh.write(_json_line(cert.to_json_dict()))


def _cmd_certificate(args) -> None:
    from . import construct

    delta = _parse(Fraction, args.delta, "--delta") if args.delta is not None else Fraction(1, 100)
    cert = construct.certificate(args.name, delta=delta)
    if args.out:
        _write_certificate(args.out, cert)
    _emit(args, cert.to_json_dict())


def _cmd_verify(args) -> None:
    from . import core, search

    mode = args.mode.upper()
    if args.pattern_file:
        pattern = core.parse_digraph_text(_read_file(args.pattern_file))
    else:
        pattern = args.pattern
    if args.budget and args.seed is None:
        raise ToursidError("--seed is required when the optimizer budget is nonzero")
    report = search.refute(
        pattern, mode, n_max=args.max_n, budget=args.budget, seed=args.seed or 0
    )
    if args.out and report.violation is not None:
        _write_certificate(args.out, report.violation)
    out = [f"pattern {report.pattern_text} mode {mode}: "
           + ("violation found" if report.violation else "no violation")]
    if report.violation:
        out.append(json.dumps(report.violation.to_json_dict(), sort_keys=True))
    _emit(args, report.to_json_dict(), out)


def _cmd_orient_tree(args) -> None:
    from . import core, trees

    t = core.parse_tree_text(_read_file(args.file))
    res = trees.orient_tree_tas(t)
    if res.arcs is None:
        _emit(args, {"provenance": res.provenance, "arcs": None})
        return
    payload = {
        "provenance": res.provenance,
        "arcs": [[u, w] for u, w in sorted(res.arcs)],
    }
    _emit(args, payload, [core.format_digraph_text(res.as_digraph()).rstrip("\n"),
                          f"provenance: {res.provenance}"])


def _cmd_iso_pair(args) -> None:
    from . import core, trees

    t = core.parse_tree_text(_read_file(args.file))
    pair = trees.find_isomorphic_pair(t)
    if pair is None:
        _emit(args, {"found": False})
    else:
        _emit(args, {
            "found": True,
            "v": pair.v,
            "w": pair.w,
            "h1": sorted(pair.h1),
            "h2": sorted(pair.h2),
            "phi": [[a, b] for a, b in pair.phi],
        })


def _cmd_strong_tas(args) -> None:
    from . import core, trees

    d = core.parse_digraph_text(_read_file(args.file))
    i_set = _parse(_ints, args.independent, "--independent")
    rep = trees.strong_tas_check(d, i_set, n_max=args.max_n)
    payload = {"passed": rep.passed, "checked": rep.checked}
    if rep.counterexample:
        ce = dict(rep.counterexample)
        ce["bound"] = _frac(ce["bound"])
        ce["adj"] = [list(r) for r in ce["adj"]]
        ce["embedding"] = [list(p) for p in ce["embedding"]]
        payload["counterexample"] = ce
    _emit(args, payload)


def _cmd_lyapunov(args) -> None:
    from . import stochastic

    beta = _parse(Fraction, args.beta, "--beta") if args.beta is not None else None
    est = stochastic.lyapunov_estimate(
        args.mode, steps=args.steps, seed=args.seed, beta=beta, batches=args.batches
    )
    if args.csv:
        batch_len = args.steps // args.batches
        sys.stdout.write("batch,steps,lambda_hat\n")
        for i, m in enumerate(est.batch_means):
            sys.stdout.write(f"{i},{batch_len},{m!r}\n")
        return
    d = est.to_json_dict()
    if d["beta"] is not None:
        d["beta"] = _frac(Fraction(args.beta))
    _emit(args, d)


def _cmd_fg(args) -> None:
    from . import stochastic

    if args.sample:
        n, trials = args.sample
        if args.seed is None and not args.exhaustive:
            raise ToursidError("--seed is required for Monte Carlo sampling")
        summary = stochastic.sample_fg(n, trials, seed=args.seed, exhaustive=args.exhaustive)
        payload = {
            "n": summary.n,
            "trials": summary.trials,
            "exhaustive": summary.exhaustive,
            "mean_log_ratio": summary.mean_log_ratio,
            "median_log_ratio": summary.median_log_ratio,
            "frac_at_least": summary.frac_at_least,
        }
        if isinstance(summary.mean_total, Fraction):
            payload["mean_total"] = _frac(summary.mean_total)
        else:
            payload["mean_total"] = summary.mean_total
        _emit(args, payload)
        return
    st = stochastic.fg_process(args.orientation or "")
    _emit(args, {
        "orientation": args.orientation or "",
        "f": _frac(st.f),
        "g": _frac(st.g),
        "total": _frac(st.total),
        "steps": st.i,
    })


def _cmd_localwalk(args) -> None:
    from . import signed

    w = signed.walk_fractions(args.steps)
    _emit(args, {
        "steps": args.steps,
        "p_zero": _frac(w.p_zero),
        "p_pos": _frac(w.p_pos),
        "p_neg": _frac(w.p_neg),
    })


def _cmd_sparse(args) -> None:
    from . import construct

    sizes = _parse(_ints, args.parts, "--parts")
    sc = construct.sparse_non_tas(sizes)
    _emit(args, {
        "m": sc.m,
        "k": sc.k,
        "e": sc.e,
        "violates": sc.violates,
        "edges": [[u, w] for u, w in sc.edges],
        "parts": [list(p) for p in sc.parts],
    })


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="toursid", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--json", action="store_true")

    for name in ("classify-path", "classify-cycle"):
        p = sub.add_parser(name)
        p.add_argument("orientation")
        p.add_argument("--best-effort", action="store_true")
        common(p)
        p.set_defaults(fn=_cmd_classify, classify=name.replace("-", "_"))

    p = sub.add_parser("counts")
    p.add_argument("orientation")
    p.add_argument("--cycle", action="store_true")
    common(p)
    p.set_defaults(fn=_cmd_counts)

    p = sub.add_parser("hom")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--pattern-path")
    g.add_argument("--pattern-cycle")
    g.add_argument("--pattern-file")
    p.add_argument("--host-file", required=True)
    p.add_argument("--no-loops", action="store_true",
                   help="keep a tournament host unweighted (0/1, no loops)")
    backend = p.add_mutually_exclusive_group()
    backend.add_argument("--exact", dest="float_backend", action="store_false",
                         help="exact rational arithmetic (default)")
    backend.add_argument("--float", dest="float_backend", action="store_true")
    p.set_defaults(float_backend=False)
    common(p)
    p.set_defaults(fn=_cmd_hom)

    p = sub.add_parser("expand")
    p.add_argument("orientation")
    common(p)
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("certify-sign")
    p.add_argument("orientation")
    common(p)
    p.set_defaults(fn=_cmd_certify_sign)

    p = sub.add_parser("kernels")
    p.add_argument("name", choices=["B1", "BPrime", "MBalanced"])
    common(p)
    p.set_defaults(fn=_cmd_kernels)

    p = sub.add_parser("certificate")
    p.add_argument("name", choices=["TransitiveTriangle", "PerturbedCyclic"])
    p.add_argument("--delta", default=None)
    p.add_argument("--out", default=None, help="write host + sidecar with this prefix")
    p.set_defaults(fn=_cmd_certificate)

    p = sub.add_parser("verify")
    p.add_argument("--mode", required=True, choices=["tas", "ts", "TAS", "TS"])
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--pattern")
    g.add_argument("--pattern-file")
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--budget", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None,
                   help="write a found certificate host + sidecar with this prefix")
    common(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("orient-tree")
    p.add_argument("--file", required=True)
    common(p)
    p.set_defaults(fn=_cmd_orient_tree)

    p = sub.add_parser("iso-pair")
    p.add_argument("--file", required=True)
    p.set_defaults(fn=_cmd_iso_pair)

    p = sub.add_parser("strong-tas")
    p.add_argument("--file", required=True)
    p.add_argument("--independent", default="")
    p.add_argument("--max-n", type=int, default=4)
    p.set_defaults(fn=_cmd_strong_tas)

    p = sub.add_parser("lyapunov")
    p.add_argument("--mode", required=True, choices=["recurrence", "fg"])
    p.add_argument("--beta", default=None)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--batches", type=int, default=100)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(fn=_cmd_lyapunov)

    p = sub.add_parser("fg")
    p.add_argument("--orientation", default=None)
    p.add_argument("--sample", nargs=2, type=int, metavar=("N", "TRIALS"), default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--exhaustive", action="store_true")
    p.set_defaults(fn=_cmd_fg)

    p = sub.add_parser("localwalk")
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(fn=_cmd_localwalk)

    p = sub.add_parser("sparse")
    p.add_argument("--parts", required=True, help="comma-separated part sizes")
    p.set_defaults(fn=_cmd_sparse)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args.fn(args)
    except (ToursidError, OSError) as exc:
        sys.stderr.write(_json_line({"error": type(exc).__name__, "message": str(exc)}))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
