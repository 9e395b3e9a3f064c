"""Local Sidorenko classification of oriented paths and cycles.

One signed-count cascade (_cascade) serves both kinds: the wedge count
C(P3) decides immediately when nonzero; otherwise C(P5) vs -C(2P3) decides,
falling back to the first nonzero higher directed-path count.  On a cycle
each verdict then passes the (length mod 4, flip parity) gate; a parity
mismatch yields Neither.  A path is a cycle without its closing edge and no
gate.

Verdicts are about hosts of the form J/2 + B with small spectral radius of
B.  For v(D) = 0 (mod 4) the cascade can be degenerate (C(P5) = -C(2P3));
without best_effort such inputs are rejected, with best_effort they come
back Unknown.

Rule strings are a stable output contract; the full vocabulary:

  paths:  impartial:single-edge, wedges:C(P3)>0, wedges:C(P3)<0,
          P5-2P3:case(i|ii|iii), 2P3:case(ii|iii),
          unknown:P5=-2P3, unknown:all-zero
  cycles: wedges-cycle:case(i|ii), wedges-cycle:cycle-parity,
          P5-2P3-cycle:case(i|ii|iii), P5-2P3-cycle:cycle-parity,
          2P3-cycle:case(ii|iii), 2P3-cycle:cycle-parity,
          unknown:P5=-2P3, unknown:all-zero

The 2P3 rules have no case(i): no path or cycle reaches it (see
_tail_direction).
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass

from .core import as_cycle, as_orientation
from .errors import InternalAssertionFailed, PreconditionViolated
from .signed import SignedCounts, cycle_counts, path_counts


class Verdict(str, enum.Enum):
    LTS = "LTS"
    LTAS = "LTAS"
    NEITHER = "Neither"
    IMPARTIAL = "Impartial"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    rule: str
    counts: SignedCounts
    preconditions_met: bool
    input_text: str
    v: int
    e: int
    flips: int | None = None  # cycles only

    def to_json_dict(self) -> dict:
        d = {
            "input": self.input_text,
            "v": self.v,
            "e": self.e,
            "counts": asdict(self.counts),
            "verdict": self.verdict.value,
            "rule": self.rule,
        }
        if self.flips is not None:
            d["flips"] = self.flips
        return d


def _tail_direction(counts: SignedCounts) -> tuple[Verdict, str, str] | None:
    """Resolve the C(P3) = 0 cascade to a direction, or None if degenerate.

    Returns the verdict the counts point to, ignoring any cycle parity gate,
    with the rule's family and case.
    """
    c5, c23 = counts.c_p5, counts.c_2p3
    k, ck = counts.min_k, counts.c_min_k
    if c5 == -c23:  # degenerate, includes the all-zero case
        return None
    if c5 > 0 and c5 > -c23:
        return (Verdict.LTS, "P5-2P3", "i")
    if c5 < 0 and c5 < -c23:
        return (Verdict.LTAS, "P5-2P3", "ii")
    if c5 == 0:
        # Here c23 != 0 because c5 != -c23, and c23 < 0: with C(P3) = C(P5)
        # = 0, C(2P3) <= 0 on every path and cycle, so the LTS case(i) of
        # the 2P3 rule cannot occur.  Take the signs s_i = d_i d_(i+1) (L of
        # them) and y_i = s_i s_(i+1), cyclically on a cycle.  Expanding
        # C(P3)^2 = (sum s_i)^2 gives C(2P3) = (C(P3)^2 - L)/2 - C(P5) - sum y_i.
        # C(P5) = sum s_i s_(i+2) = sum y_i y_(i+1) = 0 makes half the
        # adjacent y pairs differ in sign, so y has L/2 runs (a cycle with
        # L <= 4 has C(2P3) = 0), alternating in sign: at least floor(L/4)
        # runs of +1, so sum y_i >= 2 floor(L/4) - (L - 1) on a path and
        # >= -L/2 on a cycle.  With C(P3) = 0 both give C(2P3) <= 0.
        if c23 > 0:
            raise InternalAssertionFailed("C(P3) = C(P5) = 0 with C(2P3) > 0")
        if k is None or (-1) ** k * ck < 0:
            return (Verdict.LTAS, "2P3", "ii")
        return (Verdict.NEITHER, "2P3", "iii")
    return (Verdict.NEITHER, "P5-2P3", "iii")


def _parity_allows(verdict: Verdict, ell: int, t: int | None) -> bool:
    """Parity gate for cycle verdicts from the flip-count table; paths (t None) pass."""
    if t is None or ell % 2 == 1:
        return True
    if verdict is Verdict.LTS:
        return (ell % 4 == 0 and t % 2 == 0) or (ell % 4 == 2 and t % 2 == 1)
    if verdict is Verdict.LTAS:
        return (ell % 4 == 0 and t % 2 == 1) or (ell % 4 == 2 and t % 2 == 0)
    return True


def _cascade(counts: SignedCounts, flips: int | None, best_effort: bool, base: dict,
             message: str) -> Classification:
    """The signed-count cascade on a path (flips None) or a cycle with t flips.

    base holds input_text, v and e; message is the PreconditionViolated text
    for v = 0 (mod 4).  A cycle's LTS/LTAS verdict that the flip-parity table
    forbids becomes Neither under a "cycle-parity" rule.
    """
    cycle = flips is not None
    v = base["v"]
    pre_ok = v % 4 != 0
    if not pre_ok and not best_effort:
        raise PreconditionViolated(message)
    if cycle and v % 2 == 1 and counts.c_p3 == 0:
        raise InternalAssertionFailed("C(P3) = 0 on an odd cycle; contradicts the parity lemma")
    if counts.c_p3 != 0:
        verdict = Verdict.LTS if counts.c_p3 < 0 else Verdict.LTAS
        if cycle:
            rule = "wedges-cycle:case(" + ("i" if verdict is Verdict.LTS else "ii") + ")"
        else:
            rule = "wedges:C(P3)<0" if verdict is Verdict.LTS else "wedges:C(P3)>0"
    elif v % 4 == 2 and counts.c_p5 == -counts.c_2p3:
        raise InternalAssertionFailed(
            f"C(P5) = -C(2P3) with {'length' if cycle else 'v'} = 2 (mod 4); "
            "contradicts the parity lemma"
        )
    elif (resolved := _tail_direction(counts)) is None:
        verdict = Verdict.UNKNOWN
        rule = ("unknown:all-zero"
                if counts.c_p5 == 0 and counts.c_2p3 == 0 else "unknown:P5=-2P3")
    else:
        verdict, fam, case = resolved
        rule = f"{fam}{'-cycle' if cycle else ''}:case({case})"
    if not _parity_allows(verdict, v, flips):
        verdict, rule = Verdict.NEITHER, rule.split(":")[0] + ":cycle-parity"
    return Classification(verdict, rule, counts, pre_ok, flips=flips, **base)


def classify_path(o, best_effort: bool = False) -> Classification:
    """Classify an oriented path as LTS / LTAS / Neither (Algorithm for paths).

    Requires v = e+1 != 0 (mod 4) unless best_effort; a single edge is
    Impartial.  Raises InternalAssertionFailed if a guaranteed inequality
    fails (would indicate a counting bug).
    """
    o = as_orientation(o)
    counts = path_counts(o)
    base = dict(input_text=str(o), v=o.v, e=o.e)
    if o.e == 1:
        return Classification(Verdict.IMPARTIAL, "impartial:single-edge", counts, True, **base)
    return _cascade(counts, None, best_effort, base, f"v = {o.v} is divisible by 4; "
                    "rerun with best_effort for an Unknown-capable pass")


def classify_cycle(c, best_effort: bool = False) -> Classification:
    """Classify an oriented cycle (Algorithm for cycles).

    Requires length != 0 (mod 4) unless best_effort.  Neither verdicts caused
    by the flip-parity table carry a "cycle-parity" rule tag.
    """
    c = as_cycle(c)
    ell = c.length
    return _cascade(cycle_counts(c), c.flips, best_effort,
                    dict(input_text=str(c.orientation), v=ell, e=ell),
                    f"cycle length {ell} is divisible by 4; rerun with best_effort")
