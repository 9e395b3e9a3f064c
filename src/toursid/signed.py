"""Signed subgraph counts C(Q, D) = C_even - C_odd.

Copies are counted as edge subsets (unlabeled), which matches the worked
closed forms C(P3, P_l) = l - 2 and C(2P3, .) used downstream; the injective
convention would overcount by |Aut(Q)|.  A copy's sign is (-1)^(number of
host arcs that disagree with the pattern under an underlying isomorphism);
for patterns whose components are paths with an even number of edges the
sign does not depend on the isomorphism chosen.

With directions encoded as +-1, the sign of a directed-window copy of
P_(2k+1) is simply the product of the 2k direction entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import as_cycle, as_orientation
from .errors import InvalidInput


@dataclass(frozen=True)
class SignedCounts:
    c_p3: int
    c_p5: int
    c_2p3: int
    min_k: int | None = None
    c_min_k: int | None = None

    def triple(self) -> tuple[int, int, int]:
        return (self.c_p3, self.c_p5, self.c_2p3)


def _window_sums(dirs: tuple[int, ...], width: int, cyclic: bool = False) -> int:
    """C(P_(width+1)): the sum over width-edge windows of their direction product.

    On a cycle the windows wrap round (read over dirs + dirs); a window uses
    width+1 distinct vertices, so a cycle needs more than width edges to have one.
    """
    e = len(dirs)
    if cyclic:
        starts = e if e > width else 0
        dirs = dirs + dirs
    else:
        starts = e - width + 1
    return sum(math.prod(dirs[i : i + width]) for i in range(starts))


def _counts(dirs: tuple[int, ...], cyclic: bool) -> SignedCounts:
    e = len(dirs)
    # signs[i] is the P3 window at edges i, i+1; a 2P3 copy is two windows
    # at least 3 apart, and on a cycle also at least 3 apart the other way round
    signs = [dirs[i] * dirs[(i + 1) % e] for i in range(e if cyclic else e - 1)]
    span = e - 2 if cyclic else len(signs)
    c_2p3 = sum(signs[i] * signs[j]
                for i in range(len(signs)) for j in range(i + 3, min(len(signs), i + span)))
    min_k = c_min_k = None
    for k in range(3, e // 2 + 1):
        ck = _window_sums(dirs, 2 * k, cyclic)
        if ck != 0:
            min_k, c_min_k = k, ck
            break
    return SignedCounts(_window_sums(dirs, 2, cyclic), _window_sums(dirs, 4, cyclic),
                        c_2p3, min_k, c_min_k)


def path_counts(o) -> SignedCounts:
    """C(P3), C(P5), C(2P3) and the minimal k >= 3 with C(P_(2k+1)) != 0."""
    return _counts(as_orientation(o).dirs, cyclic=False)


def cycle_counts(c) -> SignedCounts:
    """The same counts on a cycle: windows wrap round, 2P3 windows are vertex-disjoint."""
    return _counts(as_cycle(c).orientation.dirs, cyclic=True)


@dataclass(frozen=True)
class WalkFractions:
    """Endpoint distribution of an n-step fair +-1 walk."""

    p_zero: Fraction
    p_pos: Fraction
    p_neg: Fraction


def walk_fractions(steps: int) -> WalkFractions:
    """Probability an n-step walk ends at zero / positive / negative."""
    if steps < 1:
        raise InvalidInput("need at least one step")
    if steps % 2 == 1:
        p_zero = Fraction(0)
    else:
        p_zero = Fraction(math.comb(steps, steps // 2), 2**steps)
    rest = (1 - p_zero) / 2
    return WalkFractions(p_zero, rest, rest)
