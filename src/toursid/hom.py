"""Homomorphism counts and densities.

h_D(A) sums the product of arc weights over all (not necessarily injective)
vertex maps; the density divides by n^v(D).  Hosts may be unweighted
tournaments (0/1, no loops), weighted tournaments, skew matrices, or raw
square matrices; exactness follows the entry type.

Evaluators:

* contract    -- the kernel for every pattern and a whole stack of hosts at
                 once: eliminates the pattern's vertices one by one, each step
                 one einsum (the tree-decomposition method of Diaz, Serna and
                 Thilikos, "Counting H-colorings of partial k-trees", TCS
                 2002).  Object arrays of ints or Fractions keep it exact.
* hom_count   -- contract on one host, as a HomCount; hom_cycle applies it
                 to an oriented cycle.
* hom_path    -- the chain 1^T M_1 ... M_e 1 with M_i in {A, A^T} on one
                 host, for `hom --pattern-path` and construct; tests check
                 the kernel against it.  _chain returns its row vectors
                 after each factor; the signed moments 1^T B^k 1 read the
                 same vectors.
* hom_generic -- the brute-force sum over all n^v maps, kept as the
                 independent oracle for certificates and tests.
* t_kernel_*  -- signed densities of directed even paths / cycles in a skew
                 kernel; cycle densities normalize by n^length (the vertex
                 count), path densities by n^(edges+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from string import ascii_letters

import numpy as np

from .core import Digraph, as_orientation, cycle_digraph
from .errors import CapExceeded, TooShort
from .tournament import SkewMatrix, Tournament, WeightedTournament

GENERIC_CAP = 10**9


def host_entries(host) -> tuple[int, list[list]]:
    """Normalize a host object to (n, row-major entries)."""
    if isinstance(host, Tournament):
        return host.n, [list(r) for r in host.adj]
    if isinstance(host, (WeightedTournament, SkewMatrix)):
        return host.n, host.rows()
    rows = [list(r) for r in host]
    return len(rows), rows


@dataclass(frozen=True)
class HomCount:
    """Raw weighted homomorphism count plus enough context to normalize."""

    raw: object
    host_n: int
    pattern_v: int

    @property
    def density(self):
        scale = self.host_n ** self.pattern_v
        if isinstance(self.raw, (Fraction, int)):
            return Fraction(self.raw, scale)
        return self.raw / scale


def hom_generic(d: Digraph, host) -> HomCount:
    """Brute-force sum over all |V(host)|^v(d) maps."""
    n, a = host_entries(host)
    if n ** d.v > GENERIC_CAP:
        raise CapExceeded(f"{n}^{d.v} maps exceed the generic cap")
    arcs = sorted(d.arcs)
    total = 0
    for phi in product(range(n), repeat=d.v):
        p = 1
        for u, w in arcs:
            p = p * a[phi[u]][phi[w]]
            if not p:
                break
        total += p
    return HomCount(total, n, d.v)


def _chain(a, n: int, dirs) -> list[list]:
    """The row vectors 1^T M_1 ... M_k for k = 0..len(dirs).

    M_i is A when dirs[i-1] > 0 and A^T otherwise.
    """
    vecs = [[1] * n]
    for d in dirs:
        vec = vecs[-1]
        if d > 0:
            vecs.append([sum(vec[i] * a[i][j] for i in range(n)) for j in range(n)])
        else:
            vecs.append([sum(vec[i] * a[j][i] for i in range(n)) for j in range(n)])
    return vecs


def hom_path(o, host) -> HomCount:
    """1^T M_1 ... M_e 1 where M_i = A for forward edges and A^T for backward."""
    o = as_orientation(o)
    n, a = host_entries(host)
    return HomCount(sum(_chain(a, n, o.dirs)[-1]), n, o.v)


def contract(d: Digraph, a, open_arc=None):
    """h_D of every host in a stack a[..., n, n]; returns shape (...).

    Each arc is a factor on its two end vertices.  The vertex with the
    fewest neighbours (then the lowest index) goes next: one einsum
    multiplies the factors on it and sums its label out, leaving one factor
    on its neighbours.  Factors on the same vertex set are merged as they
    appear.  Each einsum names only the vertices of its own step, so long
    patterns stay within einsum's 52 letters.

    With open_arc=(u, w) that arc is left out and u, w stay as two trailing
    axes: entry [..., i, j] sums the other arcs' product over the maps with
    u -> i and w -> j, which is that arc's share of dh/dA(i, j).
    """
    n = a.shape[-1]
    keep = tuple(open_arc) if open_arc is not None else ()
    factors: dict[tuple[int, ...], np.ndarray] = {}

    def add(labels, t):
        factors[labels] = factors[labels] * t if labels in factors else t

    for u, w in d.arcs:
        if (u, w) == open_arc:
            continue
        if u < w:
            add((u, w), a)
        else:
            add((w, u), np.swapaxes(a, -1, -2))
    for x in set(range(d.v)) - _vertices(factors):
        add((x,), np.ones(n, dtype=a.dtype))
    todo = set(range(d.v)) - set(keep)
    while todo:
        x = min(todo, key=lambda y: (len(_vertices(k for k in factors if y in k)), y))
        todo.remove(x)
        on_x = {k: factors.pop(k) for k in list(factors) if x in k}
        rest = tuple(sorted(_vertices(on_x) - {x}))
        add(rest, _einsum(on_x, rest))
    out = np.asarray(_einsum(factors, keep), dtype=a.dtype)
    return np.broadcast_to(out, a.shape[:-2] + (n,) * len(keep))


def _vertices(labels) -> set[int]:
    return {x for k in labels for x in k}


def _einsum(factors: dict, out: tuple[int, ...]):
    """One einsum over the factors, with letters local to this step."""
    letter = {x: ascii_letters[i] for i, x in enumerate(sorted(_vertices(factors)))}
    spec = ",".join("..." + "".join(letter[x] for x in k) for k in factors)
    return np.einsum(spec + "->..." + "".join(letter[x] for x in out), *factors.values())


def hom_count(d: Digraph, host) -> HomCount:
    """h_D on one host through the kernel; exact when every entry is."""
    n, rows = host_entries(host)
    exact = all(isinstance(x, (Fraction, int)) for row in rows for x in row)
    a = np.array(rows, dtype=object if exact else float)
    return HomCount(contract(d, a).item(), n, d.v)


def hom_cycle(c, host) -> HomCount:
    """h of an oriented cycle, through the kernel."""
    return hom_count(cycle_digraph(c), host)


def s_moment(b: SkewMatrix, power: int):
    """Signed moment 1^T B^power 1 (no absolute value)."""
    return s_moments_up_to(b, power)[power]


def s_moments_up_to(b: SkewMatrix, top: int) -> dict[int, object]:
    """All signed moments 1^T B^k 1 for 0 <= k <= top, one vector pass."""
    return {k: sum(vec) for k, vec in enumerate(_chain(b.entries, b.n, (1,) * top))}


def t_kernel_path(b: SkewMatrix, edges: int):
    """Signed density 1^T B^edges 1 / n^(edges+1); exactly 0 for odd edges."""
    if edges < 1:
        raise ValueError("need at least one edge")
    zero = Fraction(0) if b.is_exact else 0.0
    if edges % 2 == 1:
        return zero
    s = s_moment(b, edges)
    if b.is_exact:
        return Fraction(s, b.n ** (edges + 1))
    return s / float(b.n) ** (edges + 1)


def t_kernel_cycle(b: SkewMatrix, length: int):
    """Signed density tr(B^length) / n^length; exactly 0 for odd length."""
    if length < 3:
        raise TooShort("cycle length must be >= 3")
    if length % 2 == 1:
        return Fraction(0) if b.is_exact else 0.0
    return hom_cycle(">" * length, b).density
