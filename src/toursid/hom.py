"""Homomorphism counts and densities.

h_D(A) sums the product of arc weights over all (not necessarily injective)
vertex maps; the density divides by n^v(D).  Hosts may be unweighted
tournaments (0/1, no loops), weighted tournaments, skew matrices, or raw
square matrices; exactness follows the entry type.

Exact hosts are counted in integers.  _scale multiplies a rational host by
the lcm L of its denominators; the evaluators run on the integer rows L*A,
and a count over k arcs is divided by L^k once at the end.  A host with any
Fraction entry gives a Fraction (for k >= 1), a host of Python or numpy
integers a Python int; float hosts run unscaled, as floats.

Evaluators:

* contract    -- the kernel for every pattern and a whole stack of hosts at
                 once: eliminates the pattern's vertices one by one (the
                 tree-decomposition method of Diaz, Serna and Thilikos,
                 "Counting H-colorings of partial k-trees", TCS 2002).  The
                 elimination plan depends only on the pattern and is cached.
                 Each step is one einsum, except that on an exact stack a
                 step on exactly two matrix factors (a vertex of a cycle or
                 the square with two neighbours) is one batched np.matmul,
                 several times faster.  Float stacks keep the einsum: matmul
                 sums in another order and would change the optimizer's
                 bits.  Integer stacks run in int64 when fits_int64 bounds
                 every partial sum below 2^63, and in object ints
                 otherwise; object arrays of Fractions stay exact too.
* contract_grad -- dh/dA for every host in a stack in one reverse sweep
                 through the same plan, for the optimizer's gradient; float
                 and object stacks, integer stacks as object ints.
* hom_count   -- contract on one host's scaled rows, as a HomCount;
                 hom_path and hom_cycle apply it to an oriented path or
                 cycle.
* hom_generic -- an exact frontier sum over the scaled rows that shares no
                 code with the kernel: the independent oracle that rechecks
                 every certificate, and that the tests check the kernel
                 against.
* t_kernel_*  -- signed densities of directed even paths / cycles in a skew
                 kernel, from _chain's row vectors 1^T B^k; cycle densities
                 normalize by n^length (the vertex count), path densities
                 by n^(edges+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from string import ascii_letters

import numpy as np

from .core import Digraph, cycle_digraph, path_digraph
from .errors import CapExceeded, InvalidInput, TooShort
from .tournament import SkewMatrix, Tournament, WeightedTournament, _is_exact

GENERIC_CAP = 10**7  # hom_generic's steps, 2-3 s on a cycle
INT64_LIMIT = 2**63


def host_entries(host) -> tuple[int, list[list]]:
    """Normalize a host object to (n, row-major entries)."""
    if isinstance(host, Tournament):
        return host.n, [list(r) for r in host.adj]
    if isinstance(host, (WeightedTournament, SkewMatrix)):
        return host.n, host.rows()
    rows = [list(r) for r in host]
    if not rows:
        raise InvalidInput("need at least one vertex")
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


@dataclass(frozen=True)
class _Scaled:
    """A host's rows as the integers L*A; inexact rows stay as they are, L = 1."""

    rows: list
    lcm: int
    exact: bool
    frac: bool  # some entry is a Fraction: counts come back as Fractions

    def unscale(self, total, k: int):
        """A count over k arcs of the scaled rows, on the host's own scale."""
        return Fraction(total, self.lcm**k) if self.frac and k else total


def _scale(rows) -> _Scaled:
    """Scale exact rows by the lcm of their denominators to Python integers."""
    if not _is_exact(rows):
        return _Scaled(rows, 1, False, False)
    flat = [x for row in rows for x in row]
    m = lcm(*(x.denominator for x in flat))
    ints = [[int(x.numerator) * (m // x.denominator) for x in row] for row in rows]
    return _Scaled(ints, m, True, any(isinstance(x, Fraction) for x in flat))


def fits_int64(n: int, v: int, e: int, m: int) -> bool:
    """Whether int64 counts a v-vertex, e-arc pattern exactly on n-vertex
    hosts whose entries satisfy |entry| <= m.

    Every factor contract builds, and every partial product and partial sum
    inside its einsums, sums at most n^v products of at most e entries and
    ones, so its absolute value is at most n^v * max(m, 1)^e.
    """
    return n**v * max(m, 1) ** e < INT64_LIMIT


def hom_generic(d: Digraph, host) -> HomCount:
    """h_D by a frontier sum, an oracle that shares no code with contract.

    The pattern's vertices are placed in _frontier_steps' order; the
    frontier is the placed vertices with an arc to an unplaced one.  A dict
    maps each image of the frontier to the sum of the arc products of the
    placed vertices' maps that extend it.  Placing x multiplies in x's arcs
    to the frontier for each image of x, then sums out the vertices that
    leave it (the width-bounded counting of Diaz, Serna and Thilikos).
    With w the widest frontier, that is at most v * n^(w+1) steps of one
    entry and one image, which GENERIC_CAP bounds.  Exact rows run as
    _scale's Python ints, float rows as floats; the table starts at the int
    1, so an arc-free pattern counts n^v as an int.
    """
    n, rows = host_entries(host)
    width, steps = _frontier_steps(tuple(d.arcs), d.v)
    if d.v * n ** (width + 1) > GENERIC_CAP:
        raise CapExceeded(f"{d.v}*{n}^{width + 1} frontier steps exceed the generic cap")
    s = _scale(rows)
    a, at = s.rows, [list(col) for col in zip(*s.rows)]
    table = {(): 1}
    for to_x, keep, stays in steps:
        new = {}
        for key, val in table.items():
            vec = [val] * n
            for j, out in to_x:
                vec = [p * q for p, q in zip(vec, (a if out else at)[key[j]])]
            base = tuple(key[j] for j in keep)
            for i, p in enumerate(vec):
                k = base + (i,) if stays else base
                new[k] = new.get(k, 0) + p
        table = new
    return HomCount(s.unscale(table[()], d.e), n, d.v)


@lru_cache(maxsize=512)
def _frontier_steps(arcs: tuple, v: int) -> tuple[int, tuple]:
    """hom_generic's placements, worked out once per pattern.

    The next vertex has the most placed neighbours, then the lowest index,
    so a naturally labelled path or cycle is placed in order.  Returns the
    widest frontier before a placement and, per placed x, x's arcs to the
    frontier as (position, the arc leaves it), the positions of the
    frontier vertices that keep an unplaced neighbour and whether x has one.
    """
    nbrs = [set() for _ in range(v)]
    for u, w in arcs:
        nbrs[u].add(w)
        nbrs[w].add(u)
    placed, frontier, steps, width = set(), [], [], 0
    while len(placed) < v:
        x = min(set(range(v)) - placed, key=lambda y: (-len(nbrs[y] & placed), y))
        width = max(width, len(frontier))
        placed.add(x)
        to_x = tuple((j, (f, x) in arcs) for j, f in enumerate(frontier) if f in nbrs[x])
        keep = tuple(j for j, f in enumerate(frontier) if nbrs[f] - placed)
        stays = bool(nbrs[x] - placed)
        frontier = [frontier[j] for j in keep] + [x] * stays
        steps.append((to_x, keep, stays))
    return width, tuple(steps)


def _chain(a, n: int, k: int) -> list[list]:
    """The row vectors 1^T A^j for j = 0..k."""
    vecs = [[1] * n]
    for _ in range(k):
        vec = vecs[-1]
        vecs.append([sum(vec[i] * a[i][j] for i in range(n)) for j in range(n)])
    return vecs


def hom_path(o, host) -> HomCount:
    """h of an oriented path, through the kernel."""
    return hom_count(path_digraph(o), host)


def contract(d: Digraph, a):
    """h_D of every host in a stack a[..., n, n]; returns shape (...).

    Each arc is a factor on its two end vertices.  The vertex with the
    fewest neighbours (then the lowest index) goes next: one einsum
    multiplies the factors on it and sums its label out, leaving one factor
    on its neighbours.  Factors on the same vertex set are merged as they
    appear.  Each einsum names only the vertices of its own step, so long
    patterns stay within einsum's 52 letters.

    On an int64 or object stack, a step whose operands are exactly two
    2-label factors is the batched matrix product of the two, transposed as
    the plan says, and runs as one np.matmul instead.  Its sums hold the
    same products, so the count is the same and fits_int64 still bounds
    every partial sum.  Float stacks run every step as its einsum: matmul
    adds in another order, and the optimizer's results are pinned bit for
    bit.

    An integer stack runs in int64 when fits_int64 holds for its largest
    |entry|, checked once before any arithmetic, and in object ints
    otherwise.
    """
    if a.dtype.kind in "biu":
        m = max(int(a.max(initial=0)), -int(a.min(initial=0)))
        a = a.astype(np.int64 if fits_int64(a.shape[-1], d.v, d.e, m) else object)
    out = _eliminate(_plan(tuple(d.arcs), d.v), a)[()]
    if a.dtype == object:  # an object einsum returns a bare scalar where it sums out every label
        out = np.asarray(out, dtype=object)
    if out.shape != a.shape[:-2]:  # an arc-free pattern: no factor holds the stack's axes
        out = np.broadcast_to(out, a.shape[:-2])
    return out


def contract_grad(d: Digraph, a):
    """dh_D/dA of every host in a stack a[..., n, n], in one reverse sweep.

    Entry [..., i, j] is the sum, over the arcs (u, w) and the maps with
    u -> i and w -> j, of the other arcs' product.  The forward elimination
    of contract runs once and keeps each step's operands; the steps then
    run in reverse, each turning the adjoint of its result into the
    adjoints of its operands with one einsum per operand (the reverse mode
    of Baur and Strassen, "The complexity of partial derivatives", TCS
    1983).  A merge passes the adjoint of its product to each factor times
    the other.  The adjoints of the arc factors, transposed for the arcs
    that enter A^T, sum to dh/dA.

    Float stacks run in float64 and object stacks (ints, Fractions) stay
    exact.  An integer stack runs as object ints: one entry of dh/dA sums
    over arcs as well as maps, which contract's int64 guard does not bound.
    """
    n = a.shape[-1]
    if a.dtype.kind in "biu":
        a = a.astype(object)
    stack = a.reshape((-1, n, n))  # a stack axis keeps object einsums from returning bare scalars
    plan = _plan(tuple(d.arcs), d.v)
    tape = []
    _eliminate(plan, stack, tape)
    ones = np.ones(n, dtype=a.dtype)
    adj = {(): np.ones(len(stack), dtype=a.dtype)}
    for (keys, _, rest, back, _), (ops, t, old) in zip(reversed(plan.steps), reversed(tape)):
        g = adj.pop(rest)
        if old is not None:
            adj[rest] = g * t
            g = g * old
        if len(ops) == 1:  # the eliminated label is on no other operand: ones carry it
            ops = ops + [ones]
        for i, (k, spec) in enumerate(zip(keys, back)):
            adj[k] = np.einsum(spec, g, *ops[:i], *ops[i + 1:])
    grad = np.zeros_like(stack)
    for labels, part in plan.init:
        if part == "a":
            grad += adj[labels]
        elif part == "t":
            grad += adj[labels].swapaxes(-1, -2)
    return grad.reshape(a.shape)


def _eliminate(plan: _Plan, a, tape: list | None = None) -> dict:
    """Run a plan's steps on the stack a; the last factor is labelled ().

    A step with a matmul form runs as np.matmul on an int64 or object stack
    and as its einsum on any other, as contract says.  With a tape, each
    step appends its operands, its result and the factor that result was
    merged into (None for a new one).
    """
    make = {"a": lambda: a, "t": lambda: a.swapaxes(-1, -2),
            "1": lambda: np.ones(a.shape[-1], dtype=a.dtype)}
    factors = {labels: make[part]() for labels, part in plan.init}
    exact = a.dtype.kind in "iO"
    for keys, spec, rest, _, mm in plan.steps:
        ops = [factors.pop(k) for k in keys]
        if exact and mm:
            i, flip_left, flip_right = mm
            left, right = ops[i], ops[1 - i]
            t = np.matmul(left.swapaxes(-1, -2) if flip_left else left,
                          right.swapaxes(-1, -2) if flip_right else right)
        else:
            t = np.einsum(spec, *ops)
        old = factors.get(rest)
        factors[rest] = t if old is None else old * t
        if tape is not None:
            tape.append((ops, t, old))
    return factors


@dataclass(frozen=True)
class _Plan:
    """contract's elimination for one pattern.

    init: each initial factor's labels and part, "a" = A, "t" = A^T (the arc
    runs from the higher label to the lower) or "1" = the ones vector (an
    isolated vertex).  steps: the operand labels, the einsum spec, the
    labels the result joins, per operand the spec that turns the
    result's adjoint and the other operands (then the ones vector on the
    eliminated label, when it is the only operand) into that operand's
    adjoint, and the step's matmul form.  A step has one when its operands
    are exactly two 2-label factors, on (x, y) and (x, z) with x eliminated
    and y < z: the form (i, flip_left, flip_right) takes operand i as left,
    the other as right, and transposes each where it is flagged, so that
    left @ right is the result, axes in the sorted order (y, z).  Other
    steps have None.
    """

    init: tuple
    steps: tuple


@lru_cache(maxsize=512)
def _plan(arcs: tuple, v: int) -> _Plan:
    """contract's elimination, worked out once per pattern."""
    init = {}
    for u, w in arcs:
        init[(min(u, w), max(u, w))] = "a" if u < w else "t"
    for x in set(range(v)) - _vertices(init):
        init[(x,)] = "1"
    live = dict.fromkeys(init)  # insertion-ordered, as the factors are
    steps = []
    todo = set(range(v))
    while todo:
        x = min(todo, key=lambda y: (len(_vertices(k for k in live if y in k)), y))
        todo.remove(x)
        on_x = tuple(k for k in live if x in k)
        for k in on_x:
            del live[k]
        rest = tuple(sorted(_vertices(on_x) - {x}))
        carry = ((x,),) if len(on_x) == 1 else ()
        back = tuple(_spec((rest, *on_x[:i], *on_x[i + 1:], *carry), k) for i, k in enumerate(on_x))
        mm = None
        if len(on_x) == 2 and all(len(k) == 2 for k in on_x):
            i = 0 if rest[0] in on_x[0] else 1  # left holds (y, x), right (x, z)
            mm = (i, on_x[i][0] == x, on_x[1 - i][1] == x)
        steps.append((on_x, _spec(on_x, rest), rest, back, mm))
        live.setdefault(rest)
    return _Plan(tuple(init.items()), tuple(steps))


def _vertices(labels) -> set[int]:
    return {x for k in labels for x in k}


def _spec(keys: tuple, out: tuple[int, ...]) -> str:
    """One einsum spec over factors with these labels, letters local to it."""
    letter = {x: ascii_letters[i] for i, x in enumerate(sorted(_vertices(keys)))}
    spec = ",".join("..." + "".join(letter[x] for x in k) for k in keys)
    return spec + "->..." + "".join(letter[x] for x in out)


def hom_count(d: Digraph, host) -> HomCount:
    """h_D on one host through the kernel; exact when every entry is."""
    n, rows = host_entries(host)
    s = _scale(rows)
    if s.exact:
        a = np.array(s.rows)  # int64 when every entry fits; contract guards the counts
        if a.dtype.kind == "f":  # numpy makes ints past int64 mixed with smaller ones float
            a = np.array(s.rows, dtype=object)
    else:
        a = np.array(rows, dtype=float)
    return HomCount(s.unscale(contract(d, a).item(), d.e), n, d.v)


def hom_cycle(c, host) -> HomCount:
    """h of an oriented cycle, through the kernel."""
    return hom_count(cycle_digraph(c), host)


def s_moment(b: SkewMatrix, power: int):
    """Signed moment 1^T B^power 1 (no absolute value)."""
    return s_moments_up_to(b, power)[power]


def s_moments_up_to(b: SkewMatrix, top: int) -> dict[int, object]:
    """All signed moments 1^T B^k 1 for 0 <= k <= top, one vector pass."""
    s = _scale(b.entries)
    return {k: s.unscale(sum(vec), k) for k, vec in enumerate(_chain(s.rows, b.n, top))}


def t_kernel_path(b: SkewMatrix, edges: int):
    """Signed density 1^T B^edges 1 / n^(edges+1); exactly 0 for odd edges."""
    if edges < 1:
        raise InvalidInput("need at least one edge")
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
