"""Pattern-side objects: oriented paths, cycles, trees, and small digraphs.

Edge directions are stored as +1 (forward, '>') or -1 (backward, '<')
relative to the left-to-right reference on paths and the clockwise reference
on cycles.  With this encoding the sign of a directed-subpath window is just
the product of its entries, which the signed-counting module leans on.

All values are immutable and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    EmptyInput,
    InvalidCharacter,
    InvalidInput,
    OddLength,
    TooShort,
)

FORWARD = 1
BACKWARD = -1

_CHAR_TO_DIR = {">": FORWARD, "R": FORWARD, "<": BACKWARD, "L": BACKWARD}
_DIR_TO_CHAR = {FORWARD: ">", BACKWARD: "<"}


@dataclass(frozen=True)
class Orientation:
    """A sequence of edge directions, length >= 1."""

    dirs: tuple[int, ...]

    def __post_init__(self):
        if len(self.dirs) < 1:
            raise EmptyInput("orientation needs at least one edge")
        if any(d not in (FORWARD, BACKWARD) for d in self.dirs):
            raise InvalidInput("directions must be +1 or -1")

    @property
    def e(self) -> int:
        return len(self.dirs)

    @property
    def v(self) -> int:
        return len(self.dirs) + 1

    def flipped(self) -> "Orientation":
        """Reverse every arrow (digraph reversal)."""
        return Orientation(tuple(-d for d in self.dirs))

    def reversed_path(self) -> "Orientation":
        """Read the same oriented path from the other end (same digraph)."""
        return Orientation(tuple(-d for d in reversed(self.dirs)))

    def __str__(self) -> str:
        return "".join(_DIR_TO_CHAR[d] for d in self.dirs)


def parse_orientation(text: str) -> Orientation:
    """Parse '>'/'<' (aliases 'R'/'L') into an Orientation."""
    if not text:
        raise EmptyInput("orientation string is empty")
    dirs = []
    for pos, ch in enumerate(text):
        if ch not in _CHAR_TO_DIR:
            raise InvalidCharacter(pos, ch)
        dirs.append(_CHAR_TO_DIR[ch])
    return Orientation(tuple(dirs))


def format_orientation(o: Orientation) -> str:
    return str(o)


def as_orientation(o) -> Orientation:
    """Coerce a str or Orientation to Orientation."""
    if isinstance(o, Orientation):
        return o
    return parse_orientation(o)


@dataclass(frozen=True)
class OrientedCycle:
    """An oriented cycle: edge i joins vertices i and i+1 (mod length).

    Directions are recorded relative to the clockwise reference cycle, so
    the flip count t (number of backward entries) is intrinsic.
    """

    orientation: Orientation

    def __post_init__(self):
        if self.orientation.e < 3:
            raise TooShort("a cycle needs length >= 3")

    @property
    def length(self) -> int:
        return self.orientation.e

    @property
    def flips(self) -> int:
        return sum(1 for d in self.orientation.dirs if d == BACKWARD)

    def subdivided(self, k: int) -> "OrientedCycle":
        """Replace each edge by k edges in the same direction."""
        if k < 1:
            raise InvalidInput("k must be >= 1")
        dirs = tuple(d for d in self.orientation.dirs for _ in range(k))
        return OrientedCycle(Orientation(dirs))


def as_cycle(c) -> OrientedCycle:
    if isinstance(c, OrientedCycle):
        return c
    return OrientedCycle(as_orientation(c))


@dataclass(frozen=True)
class Digraph:
    """An oriented graph: no loops, no digons."""

    v: int
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.v < 1:
            raise InvalidInput("need at least one vertex")
        for u, w in self.arcs:
            if u == w:
                raise InvalidInput(f"self-loop at {u}")
            if not (0 <= u < self.v and 0 <= w < self.v):
                raise InvalidInput(f"arc ({u},{w}) out of range")
            if (w, u) in self.arcs:
                raise InvalidInput(f"digon between {u} and {w}")

    @property
    def e(self) -> int:
        return len(self.arcs)


def digraph(v: int, arcs) -> Digraph:
    return Digraph(v, frozenset(tuple(a) for a in arcs))


def _ring_digraph(dirs: tuple[int, ...], v: int) -> Digraph:
    """Edge i joins i and (i+1) mod v, directed as dirs[i] says."""
    return digraph(v, [(i, (i + 1) % v) if d == FORWARD else ((i + 1) % v, i)
                       for i, d in enumerate(dirs)])


def path_digraph(o) -> Digraph:
    """The oriented path as a digraph on vertices 0..e."""
    o = as_orientation(o)
    return _ring_digraph(o.dirs, o.v)


def as_pattern(pattern) -> tuple[Digraph, str, Orientation | None]:
    """A pattern as a digraph, its report text, and its orientation if a path."""
    if isinstance(pattern, (str, Orientation)):
        o = as_orientation(pattern)
        return path_digraph(o), str(o), o
    if isinstance(pattern, Digraph):
        return pattern, f"digraph(v={pattern.v},e={pattern.e})", None
    raise TypeError("pattern must be an orientation or a digraph")


def cycle_digraph(c) -> Digraph:
    c = as_cycle(c)
    return _ring_digraph(c.orientation.dirs, c.length)


def directed_path_digraph(edges: int) -> Digraph:
    """The all-forward path with the given number of edges."""
    return path_digraph(Orientation(tuple([FORWARD] * edges)))


def subdivide(d: Digraph, k: int) -> Digraph:
    """Replace each arc by a k-edge directed path through k-1 fresh vertices."""
    if k < 1:
        raise InvalidInput("k must be >= 1")
    if k == 1:
        return d
    arcs = []
    nxt = d.v
    for u, w in sorted(d.arcs):
        chain = [u] + list(range(nxt, nxt + k - 1)) + [w]
        nxt += k - 1
        arcs.extend((chain[i], chain[i + 1]) for i in range(k))
    return digraph(nxt, arcs)


def alternating_cycle(two_ell: int) -> OrientedCycle:
    """The cycle of even length with alternating edge directions."""
    if two_ell % 2 != 0:
        raise OddLength("alternating cycle needs even length")
    if two_ell < 4:
        raise TooShort("alternating cycle needs length >= 4")
    dirs = tuple(FORWARD if i % 2 == 0 else BACKWARD for i in range(two_ell))
    return OrientedCycle(Orientation(dirs))


def disjoint_union(a: Digraph, b: Digraph) -> Digraph:
    arcs = set(a.arcs)
    arcs.update((u + a.v, w + a.v) for u, w in b.arcs)
    return digraph(a.v + b.v, arcs)


@dataclass(frozen=True)
class Tree:
    """An undirected tree on vertices 0..v-1."""

    v: int
    edges: frozenset[frozenset[int]]

    def __post_init__(self):
        if self.v < 1:
            raise InvalidInput("need at least one vertex")
        if len(self.edges) != self.v - 1:
            raise InvalidInput("a tree on v vertices has v-1 edges")
        for e in self.edges:
            if len(e) != 2:
                raise InvalidInput("edges join two distinct vertices")
            if any(not (0 <= x < self.v) for x in e):
                raise InvalidInput("edge endpoint out of range")
        if len(_component(self.adjacency(), 0)) != self.v:
            raise InvalidInput("tree must be connected")

    def adjacency(self) -> list[list[int]]:
        return _neighbours(self.v, self.edges)


def tree(v: int, edges) -> Tree:
    return Tree(v, frozenset(frozenset(e) for e in edges))


# --- graph walks ------------------------------------------------------------
#
# The one way to walk an undirected graph: an adjacency is a list of sorted
# neighbour lists, indexed by vertex.  Trees walk their spines and longest
# paths here, and the signed counts walk the path copies in a digraph.


def _neighbours(v: int, pairs) -> list[list[int]]:
    """Sorted neighbour lists of the undirected graph on 0..v-1 joining each pair."""
    adj: list[list[int]] = [[] for _ in range(v)]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    for row in adj:
        row.sort()
    return adj


def _hang(adj, root: int, banned: int | None = None) -> tuple[list[int], dict]:
    """Breadth first from root along adj without entering banned: the vertices
    in the order reached, and for each the vertex it was reached from (banned
    for root).  On a tree that hangs the tree from root, children after parents."""
    order, up = [root], {root: banned}
    for x in order:
        for y in adj[x]:
            if y != banned and y not in up:
                up[y] = x
                order.append(y)
    return order, up


def _component(adj, start: int, banned: int | None = None) -> set[int]:
    """The vertices reached from start along adj without entering banned."""
    return set(_hang(adj, start, banned)[0])


def _path_order(adj, vertices) -> list[int] | None:
    """The subgraph of adj induced on vertices as one path, read from its lower end.

    None when that subgraph is not one path: a vertex has three neighbours
    in it, or it holds a cycle or more than one component.  No vertices give [].
    """
    sub = {x: [y for y in adj[x] if y in vertices] for x in vertices}
    if not sub:
        return []
    ends = [x for x in sub if len(sub[x]) <= 1]
    if not ends or max(map(len, sub.values())) > 2:
        return None
    seq = [min(ends)]
    for _ in range(len(sub) - 1):
        nxt = [y for y in sub[seq[-1]] if y not in seq[-2:]]
        if not nxt:
            return None
        seq.append(nxt[0])
    return seq


def _simple_paths(adj, start: int, edges: int):
    """Depth first, each simple path of exactly `edges` edges from start along
    adj as a vertex tuple; the search goes no deeper."""
    stack = [(start,)]
    while stack:
        path = stack.pop()
        if len(path) > edges:
            yield path
        else:
            stack.extend(path + (y,) for y in adj[path[-1]] if y not in path)


# --- text formats -----------------------------------------------------------
#
# A "<kind> <key>=<size>" header line, then one row per nonblank line:
# digraph v=<n> and tree v=<n> take one "u w" pair per line.


def _read_text(text: str, rows: dict) -> tuple[str, int, list]:
    """The header, the size and the rows of a text file.

    rows maps each accepted "<kind> <key>" header to the parser of one line
    after it.  A wrong header, a bad size or a line its parser rejects
    raises InvalidInput.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = next((h for h in rows if lines and lines[0].startswith(h + "=")), None)
    if head is None:
        raise InvalidInput("expected " + " or ".join(f"'{h}=<n>'" for h in rows) + " header")
    try:
        return head, int(lines[0].split("=", 1)[1]), [rows[head](ln) for ln in lines[1:]]
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"bad '{head}' file: {exc}") from None


def _pair(line: str) -> tuple[int, int]:
    u, w = line.split()
    return int(u), int(w)


def format_digraph_text(d: Digraph) -> str:
    lines = [f"digraph v={d.v}"]
    lines.extend(f"{u} {w}" for u, w in sorted(d.arcs))
    return "\n".join(lines) + "\n"


def _reject_repeats(pairs, what: str, key=tuple) -> None:
    """Raise InvalidInput at the first repeated pair: a set would count it once."""
    seen = set()
    for pair in pairs:
        if key(pair) in seen:
            raise InvalidInput(f"repeated {what} {pair[0]} {pair[1]}")
        seen.add(key(pair))


def parse_digraph_text(text: str) -> Digraph:
    _, v, arcs = _read_text(text, {"digraph v": _pair})
    _reject_repeats(arcs, "arc")
    return digraph(v, arcs)


def format_tree_text(t: Tree) -> str:
    lines = [f"tree v={t.v}"]
    lines.extend(f"{a} {b}" for a, b in sorted(tuple(sorted(e)) for e in t.edges))
    return "\n".join(lines) + "\n"


def parse_tree_text(text: str) -> Tree:
    _, v, edges = _read_text(text, {"tree v": _pair})
    _reject_repeats(edges, "edge", frozenset)
    return tree(v, edges)
