"""Tree-side constructions and exhaustive small-host checks.

The caterpillar rule orients the longest path left to right and then walks
it: at each internal spine vertex the pendant leaves alternate with/against
the incoming direction, and the outgoing spine edge continues (even degree)
or reverses (odd degree).  This balances in- against out-arcs at every
spine vertex, which is exactly what the counting argument needs.

Isomorphic-pair pruning removes two isomorphic whole branches hanging at a
common vertex, orients the rest recursively, and wires the pair back in as
w -> v -> phi(w).

Deterministic choices: the longest path is the lexicographically smallest
vertex sequence among all longest paths (either direction), and siblings are
ordered by vertex id.  Any choice is valid; pinning one makes outputs
reproducible.

The anchored checks (strong TAS and the AM-GM gluing step) count every host
of size n in one pass: `_labeled_counts` evaluates all injective maps of the
pattern on the 0/1 `class_stack(n)` at once, one host per isomorphism
class.  Relabelling a host, and its anchor images with it, keeps every
count they compare, so a class breaks the bound exactly when its least
labeled member does; the classes come in order of that index, so the first
violation found is the first in labeled host-then-embedding order, and is
reported at its labeled position.  Both tables, the class stack and the
maps, are built once per process and shared read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial, perm

import numpy as np

from .core import Digraph, Tree, _component, _hang, _path_order, digraph, disjoint_union, tree
from .errors import (
    CapExceeded,
    InternalAssertionFailed,
    InvalidInput,
    NotCaterpillar,
    NotIndependent,
    PreconditionViolated,
)
from .tournament import CLASS_INDICES, ENUMERATION_CAP, Tournament, _freeze, class_stack

PROV_CATERPILLAR = "CaterpillarRule"
PROV_ISO_PAIR = "IsoPairRecursion"
PROV_UNKNOWN = "Unknown"
_GATHER_BYTES = 1 << 22  # the most bytes one arc gathers in _labeled_counts


@dataclass(frozen=True)
class TreeOrientation:
    tree: Tree
    arcs: tuple[tuple[int, int], ...] | None
    provenance: str

    def as_digraph(self) -> Digraph:
        if self.arcs is None:
            raise InvalidInput("no orientation available (provenance Unknown)")
        return digraph(self.tree.v, self.arcs)


@dataclass(frozen=True)
class IsoPair:
    h1: frozenset[int]
    h2: frozenset[int]
    v: int
    w: int
    phi: tuple[tuple[int, int], ...]  # mapping h1 -> h2 as sorted pairs

    def phi_dict(self) -> dict[int, int]:
        return dict(self.phi)


def is_caterpillar(t: Tree) -> tuple[bool, list[int]]:
    """True plus the spine (vertices left after removing all leaves)."""
    if t.v < 2:
        raise InvalidInput("need at least two vertices")
    adj = t.adjacency()
    spine = _path_order(adj, {x for x in range(t.v) if len(adj[x]) != 1})
    return (False, []) if spine is None else (True, spine)


def _depths(adj, root: int) -> list[int]:
    """The distance of every vertex of a tree from root."""
    order, up = _hang(adj, root)
    depth = [0] * len(adj)
    for x in order[1:]:
        depth[x] = depth[up[x]] + 1
    return depth


def canonical_longest_path(t: Tree) -> list[int]:
    """The least vertex sequence among the longest paths, read either way.

    Two breadth-first passes give the ends a, b of a diameter D; in a tree
    the farthest vertex from any x is a or b, so the path starts at the
    least x whose larger distance to a and b is D.  Hung from x, the path
    then takes at each step the least child whose height is the number of
    edges still needed.
    """
    adj = t.adjacency()
    d0 = _depths(adj, 0)
    da = _depths(adj, d0.index(max(d0)))
    db = _depths(adj, da.index(max(da)))
    diameter = max(da)
    start = min(x for x in range(t.v) if max(da[x], db[x]) == diameter)
    order, up = _hang(adj, start)
    height = [0] * t.v
    for x in reversed(order[1:]):
        height[up[x]] = max(height[up[x]], height[x] + 1)
    path = [start]
    for need in range(diameter - 1, -1, -1):
        x = path[-1]
        path.append(min(y for y in adj[x] if y != up[x] and height[y] == need))
    return path


def orient_caterpillar(t: Tree) -> TreeOrientation:
    """Orient a caterpillar by the alternating spine rule."""
    ok, _ = is_caterpillar(t)
    if not ok:
        raise NotCaterpillar("input tree is not a caterpillar")
    adj = t.adjacency()
    spine = canonical_longest_path(t)
    on_spine = set(spine)
    # every off-path vertex must be a pendant leaf of the longest path
    for x in range(t.v):
        if x not in on_spine and (len(adj[x]) != 1 or adj[x][0] not in on_spine):
            raise NotCaterpillar("off-path vertex is not a pendant leaf")
    arcs: list[tuple[int, int]] = [(spine[0], spine[1])]
    forward = True  # direction of the edge entering the current spine vertex
    for i in range(1, len(spine) - 1):
        x = spine[i]
        pendants = [y for y in adj[x] if y not in (spine[i - 1], spine[i + 1])]
        for j, y in enumerate(pendants, start=1):
            away = forward if j % 2 == 1 else not forward
            arcs.append((x, y) if away else (y, x))
        forward ^= len(adj[x]) % 2 == 1  # odd degree reverses the spine direction
        arcs.append((x, spine[i + 1]) if forward else (spine[i + 1], x))
    return TreeOrientation(t, tuple(arcs), PROV_CATERPILLAR)


def _branch_codes(adj, root: int, parent: int | None = None) -> dict[int, str]:
    """rooted_code of each child of root, with the tree hung from root and the
    branch through parent cut off: one pass, children first.  A code is
    dropped once its parent's is built, so the codes alive at any time belong
    to disjoint branches and take O(v) characters together."""
    order, up = _hang(adj, root, parent)
    codes: dict[int, str] = {}
    for x in reversed(order[1:]):
        codes[x] = "(" + "".join(sorted(codes.pop(y) for y in adj[x] if y != up[x])) + ")"
    return codes


def rooted_code(adj, root: int, parent: int | None = None) -> str:
    """Canonical rooted-tree encoding: sorted children codes in parentheses."""
    return "(" + "".join(sorted(_branch_codes(adj, root, parent).values())) + ")"


def _shape_ids(adj, root: int, parent: int | None, shapes: dict) -> dict[int, int]:
    """An integer for every vertex below root (hung as in _branch_codes), equal
    for two vertices exactly when their rooted codes are: the index in shapes
    of its children's sorted integers."""
    order, up = _hang(adj, root, parent)
    ids: dict[int, int] = {}
    for x in reversed(order):
        key = tuple(sorted(ids[y] for y in adj[x] if y != up[x]))
        ids[x] = shapes.setdefault(key, len(shapes))
    return ids


def _match_rooted(adj, r1, p1, r2, p2, phi):
    """Extend phi with a canonical isomorphism of two rooted branches: like
    children are paired in label order."""
    shapes: dict[tuple[int, ...], int] = {}
    ids1, ids2 = _shape_ids(adj, r1, p1, shapes), _shape_ids(adj, r2, p2, shapes)
    stack = [(r1, p1, r2, p2)]
    while stack:
        r1, p1, r2, p2 = stack.pop()
        phi[r1] = r2
        kids1 = sorted((ids1[y], y) for y in adj[r1] if y != p1)
        kids2 = sorted((ids2[y], y) for y in adj[r2] if y != p2)
        for (c1, y1), (c2, y2) in zip(kids1, kids2):
            if c1 != c2:
                raise InternalAssertionFailed("matched branches are not isomorphic")
            stack.append((y1, r1, y2, r2))


def find_isomorphic_pair(t: Tree) -> IsoPair | None:
    """Two isomorphic whole branches at a common vertex, or None.

    For trees the cut condition forces the parts to be full components of
    t - {v} rooted at two neighbors, so scanning those realizes the
    definition exactly.
    """
    if t.v < 3:
        return None
    adj = t.adjacency()
    for v in range(t.v):
        below = _branch_codes(adj, v)
        codes: dict[str, list[int]] = {}
        for w in adj[v]:
            codes.setdefault(below[w], []).append(w)
        for code in sorted(codes):
            roots = codes[code]
            if len(roots) >= 2:
                w1, w2 = sorted(roots)[:2]
                h1 = _component(adj, w1, banned=v)
                h2 = _component(adj, w2, banned=v)
                phi: dict[int, int] = {}
                _match_rooted(adj, w1, v, w2, v, phi)
                pair = IsoPair(
                    frozenset(h1), frozenset(h2), v, w1,
                    tuple(sorted(phi.items())),
                )
                _verify_isopair(t, pair)
                return pair
    return None


def _verify_isopair(t: Tree, pair: IsoPair) -> None:
    """Independent check of the cut condition."""
    inside = pair.h1 | pair.h2
    cut = {
        tuple(sorted(e))
        for e in t.edges
        if len(set(e) & inside) == 1
    }
    w2 = pair.phi_dict()[pair.w]
    expected = {tuple(sorted((pair.v, pair.w))), tuple(sorted((pair.v, w2)))}
    if cut != expected:
        raise InternalAssertionFailed("isomorphic pair fails the cut condition")
    if pair.h1 & pair.h2:
        raise InternalAssertionFailed("isomorphic pair has overlapping halves")
    if not all(a in pair.h1 and b in pair.h2 for a, b in pair.phi):
        raise InternalAssertionFailed("phi does not map h1 into h2")


def _subtree(t: Tree, keep: set[int]) -> tuple[Tree, dict[int, int]]:
    order = sorted(keep)
    relabel = {x: i for i, x in enumerate(order)}
    edges = [
        tuple(relabel[x] for x in e)
        for e in t.edges
        if set(e) <= keep
    ]
    return tree(len(order), edges), relabel


def orient_tree_tas(t: Tree) -> TreeOrientation:
    """Caterpillar rule, else isomorphic-pair recursion, else Unknown."""
    if t.v == 1:
        return TreeOrientation(t, (), PROV_CATERPILLAR)
    ok, _ = is_caterpillar(t)
    if ok:
        return orient_caterpillar(t)
    pair = find_isomorphic_pair(t)
    if pair is None:
        return TreeOrientation(t, None, PROV_UNKNOWN)
    phi = pair.phi_dict()
    rest_keep = set(range(t.v)) - set(pair.h1) - set(pair.h2)
    rest, rest_map = _subtree(t, rest_keep)
    rest_orient = orient_tree_tas(rest)
    h1_tree, h1_map = _subtree(t, set(pair.h1))
    h1_orient = orient_tree_tas(h1_tree)
    if rest_orient.arcs is None or h1_orient.arcs is None:
        return TreeOrientation(t, None, PROV_UNKNOWN)
    inv_rest = {i: x for x, i in rest_map.items()}
    inv_h1 = {i: x for x, i in h1_map.items()}
    arcs = [(inv_rest[a], inv_rest[b]) for a, b in rest_orient.arcs]
    h1_arcs = [(inv_h1[a], inv_h1[b]) for a, b in h1_orient.arcs]
    arcs.extend(h1_arcs)
    arcs.extend((phi[a], phi[b]) for a, b in h1_arcs)
    arcs.append((pair.w, pair.v))
    arcs.append((pair.v, phi[pair.w]))
    return TreeOrientation(t, tuple(arcs), PROV_ISO_PAIR)


# --- exhaustive small-host checks -------------------------------------------


@dataclass(frozen=True)
class ExhaustiveReport:
    passed: bool
    checked: int
    counterexample: dict | None


def _labeled_counts(d: Digraph, adj: np.ndarray, anchors) -> np.ndarray:
    """Injective arc-preserving maps V(d) -> [n] into every host of the 0/1 stack adj.

    Entry [s, a] counts the maps into host s that send `anchors` to the a-th
    tuple of permutations(range(n), len(anchors)); listing the maps anchors
    first groups them in that order.  The stack is transposed once so that
    row p * n + q holds A[p, q] of every host; each arc then gathers whole
    rows, one per map phi at phi(u) * n + phi(w), into an (anchor images,
    completions, hosts) array, one block of anchor images within _GATHER_BYTES
    at a time (one block for every class stack, and for any labeled stack
    with n <= 5).  With no injective map the counts are zero and the stack
    is not read.  No count exceeds the completions count, which is checked
    to fit the uint16 counts.
    """
    n, k = adj.shape[1], len(anchors)
    shape = (perm(n, k), perm(max(n - k, 0), d.v - k))
    if shape[1] >= 2**16:
        raise InternalAssertionFailed(f"{shape[1]} completions overflow the uint16 counts")
    if 0 in shape:
        return np.zeros((len(adj), shape[0]), dtype=np.uint16)
    col = {x: i for i, x in enumerate(list(anchors) + [x for x in range(d.v) if x not in anchors])}
    maps = _injective_maps(n, d.v).reshape(shape + (d.v,))
    rows = np.ascontiguousarray(adj.reshape(len(adj), n * n).T)
    step = max(1, _GATHER_BYTES // (shape[1] * len(adj)))
    counts = np.empty((len(adj), shape[0]), dtype=np.uint16)
    for a in range(0, shape[0], step):
        block = maps[a : a + step]
        hit = np.ones(block.shape[:2] + (len(adj),), dtype=np.uint8)
        for u, w in d.arcs:
            hit &= rows[block[..., col[u]] * n + block[..., col[w]]]
        counts[:, a : a + step] = hit.sum(axis=1, dtype=np.uint16).T
    return counts


@lru_cache(maxsize=64)
def _injective_maps(n: int, v: int) -> np.ndarray:
    """permutations(range(n), v) as one read-only array: at most 720 x 6 under the cap."""
    maps = np.array(list(permutations(range(n), v)), dtype=np.intp)
    maps.flags.writeable = False
    return maps


def strong_tas_check(d: Digraph, i_set, n_max: int) -> ExhaustiveReport:
    """Check the anchored count bound 2^-e n^(v-|I|) over all hosts with n <= n_max.

    For every tournament and every embedding of the independent set, counts
    labeled (injective) copies of d extending the embedding.
    """
    i_set = sorted(set(i_set))
    if not all(0 <= x < d.v for x in i_set):
        raise InvalidInput(f"anchors must be vertices 0..{d.v - 1} of the pattern")
    if n_max < 1:
        raise PreconditionViolated("the strong TAS check needs n_max >= 1")
    if n_max > ENUMERATION_CAP:
        raise CapExceeded(f"strong TAS check capped at n <= {ENUMERATION_CAP}")
    for u, w in d.arcs:
        if u in i_set and w in i_set:
            raise NotIndependent(f"arc ({u},{w}) lies inside the anchored set")
    checked, k = 0, len(i_set)
    for n in range(1, n_max + 1):
        adj = class_stack(n)
        counts = _labeled_counts(d, adj, i_set)
        # an integer count exceeds n^(v-k)/2^e iff it exceeds the floor; none exceeds n!
        hits = np.flatnonzero(counts > min(n ** (d.v - k) // 2**d.e, factorial(n)))
        if hits.size:
            c, a = divmod(int(hits[0]), counts.shape[1])
            # class row c is labeled host CLASS_INDICES[n][c]; count up to its image a
            checked += CLASS_INDICES[n][c] * counts.shape[1] + a + 1
            return ExhaustiveReport(False, checked, {
                "n": n, "adj": Tournament(n, _freeze(adj[c].tolist())).adj,
                "embedding": tuple(zip(i_set, list(permutations(range(n), k))[a])),
                "count": int(counts[c, a]), "bound": Fraction(n ** (d.v - k), 2**d.e)})
        checked += 2 ** (n * (n - 1) // 2) * counts.shape[1]
    return ExhaustiveReport(True, checked, None)


def glued_pair_digraph(h: Digraph, w: int) -> tuple[Digraph, int, int]:
    """D = H + copy of H + fresh v with arcs w -> v -> w'; returns (D, v, w')."""
    if not (0 <= w < h.v):
        raise InvalidInput("w must be a vertex of h")
    v_new, w_prime = 2 * h.v, w + h.v
    arcs = disjoint_union(h, h).arcs | {(w, v_new), (v_new, w_prime)}
    return digraph(v_new + 1, arcs), v_new, w_prime


def amgm_check(h: Digraph, w: int, n_max: int) -> ExhaustiveReport:
    """Verify N(D, T | v -> t) <= N(H, T)^2 / 4 exhaustively for n <= n_max."""
    if n_max < 1:
        raise PreconditionViolated("the AM-GM check needs n_max >= 1")
    if n_max > ENUMERATION_CAP:
        raise CapExceeded(f"check capped at n <= {ENUMERATION_CAP}")
    d, v_new, _ = glued_pair_digraph(h, w)
    checked = 0
    for n in range(1, n_max + 1):
        adj = class_stack(n)
        n_h = _labeled_counts(h, adj, ()).astype(np.int64)
        counts = _labeled_counts(d, adj, (v_new,))
        hits = np.flatnonzero(counts > n_h * n_h // 4)  # 4c > m^2 iff c > floor(m^2/4)
        if hits.size:
            c, t = divmod(int(hits[0]), n)
            checked += CLASS_INDICES[n][c] * n + t + 1
            return ExhaustiveReport(False, checked, {
                "n": n, "adj": Tournament(n, _freeze(adj[c].tolist())).adj, "t": t,
                "count": int(counts[c, t]), "bound": Fraction(int(n_h[c, 0]) ** 2, 4)})
        checked += 2 ** (n * (n - 1) // 2) * n
    return ExhaustiveReport(True, checked, None)
