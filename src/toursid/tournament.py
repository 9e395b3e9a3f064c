"""Host-side objects: tournaments, weighted tournaments, and skew matrices.

Two arithmetic backends coexist: exact `fractions.Fraction` entries for
certificates and refutation, and floats for spectral work.  A matrix is
"exact" when every entry is a Fraction or a Python or numpy integer;
operations preserve the backend of their input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .core import _read_text
from .errors import CapExceeded, InvalidInput, MissingHalfLoops, SizeMismatch

ENUMERATION_CAP = 6  # CLASS_INDICES stops here; the labeled n = 7 stack would be 103 MB
CUTNORM_CAP = 16

_FLOAT_TOL = 1e-12


def _freeze(rows) -> tuple[tuple, ...]:
    return tuple(tuple(row) for row in rows)


def _is_exact(rows) -> bool:
    """Whether every entry is a Python or numpy integer or a Fraction."""
    return all(isinstance(x, (Fraction, int, np.integer)) for row in rows for x in row)


def _check_square(n: int, rows) -> None:
    if n < 1:
        raise InvalidInput("need at least one vertex")
    if len(rows) != n or any(len(row) != n for row in rows):
        raise InvalidInput(f"need {n} rows of {n} entries")


@dataclass(frozen=True)
class Tournament:
    """Unweighted tournament; adj[i][j] == 1 iff arc i -> j."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_square(self.n, self.adj)
        for i in range(self.n):
            if self.adj[i][i] != 0:
                raise InvalidInput("no self-loops")
            for j in range(i + 1, self.n):
                if self.adj[i][j] + self.adj[j][i] != 1:
                    raise InvalidInput(f"pair ({i},{j}) must have exactly one arc")
        if any(x not in (0, 1) for row in self.adj for x in row):
            raise InvalidInput("entries must be 0 or 1")

    def arcs(self) -> set[tuple[int, int]]:
        return {(i, j) for i in range(self.n) for j in range(self.n) if self.adj[i][j]}


@dataclass(frozen=True)
class _Matrix:
    """Square matrix of exact or float entries; subclasses check their own rules."""

    n: int
    entries: tuple[tuple, ...]

    @property
    def is_exact(self) -> bool:
        return _is_exact(self.entries)

    def rows(self) -> list[list]:
        return [list(row) for row in self.entries]


@dataclass(frozen=True)
class WeightedTournament(_Matrix):
    """Adjacency matrix with A(i,j) + A(j,i) = 1 off-diagonal, entries in [0,1]."""

    def __post_init__(self):
        _check_square(self.n, self.entries)
        exact = self.is_exact
        one = Fraction(1) if exact else 1.0
        for i in range(self.n):
            for j in range(self.n):
                x = self.entries[i][j]
                if not (0 <= x <= 1):
                    raise InvalidInput(f"entry ({i},{j}) = {x} outside [0,1]")
                if i == j:
                    continue
                s = self.entries[i][j] + self.entries[j][i]
                if exact:
                    if s != one:
                        raise InvalidInput(f"A({i},{j}) + A({j},{i}) != 1")
                elif abs(s - 1.0) > _FLOAT_TOL:
                    raise InvalidInput(f"A({i},{j}) + A({j},{i}) != 1 (float)")

    @property
    def loops_half(self) -> bool:
        """Whether every diagonal entry is 1/2 (within _FLOAT_TOL for floats)."""
        diagonal = [self.entries[i][i] for i in range(self.n)]
        if self.is_exact:
            return all(x == Fraction(1, 2) for x in diagonal)
        return all(abs(x - 0.5) <= _FLOAT_TOL for x in diagonal)


@dataclass(frozen=True)
class SkewMatrix(_Matrix):
    """Skew-symmetric matrix with entries in [-1, 1].

    Entries beyond [-1/2, 1/2] are legal for pure kernel computations;
    conversion to a weighted tournament (construct.w_eps) enforces the
    tournament range.
    """

    def __post_init__(self):
        _check_square(self.n, self.entries)
        exact = self.is_exact
        for i in range(self.n):
            for j in range(self.n):
                x = self.entries[i][j]
                if not (-1 <= x <= 1):
                    raise InvalidInput(f"entry ({i},{j}) = {x} outside [-1,1]")
                s = self.entries[i][j] + self.entries[j][i]
                if exact:
                    if s != 0:
                        raise InvalidInput("matrix is not skew-symmetric")
                elif abs(s) > _FLOAT_TOL:
                    raise InvalidInput("matrix is not skew-symmetric (float)")

    def scaled(self, c) -> "SkewMatrix":
        return SkewMatrix(self.n, _freeze([[c * x for x in row] for row in self.entries]))

    def max_abs(self):
        return max(abs(x) for row in self.entries for x in row)

    def to_float(self) -> "SkewMatrix":
        return SkewMatrix(self.n, _freeze([[float(x) for x in row] for row in self.entries]))


def skew(rows) -> SkewMatrix:
    rows = _freeze(rows)
    return SkewMatrix(len(rows), rows)


# The least index in tournament_stack(n) of each isomorphism class of
# n-vertex tournaments, in increasing order: 1, 1, 2, 4, 12 and 56 classes
# (OEIS A000568).  tests/test_host_tables.py recomputes them by brute force.
CLASS_INDICES = {
    1: (0,),
    2: (0,),
    3: (0, 2),
    4: (0, 2, 8, 9),
    5: (0, 2, 8, 9, 64, 65, 66, 67, 72, 80, 81, 200),
    6: (0, 2, 8, 9, 64, 65, 66, 67, 72, 80, 81, 200, 1024, 1025, 1026, 1027, 1032,
        1033, 1034, 1035, 1040, 1041, 1043, 1051, 1088, 1089, 1090, 1096, 1104, 1105,
        1152, 1153, 1154, 1155, 1156, 1157, 1158, 1159, 1160, 1161, 1162, 1165, 1169,
        1171, 1177, 1224, 3136, 3137, 3138, 3141, 3142, 3152, 3153, 3157, 3264, 3340),
}


def _check_cap(n: int) -> None:
    if not (1 <= n <= ENUMERATION_CAP):
        raise CapExceeded(f"enumeration capped at n <= {ENUMERATION_CAP}")


def tournament_stack(n: int) -> np.ndarray:
    """All 2^(n(n-1)/2) tournaments as 0/1 adjacency matrices, shape (count, n, n).

    Host k has arc i -> j (i < j) when the bit of pair (i, j) in k is set,
    the pairs taken in row-major upper-triangle order from the most
    significant bit down: lexicographic upper-triangle bit order.  Each
    stack is built once per process and shared read-only; under the cap
    all of them together take 1.2 MB.
    """
    _check_cap(n)
    return _stack(n)


def class_stack(n: int) -> np.ndarray:
    """One tournament per isomorphism class: the rows CLASS_INDICES[n] of
    tournament_stack(n), decoded by its bit rule without building it.

    Built once per n and shared read-only; the n = 6 stack holds 56 hosts.
    """
    _check_cap(n)
    return _classes(n)


def _decode(n: int, masks: np.ndarray) -> np.ndarray:
    """The read-only 0/1 adjacency matrices of the hosts with these indices."""
    pairs = list(zip(*np.triu_indices(n, 1)))
    adj = np.zeros((len(masks), n, n), dtype=np.uint8)
    for k, (i, j) in enumerate(pairs):
        adj[:, i, j] = (masks >> (len(pairs) - 1 - k)) & 1
        adj[:, j, i] = 1 - adj[:, i, j]
    adj.flags.writeable = False
    return adj


@lru_cache(maxsize=None)
def _stack(n: int) -> np.ndarray:
    return _decode(n, np.arange(1 << (n * (n - 1) // 2), dtype=np.uint32))


@lru_cache(maxsize=None)
def _classes(n: int) -> np.ndarray:
    return _decode(n, np.array(CLASS_INDICES[n], dtype=np.uint32))


@lru_cache(maxsize=None)
def half_loop_stack(n: int) -> np.ndarray:
    """The integer matrices 2A + I of class_stack(n), in its order.

    Each is twice the half-loop host of a tournament.  Built once per n and
    shared read-only, like the class stack.
    """
    twice = 2 * class_stack(n) + np.eye(n, dtype=np.uint8)
    twice.flags.writeable = False
    return twice


def _orient(n: int, forward) -> Tournament:
    """Arc i -> j where forward(i, j) holds and j -> i otherwise, asked once
    per pair i < j, row by row."""
    if n < 1:
        raise InvalidInput("need at least one vertex")
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            adj[i][j], adj[j][i] = (1, 0) if forward(i, j) else (0, 1)
    return Tournament(n, _freeze(adj))


def random_tournament(n: int, seed: int) -> Tournament:
    """Each pair oriented by an independent fair coin; deterministic in seed."""
    rng = random.Random(seed)
    return _orient(n, lambda i, j: rng.random() < 0.5)


def transitive(n: int) -> Tournament:
    return _orient(n, lambda i, j: True)


def with_half_loops(t: Tournament) -> WeightedTournament:
    """Exact-rational weighted tournament: arcs get weight 1, diagonal 1/2."""
    half = Fraction(1, 2)
    ent = [
        [half if i == j else Fraction(t.adj[i][j]) for j in range(t.n)]
        for i in range(t.n)
    ]
    return WeightedTournament(t.n, _freeze(ent))


def skew_decompose(w: WeightedTournament) -> SkewMatrix:
    """B = A - J/2; exact on the diagonal only with half loops."""
    if not w.loops_half:
        raise MissingHalfLoops("skew decomposition needs half loops on the diagonal")
    half = Fraction(1, 2) if w.is_exact else 0.5
    ent = [[w.entries[i][j] - half for j in range(w.n)] for i in range(w.n)]
    return SkewMatrix(w.n, _freeze(ent))


def blowup(t: Tournament, part_sizes, inner: str = "transitive", seed: int = 0) -> Tournament:
    """Replace vertex k of t by a part; arcs between parts follow t.

    inner rule "transitive" or "random" (seeded) orients within each part.
    """
    if len(part_sizes) != t.n:
        raise SizeMismatch(f"need {t.n} part sizes, got {len(part_sizes)}")
    if inner not in ("transitive", "random"):
        raise InvalidInput("inner rule must be 'transitive' or 'random'")
    if any(s < 1 for s in part_sizes):
        raise InvalidInput("part sizes must be positive")
    rng = random.Random(seed)
    part_of = [k for k, s in enumerate(part_sizes) for _ in range(s)]
    return _orient(len(part_of), lambda i, j: (
        t.adj[part_of[i]][part_of[j]] if part_of[i] != part_of[j]
        else inner == "transitive" or rng.random() < 0.5))


def cutnorm_bruteforce(b: SkewMatrix):
    """max over X,Y of |sum_{x in X, y in Y} B(x,y)| / n^2, exactly.

    For each X the optimal Y keeps one sign of the column sums, so the scan
    is 2^n * n instead of 4^n; X subsets are visited in Gray-code order with
    incremental column-sum updates.
    """
    n = b.n
    if n > CUTNORM_CAP:
        raise CapExceeded(f"cut norm brute force capped at n <= {CUTNORM_CAP}")
    zero = Fraction(0) if b.is_exact else 0.0
    colsums = [zero] * n
    best = zero
    prev_gray = 0
    for m in range(1, 1 << n):
        gray = m ^ (m >> 1)
        flipped = gray ^ prev_gray
        i = flipped.bit_length() - 1
        row = b.entries[i]
        if gray & flipped:  # row i entered X
            colsums = [c + x for c, x in zip(colsums, row)]
        else:
            colsums = [c - x for c, x in zip(colsums, row)]
        prev_gray = gray
        pos = sum(c for c in colsums if c > 0)
        neg = -sum(c for c in colsums if c < 0)
        cand = pos if pos > neg else neg
        if cand > best:
            best = cand
    return best / (n * n) if b.is_exact else best / float(n * n)


# --- text formats -----------------------------------------------------------


def format_tournament_text(t: Tournament) -> str:
    lines = [f"tournament n={t.n}"]
    lines.extend("".join(str(t.adj[i][j]) for j in range(t.n)) for i in range(t.n))
    return "\n".join(lines) + "\n"


def parse_tournament_text(text: str) -> Tournament:
    return _parse_host(text, ("tournament n",))


def format_weighted_text(w: WeightedTournament) -> str:
    lines = [f"wtournament n={w.n}"]
    for i in range(w.n):
        lines.append(" ".join(_frac_str(x) for x in w.entries[i]))
    return "\n".join(lines) + "\n"


def _frac_str(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return f"{x}/1"
    return repr(x)


def parse_weighted_text(text: str) -> WeightedTournament:
    return _parse_host(text, ("wtournament n",))


_HOST_ROWS = {
    "tournament n": lambda line: [int(c) for c in line.strip()],
    "wtournament n": lambda line: [Fraction(tok) for tok in line.split()],
}


def _parse_host(text: str, heads=tuple(_HOST_ROWS)):
    """A tournament or a weighted tournament, from a file with one of heads."""
    head, n, rows = _read_text(text, {h: _HOST_ROWS[h] for h in heads})
    if head == "tournament n":
        return Tournament(n, _freeze(rows))
    return WeightedTournament(n, _freeze(rows))
