"""Finite groups as explicit Cayley tables, with 0-based element indices.

Every group in this package is a full multiplication table over elements
0..order-1, with 0 always the identity.  Tables are tuples of int tuples,
so groups are immutable, compare and hash by value, and are safe to share
between threads.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

ASSOC_EXHAUSTIVE_BOUND = 64
ASSOC_SAMPLES = 10_000

Table = tuple[tuple[int, ...], ...]


class GroupTableError(ValueError):
    """Raised when a multiplication table fails a group axiom."""


def _as_table(table: Sequence[Sequence[int]]) -> Table:
    try:
        rows = tuple(tuple(int(x) for x in row) for row in table)
    except TypeError as exc:
        raise GroupTableError("table must be a square array of integers") from exc
    if any(len(row) != len(rows) for row in rows):
        widths = sorted({len(row) for row in rows})
        raise GroupTableError(f"table must be square, got {len(rows)} rows of widths {widths}")
    return rows


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its full multiplication table.

    ``table[a][b]`` is the product a*b.  Element 0 is the identity; this is
    a package-wide convention and is enforced at construction.
    """

    order: int
    table: Table
    inverses: tuple[int, ...]
    name: str = "G"
    identity: int = 0

    @classmethod
    def from_table(
        cls,
        table: Sequence[Sequence[int]],
        name: str = "G",
        *,
        assoc_bound: int = ASSOC_EXHAUSTIVE_BOUND,
        rng: random.Random | None = None,
    ) -> "FiniteGroup":
        """Build and validate a group from a raw table (any nested int
        sequence, numpy arrays included).

        Closure, identity and inverse laws are always checked exhaustively.
        Associativity is exhaustive up to ``assoc_bound`` (cubic cost) and
        spot-checked on random triples above it.
        """
        t = _as_table(table)
        n = len(t)
        if n == 0:
            raise GroupTableError("empty table")
        for a, row in enumerate(t):
            for b, x in enumerate(row):
                if not 0 <= x < n:
                    raise GroupTableError(
                        f"table not closed: entry at {(a, b)} out of range [0,{n})")
        idx = tuple(range(n))
        if t[0] != idx or tuple(row[0] for row in t) != idx:
            raise GroupTableError("element 0 is not a two-sided identity")
        inverses = []
        for a, row in enumerate(t):
            hits = [b for b, x in enumerate(row) if x == 0]
            if len(hits) != 1 or t[hits[0]][a] != 0:
                raise GroupTableError(f"element {a} has no two-sided inverse")
            inverses.append(hits[0])
        if n <= assoc_bound:
            # (a*b)*c == a*(b*c): row a*b of the table against row a read
            # through row b, for every pair (a, b)
            for a, row in enumerate(t):
                for b, ab in enumerate(row):
                    if t[ab] != tuple(row[x] for x in t[b]):
                        c = next(c for c in idx if t[ab][c] != row[t[b][c]])
                        raise GroupTableError(f"associativity fails at {(a, b, c)}")
        else:
            rng = rng or random.Random(0)
            for _ in range(ASSOC_SAMPLES):
                a, b, c = (rng.randrange(n) for _ in range(3))
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    raise GroupTableError(f"associativity fails at ({a},{b},{c})")
        return cls(order=n, table=t, inverses=tuple(inverses), name=name)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def elements(self) -> range:
        return range(self.order)

    def word(self, *elts: int) -> int:
        """Left-to-right product of the given elements."""
        acc = 0
        for x in elts:
            acc = self.table[acc][x]
        return acc

    def conj(self, a: int, b: int) -> int:
        """a b a^-1."""
        return self.table[self.table[a][b]][self.inverses[a]]

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.table[x][a]
            k += 1
        return k

    def is_abelian(self) -> bool:
        return self.table == tuple(zip(*self.table))

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


def compose(g: FiniteGroup, a: int, b: int) -> int:
    """Product a*b in g.  Raises IndexError on out-of-range indices."""
    if not (0 <= a < g.order and 0 <= b < g.order):
        raise IndexError(f"element index out of range for group of order {g.order}")
    return g.mul(a, b)


def build_cyclic(n: int, name: str | None = None) -> FiniteGroup:
    """Z/n with addition mod n; identity is 0."""
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    return FiniteGroup.from_table(
        [[(a + b) % n for b in range(n)] for a in range(n)], name or f"Z{n}")


def build_trivial(name: str = "1") -> FiniteGroup:
    return build_cyclic(1, name)


def build_direct_product(a: FiniteGroup, b: FiniteGroup, name: str | None = None) -> FiniteGroup:
    """A x B with element (x,y) encoded as x*|B| + y.  Identity stays 0."""
    nb = b.order
    table = [
        [b.table[y1][y2] + nb * a.table[x1][x2] for x2 in range(a.order) for y2 in range(nb)]
        for x1 in range(a.order)
        for y1 in range(nb)
    ]
    return FiniteGroup.from_table(table, name or f"{a.name}x{b.name}")


def build_symmetric(n: int, name: str | None = None) -> FiniteGroup:
    """S_n on {0..n-1}; elements are permutations in lexicographic order.

    Composition convention: (p*q)(x) = p(q(x)), so the table entry for
    (i, j) is the permutation "apply perms[j] first".
    """
    if n < 1:
        raise ValueError("symmetric group needs n >= 1")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[x]] for x in range(n))] for q in perms]
        for p in perms
    ]
    return FiniteGroup.from_table(table, name or f"S{n}")


def permutation_product(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """(p ∘ q)(x) = p(q(x)); used by tests as an independent oracle."""
    return tuple(p[q[x]] for x in range(len(p)))


@dataclass(frozen=True)
class GroupHom:
    """A homomorphism between table groups, stored as an image array."""

    source: FiniteGroup
    target: FiniteGroup
    map: tuple[int, ...]

    @classmethod
    def from_map(cls, source: FiniteGroup, target: FiniteGroup,
                 images: Iterable[int]) -> "GroupHom":
        m = tuple(int(x) for x in images)
        if len(m) != source.order:
            raise ValueError(f"map length {len(m)} != source order {source.order}")
        if any(not 0 <= x < target.order for x in m):
            raise ValueError("map image out of range")
        if m[0] != 0:
            raise ValueError("map does not send identity to identity")
        for a in range(source.order):
            for b in range(source.order):
                if m[source.mul(a, b)] != target.mul(m[a], m[b]):
                    raise ValueError(
                        f"not a homomorphism: f({a}*{b}) != f({a})*f({b})")
        return cls(source, target, m)

    def __call__(self, a: int) -> int:
        return self.map[a]


def identity_hom(g: FiniteGroup) -> GroupHom:
    return GroupHom.from_map(g, g, range(g.order))


def kernel(f: GroupHom) -> frozenset[int]:
    """{ h in source : f(h) = identity }.  Always a subgroup."""
    return frozenset(a for a in range(f.source.order) if f.map[a] == 0)


def hom_image(f: GroupHom) -> frozenset[int]:
    return frozenset(f.map)


def _closure(g: FiniteGroup, gens: Sequence[int]) -> set[int]:
    seen = {0, *gens}
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for b in gens:
                c = g.mul(a, b)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


def generating_set(g: FiniteGroup) -> list[int]:
    """A small generating set, found greedily."""
    gens: list[int] = []
    span = {0}
    for a in range(g.order):
        if a not in span:
            gens.append(a)
            span = _closure(g, gens)
            if len(span) == g.order:
                break
    return gens


def automorphisms(h: FiniteGroup) -> list[tuple[int, ...]]:
    """All table-preserving bijections of h, sorted lexicographically.

    Backtracks over images of a generating set; candidates for a generator
    are restricted to elements of equal order.
    """
    gens = generating_set(h)
    if not gens:  # trivial group
        return [(0,)]
    orders = [h.element_order(a) for a in range(h.order)]
    by_order: dict[int, list[int]] = {}
    for a in range(h.order):
        by_order.setdefault(orders[a], []).append(a)

    # Express every element as a fixed word in the generators once, so a
    # candidate generator image extends to at most one map.
    words: dict[int, tuple[int, ...]] = {0: ()}
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for gi, gen in enumerate(gens):
                b = h.mul(a, gen)
                if b not in words:
                    words[b] = words[a] + (gi,)
                    nxt.append(b)
        frontier = nxt

    found: list[tuple[int, ...]] = []

    def extend(pos: int, images: list[int]) -> None:
        if pos == len(gens):
            m = [0] * h.order
            for elt, w in words.items():
                acc = 0
                for gi in w:
                    acc = h.mul(acc, images[gi])
                m[elt] = acc
            if len(set(m)) != h.order:
                return
            for a in range(h.order):
                for b in range(h.order):
                    if m[h.mul(a, b)] != h.mul(m[a], m[b]):
                        return
            found.append(tuple(m))
            return
        for cand in by_order[orders[gens[pos]]]:
            extend(pos + 1, images + [cand])

    extend(0, [])
    found.sort()
    return found


def build_aut_group(h: FiniteGroup, name: str | None = None) -> tuple[FiniteGroup, list[tuple[int, ...]]]:
    """The automorphism group of h, as a table group plus the bijections.

    Element ordering is lexicographic on the bijection arrays, which puts
    the identity map at index 0.
    """
    auts = automorphisms(h)
    index = {a: i for i, a in enumerate(auts)}
    table = [
        [index[permutation_product(p, q)] for q in auts]
        for p in auts
    ]
    g = FiniteGroup.from_table(table, name or f"Aut({h.name})")
    return g, auts
