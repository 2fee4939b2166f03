"""Finite groups as explicit Cayley tables, with 0-based element indices.

Every group in this package is a full multiplication table over elements
0..order-1, with 0 always the identity.  Tables are tuples of int tuples,
so groups are immutable, compare and hash by value, and are safe to share
between threads.  ``FiniteGroup.from_table`` checks every group axiom
exactly; associativity by Light's test over a greedy generating set, at
|G|^2 table reads per generator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

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

    @classmethod
    def from_table(cls, table: Sequence[Sequence[int]], name: str = "G") -> "FiniteGroup":
        """Build and validate a group from a raw table (any nested int
        sequence, numpy arrays included).

        Closure, identity and inverse laws are checked exhaustively, and
        associativity exactly by Light's test: (x*s)*y = x*(s*y) for every
        x, y and every s in a generating set.  The elements s that pass
        are closed under products, and every element is a left-to-right
        product of generators, so this covers every triple.
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
        for s in _generators(t)[0]:
            # row x*s of the table against row x read through row s
            for x, row in enumerate(t):
                if t[row[s]] != tuple(row[z] for z in t[s]):
                    y = next(y for y in idx if t[row[s]][y] != row[t[s][y]])
                    raise GroupTableError(f"associativity fails at {(x, s, y)}")
        return cls(order=n, table=t, inverses=tuple(inverses), name=name)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

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


def _generators(t: Table) -> tuple[list[int], list[tuple[int, int, int]]]:
    """A greedy generating set of a table with identity 0, and steps
    (a, i, b) with b = a * gens[i] that reach every element from 0; each
    step's a is 0 or the b of an earlier step."""
    n = len(t)
    gens: list[int] = []
    steps: list[tuple[int, int, int]] = []
    reached = [True] + [False] * (n - 1)
    elements = [0]
    for s in range(n):
        if reached[s]:
            continue
        gens.append(s)
        old = len(elements)  # already closed under the earlier generators
        for pos, a in enumerate(elements):
            for i in range(len(gens) - 1 if pos < old else 0, len(gens)):
                b = t[a][gens[i]]
                if not reached[b]:
                    reached[b] = True
                    elements.append(b)
                    steps.append((a, i, b))
        if len(elements) == n:
            break
    return gens, steps


def automorphisms(h: FiniteGroup) -> list[tuple[int, ...]]:
    """All table-preserving bijections of h, sorted lexicographically.

    Backtracks over images of a generating set; candidates for a generator
    are restricted to elements of equal order.  A candidate extends to at
    most one map, along the steps that reach every element.
    """
    gens, steps = _generators(h.table)
    if not gens:  # trivial group
        return [(0,)]
    orders = [h.element_order(a) for a in range(h.order)]
    by_order: dict[int, list[int]] = {}
    for a in range(h.order):
        by_order.setdefault(orders[a], []).append(a)

    found: list[tuple[int, ...]] = []

    def extend(pos: int, images: list[int]) -> None:
        if pos == len(gens):
            m = [0] * h.order
            for a, i, b in steps:
                m[b] = h.mul(m[a], images[i])
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
