"""Crossed modules (H -> G, ▷) over finite table groups.

A crossed module here is a boundary homomorphism from H to G together with
a left G-action on H by automorphisms, satisfying

  (2)  bnd(x ▷ y) = x bnd(y) x^-1          for all x in G, y in H
  (3)  y -> x ▷ y is an automorphism of H   for each x in G

plus the left-action laws e ▷ y = y and (x1 x2) ▷ y = x1 ▷ (x2 ▷ y).
The G-on-G action is conjugation by definition and is not stored.

The Peiffer identity bnd(y) ▷ y' = y y' y^-1 is not part of that
definition: it is standard in the literature, some valid inputs here fail
it, and ``peiffer_violations`` lists where.  ``validate`` and the loaders
check the definition only.  ``statesum.invariant`` reads the Peiffer
property to choose its engine: the gauge-fixed engine for a module that has
it, the brute-force oracle for one that lacks it.  ``cmtop validate-cm``
rejects a module that lacks it unless given ``--no-peiffer``.

The action is stored as a tuple of int tuples, like the group tables, so a
crossed module is immutable and compares and hashes by value.  What the
state-sum engine reads of a module alone (the Peiffer flag, the boundary
tables and the kernel's coordinates) is derived on first use and cached on
the instance, so a module evaluated on many complexes builds it once; so
are the brute oracle's face and tet tables, one pair per integer type.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .groups import (
    FiniteGroup,
    GroupHom,
    Table,
    build_aut_group,
    build_trivial,
    kernel,
)


@dataclass(frozen=True)
class Violation:
    """One violated axiom with a witness tuple of element indices."""

    axiom: str
    witness: tuple[int, ...]
    detail: str

    def __str__(self) -> str:
        return f"{self.axiom} at {self.witness}: {self.detail}"


class BoundaryTables(NamedTuple):
    """ker(bnd) in ascending order; per element x of G its least preimage
    under bnd, or -1 outside S = im(bnd), and the least element of its
    coset S x; those least elements, one per coset; and |S|."""

    kernel: tuple[int, ...]
    preimage: tuple[int, ...]
    coset_rep: tuple[int, ...]
    coset_reps: tuple[int, ...]
    image_order: int


class KernelCoordinates(NamedTuple):
    """A = ker(bnd), abelian, as Z^r modulo a relation lattice: the exponent
    D of A, the generators a_1..a_r, each element's coordinates, and the
    relation rows as sparse {coordinate: entry mod D} dicts.  Read-only."""

    exponent: int
    generators: tuple[int, ...]
    coord: dict[int, tuple[int, ...]]
    relations: tuple[dict[int, int], ...]


@dataclass(frozen=True)
class CrossedModule:
    h: FiniteGroup
    g: FiniteGroup
    boundary: GroupHom
    action: Table  # |G| rows of |H| entries; action[x][y] = x |> y
    name: str = "cm"

    def __post_init__(self):
        # accept any nested int sequence (lists, numpy arrays) and store tuples
        action = tuple(tuple(int(y) for y in row) for row in self.action)
        object.__setattr__(self, "action", action)
        if len(action) != self.g.order or any(len(row) != self.h.order for row in action):
            widths = sorted({len(row) for row in action})
            raise ValueError(
                f"action table has {len(action)} rows of widths {widths}, "
                f"want ({self.g.order}, {self.h.order})")
        if self.boundary.source is not self.h or self.boundary.target is not self.g:
            raise ValueError("boundary must map h to g")

    def act(self, x: int, y: int) -> int:
        """x ▷ y."""
        return self.action[x][y]

    def bnd(self, y: int) -> int:
        return self.boundary.map[y]

    def kernel_of_boundary(self) -> frozenset[int]:
        return kernel(self.boundary)

    @cached_property
    def has_peiffer_identity(self) -> bool:
        """No ``peiffer_violations``; computed once per instance."""
        return not peiffer_violations(self)

    @cached_property
    def boundary_tables(self) -> BoundaryTables:
        """ker(bnd), the preimages and the cosets of im(bnd); computed once."""
        g, bnd = self.g, self.boundary.map
        pre = [-1] * g.order
        for y in range(self.h.order - 1, -1, -1):
            pre[bnd[y]] = y
        image = set(bnd)
        rep = [-1] * g.order
        for x in range(g.order):
            if rep[x] < 0:
                for s in image:
                    rep[g.table[s][x]] = x
        return BoundaryTables(tuple(sorted(self.kernel_of_boundary())), tuple(pre), tuple(rep),
                              tuple(x for x in range(g.order) if rep[x] == x), len(image))

    @cached_property
    def kernel_coordinates(self) -> KernelCoordinates:
        """Each generator a_l is the least element of A = ker(bnd) outside
        the subgroup of the earlier ones, and m_l its order modulo that
        subgroup; the relations m_l e_l - coord(a_l^m_l) form a triangular
        basis of the lattice.  Every element gets the exponents of its word
        in the generators as coordinates, and entries live mod D.  Needs A
        abelian, as the Peiffer identity makes it."""
        h, ker = self.h, self.boundary_tables.kernel
        d = max(h.element_order(a) for a in ker)
        coord, gens, rels = {0: ()}, [], []
        for a in ker:
            if a in coord:
                continue
            powers, x = [0], a
            while x not in coord:
                powers.append(x)
                x = h.mul(x, a)
            rels.append({q: -v % d for q, v in enumerate(coord[x]) if v}
                        | {len(gens): len(powers)})
            coord = {h.mul(y, p): v + (i,)
                     for y, v in coord.items() for i, p in enumerate(powers)}
            gens.append(a)
        return KernelCoordinates(d, tuple(gens), coord, tuple(rels))

    @cached_property
    def oracle_tables(self) -> dict:
        """The brute oracle's face and tet 0/1 tables built so far, keyed by
        (kind, dtype name) and read-only; ``statesum`` fills it, so that
        numpy is imported there alone."""
        return {}

    def __repr__(self) -> str:
        return f"CrossedModule({self.name!r}, |H|={self.h.order}, |G|={self.g.order})"


def make_crossed_module(
    h: FiniteGroup,
    g: FiniteGroup,
    boundary_images: Iterable[int],
    action: Sequence[Sequence[int]],
    name: str = "cm",
) -> CrossedModule:
    """Build a crossed module and raise if any axiom fails."""
    cm = CrossedModule(h, g, GroupHom.from_map(h, g, boundary_images), action, name)
    report = validate(cm)
    if report:
        raise ValueError("invalid crossed module: " + "; ".join(map(str, report[:3])))
    return cm


def validate(cm: CrossedModule) -> list[Violation]:
    """Check every axiom of the definition; return all violations with witnesses.

    Re-checks the boundary homomorphism property too, so a boundary map
    built without ``GroupHom.from_map`` is still caught.  The action's shape
    is already enforced at construction.
    """
    h, g = cm.h, cm.g
    act = cm.action
    bnd = cm.boundary.map
    out: list[Violation] = []

    for x, row in enumerate(act):
        for y, v in enumerate(row):
            if not 0 <= v < h.order:
                return [Violation("range", (x, y), f"action entry {v} outside H")]

    if len(bnd) != h.order or bnd[0] != 0:
        out.append(Violation("boundary-identity", (0,), "bnd(e_H) != e_G"))
    for a in range(h.order):
        for b in range(h.order):
            if bnd[h.mul(a, b)] != g.mul(bnd[a], bnd[b]):
                out.append(Violation(
                    "boundary-hom", (a, b),
                    f"bnd({a}*{b})={bnd[h.mul(a, b)]} but bnd({a})*bnd({b})={g.mul(bnd[a], bnd[b])}"))

    for y in range(h.order):
        if act[0][y] != y:
            out.append(Violation("left-action-identity", (y,), f"e_G |> {y} = {act[0][y]}"))
    for x1 in range(g.order):
        for x2 in range(g.order):
            x12 = g.mul(x1, x2)
            for y in range(h.order):
                if act[x12][y] != act[x1][act[x2][y]]:
                    out.append(Violation(
                        "left-action-compose", (x1, x2, y),
                        f"({x1}{x2}) |> {y} != {x1} |> ({x2} |> {y})"))

    # Def 2.1(2): bnd(x |> y) = x bnd(y) x^-1
    for x in range(g.order):
        for y in range(h.order):
            if bnd[act[x][y]] != g.conj(x, bnd[y]):
                out.append(Violation(
                    "equivariance", (x, y),
                    f"bnd({x} |> {y}) = {bnd[act[x][y]]} != conj = {g.conj(x, bnd[y])}"))

    # Def 2.1(3): each f_x is an automorphism of H
    for x in range(g.order):
        row = act[x]
        if len(set(row)) != h.order:
            out.append(Violation("action-bijective", (x,), "f_x is not a bijection"))
            continue
        for y1 in range(h.order):
            for y2 in range(h.order):
                if row[h.mul(y1, y2)] != h.mul(row[y1], row[y2]):
                    out.append(Violation(
                        "action-multiplicative", (x, y1, y2),
                        f"f_{x}({y1}*{y2}) != f_{x}({y1})*f_{x}({y2})"))
    return out


def peiffer_violations(cm: CrossedModule) -> list[Violation]:
    """Every pair (y, y2) with bnd(y) |> y2 != y y2 y^-1, with its witness."""
    h, act, bnd = cm.h, cm.action, cm.boundary.map
    return [Violation("peiffer", (y, y2),
                      f"bnd({y}) |> {y2} = {act[bnd[y]][y2]} != {y}{y2}{y}^-1 = {h.conj(y, y2)}")
            for y in range(h.order) for y2 in range(h.order)
            if act[bnd[y]][y2] != h.conj(y, y2)]


def conjugation_cm(h: FiniteGroup, name: str | None = None) -> CrossedModule:
    """The (H, Aut(H)) example: G = Aut(H), bnd(y) = conjugation by y,
    x |> y applies the x-th automorphism."""
    g, bijections = build_aut_group(h)
    index = {b: i for i, b in enumerate(bijections)}
    boundary = [index[tuple(h.conj(y, z) for z in range(h.order))] for y in range(h.order)]
    action = [list(b) for b in bijections]
    return make_crossed_module(h, g, boundary, action, name or f"conj({h.name})")


def identity_cm(g: FiniteGroup, name: str | None = None) -> CrossedModule:
    """H = G, bnd = id, action = conjugation."""
    action = [[g.conj(x, y) for y in range(g.order)] for x in range(g.order)]
    return make_crossed_module(g, g, range(g.order), action, name or f"id({g.name})")


def trivial_h_cm(g: FiniteGroup, name: str | None = None) -> CrossedModule:
    """H trivial; the state sum then counts flat G-colorings
    (the Dijkgraaf-Witten specialization)."""
    h = build_trivial()
    action = [[0] for _ in range(g.order)]
    return make_crossed_module(h, g, [0], action, name or f"trivH({g.name})")


def reduction_cm(h: FiniteGroup, g: FiniteGroup, boundary_images: Iterable[int],
                 name: str = "reduction") -> CrossedModule:
    """A crossed module with the given boundary and the trivial action.

    Valid only when the image of the boundary is central in G and H is
    abelian (the Peiffer identity under a trivial action); raises otherwise.
    """
    if not h.is_abelian():
        raise ValueError(f"reduction_cm needs an abelian H, got {h.name}")
    action = [list(range(h.order)) for _ in range(g.order)]
    return make_crossed_module(h, g, boundary_images, action, name)
