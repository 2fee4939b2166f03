"""Ordered Δ-complexes for triangulated compact 3-manifolds with boundary.

The internal representation is slot-based: an edge is a (tail, head) pair of
vertex ids, a face is three edge slots (01),(02),(12), a tet is four face
slots (012),(013),(023),(123).  Slots must agree on shared sub-simplices
(the face and tet slot rules below, which ComplexBuilder checks).
Simplicial complexes (distinct vertices, everything determined by vertex
subsets) are a constructor view on top; singular triangulations with
identified simplices, parallel edges and loops are first-class, because
the fixtures for D²×S¹ and S²×[0,1] need them.

Local vertex order of a simplex is carried by its slot structure, never
recomputed from vertex ids, so identified vertices are harmless.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

__all__ = [
    "OrderedComplex",
    "ComplexBuilder",
    "ComplexStructureError",
    "Boundary2Complex",
    "SimplexCounts",
    "from_tet_list",
    "boundary",
    "validate_manifold_basics",
    "relabel",
    "disjoint_union",
    "prism_product",
    "are_isomorphic",
]


class ComplexStructureError(ValueError):
    """Slot tables are inconsistent (not a Δ-complex at all)."""


@dataclass(frozen=True)
class SimplexCounts:
    k0: int
    k1: int
    k2: int
    k3: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.k0, self.k1, self.k2, self.k3)


@dataclass(frozen=True)
class OrderedComplex:
    """An ordered Δ-complex.  Immutable; moves produce new complexes.

    The four slot tables are the whole complex; every index below is
    derived from them on first use.  Constructing one directly checks
    nothing: callers either hold tables that satisfy the slot rules or go
    through ComplexBuilder."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    faces: tuple[tuple[int, int, int], ...]
    tets: tuple[tuple[int, int, int, int], ...]

    @property
    def counts(self) -> SimplexCounts:
        return SimplexCounts(len(self.vertices), len(self.edges),
                             len(self.faces), len(self.tets))

    def boundary_face_indices(self) -> tuple[int, ...]:
        return tuple(f for f, inc in enumerate(self.face_incidence) if len(inc) == 1)

    def is_boundary_face(self, f: int) -> bool:
        return len(self.face_incidence[f]) == 1

    def tet_edge_slots(self, t: int) -> tuple[int, int, int, int, int, int]:
        """The six edge entities of a tet as (e01,e02,e03,e12,e13,e23)."""
        f012, f013, f023, f123 = self.tets[t]
        return (
            self.faces[f012][0],  # 01
            self.faces[f012][1],  # 02
            self.faces[f013][1],  # 03
            self.faces[f012][2],  # 12
            self.faces[f013][2],  # 13
            self.faces[f023][2],  # 23
        )

    @cached_property
    def face_locals(self) -> tuple[tuple[int, int, int], ...]:
        """For each face, its corners (v0, v1, v2) in slot order."""
        E = self.edges
        return tuple((*E[e01], E[e02][1]) for e01, e02, _ in self.faces)

    @cached_property
    def tet_locals(self) -> tuple[tuple[int, int, int, int], ...]:
        """For each tet, its corners (v0, v1, v2, v3) in slot order."""
        locs = self.face_locals
        return tuple((*locs[f012], locs[f013][2]) for f012, f013, _, _ in self.tets)

    @cached_property
    def face_incidence(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """For each face, the (tet, slot) pairs that hold it, in tet order."""
        out: list[list[tuple[int, int]]] = [[] for _ in self.faces]
        for t, slots in enumerate(self.tets):
            for s, f in enumerate(slots):
                out[f].append((t, s))
        return tuple(map(tuple, out))

    @cached_property
    def simplicial(self) -> bool:
        """Every simplex has strictly ascending corners, and no two
        simplices of one dimension have the same corners."""
        if any(not t < h for t, h in self.edges):
            return False
        if any(not (a < b < c) for a, b, c in self.face_locals):
            return False
        if any(not (a < b < c < d) for a, b, c, d in self.tet_locals):
            return False
        return all(len(set(entities)) == len(entities)
                   for entities in (self.edges, self.face_locals, self.tet_locals))

    @cached_property
    def edge_faces(self) -> tuple[tuple[int, ...], ...]:
        """For each edge, the faces with it in a slot, in index order."""
        out: list[list[int]] = [[] for _ in self.edges]
        for f, slots in enumerate(self.faces):
            for e in dict.fromkeys(slots):
                out[e].append(f)
        return tuple(map(tuple, out))

    @cached_property
    def vertex_stars(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        """For each vertex, the tets, the edges and the faces it is a corner
        of, each in index order."""
        stars: dict[int, tuple[list[int], ...]] = {v: ([], [], []) for v in self.vertices}
        for i, simplices in enumerate((self.tet_locals, self.edges, self.face_locals)):
            for s, corners in enumerate(simplices):
                for v in set(corners):
                    stars[v][i].append(s)
        return {v: tuple(map(tuple, star)) for v, star in stars.items()}

    def euler_characteristic(self) -> int:
        c = self.counts
        return c.k0 - c.k1 + c.k2 - c.k3

    def __repr__(self) -> str:
        c = self.counts
        kind = "simplicial" if self.simplicial else "delta"
        return f"OrderedComplex({kind}, V={c.k0}, E={c.k1}, F={c.k2}, T={c.k3})"


def face_slot_error(edges: Sequence[tuple[int, int]], slots: Sequence[int]) -> str | None:
    """The face rule.  A face's edge slots (01),(02),(12), indices into
    ``edges``, must run v0->v1, v0->v2 and v1->v2.  Returns why they do
    not, or None when they do."""
    e01, e02, e12 = slots
    (t01, h01), (t02, h02), (t12, h12) = edges[e01], edges[e02], edges[e12]
    if t01 == t02 and h01 == t12 and h02 == h12:
        return None
    return (f"face edges ({e01},{e02},{e12}) do not share endpoints consistently: "
            f"{edges[e01]}, {edges[e02]}, {edges[e12]}")


def tet_slot_error(faces, slots: Sequence[int]) -> str | None:
    """The tet rule.  Each of a tet's six edge slots lies in two of its face
    slots (012),(013),(023),(123), keys of ``faces``, and both must hold the
    same edge there.  Returns the first disagreement, or None."""
    f012, f013, f023, f123 = (faces[f] for f in slots)
    for a, b, slot in ((f012[0], f013[0], "01"), (f012[1], f023[0], "02"),
                       (f013[1], f023[1], "03"), (f012[2], f123[0], "12"),
                       (f013[2], f123[1], "13"), (f023[2], f123[2], "23")):
        if a != b:
            return (f"tet faces ({','.join(map(str, slots))}) disagree on edge {slot}: "
                    f"{a} vs {b}")
    return None


def _check_vertex_id(v) -> None:
    if not isinstance(v, int) or v < 0:
        raise ComplexStructureError(f"vertex ids must be nonnegative integers, got {v!r}")


class ComplexBuilder:
    """Incremental constructor enforcing slot compatibility."""

    def __init__(self):
        self._vertices: set[int] = set()
        self._edges: list[tuple[int, int]] = []
        self._faces: list[tuple[int, int, int]] = []
        self._tets: list[tuple[int, int, int, int]] = []

    def add_vertex(self, v: int) -> int:
        _check_vertex_id(v)
        self._vertices.add(v)
        return v

    def add_edge(self, tail: int, head: int) -> int:
        self.add_vertex(tail)
        self.add_vertex(head)
        self._edges.append((tail, head))
        return len(self._edges) - 1

    def add_face(self, e01: int, e02: int, e12: int) -> int:
        for e in (e01, e02, e12):
            if not 0 <= e < len(self._edges):
                raise ComplexStructureError(f"face references unknown edge {e}")
        error = face_slot_error(self._edges, (e01, e02, e12))
        if error:
            raise ComplexStructureError(error)
        self._faces.append((e01, e02, e12))
        return len(self._faces) - 1

    def add_tet(self, f012: int, f013: int, f023: int, f123: int) -> int:
        for f in (f012, f013, f023, f123):
            if not 0 <= f < len(self._faces):
                raise ComplexStructureError(f"tet references unknown face {f}")
        error = tet_slot_error(self._faces, (f012, f013, f023, f123))
        if error:
            raise ComplexStructureError(error)
        self._tets.append((f012, f013, f023, f123))
        return len(self._tets) - 1

    def build(self) -> OrderedComplex:
        return OrderedComplex(tuple(sorted(self._vertices)), tuple(self._edges),
                              tuple(self._faces), tuple(self._tets))


def from_tet_list(tets: Iterable[Sequence[int]]) -> OrderedComplex:
    """Simplicial-mode constructor: tets as 4-tuples of distinct vertex ids.

    Edges and faces are deduplicated as vertex subsets; a face shared by
    more than two tets is an error, as is a repeated vertex in a tet.
    """
    tet_tuples = []
    for raw in tets:
        vs = tuple(sorted(int(v) for v in raw))
        if len(vs) != 4 or len(set(vs)) != 4:
            raise ValueError(f"tet {tuple(raw)} must have 4 distinct vertices")
        tet_tuples.append(vs)
    if len(set(tet_tuples)) != len(tet_tuples):
        raise ValueError("duplicate tet in input")
    tet_tuples.sort()

    edge_set: set[tuple[int, int]] = set()
    face_set: set[tuple[int, int, int]] = set()
    for a, b, c, d in tet_tuples:
        vs = (a, b, c, d)
        for i in range(4):
            for j in range(i + 1, 4):
                edge_set.add((vs[i], vs[j]))
        for skip in range(4):
            face_set.add(tuple(v for k, v in enumerate(vs) if k != skip))

    builder = ComplexBuilder()
    edge_idx: dict[tuple[int, int], int] = {}
    for pair in sorted(edge_set):
        edge_idx[pair] = builder.add_edge(*pair)
    face_idx: dict[tuple[int, int, int], int] = {}
    for a, b, c in sorted(face_set):
        face_idx[(a, b, c)] = builder.add_face(
            edge_idx[(a, b)], edge_idx[(a, c)], edge_idx[(b, c)])

    face_use: dict[tuple[int, int, int], int] = {f: 0 for f in face_set}
    for a, b, c, d in tet_tuples:
        for tri in ((a, b, c), (a, b, d), (a, c, d), (b, c, d)):
            face_use[tri] += 1
            if face_use[tri] > 2:
                raise ValueError(f"face {tri} shared by more than two tets")
        builder.add_tet(face_idx[(a, b, c)], face_idx[(a, b, d)],
                        face_idx[(a, c, d)], face_idx[(b, c, d)])
    return builder.build()


@dataclass(frozen=True)
class Boundary2Complex:
    """The 2-dimensional subcomplex of faces lying in exactly one tet."""

    vertex_ids: tuple[int, ...]
    edge_indices: tuple[int, ...]
    face_indices: tuple[int, ...]

    def euler_characteristic(self) -> int:
        return len(self.vertex_ids) - len(self.edge_indices) + len(self.face_indices)


def boundary(c: OrderedComplex) -> Boundary2Complex:
    faces = c.boundary_face_indices()
    edge_indices = sorted({e for f in faces for e in c.faces[f]})
    vertex_ids = sorted({v for e in edge_indices for v in c.edges[e]})
    return Boundary2Complex(tuple(vertex_ids), tuple(edge_indices), tuple(faces))


def validate_manifold_basics(c: OrderedComplex) -> list[str]:
    """Necessary pseudo-manifold checks; returns a report of failures.

    Structural slot compatibility is already enforced at construction, so
    this looks at incidence patterns: faces in more than two tet slots,
    stray faces/edges, disconnected tet graphs, and (simplicial mode only)
    edge links that are not a single cycle or path.
    """
    report: list[str] = []
    for f, inc in enumerate(c.face_incidence):
        if len(inc) > 2:
            report.append(f"face {f} lies in {len(inc)} tet slots (max 2): {inc}")
    if c.tets:
        stray_faces, stray_edges = _uncovered(c)
        report.extend(f"face {f} belongs to no tet" for f in stray_faces)
        report.extend(f"edge {e} belongs to no face" for e in stray_edges)
        # tet connectivity through shared faces
        adj: dict[int, set[int]] = {t: set() for t in range(len(c.tets))}
        for inc in c.face_incidence:
            if len(inc) == 2:
                (t1, _), (t2, _) = inc
                adj[t1].add(t2)
                adj[t2].add(t1)
        seen = {0}
        stack = [0]
        while stack:
            for u in adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != len(c.tets):
            report.append(
                f"tet graph not connected: {len(seen)} of {len(c.tets)} reachable")
    if c.simplicial:
        report.extend(_simplicial_edge_link_report(c))
    return report


def _simplicial_edge_link_report(c: OrderedComplex) -> list[str]:
    report = []
    # faces around each edge that lie in some tet; each tet around an edge
    # has exactly two of them, so the tets around it come from incidence
    for e, faces in enumerate(c.edge_faces):
        faces_at_e = [f for f in faces if c.face_incidence[f]]
        if not faces_at_e:
            continue
        face_tets = {f: {t for t, _ in c.face_incidence[f]} for f in faces_at_e}
        tets_at_e = set().union(*face_tets.values())
        bdry = [f for f in faces_at_e if len(c.face_incidence[f]) == 1]
        # walk the tet cycle/path around the edge
        start = min(tets_at_e)
        seen_t = {start}
        frontier = [start]
        while frontier:
            for f in c.tets[frontier.pop()]:
                for t2 in face_tets.get(f, ()):
                    if t2 not in seen_t:
                        seen_t.add(t2)
                        frontier.append(t2)
        if len(seen_t) != len(tets_at_e):
            report.append(f"edge {e} link is disconnected")
        if len(bdry) not in (0, 2):
            report.append(f"edge {e} lies in {len(bdry)} boundary faces (expect 0 or 2)")
    return report


def _uncovered(c: OrderedComplex) -> tuple[list[int], list[int]]:
    """The faces that lie in no tet, and the edges that lie in no face of
    a tet."""
    faces = [f for f, inc in enumerate(c.face_incidence) if not inc]
    edges = [e for e, around in enumerate(c.edge_faces)
             if not any(c.face_incidence[f] for f in around)]
    return faces, edges


def relabel(c: OrderedComplex, permutation: Mapping[int, int] | Callable[[int], int]) -> OrderedComplex:
    """Rename vertices under a bijection of vertex ids.

    In simplicial mode, when every face and edge lies under a tet, the
    complex is rebuilt from its tets, so every simplex is re-sorted under
    the new total order and the slot wiring genuinely changes.  Otherwise
    the slot structure is the data: only the edge endpoints are renamed,
    and faces and tets are kept as they are.
    """
    if callable(permutation):
        perm = {v: permutation(v) for v in c.vertices}
    else:
        perm = dict(permutation)
    if sorted(perm) != list(c.vertices):
        raise ValueError("permutation domain must be exactly the vertex set")
    if len(set(perm.values())) != len(perm):
        raise ValueError("permutation must be injective")
    for v in perm.values():
        _check_vertex_id(v)
    if c.simplicial and c.tets and not any(_uncovered(c)):
        return from_tet_list([tuple(perm[v] for v in tl) for tl in c.tet_locals])
    return OrderedComplex(tuple(sorted(perm.values())),
                          tuple((perm[t], perm[h]) for t, h in c.edges), c.faces, c.tets)


def disjoint_union(a: OrderedComplex, b: OrderedComplex) -> OrderedComplex:
    """a ⊔ b with b's vertex ids shifted above a's."""
    shift = (max(a.vertices) + 1 - min(b.vertices)) if a.vertices and b.vertices else 0
    ne, nf = len(a.edges), len(a.faces)
    return OrderedComplex(
        tuple(sorted({*a.vertices, *(v + shift for v in b.vertices)})),
        a.edges + tuple((t + shift, h + shift) for t, h in b.edges),
        a.faces + tuple(tuple(e + ne for e in slots) for slots in b.faces),
        a.tets + tuple(tuple(f + nf for f in slots) for slots in b.tets))


def prism_product(
    base_edges: Sequence[tuple[int, int]],
    base_faces: Sequence[tuple[int, int, int]],
    identify_ends: bool = False,
) -> OrderedComplex:
    """The product (2-complex) × [0,1], triangulated layer by layer.

    The base is a 2-dimensional Δ-complex given by edge endpoint pairs and
    face edge slots.  Each base triangle becomes three tets; quads over base
    edges split along the diagonal (u,0)-(v,1), which is consistent across
    neighbouring prisms because it depends only on the edge.  With
    ``identify_ends`` the top layer is glued back onto the bottom (vertical
    edges become loops), which turns base × [0,1] into base × S¹.
    """
    base_vertices = sorted({v for e in base_edges for v in e})
    if not all(t < h for t, h in base_edges):
        raise ValueError("base edges must be ascending pairs")
    offset = max(base_vertices) + 1 if base_vertices else 0

    builder = ComplexBuilder()
    top = (lambda v: v) if identify_ends else (lambda v: v + offset)

    bots = {}
    tops = {}
    verts = {}
    diags = {}
    for i, (u, v) in enumerate(base_edges):
        bots[i] = builder.add_edge(u, v)
    for u in base_vertices:
        verts[u] = builder.add_edge(u, top(u))
    for i, (u, v) in enumerate(base_edges):
        tops[i] = bots[i] if identify_ends else builder.add_edge(top(u), top(v))
        diags[i] = builder.add_edge(u, top(v))

    quad_low = {}
    quad_high = {}
    for i, (u, v) in enumerate(base_edges):
        # (u0, v0, v1) and (u0, u1, v1)
        quad_low[i] = builder.add_face(bots[i], diags[i], verts[v])
        quad_high[i] = builder.add_face(verts[u], diags[i], tops[i])

    bot_face = {}
    top_face = {}
    int1 = {}
    int2 = {}
    for j, (E01, E02, E12) in enumerate(base_faces):
        bot_face[j] = builder.add_face(bots[E01], bots[E02], bots[E12])
        top_face[j] = bot_face[j] if identify_ends else builder.add_face(
            tops[E01], tops[E02], tops[E12])
        int1[j] = builder.add_face(bots[E01], diags[E02], diags[E12])  # (x0,y0,z1)
        int2[j] = builder.add_face(diags[E01], diags[E02], tops[E12])  # (x0,y1,z1)

    for j, (E01, E02, E12) in enumerate(base_faces):
        builder.add_tet(bot_face[j], int1[j], quad_low[E02], quad_low[E12])   # (x0,y0,z0,z1)
        builder.add_tet(quad_low[E01], int1[j], int2[j], quad_high[E12])      # (x0,y0,y1,z1)
        builder.add_tet(quad_high[E01], quad_high[E02], int2[j], top_face[j])  # (x0,x1,y1,z1)
    return builder.build()


def are_isomorphic(a: OrderedComplex, b: OrderedComplex) -> bool:
    """Structural isomorphism of Δ-complexes (slot-preserving bijections).

    Backtracks over tet correspondences, propagating the induced face, edge
    and vertex maps.  Intended for desk-scale complexes in tests.
    """
    ca, cb = a.counts.as_tuple(), b.counts.as_tuple()
    if ca != cb:
        return False
    if not a.tets:
        return (len(a.edges), len(a.faces)) == (len(b.edges), len(b.faces))
    if a.simplicial and b.simplicial and _simplicial_canonical(a) == _simplicial_canonical(b):
        # an order-preserving vertex bijection exists; no search needed
        return True

    na = len(a.tets)
    # signature pruning: multiset of per-tet face-incidence patterns
    def tet_sig(c, t):
        return tuple(sorted(len(c.face_incidence[f]) for f in c.tets[t]))
    if sorted(tet_sig(a, t) for t in range(na)) != sorted(tet_sig(b, t) for t in range(na)):
        return False

    def extend(t_map, f_map, e_map, v_map, next_a):
        if next_a == na:
            return len(set(f_map.values())) == len(f_map) and \
                len(set(e_map.values())) == len(e_map) and \
                len(set(v_map.values())) == len(v_map)
        for tb in range(na):
            if tb in t_map.values() or tet_sig(a, next_a) != tet_sig(b, tb):
                continue
            nf, ne, nv = dict(f_map), dict(e_map), dict(v_map)
            ok = True
            for fa, fb in zip(a.tets[next_a], b.tets[tb]):
                if nf.get(fa, fb) != fb:
                    ok = False
                    break
                nf[fa] = fb
                for ea, eb in zip(a.faces[fa], b.faces[fb]):
                    if ne.get(ea, eb) != eb:
                        ok = False
                        break
                    ne[ea] = eb
                    for va, vb in zip(a.edges[ea], b.edges[eb]):
                        if nv.get(va, vb) != vb:
                            ok = False
                            break
                        nv[va] = vb
                    if not ok:
                        break
                if not ok:
                    break
            if ok and extend({**t_map, next_a: tb}, nf, ne, nv, next_a + 1):
                return True
        return False

    return extend({}, {}, {}, {}, 0)


def _simplicial_canonical(c: OrderedComplex):
    rank = {v: i for i, v in enumerate(c.vertices)}
    return sorted(tuple(rank[v] for v in tl) for tl in c.tet_locals)
