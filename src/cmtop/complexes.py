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
recomputed from vertex ids, so identified vertices are harmless.  The tet
walk and the spanning forest are cached on the complex too; the state sum,
the validator and ``are_isomorphic`` read them, and no other module walks
the tets.  ``statesum`` builds its plans from them and caches them in
``plans``.

``splice`` makes a move's result from its input: it cuts the dropped
simplices out of the four tables by slices, appends the new ones,
renumbers a table only when the dimension its slots point into lost
simplices, and hands over the input's corner tables cut the same way.
The other indices of the result are computed on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping, Sequence

__all__ = [
    "OrderedComplex",
    "ComplexBuilder",
    "ComplexStructureError",
    "Boundary2Complex",
    "SimplexCounts",
    "splice",
    "from_tet_list",
    "boundary",
    "validate_manifold_basics",
    "determined_by_tets",
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
    derived from them on first use, except that ``splice`` hands a move's
    result the corner tables ``face_locals`` and ``tet_locals``, cut from
    its input's, and that ``statesum`` alone fills ``plans``.  Constructing
    one directly checks nothing: callers either hold tables that satisfy
    the slot rules or go through ComplexBuilder."""

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
        for t, (f0, f1, f2, f3) in enumerate(self.tets):
            out[f0].append((t, 0))
            out[f1].append((t, 1))
            out[f2].append((t, 2))
            out[f3].append((t, 3))
        return tuple(map(tuple, out))

    @cached_property
    def walk(self) -> tuple[tuple[int, ...], ...]:
        """The tets, one connected component at a time.  Each component is
        in breadth-first order from its least tet, and the walk crosses
        only faces that lie in exactly two tet slots."""
        seen, components = [False] * len(self.tets), []
        for t0 in range(len(self.tets)):
            if not seen[t0]:
                seen[t0] = True
                queue = [t0]
                for t in queue:  # grows as the walk goes
                    for f in self.tets[t]:
                        if len(self.face_incidence[f]) == 2:
                            for t2, _ in self.face_incidence[f]:
                                if not seen[t2]:
                                    seen[t2] = True
                                    queue.append(t2)
                components.append(tuple(queue))
        return tuple(components)

    @cached_property
    def walk_edges(self) -> tuple[int, ...]:
        """Every edge, in the order the walk first meets it; edges in no tet last."""
        met = dict.fromkeys(e for tets in self.walk for t in tets for e in self.tet_edge_slots(t))
        return (*met, *(e for e in range(len(self.edges)) if e not in met))

    @cached_property
    def walk_faces(self) -> tuple[int, ...]:
        """Every face, in the order the walk first meets it; faces in no tet last."""
        met = dict.fromkeys(f for tets in self.walk for t in tets for f in self.tets[t])
        return (*met, *(f for f in range(len(self.faces)) if f not in met))

    @cached_property
    def spanning_forest(self) -> tuple[int, ...]:
        """The edges, taken in walk order, that join two classes of the
        vertices joined by the edges before them: V - k edges, for k the
        components of the 1-skeleton."""
        root, forest = {v: v for v in self.vertices}, []

        def find(v):
            while root[v] != v:
                root[v] = v = root[root[v]]
            return v

        for e in self.walk_edges:
            a, b = map(find, self.edges[e])
            if a != b:
                root[a] = b
                forest.append(e)
        return tuple(forest)

    @cached_property
    def plans(self) -> dict:
        """The state sum's plans built so far (``statesum.closing_plan``,
        ``tet_system`` and ``oracle_plan``), keyed by kind and for the
        oracle by group orders."""
        return {}

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
        for f, (a, b, c) in enumerate(self.faces):
            out[a].append(f)
            if b != a:
                out[b].append(f)
            if c != a and c != b:
                out[c].append(f)
        return tuple(map(tuple, out))

    @cached_property
    def vertex_edges(self) -> dict[int, tuple[int, ...]]:
        """For each vertex, the edges it is an end of, in index order; a
        loop is listed once."""
        out: dict[int, list[int]] = {v: [] for v in self.vertices}
        for e, (t, h) in enumerate(self.edges):
            out[t].append(e)
            if h != t:
                out[h].append(e)
        return {v: tuple(edges) for v, edges in out.items()}

    def euler_characteristic(self) -> int:
        c = self.counts
        return c.k0 - c.k1 + c.k2 - c.k3

    def __repr__(self) -> str:
        c = self.counts
        kind = "simplicial" if self.simplicial else "delta"
        return f"OrderedComplex({kind}, V={c.k0}, E={c.k1}, F={c.k2}, T={c.k3})"


def splice(c: OrderedComplex, drop: Sequence[Sequence[int]], vertices: Sequence[int],
           edges: Sequence[tuple[int, int]], faces: Sequence[tuple[int, int, int]],
           tets: Sequence[tuple[int, int, int, int]]) -> OrderedComplex:
    """c with the simplices in ``drop`` cut out and the new ones appended.

    ``drop`` holds the vertex ids, then the edge, face and tet indices, to
    cut, each ascending and distinct.  The new vertices must exceed every
    id of c.  The new simplices are given by their slots in c's numbering
    extended past its end: new edge i is edge ``len(c.edges) + i``, and
    likewise for faces.

    Cut: each table keeps its survivors in order, copied one slice per run
    between dropped entries, and the new simplices follow them.
    Renumbered: a table only when the dimension its slots point into lost
    simplices, the faces when edges were dropped and the tets when faces
    were, each through one old-to-new list over the old and new indices.
    Handed over: corners are vertex ids, which no renumbering changes, so
    the result takes c's ``face_locals`` and ``tet_locals`` cut by the same
    slices, with the new simplices' corners appended, and computes neither.

    Renumbering keeps every slot agreement among survivors.  Nothing here
    checks the new simplices against the slot rules, nor that each simplex
    with a slot on a dropped one is dropped too; the caller owes both."""
    drop_v, drop_e, drop_f, drop_t = drop
    all_edges = c.edges + tuple(edges)
    all_faces = c.faces + tuple(faces)
    face_locals = c.face_locals + tuple((*all_edges[e01], all_edges[e02][1])
                                        for e01, e02, _ in faces)
    tet_locals = c.tet_locals + tuple((*face_locals[f012], face_locals[f013][2])
                                      for f012, f013, _, _ in tets)
    out_faces = _renumbered(_cut(all_faces, drop_f), len(all_edges), drop_e)
    out_tets = _renumbered(_cut(c.tets + tuple(tets), drop_t), len(all_faces), drop_f)
    out = OrderedComplex(_cut(c.vertices, [c.vertices.index(v) for v in drop_v]) + tuple(vertices),
                         _cut(all_edges, drop_e), out_faces, out_tets)
    vars(out).update(face_locals=_cut(face_locals, drop_f), tet_locals=_cut(tet_locals, drop_t))
    return out


def _cut(table: tuple, drop: Sequence[int]) -> tuple:
    """The table less the entries at the ascending indices ``drop``."""
    if not drop:
        return table
    out, start = [], 0
    for i in drop:
        out += table[start:i]
        start = i + 1
    out += table[start:]
    return tuple(out)


def _renumbered(table: tuple, n: int, drop: Sequence[int]) -> tuple:
    """Each entry's slots, which point into n simplices of which the
    ascending ``drop`` were cut, renamed to the survivors' new indices."""
    if not drop:
        return table
    new, start = [], 0
    for k, i in enumerate(drop):
        new += range(start - k, i - k)
        new.append(None)  # a survivor cannot name it
        start = i + 1
    new += range(start - len(drop), n - len(drop))
    rename = new.__getitem__
    return tuple([tuple(map(rename, slots)) for slots in table])


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
    """Simplicial-mode constructor: tets as 4-tuples of distinct vertex ids,
    each a nonnegative int, in any order.

    Each tet is sorted; edges and faces are its vertex subsets, numbered in
    sorted order, with the tets sorted too.  A face shared by more than two
    tets is an error, as is a repeated vertex in a tet.  The tables satisfy
    the slot rules by construction, so none is checked.
    """
    corners = []
    for raw in tets:
        raw = tuple(raw)
        for v in raw:
            _check_vertex_id(v)
        vs = tuple(sorted(raw))
        if len(vs) != 4 or len(set(vs)) != 4:
            raise ValueError(f"tet {raw} must have 4 distinct vertices")
        corners.append(vs)
    if len(set(corners)) != len(corners):
        raise ValueError("duplicate tet in input")
    corners.sort()
    edges = sorted({e for vs in corners for e in combinations(vs, 2)})
    faces = sorted({f for vs in corners for f in combinations(vs, 3)})
    edge_at = {e: i for i, e in enumerate(edges)}
    face_at = {f: i for i, f in enumerate(faces)}
    uses = dict.fromkeys(faces, 0)
    tet_slots = []
    for vs in corners:
        slots = tuple(combinations(vs, 3))  # (012), (013), (023), (123)
        for tri in slots:
            uses[tri] += 1
            if uses[tri] > 2:
                raise ValueError(f"face {tri} shared by more than two tets")
        tet_slots.append(tuple(face_at[tri] for tri in slots))
    return OrderedComplex(
        tuple(sorted({v for vs in corners for v in vs})), tuple(edges),
        tuple((edge_at[(a, b)], edge_at[(a, c)], edge_at[(b, c)]) for a, b, c in faces),
        tuple(tet_slots))


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
        if len(c.walk) > 1:
            report.append(
                f"tet graph not connected: {len(c.walk[0])} of {len(c.tets)} reachable")
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


def determined_by_tets(c: OrderedComplex) -> bool:
    """Its tets determine it: it is simplicial, has a tet, and every vertex,
    edge and face lies under a tet, so ``from_tet_list`` of its tet corners
    gives it back up to the order of its indices."""
    return c.simplicial and bool(c.tets) and not _under_no_tet(c)


def _under_no_tet(c: OrderedComplex) -> str | None:
    """Which of its simplices lie under no tet, or None when none does."""
    faces, edges = _uncovered(c)
    vertices = set(c.vertices).difference(v for corners in c.tet_locals for v in corners)
    if not (faces or edges or vertices):
        return None
    return f"faces {faces}, edges {edges} and vertices {sorted(vertices)} lie under no tet"


def relabel(c: OrderedComplex, permutation: Mapping[int, int]) -> OrderedComplex:
    """Rename vertices under a bijection of vertex ids.

    When its tets determine the complex, it is rebuilt from its tets, so
    every simplex is re-sorted under the new total order and the slot
    wiring genuinely changes.  Otherwise the slot structure is the data:
    only the edge endpoints are renamed, and faces and tets are kept as
    they are.
    """
    perm = dict(permutation)
    if sorted(perm) != list(c.vertices):
        raise ValueError("permutation domain must be exactly the vertex set")
    if len(set(perm.values())) != len(perm):
        raise ValueError("permutation must be injective")
    for v in perm.values():
        _check_vertex_id(v)
    if determined_by_tets(c):
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

    The image of a tet fixes those of its faces, edges and vertices, and,
    across a face in two tet slots, that of the tet on the other side; so
    one seed tet per component of ``a.walk`` decides the component.  Each
    seed tries the unused tets of b in turn; when none fits, an explicit
    stack backs up to the previous component, since components may share
    vertices or edges.  The maps reach only simplices under a tet, so a
    complex with any other simplex raises ValueError, not a wrong answer.
    """
    for c in (a, b):
        stray = _under_no_tet(c)
        if stray:
            raise ValueError(f"are_isomorphic compares only complexes whose every "
                             f"simplex lies under a tet; in {c!r} {stray}")
    if a.counts != b.counts:
        return False
    bound: dict[tuple[int, int], int] = {}  # (dim, simplex of a) -> simplex of b
    taken: set[tuple[int, int]] = set()  # (dim, simplex of b) already an image
    log: list[tuple[int, int]] = []  # the keys of bound, in binding order

    def bind(dim, x, y):  # False when x or y is bound to another
        if (dim, x) in bound:
            return bound[dim, x] == y
        if (dim, y) in taken:
            return False
        bound[dim, x] = y
        taken.add((dim, y))
        log.append((dim, x))
        return True

    def place(ta, tb):  # bind what the bound pair ta -> tb fixes; False on a clash
        todo = [(ta, tb)]
        for ta, tb in todo:  # grows as the propagation goes
            for s, (fa, fb) in enumerate(zip(a.tets[ta], b.tets[tb])):
                inc_a, inc_b = a.face_incidence[fa], b.face_incidence[fb]
                if len(inc_a) != len(inc_b) or not bind(2, fa, fb):
                    return False
                if len(inc_a) == 2:  # the entry other than (ta, s) is the tet across
                    t2, u2 = inc_a[inc_a[0] == (ta, s)][0], inc_b[inc_b[0] == (tb, s)][0]
                    new = (3, t2) not in bound
                    if not bind(3, t2, u2):
                        return False
                    if new:
                        todo.append((t2, u2))
                for ea, eb in zip(a.faces[fa], b.faces[fb]):  # then the edges' ends
                    if not (bind(1, ea, eb) and all(map(bind, (0, 0), a.edges[ea], b.edges[eb]))):
                        return False
        return True

    seeds, stack, tb = [component[0] for component in a.walk], [], 0  # stack: (log mark, b tet)
    while len(stack) < len(seeds):
        if tb == len(b.tets):  # no tet fits this component's seed: back up one
            if not stack:
                return False
            mark, tb = stack.pop()
        else:
            mark, seed = len(log), seeds[len(stack)]
            if bind(3, seed, tb) and place(seed, tb):
                stack.append((mark, tb))
                tb = 0
                continue
        while len(log) > mark:
            key = log.pop()
            taken.remove((key[0], bound.pop(key)))
        tb += 1
    return True
