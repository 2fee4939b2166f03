"""Bistellar rewriting: interior Pachner moves and boundary moves.

Seven kinds.  P14 splits a tet at an interior point; P23 replaces two tets
sharing an interior face by three around a new edge; P41/P32 are their
inverses.  B13 splits a boundary face towards the opposite apex, B31
undoes it, and B22 flips the diagonal of a boundary square pyramid (two
tets around an edge whose other two faces lie on the boundary).  Count
deltas (vertices, edges, faces, tets):

    P14 (+1,+4,+6,+3)   P23 (0,+1,+2,+1)   B13 (+1,+4,+5,+2)   B22 (0,0,0,0)

with inverses negating them.

The cone moves P14/B13 (and their inverses) are pure slot surgery and work
on singular targets too.  P23, P32 and B22 build new simplices out of
existing vertices and therefore require embedded configurations: the
corner vertices involved must be pairwise distinct.  Every precondition
failure raises MoveError with a witness.

Every check happens before the build.  A move is first put together as a
patch against its input: the simplices it drops and the ones it adds, with
each new face and tet given the first slot order consistent with its
edges or faces.  Only a fully assembled patch is built into a complex, so
``enumerate_applicable`` decides each candidate without building one.
Indices named in a MoveError refer to the input complex; simplices the
move adds are numbered after the input's last one.

New entities are appended after the surviving ones, so e.g. the edge
created by P23 is the last edge of the result; new vertices must be larger
than all existing ids, extending the total order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .complexes import ComplexBuilder, OrderedComplex

MOVE_KINDS = ("P14", "P41", "P23", "P32", "B13", "B31", "B22")

MOVE_DELTAS = {
    "P14": (1, 4, 6, 3),
    "P41": (-1, -4, -6, -3),
    "P23": (0, 1, 2, 1),
    "P32": (0, -1, -2, -1),
    "B13": (1, 4, 5, 2),
    "B31": (-1, -4, -5, -2),
    "B22": (0, 0, 0, 0),
}

INVERSE_KIND = {
    "P14": "P41", "P41": "P14",
    "P23": "P32", "P32": "P23",
    "B13": "B31", "B31": "B13",
    "B22": "B22",
}


class MoveError(ValueError):
    """Move precondition violated; the message names the witness."""


@dataclass(frozen=True)
class MoveDescriptor:
    """kind plus its target: a tet index for P14, face for P23/B13, edge for
    P32/B22, vertex id for P41/B31.  new_vertex applies to P14/B13."""

    kind: str
    target: int
    new_vertex: int | None = None

    def __post_init__(self):
        if self.kind not in MOVE_KINDS:
            raise MoveError(f"unknown move kind {self.kind!r}")
        if not isinstance(self.target, int):
            raise MoveError(f"move target must be an int, got {self.target!r}")
        if not isinstance(self.new_vertex, (int, type(None))):
            raise MoveError(f"new vertex must be an int or None, got {self.new_vertex!r}")


def apply(c: OrderedComplex, m: MoveDescriptor) -> OrderedComplex:
    return _PATCHES[m.kind](c, m).build()


def enumerate_applicable(c: OrderedComplex, kind: str) -> list[MoveDescriptor]:
    """Every descriptor of the given kind whose precondition holds."""
    fresh = (max(c.vertices) + 1) if c.vertices else 0
    candidates: list[MoveDescriptor]
    if kind == "P14":
        candidates = [MoveDescriptor(kind, t, fresh) for t in range(len(c.tets))]
    elif kind == "B13":
        candidates = [MoveDescriptor(kind, f, fresh) for f in c.boundary_face_indices()]
    elif kind == "P23":
        candidates = [MoveDescriptor(kind, f) for f in range(len(c.faces))
                      if not c.is_boundary_face(f)]
    elif kind == "P32" or kind == "B22":
        candidates = [MoveDescriptor(kind, e) for e in range(len(c.edges))]
    elif kind == "P41" or kind == "B31":
        candidates = [MoveDescriptor(kind, v) for v in c.vertices]
    else:
        raise MoveError(f"unknown move kind {kind!r}")
    out = []
    for m in candidates:
        try:
            _PATCHES[kind](c, m)
        except MoveError:
            continue
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------

class _Patch:
    """A move put together against its input complex: what it drops and
    what it adds.  New edges, faces and tets are numbered after the input's
    last one, so input indices stay valid until ``build`` renumbers."""

    def __init__(self, c: OrderedComplex, vertices=(), edges=(), faces=(), tets=()):
        self.c = c
        self.drop = (set(vertices), set(edges), set(faces), set(tets))
        self.edges: list[tuple[int, int]] = []
        self.faces: list[tuple[int, int, int]] = []
        self.tets: list[tuple[int, int, int, int]] = []

    def add_edge(self, tail: int, head: int) -> int:
        self.edges.append((tail, head))
        return len(self.c.edges) + len(self.edges) - 1

    def add_face(self, *candidates: int) -> int:
        """Add a face on three edges in the first endpoint-consistent slot
        order."""
        n = len(self.c.edges)
        ends = {e: self.c.edges[e] if e < n else self.edges[e - n] for e in candidates}
        for e01, e02, e12 in itertools.permutations(candidates):
            if (ends[e01][0] == ends[e02][0]
                    and ends[e01][1] == ends[e12][0]
                    and ends[e02][1] == ends[e12][1]):
                self.faces.append((e01, e02, e12))
                return len(self.c.faces) + len(self.faces) - 1
        raise MoveError(f"edges {candidates} admit no consistent face ordering")

    def add_tet(self, *candidates: int) -> int:
        """Add a tet on four faces in the first edge-consistent slot order."""
        n = len(self.c.faces)
        faces = {f: self.c.faces[f] if f < n else self.faces[f - n] for f in candidates}
        for f012, f013, f023, f123 in itertools.permutations(candidates):
            if (faces[f012][0] == faces[f013][0]
                    and faces[f012][1] == faces[f023][0]
                    and faces[f013][1] == faces[f023][1]
                    and faces[f012][2] == faces[f123][0]
                    and faces[f013][2] == faces[f123][1]
                    and faces[f023][2] == faces[f123][2]):
                self.tets.append((f012, f013, f023, f123))
                return len(self.c.tets) + len(self.tets) - 1
        raise MoveError(f"faces {candidates} admit no consistent tet ordering")

    def build(self) -> OrderedComplex:
        """The surviving simplices, then the new ones, renumbered in order."""
        c = self.c
        drop_v, drop_e, drop_f, drop_t = self.drop
        b = ComplexBuilder()
        for v in c.vertices:
            if v not in drop_v:
                b.add_vertex(v)
        new_e, new_f = {}, {}
        for e, (tail, head) in enumerate(itertools.chain(c.edges, self.edges)):
            if e not in drop_e:
                new_e[e] = b.add_edge(tail, head)
        for f, slots in enumerate(itertools.chain(c.faces, self.faces)):
            if f not in drop_f:
                new_f[f] = b.add_face(*(new_e[e] for e in slots))
        for t, slots in enumerate(itertools.chain(c.tets, self.tets)):
            if t not in drop_t:
                b.add_tet(*(new_f[f] for f in slots))
        return b.build()


def _fresh_vertex(c: OrderedComplex, m: MoveDescriptor) -> int:
    top = max(c.vertices) if c.vertices else -1
    w = m.new_vertex if m.new_vertex is not None else top + 1
    if w <= top:
        raise MoveError(f"new vertex {w} must exceed every existing id (max {top})")
    return w


_TET_EDGE_POSITIONS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_APEX_OF_SLOT = {0: 3, 1: 2, 2: 1, 3: 0}  # face slot index -> opposite corner
_SLOT_CORNERS = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


def _tet_face_by_vertexset(c: OrderedComplex, t: int, want: frozenset[int]) -> int:
    hits = [f for f in set(c.tets[t]) if frozenset(c.face_locals[f]) == want]
    if len(hits) != 1:
        raise MoveError(f"tet {t} has no unique face with vertices {set(want)}")
    return hits[0]


def _tet_edge_by_vertexset(c: OrderedComplex, t: int, want: frozenset[int]) -> int:
    hits = {e for e in c.tet_edge_slots(t) if frozenset(c.edges[e]) == want}
    if len(hits) != 1:
        raise MoveError(f"tet {t} has no unique edge with vertices {set(want)}")
    return hits.pop()


def _around_edge(c: OrderedComplex, x: int) -> tuple[tuple[int, ...], list[int]]:
    """The faces with edge x in a slot, and the tets those faces lie in.
    A tet has x in an edge slot exactly when two of its faces do."""
    if not 0 <= x < len(c.edges):
        raise MoveError(f"no edge {x}")
    faces = c.edge_faces[x]
    return faces, sorted({t for f in faces for t, _ in c.face_incidence[f]})


# ---------------------------------------------------------------------------
# P14 / B13 and P41 / B31: coning a tet from a new vertex, and its inverse
# ---------------------------------------------------------------------------

def _cone(c: OrderedComplex, t: int, w: int, skip: int | None = None) -> _Patch:
    """Replace tet t by the cone from new vertex w over its face slots: one
    new edge per corner, one new face per edge slot and one new tet per face
    slot.  B13 skips the split boundary face's slot; that face is dropped."""
    p = _Patch(c, faces=() if skip is None else (c.tets[t][skip],), tets=(t,))
    locs = c.tet_locals[t]
    ce = [p.add_edge(locs[i], w) for i in range(4)]
    cf = {(i, j): p.add_face(e, ce[i], ce[j])
          for (i, j), e in zip(_TET_EDGE_POSITIONS, c.tet_edge_slots(t))}
    for s, (i, j, k) in enumerate(_SLOT_CORNERS):
        if s != skip:
            p.add_tet(c.tets[t][s], cf[(i, j)], cf[(i, k)], cf[(j, k)])
    return p


def _patch_p14(c: OrderedComplex, m: MoveDescriptor) -> _Patch:
    t = m.target
    if not 0 <= t < len(c.tets):
        raise MoveError(f"no tet {t}")
    return _cone(c, t, _fresh_vertex(c, m))


def _patch_b13(c: OrderedComplex, m: MoveDescriptor) -> _Patch:
    f = m.target
    if not 0 <= f < len(c.faces):
        raise MoveError(f"no face {f}")
    inc = c.face_incidence[f]
    if len(inc) != 1:
        raise MoveError(f"face {f} lies in {len(inc)} tet slots; B13 needs a boundary face")
    (t, slot), = inc
    return _cone(c, t, _fresh_vertex(c, m), skip=slot)


def _uncone(c: OrderedComplex, m: MoveDescriptor) -> _Patch:
    """P41 and B31: drop the star of vertex v, a cone over the faces of
    one tet (four tets, interior) or of one tet less its base (three tets,
    on the boundary), and close it with that tet.  B31 first adds the base
    face on the rim edges of the three boundary faces at v."""
    v = m.target
    star_tets = 4 if m.kind == "P41" else 3
    if v not in c.vertex_stars:
        raise MoveError(f"no vertex {v}")
    tets, edges, faces = c.vertex_stars[v]
    if (len(tets), len(edges), len(faces)) != (star_tets, 4, 6):
        raise MoveError(
            f"vertex {v} has star ({len(tets)} tets, {len(edges)} edges, "
            f"{len(faces)} faces); {m.kind} needs ({star_tets}, 4, 6)")
    bdry = [f for f in faces if c.is_boundary_face(f)]
    if star_tets == 4 and bdry:
        raise MoveError(f"vertex {v} lies on the boundary")
    if star_tets == 3 and len(bdry) != 3:
        raise MoveError(f"vertex {v} lies in {len(bdry)} boundary faces; B31 needs 3")
    # each boundary face contributes its edge not touching v
    rim = []
    for f in bdry:
        free = [e for e in c.faces[f] if v not in c.edges[e]]
        if len(set(free)) != 1:
            raise MoveError(f"boundary face {f} at {v} has no unique rim edge")
        rim.append(free[0])
    if len(set(rim)) != len(rim):
        raise MoveError(f"rim edges around {v} are not distinct")
    outer = []
    for t in tets:
        free = [f for f in c.tets[t] if v not in c.face_locals[f]]
        if len(set(free)) != 1:
            raise MoveError(f"tet {t} does not have a single face opposite {v}")
        outer.append(free[0])
    if len(set(outer)) != star_tets:
        raise MoveError(f"outer faces around {v} are not distinct")
    p = _Patch(c, vertices=(v,), edges=edges, faces=faces, tets=tets)
    closing = [p.add_face(*rim)] if rim else []
    p.add_tet(*closing, *outer)
    return p


# ---------------------------------------------------------------------------
# P23 / P32
# ---------------------------------------------------------------------------

def _patch_p23(c: OrderedComplex, m: MoveDescriptor) -> _Patch:
    f = m.target
    if not 0 <= f < len(c.faces):
        raise MoveError(f"no face {f}")
    inc = c.face_incidence[f]
    if len(inc) != 2:
        raise MoveError(f"face {f} lies in {len(inc)} tet slots; P23 needs an interior face")
    (t1, s1), (t2, s2) = inc
    if t1 == t2:
        raise MoveError(f"face {f} is glued to tet {t1} twice")
    a, bb, cc = c.face_locals[f]
    d = c.tet_locals[t1][_APEX_OF_SLOT[s1]]
    e = c.tet_locals[t2][_APEX_OF_SLOT[s2]]
    corners = (a, bb, cc, d, e)
    if len(set(corners)) != 5:
        raise MoveError(f"P23 configuration at face {f} is not embedded: corners {corners}")

    p = _Patch(c, faces=(f,), tets=(t1, t2))
    de = p.add_edge(min(d, e), max(d, e))
    side = {}
    for x in (a, bb, cc):
        side[x] = p.add_face(_tet_edge_by_vertexset(c, t1, frozenset({x, d})),
                             _tet_edge_by_vertexset(c, t2, frozenset({x, e})), de)
    for x, y in ((a, bb), (a, cc), (bb, cc)):
        p.add_tet(_tet_face_by_vertexset(c, t1, frozenset({x, y, d})),
                  _tet_face_by_vertexset(c, t2, frozenset({x, y, e})), side[x], side[y])
    return p


def _patch_p32(c: OrderedComplex, m: MoveDescriptor) -> _Patch:
    x = m.target
    around_faces, around_tets = _around_edge(c, x)
    d, e = c.edges[x]
    if len(around_faces) != 3 or len(around_tets) != 3:
        raise MoveError(
            f"edge {x} has {len(around_faces)} faces and {len(around_tets)} tets "
            f"around it; P32 needs exactly 3 of each")
    if any(c.is_boundary_face(f) for f in around_faces):
        raise MoveError(f"edge {x} touches the boundary")
    outer_corners = []
    for f in around_faces:
        rest = [v for v in c.face_locals[f] if v not in (d, e)]
        if len(rest) != 1:
            raise MoveError(f"face {f} around edge {x} is not embedded")
        outer_corners.append(rest[0])
    corners = (d, e, *outer_corners)
    if len(set(corners)) != 5:
        raise MoveError(f"P32 configuration at edge {x} is not embedded: corners {corners}")
    aa, bb, cc = outer_corners
    pairs = [frozenset(pr) for pr in ((aa, bb), (aa, cc), (bb, cc))]

    # match tets to corner pairs and collect outer faces/edges
    pair_of_tet = {}
    for t in around_tets:
        vs = set(c.tet_locals[t])
        pair = frozenset(vs - {d, e})
        if len(vs) != 4 or len(pair) != 2 or not pair <= {aa, bb, cc}:
            raise MoveError(f"tet {t} around edge {x} is not part of a bipyramid")
        pair_of_tet[t] = pair
    if set(pair_of_tet.values()) != set(pairs):
        raise MoveError(f"tets around edge {x} do not form a bipyramid")

    base_edges = {}
    for t, pair in pair_of_tet.items():
        base_edges[pair] = _tet_edge_by_vertexset(c, t, pair)
    outer_face = {}
    for t, pair in pair_of_tet.items():
        for apex in (d, e):
            outer_face[(pair, apex)] = _tet_face_by_vertexset(
                c, t, frozenset(pair | {apex}))

    p = _Patch(c, edges=(x,), faces=around_faces, tets=around_tets)
    base = p.add_face(*(base_edges[pr] for pr in pairs))
    for apex in (d, e):
        p.add_tet(base, *(outer_face[(pr, apex)] for pr in pairs))
    return p


# ---------------------------------------------------------------------------
# B22
# ---------------------------------------------------------------------------

def _face_corner_opposite_edge(c: OrderedComplex, f: int, e: int) -> int:
    e01, e02, e12 = c.faces[f]
    if e == e01:
        return c.face_locals[f][2]
    if e == e02:
        return c.face_locals[f][1]
    if e == e12:
        return c.face_locals[f][0]
    raise MoveError(f"edge {e} is not a slot of face {f}")


def _patch_b22(c: OrderedComplex, m: MoveDescriptor) -> _Patch:
    x = m.target
    around_faces, around_tets = _around_edge(c, x)
    d_tail, d_head = c.edges[x]
    if len(around_tets) != 2 or len(around_faces) != 3:
        raise MoveError(
            f"edge {x} has {len(around_faces)} faces and {len(around_tets)} tets; "
            f"B22 needs 3 and 2")
    t1, t2 = around_tets
    shared = [f for f in around_faces if not c.is_boundary_face(f)
              and f in c.tets[t1] and f in c.tets[t2]]
    wings = [f for f in around_faces if c.is_boundary_face(f)]
    if len(shared) != 1 or len(wings) != 2:
        raise MoveError(
            f"edge {x} needs one shared interior face and two boundary faces, "
            f"got {len(shared)} and {len(wings)}")
    f_sh = shared[0]
    f_q = wings[0] if wings[0] in c.tets[t1] else wings[1]
    f_r = wings[1] if f_q == wings[0] else wings[0]
    if f_q not in c.tets[t1] or f_r not in c.tets[t2]:
        raise MoveError(f"boundary faces around edge {x} are not one per tet")

    p = _face_corner_opposite_edge(c, f_sh, x)
    q = _face_corner_opposite_edge(c, f_q, x)
    r = _face_corner_opposite_edge(c, f_r, x)
    corners = (d_tail, d_head, p, q, r)
    if len(set(corners)) != 5:
        raise MoveError(f"B22 configuration at edge {x} is not embedded: corners {corners}")

    surv1 = {y: _tet_face_by_vertexset(c, t1, frozenset({p, y, q})) for y in (d_tail, d_head)}
    surv2 = {y: _tet_face_by_vertexset(c, t2, frozenset({p, y, r})) for y in (d_tail, d_head)}
    pq = _tet_edge_by_vertexset(c, t1, frozenset({p, q}))
    pr = _tet_edge_by_vertexset(c, t2, frozenset({p, r}))
    yq = {y: _tet_edge_by_vertexset(c, t1, frozenset({y, q})) for y in (d_tail, d_head)}
    yr = {y: _tet_edge_by_vertexset(c, t2, frozenset({y, r})) for y in (d_tail, d_head)}

    patch = _Patch(c, edges=(x,), faces=(f_sh, f_q, f_r), tets=(t1, t2))
    qr = patch.add_edge(min(q, r), max(q, r))
    mid = patch.add_face(pq, pr, qr)
    new_wing = {y: patch.add_face(yq[y], yr[y], qr) for y in (d_tail, d_head)}
    for y in (d_tail, d_head):
        patch.add_tet(surv1[y], surv2[y], mid, new_wing[y])
    return patch


_PATCHES = {
    "P14": _patch_p14,
    "P41": _uncone,
    "P23": _patch_p23,
    "P32": _patch_p32,
    "B13": _patch_b13,
    "B31": _uncone,
    "B22": _patch_b22,
}
