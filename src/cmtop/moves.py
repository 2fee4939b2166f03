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
corner vertices involved must be pairwise distinct.

Each kind is split in two.  Its precondition raises every MoveError the
move can raise, each with a witness, and its assembly cannot fail once the
precondition holds.  ``enumerate_applicable`` runs only the precondition,
so it decides each candidate without assembling a patch, let alone
building a complex.  ``apply`` runs the precondition, then the assembly,
which puts the move together as a patch against its input (the simplices
it drops and the ones it adds, each new face and tet given its slot order
directly), then builds the patch: the surviving simplices are renumbered,
which keeps every slot agreement they had, and only the new faces and
tets are checked against the slot rules of ``complexes``.  Indices named
in a MoveError refer to the input complex.

Beyond incidence and embedding, the preconditions check orientation: each
new face and tet needs a slot order, so the edges among its corners must
not run around a cycle.
- P14/B13 always fit: the new vertex comes after every corner.
- P23's new edge joins the apexes d and e of its two tets, which sit at
  corners p1 and p2 of their tets, and runs from the smaller id to the
  larger.  Each tet orders the shared face's corners with its apex put in
  at its corner, so the edge fits unless p1 < p2 with d > e, or p1 > p2
  with d < e.  B22's new edge between its wing corners follows the same
  rule.
- P32's new base face fits unless its three edges run around a cycle.
- P41/B31 close the star of a vertex v with one tet, whose corners are
  the edges at v, ordered as their far ends are in the star tets.  Its
  faces (the outer faces of the star, and for B31 a new base face on the
  rim edges) must fit that order.

New entities are appended after the surviving ones, so e.g. the edge
created by P23 is the last edge of the result; new vertices must be larger
than all existing ids, extending the total order.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .complexes import ComplexStructureError, OrderedComplex, face_slot_error, tet_slot_error

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
    _, precondition, assembly = _MOVES[m.kind]
    return assembly(c, precondition(c, m.target, m.new_vertex)).build()


def enumerate_applicable(c: OrderedComplex, kind: str) -> list[MoveDescriptor]:
    """Every descriptor of the given kind whose precondition holds."""
    if kind not in _MOVES:
        raise MoveError(f"unknown move kind {kind!r}")
    targets, precondition, _ = _MOVES[kind]
    new_vertex = _fresh_vertex(c, None) if kind in ("P14", "B13") else None
    out = []
    for x in targets(c):
        try:
            precondition(c, x, new_vertex)
        except MoveError:
            continue
        out.append(MoveDescriptor(kind, x, new_vertex))
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
        self.vertices: list[int] = []
        self.edges: list[tuple[int, int]] = []
        self.faces: list[tuple[int, int, int]] = []
        self.tets: list[tuple[int, int, int, int]] = []

    def add_edge(self, tail: int, head: int) -> int:
        self.edges.append((tail, head))
        return len(self.c.edges) + len(self.edges) - 1

    def add_face(self, e01: int, e02: int, e12: int) -> int:
        self.faces.append((e01, e02, e12))
        return len(self.c.faces) + len(self.faces) - 1

    def add_tet(self, f012: int, f013: int, f023: int, f123: int) -> None:
        self.tets.append((f012, f013, f023, f123))

    def build(self) -> OrderedComplex:
        """The surviving simplices, then the new ones, renumbered in order.
        Renumbering is a bijection onto the kept simplices, so a survivor
        keeps every slot agreement it had (one whose slot names a dropped
        simplex fails the lookup); only the new faces and tets are checked
        against the slot rules."""
        c = self.c
        drop_v, drop_e, drop_f, drop_t = self.drop

        def kept(old, new, drop):
            return [(i, s) for i, s in enumerate(itertools.chain(old, new)) if i not in drop]

        edges = kept(c.edges, self.edges, drop_e)
        faces = kept(c.faces, self.faces, drop_f)
        tets = kept(c.tets, self.tets, drop_t)
        new_e = {e: i for i, (e, _) in enumerate(edges)}
        new_f = {f: i for i, (f, _) in enumerate(faces)}
        out = OrderedComplex(
            tuple(v for v in c.vertices if v not in drop_v) + tuple(self.vertices),
            tuple(s for _, s in edges),
            tuple(tuple(new_e[e] for e in s) for _, s in faces),
            tuple(tuple(new_f[f] for f in s) for _, s in tets))
        new_faces = out.faces[len(out.faces) - len(self.faces):]
        new_tets = out.tets[len(out.tets) - len(self.tets):]
        for error in itertools.chain((face_slot_error(out.edges, s) for s in new_faces),
                                     (tet_slot_error(out.faces, s) for s in new_tets)):
            if error:
                raise ComplexStructureError(error)
        return out


def _fresh_vertex(c: OrderedComplex, w: int | None) -> int:
    top = c.vertices[-1] if c.vertices else -1
    if w is None:
        return top + 1
    if w <= top:
        raise MoveError(f"new vertex {w} must exceed every existing id (max {top})")
    return w


_TET_EDGE_POSITIONS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_SLOT_CORNERS = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
# the edge slots of a tet at corner p, in the order of their other corners
_SPOKE_SLOTS = ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5))


def _around_edge(c: OrderedComplex, x: int) -> tuple[tuple[int, ...], list[int]]:
    """The faces with edge x in a slot, and the tets those faces lie in.
    A tet has x in an edge slot exactly when two of its faces do."""
    if not 0 <= x < len(c.edges):
        raise MoveError(f"no edge {x}")
    faces = c.edge_faces[x]
    return faces, sorted({t for f in faces for t, _ in c.face_incidence[f]})


def _check_new_edge(move: str, where: str, base: tuple[int, int, int],
                    d: int, t1: int, p1: int, e: int, t2: int, p2: int) -> None:
    """The new edge of P23/B22 between apex d (corner p1 of tet t1) and
    apex e (corner p2 of tet t2) over a shared face with corners base.
    Both tets order their corners as the base with the apex inserted at
    its corner, so they put d before e when p1 < p2 and e before d when
    p1 > p2.  The new edge runs from the smaller id; it must agree."""
    if p1 != p2 and (p1 < p2) != (d < e):
        first, second = (d, e) if p1 < p2 else (e, d)
        raise MoveError(
            f"{move} at {where}: apex {d} is corner {p1} of tet {t1} and apex {e} "
            f"is corner {p2} of tet {t2} over corners {base}, so {first} comes "
            f"before {second}, but the new edge runs {second}->{first}")


def _flip(p: _Patch, tets, new_edge, new_faces, new_tets) -> _Patch:
    """Add to p the simplices of a move on five pairwise distinct corners:
    optionally an edge between two of them, then faces and tets given by
    their corner sets.  Every other edge and face the new simplices use is
    found by its corners in the input tets ``tets``.  The precondition has
    made the edges among the five corners acyclic, so each corner's rank
    is the number of those edges it is the tail of, and every new simplex
    takes its corners in rank order."""
    c = p.c
    edge, face = {}, {}
    for t in tets:
        locs = c.tet_locals[t]
        for (i, j), x in zip(_TET_EDGE_POSITIONS, c.tet_edge_slots(t)):
            edge[frozenset((locs[i], locs[j]))] = x
        for (i, j, k), f in zip(_SLOT_CORNERS, c.tets[t]):
            face[frozenset((locs[i], locs[j], locs[k]))] = f
    rank = Counter(c.edges[x][0] for x in edge.values())
    if new_edge is not None:
        tail, head = sorted(new_edge)
        edge[frozenset(new_edge)] = p.add_edge(tail, head)
        rank[tail] += 1

    def ordered(corners):
        return sorted(corners, key=rank.__getitem__, reverse=True)

    for corners in new_faces:
        u0, u1, u2 = ordered(corners)
        face[frozenset(corners)] = p.add_face(
            edge[frozenset((u0, u1))], edge[frozenset((u0, u2))], edge[frozenset((u1, u2))])
    for corners in new_tets:
        u = ordered(corners)
        p.add_tet(*(face[frozenset((u[i], u[j], u[k]))] for i, j, k in _SLOT_CORNERS))
    return p


# ---------------------------------------------------------------------------
# P14 / B13 and P41 / B31: coning a tet from a new vertex, and its inverse
# ---------------------------------------------------------------------------

def _check_p14(c: OrderedComplex, t: int, w: int | None):
    if not 0 <= t < len(c.tets):
        raise MoveError(f"no tet {t}")
    return t, _fresh_vertex(c, w), None


def _check_b13(c: OrderedComplex, f: int, w: int | None):
    if not 0 <= f < len(c.faces):
        raise MoveError(f"no face {f}")
    inc = c.face_incidence[f]
    if len(inc) != 1:
        raise MoveError(f"face {f} lies in {len(inc)} tet slots; B13 needs a boundary face")
    (t, slot), = inc
    return t, _fresh_vertex(c, w), slot


def _cone(c: OrderedComplex, plan) -> _Patch:
    """Replace tet t by the cone from new vertex w over its face slots: one
    new edge per corner, one new face per edge slot and one new tet per face
    slot.  B13 skips the split boundary face's slot; that face is dropped.
    w comes after every corner of t, so each new simplex keeps the slot
    order of the simplex of t it is the cone over."""
    t, w, skip = plan
    p = _Patch(c, faces=() if skip is None else (c.tets[t][skip],), tets=(t,))
    p.vertices.append(w)
    locs = c.tet_locals[t]
    ce = [p.add_edge(locs[i], w) for i in range(4)]
    cf = {(i, j): p.add_face(e, ce[i], ce[j])
          for (i, j), e in zip(_TET_EDGE_POSITIONS, c.tet_edge_slots(t))}
    for s, (i, j, k) in enumerate(_SLOT_CORNERS):
        if s != skip:
            p.add_tet(c.tets[t][s], cf[(i, j)], cf[(i, k)], cf[(j, k)])
    return p


def _check_uncone(c: OrderedComplex, v: int, kind: str):
    """P41 and B31: the star of vertex v must be a cone over the faces of
    one tet (four tets, interior) or of one tet less its base (three tets,
    on the boundary).  That closing tet has a corner for each edge at v (a
    spoke), ordered as the spokes' far ends are in the star tets.  Its
    face opposite a spoke is the outer face of the star tet without that
    spoke.  For B31 the spoke in every star tet is the apex, and the face
    opposite it is the base: a new face on the rim edges of the three
    boundary faces at v, each rim edge lying between two spokes."""
    star_tets = 4 if kind == "P41" else 3
    if v not in c.vertex_stars:
        raise MoveError(f"no vertex {v}")
    tets, edges, faces = c.vertex_stars[v]
    if (len(tets), len(edges), len(faces)) != (star_tets, 4, 6):
        raise MoveError(
            f"vertex {v} has star ({len(tets)} tets, {len(edges)} edges, "
            f"{len(faces)} faces); {kind} needs ({star_tets}, 4, 6)")
    bdry = [f for f in faces if c.is_boundary_face(f)]
    if star_tets == 4 and bdry:
        raise MoveError(f"vertex {v} lies on the boundary")
    if star_tets == 3 and len(bdry) != 3:
        raise MoveError(f"vertex {v} lies in {len(bdry)} boundary faces; B31 needs 3")
    # each boundary face contributes its edge opposite v, between two spokes
    rim = []
    for f in bdry:
        locs = c.face_locals[f]
        if locs.count(v) != 1:
            raise MoveError(f"boundary face {f} at {v} has no unique rim edge")
        k = locs.index(v)
        slots = c.faces[f]
        rim.append((frozenset(e for i, e in enumerate(slots) if i != 2 - k), slots[2 - k]))
    if len({e for _, e in rim}) != len(rim):
        raise MoveError(f"rim edges around {v} are not distinct")
    spokes, outer = [], []
    for t in tets:
        locs = c.tet_locals[t]
        if locs.count(v) != 1:
            raise MoveError(f"tet {t} does not have a single face opposite {v}")
        p = locs.index(v)
        es = c.tet_edge_slots(t)
        spokes.append(tuple(es[i] for i in _SPOKE_SLOTS[p]))
        outer.append(c.tets[t][3 - p])
    if len(set(outer)) != star_tets:
        raise MoveError(f"outer faces around {v} are not distinct")

    before = {(s[i], s[j]) for s in spokes for i, j in ((0, 1), (0, 2), (1, 2))}
    rank = Counter(a for a, _ in before)
    corners = sorted(edges, key=rank.__getitem__, reverse=True)
    opposite = {}
    for s, f in zip(spokes, outer):
        missing = [a for a in edges if a not in s]
        if len(missing) != 1 or missing[0] in opposite:
            raise MoveError(f"star of vertex {v} is not a cone over one tet")
        opposite[missing[0]] = f
    base = None
    if star_tets == 3:
        apex, = set(edges) - opposite.keys()
        r0, r1, r2 = (a for a in corners if a != apex)
        between = dict(rim)
        base = tuple(between.get(frozenset(pair)) for pair in ((r0, r1), (r0, r2), (r1, r2)))
        if None in base or face_slot_error(c.edges, base):
            raise MoveError(f"rim edges around {v} do not close up into a face")
    closing = tuple(opposite.get(corners[3 - s]) for s in range(4))
    if tet_slot_error({f: base if f is None else c.faces[f] for f in closing}, closing):
        raise MoveError(f"faces around {v} do not close up into a tet")
    return v, tets, edges, faces, base, closing


def _uncone(c: OrderedComplex, plan) -> _Patch:
    """Drop the star of v and close it with one tet on the outer faces
    (and, for B31, on a new base face)."""
    v, tets, edges, faces, base, closing = plan
    p = _Patch(c, vertices=(v,), edges=edges, faces=faces, tets=tets)
    new_base = p.add_face(*base) if base is not None else None
    p.add_tet(*(new_base if f is None else f for f in closing))
    return p


# ---------------------------------------------------------------------------
# P23 / P32
# ---------------------------------------------------------------------------

def _check_p23(c: OrderedComplex, f: int, _w=None):
    if not 0 <= f < len(c.faces):
        raise MoveError(f"no face {f}")
    inc = c.face_incidence[f]
    if len(inc) != 2:
        raise MoveError(f"face {f} lies in {len(inc)} tet slots; P23 needs an interior face")
    (t1, s1), (t2, s2) = inc
    if t1 == t2:
        raise MoveError(f"face {f} is glued to tet {t1} twice")
    base = c.face_locals[f]
    p1, p2 = 3 - s1, 3 - s2  # the corner opposite each tet's slot of f
    d = c.tet_locals[t1][p1]
    e = c.tet_locals[t2][p2]
    corners = (*base, d, e)
    if len(set(corners)) != 5:
        raise MoveError(f"P23 configuration at face {f} is not embedded: corners {corners}")
    _check_new_edge("P23", f"face {f}", base, d, t1, p1, e, t2, p2)
    return f, t1, t2, base, d, e


def _patch_p23(c: OrderedComplex, plan) -> _Patch:
    f, t1, t2, (a, b, cc), d, e = plan
    return _flip(_Patch(c, faces=(f,), tets=(t1, t2)), (t1, t2), (d, e),
                 [(x, d, e) for x in (a, b, cc)],
                 [(x, y, d, e) for x, y in ((a, b), (a, cc), (b, cc))])


def _check_p32(c: OrderedComplex, x: int, _w=None):
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
    pairs = set()
    tails = set()
    for t in around_tets:
        locs = c.tet_locals[t]
        pair = frozenset(locs) - {d, e}
        if len(set(locs)) != 4 or len(pair) != 2 or not pair <= set(outer_corners):
            raise MoveError(f"tet {t} around edge {x} is not part of a bipyramid")
        pairs.add(pair)
        # t's base edge is its edge slot opposite x
        x_slot = _TET_EDGE_POSITIONS.index(tuple(sorted((locs.index(d), locs.index(e)))))
        tails.add(c.edges[c.tet_edge_slots(t)[5 - x_slot]][0])
    if len(pairs) != 3:
        raise MoveError(f"tets around edge {x} do not form a bipyramid")
    if len(tails) == 3:
        raise MoveError(
            f"P32 at edge {x}: the base edges run around a cycle through corners "
            f"{tuple(outer_corners)}, so the base face has no slot order")
    return x, d, e, tuple(outer_corners), around_faces, around_tets


def _patch_p32(c: OrderedComplex, plan) -> _Patch:
    x, d, e, base, around_faces, around_tets = plan
    return _flip(_Patch(c, edges=(x,), faces=around_faces, tets=around_tets),
                 around_tets, None, [base], [(*base, apex) for apex in (d, e)])


# ---------------------------------------------------------------------------
# B22
# ---------------------------------------------------------------------------

def _corner_opposite(c: OrderedComplex, f: int, e: int) -> int:
    """The corner of face f opposite the first of its edge slots holding e."""
    return c.face_locals[f][2 - c.faces[f].index(e)]


def _check_b22(c: OrderedComplex, x: int, _w=None):
    around_faces, around_tets = _around_edge(c, x)
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

    d_tail, d_head = c.edges[x]
    p = _corner_opposite(c, f_sh, x)
    q = _corner_opposite(c, f_q, x)
    r = _corner_opposite(c, f_r, x)
    corners = (d_tail, d_head, p, q, r)
    if len(set(corners)) != 5:
        raise MoveError(f"B22 configuration at edge {x} is not embedded: corners {corners}")
    # t1 and t2 are the shared face with q and with r inserted
    _check_new_edge("B22", f"edge {x}", c.face_locals[f_sh],
                    q, t1, c.tet_locals[t1].index(q), r, t2, c.tet_locals[t2].index(r))
    return x, (f_sh, f_q, f_r), t1, t2, p, q, r


def _patch_b22(c: OrderedComplex, plan) -> _Patch:
    x, faces, t1, t2, p, q, r = plan
    d_tail, d_head = c.edges[x]
    return _flip(_Patch(c, edges=(x,), faces=faces, tets=(t1, t2)), (t1, t2), (q, r),
                 [(p, q, r)] + [(y, q, r) for y in (d_tail, d_head)],
                 [(p, y, q, r) for y in (d_tail, d_head)])


# each kind's targets, the candidates enumerate_applicable tries; its
# precondition, which raises MoveError or returns what its assembly needs;
# and its assembly, which cannot fail
_MOVES = {
    "P14": (lambda c: range(len(c.tets)), _check_p14, _cone),
    "P41": (lambda c: c.vertices, lambda c, v, _w=None: _check_uncone(c, v, "P41"), _uncone),
    "P23": (lambda c: [f for f in range(len(c.faces)) if not c.is_boundary_face(f)],
            _check_p23, _patch_p23),
    "P32": (lambda c: range(len(c.edges)), _check_p32, _patch_p32),
    "B13": (OrderedComplex.boundary_face_indices, _check_b13, _cone),
    "B31": (lambda c: c.vertices, lambda c, v, _w=None: _check_uncone(c, v, "B31"), _uncone),
    "B22": (lambda c: range(len(c.edges)), _check_b22, _patch_b22),
}
