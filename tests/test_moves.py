import random

import pytest

from cmtop import fixtures, moves
from cmtop.complexes import (
    ComplexBuilder,
    ComplexStructureError,
    OrderedComplex,
    are_isomorphic,
    relabel,
    validate_manifold_basics,
)
from cmtop.moves import (
    INVERSE_KIND,
    MOVE_DELTAS,
    MOVE_KINDS,
    MoveDescriptor,
    MoveError,
    apply,
    enumerate_applicable,
)

WALK_KINDS = ("P14", "P23", "B13", "P32", "P14", "B22", "P41", "P23", "B31")


def deltas(before, after):
    return tuple(y - x for x, y in zip(before.counts.as_tuple(), after.counts.as_tuple()))


def rename(c, perm):
    """c with its vertex ids renamed by perm and every slot kept, as
    relabel's Δ-mode does, even where c is simplicial."""
    return OrderedComplex(tuple(sorted(perm.values())),
                          tuple((perm[t], perm[h]) for t, h in c.edges), c.faces, c.tets)


def delta_relabel(c, rng):
    """A random renaming of vertex ids that keeps every slot, so edges may
    run from a larger id to a smaller one."""
    vs = list(c.vertices)
    return rename(c, dict(zip(vs, rng.sample(vs, len(vs)))))


def walk(name, seed, max_tets=40):
    """The fixture, then each complex of a seeded move walk, relabelled in
    Δ-mode after every step, until it has max_tets tets."""
    rng = random.Random(seed)
    c = fixtures.COMPLEXES[name]()
    yield c
    for step in range(4 * max_tets):
        if len(c.tets) >= max_tets:
            return
        found = enumerate_applicable(c, WALK_KINDS[step % len(WALK_KINDS)])
        if found:
            c = delta_relabel(apply(c, rng.choice(found)), rng)
            yield c


def all_candidates(c, kind):
    """Every descriptor of the kind on c, not only those enumerate offers."""
    fresh = max(c.vertices) + 1
    span = {"P14": range(len(c.tets)), "B13": range(len(c.faces)),
            "P23": range(len(c.faces)), "P32": range(len(c.edges)),
            "B22": range(len(c.edges)), "P41": c.vertices, "B31": c.vertices}[kind]
    new_vertex = fresh if kind in ("P14", "B13") else None
    return [MoveDescriptor(kind, x, new_vertex) for x in span]


def test_p14_on_single_tet():
    c = fixtures.single_tet()
    out = apply(c, MoveDescriptor("P14", 0, 5))
    assert deltas(c, out) == MOVE_DELTAS["P14"]
    assert out.counts.as_tuple() == (5, 10, 10, 4)
    assert validate_manifold_basics(out) == []
    assert len(out.boundary_face_indices()) == 4  # boundary untouched


def test_p23_on_two_tet_ball():
    c = fixtures.two_tet_ball()
    interior = [f for f in range(len(c.faces)) if not c.is_boundary_face(f)]
    assert len(interior) == 1
    out = apply(c, MoveDescriptor("P23", interior[0]))
    assert deltas(c, out) == MOVE_DELTAS["P23"]
    assert out.counts.as_tuple() == (5, 10, 9, 3)
    assert validate_manifold_basics(out) == []


def test_b13_on_single_tet():
    c = fixtures.single_tet()
    out = apply(c, MoveDescriptor("B13", 3, 5))  # face (2,3,4)
    assert deltas(c, out) == MOVE_DELTAS["B13"]
    assert out.counts.as_tuple() == (5, 10, 9, 3)
    assert validate_manifold_basics(out) == []
    assert len(out.boundary_face_indices()) == 6


def test_b22_after_b13():
    # B13 makes a square pyramid over the boundary; flip its diagonal
    c = apply(fixtures.single_tet(), MoveDescriptor("B13", 3, 5))
    movable = enumerate_applicable(c, "B22")
    assert movable, "B13 output should admit a B22 flip"
    out = apply(c, movable[0])
    assert deltas(c, out) == MOVE_DELTAS["B22"]
    assert validate_manifold_basics(out) == []
    # the new diagonal joins the two wing corners, disjoint from the old one
    old = set(c.edges[movable[0].target])
    assert not old & set(out.edges[-1])


def test_enumerate_applicable_examples():
    single = fixtures.single_tet()
    assert enumerate_applicable(single, "P23") == []
    assert len(enumerate_applicable(single, "B13")) == 4
    assert len(enumerate_applicable(single, "P14")) == 1
    s3 = fixtures.s3_boundary_4simplex()
    assert len(enumerate_applicable(s3, "P14")) == 5
    assert len(enumerate_applicable(s3, "P23")) == 10
    assert enumerate_applicable(s3, "B13") == []
    assert enumerate_applicable(s3, "B22") == []


def test_round_trips_are_isomorphic():
    single = fixtures.single_tet()
    two = fixtures.two_tet_ball()

    p14 = apply(single, MoveDescriptor("P14", 0, 5))
    assert are_isomorphic(apply(p14, MoveDescriptor("P41", 5)), single)

    interior = [f for f in range(len(two.faces)) if not two.is_boundary_face(f)][0]
    p23 = apply(two, MoveDescriptor("P23", interior))
    new_edge = len(p23.edges) - 1
    assert are_isomorphic(apply(p23, MoveDescriptor("P32", new_edge)), two)

    b13 = apply(single, MoveDescriptor("B13", 0, 9))
    assert are_isomorphic(apply(b13, MoveDescriptor("B31", 9)), single)

    b13b = apply(single, MoveDescriptor("B13", 3, 5))
    flip = enumerate_applicable(b13b, "B22")[0]
    flipped = apply(b13b, flip)
    back = apply(flipped, MoveDescriptor("B22", len(flipped.edges) - 1))
    assert are_isomorphic(back, b13b)


def test_p41_requires_interior_degree_four_vertex():
    c = fixtures.single_tet()
    with pytest.raises(MoveError):
        apply(c, MoveDescriptor("P41", 1))
    s3 = fixtures.s3_boundary_4simplex()
    p14 = apply(s3, MoveDescriptor("P14", 0, 6))
    assert are_isomorphic(apply(p14, MoveDescriptor("P41", 6)), s3)


def test_moves_on_singular_fixtures():
    # cone moves work on singular targets; vertex-reusing moves refuse
    torus = fixtures.solid_torus()
    out = apply(torus, MoveDescriptor("P14", 0, 4))
    assert deltas(torus, out) == MOVE_DELTAS["P14"]
    assert validate_manifold_basics(out) == []
    back = apply(out, MoveDescriptor("P41", 4))
    assert are_isomorphic(back, torus)

    bdry = torus.boundary_face_indices()
    out2 = apply(torus, MoveDescriptor("B13", bdry[0], 4))
    assert deltas(torus, out2) == MOVE_DELTAS["B13"]
    assert validate_manifold_basics(out2) == []
    assert are_isomorphic(apply(out2, MoveDescriptor("B31", 4)), torus)

    assert enumerate_applicable(torus, "P23") == []  # apexes collide with the face
    assert enumerate_applicable(torus, "B22") == []


def test_move_errors_carry_witnesses():
    c = fixtures.single_tet()
    with pytest.raises(MoveError, match="needs an interior face"):
        apply(c, MoveDescriptor("P23", 0))
    with pytest.raises(MoveError, match="must exceed"):
        apply(c, MoveDescriptor("P14", 0, 2))
    with pytest.raises(MoveError, match="no tet"):
        apply(c, MoveDescriptor("P14", 7))
    with pytest.raises(MoveError):
        MoveDescriptor("P99", 0)
    with pytest.raises(MoveError, match="move target must be an int, got 0.0"):
        apply(c, MoveDescriptor("P14", 0.0))
    with pytest.raises(MoveError, match="move target must be an int, got 1.0"):
        MoveDescriptor("P23", 1.0)
    with pytest.raises(MoveError, match="move target must be an int, got '2'"):
        MoveDescriptor("B22", "2")
    with pytest.raises(MoveError, match="new vertex must be an int or None, got 5.5"):
        apply(c, MoveDescriptor("P14", 0, 5.5))


def test_all_outputs_keep_slot_invariants():
    # on every fixture and along walks from it, enumeration offers exactly
    # the candidates that apply, every other candidate raises MoveError, and
    # every applied move yields a buildable complex with the right deltas
    for name in fixtures.VALID_COMPLEX_NAMES:
        for c in walk(name, seed=len(name)):
            for kind in MOVE_KINDS:
                applied = []
                for m in all_candidates(c, kind):
                    try:
                        out = apply(c, m)
                    except MoveError:
                        continue
                    applied.append(m)
                    assert deltas(c, out) == MOVE_DELTAS[kind], (name, m)
                    assert not any("tet slots" in line
                                   for line in validate_manifold_basics(out)), (name, m)
                assert enumerate_applicable(c, kind) == applied, (name, c, kind)


def test_enumeration_builds_nothing(monkeypatch):
    # enumeration decides each candidate from its precondition alone: it
    # neither assembles a patch nor builds a complex, for any kind
    *_, c = walk("s2_interval", seed=1)

    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_applicable assembled or built a move")

    monkeypatch.setattr(moves, "_Patch", refuse)
    monkeypatch.setattr(moves, "OrderedComplex", refuse)
    found = {kind: enumerate_applicable(c, kind) for kind in MOVE_KINDS}
    assert all(found.values()), found
    with pytest.raises(AssertionError, match="assembled or built"):
        apply(c, found["P41"][0])


@pytest.mark.parametrize("table, message", [
    ("faces", r"face edges \(\d+,\d+,\d+\) do not share endpoints consistently"),
    ("tets", r"tet faces \(\d+,\d+,\d+,\d+\) disagree on edge 02"),
])
def test_apply_checks_the_new_simplices(monkeypatch, table, message):
    # build checks only what a move adds against the slot rules: an assembly
    # that swaps the first two slots of its last new face or tet is refused
    targets, check, cone = moves._MOVES["P14"]

    def miswired(c, plan):
        p = cone(c, plan)
        simplices = getattr(p, table)
        first, second, *rest = simplices[-1]
        simplices[-1] = (second, first, *rest)
        return p

    c = fixtures.s3_boundary_4simplex()
    apply(c, MoveDescriptor("P14", 0))
    monkeypatch.setitem(moves._MOVES, "P14", (targets, check, miswired))
    with pytest.raises(ComplexStructureError, match=message):
        apply(c, MoveDescriptor("P14", 0))


def test_p23_refused_by_the_new_edge_direction_alone():
    # two_tet_ball is (1,2,3,4) and (2,3,4,5) on face (2,3,4): apex 1 is
    # corner 0 of tet 0 and apex 5 is corner 3 of tet 1.  Swapping the two
    # ids in Δ-mode keeps every slot, so the tets still put the first apex
    # first, now 5 before 1, while the new edge runs from the smaller id
    two = fixtures.two_tet_ball()
    f, = (f for f in range(len(two.faces)) if not two.is_boundary_face(f))
    assert enumerate_applicable(two, "P23") == [MoveDescriptor("P23", f)]
    swapped = rename(two, {1: 5, 2: 2, 3: 3, 4: 4, 5: 1})
    assert enumerate_applicable(swapped, "P23") == []
    with pytest.raises(MoveError, match=(
            rf"P23 at face {f}: apex 5 is corner 0 of tet 0 and apex 1 is corner 3 "
            r"of tet 1 over corners \(2, 3, 4\), so 5 comes before 1, but the new "
            r"edge runs 1->5")):
        apply(swapped, MoveDescriptor("P23", f))


def test_b31_undoes_b13_whatever_the_face_numbering():
    # B13 on a solid torus face leaves two parallel rim edges around the
    # new vertex 4, so the base face on the rim has two endpoint-consistent
    # slot orders and only one closes the tet.  B31 takes the one its
    # spokes give, whatever order the boundary faces are numbered in
    torus = fixtures.solid_torus()
    for f in torus.boundary_face_indices():
        out = apply(torus, MoveDescriptor("B13", f, 4))
        b = ComplexBuilder()
        for e in out.edges:
            b.add_edge(*e)
        for slots in reversed(out.faces):
            b.add_face(*slots)
        last = len(out.faces) - 1
        for slots in out.tets:
            b.add_tet(*(last - g for g in slots))
        reversed_faces = b.build()
        for c in (out, reversed_faces):
            assert MoveDescriptor("B31", 4) in enumerate_applicable(c, "B31")
            assert are_isomorphic(apply(c, MoveDescriptor("B31", 4)), torus)


def test_inverse_kind_table():
    assert INVERSE_KIND["P14"] == "P41"
    assert INVERSE_KIND["B22"] == "B22"
    assert set(INVERSE_KIND) == set(MOVE_DELTAS)
