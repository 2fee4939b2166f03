import itertools
import math
import random

import pytest

from cmtop import complexes, fixtures
from cmtop.complexes import (
    ComplexBuilder,
    ComplexStructureError,
    OrderedComplex,
    are_isomorphic,
    boundary,
    determined_by_tets,
    disjoint_union,
    from_tet_list,
    prism_product,
    relabel,
    validate_manifold_basics,
)
from cmtop.moves import (
    MOVE_KINDS, MoveDescriptor, MoveError, _check_uncone, apply, enumerate_applicable)
from cmtop.statesum import closing_plan


def single_tet():
    return from_tet_list([(1, 2, 3, 4)])


def s3_complex():
    return from_tet_list(itertools.combinations(range(1, 6), 4))


def solid_torus():
    return prism_product([(1, 2), (1, 3), (2, 3)], [(0, 1, 2)], identify_ends=True)


def pillow_interval():
    return prism_product([(1, 2), (1, 3), (2, 3)], [(0, 1, 2), (0, 1, 2)])


def test_single_tet_counts():
    c = single_tet()
    assert c.counts.as_tuple() == (4, 6, 4, 1)
    assert c.simplicial
    assert len(c.boundary_face_indices()) == 4


def test_indices_of_a_directly_constructed_complex():
    # the slot tables alone determine every derived index
    c = OrderedComplex((1, 2, 3, 4), ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)),
                       ((0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5)), ((0, 1, 2, 3),))
    assert c == single_tet()
    assert c.face_incidence == (((0, 0),), ((0, 1),), ((0, 2),), ((0, 3),))
    assert c.tet_locals == ((1, 2, 3, 4),)
    assert c.face_locals == ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
    assert c.simplicial
    assert len(c.boundary_face_indices()) == 4


def test_s3_counts_match_binomials():
    c = s3_complex()
    # C(5, k+1) cells in each dimension on the boundary of the 4-simplex
    assert c.counts.as_tuple() == tuple(math.comb(5, k + 1) for k in range(4))
    assert c.boundary_face_indices() == ()


def test_two_tet_ball_counts():
    c = from_tet_list([(1, 2, 3, 4), (2, 3, 4, 5)])
    assert c.counts.as_tuple() == (5, 9, 7, 2)
    assert len(c.boundary_face_indices()) == 6


def test_from_tet_list_rejects_bad_input():
    with pytest.raises(ValueError):
        from_tet_list([(1, 1, 2, 3)])
    with pytest.raises(ValueError):
        from_tet_list([(1, 2, 3, 4), (1, 2, 3, 4)])
    # a face in three tets is not allowed in simplicial mode
    with pytest.raises(ValueError):
        from_tet_list([(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 6)])
    # vertex ids follow add_vertex's rule, checked before any sort
    for bad in (1.7, "7", -1):
        with pytest.raises(ComplexStructureError,
                           match=f"vertex ids must be nonnegative integers, got {bad!r}"):
            from_tet_list([(bad, 2, 3, 4)])


def test_boundary_of_single_tet_is_sphere():
    b = boundary(single_tet())
    assert len(b.face_indices) == 4
    assert b.euler_characteristic() == 2


def test_boundary_of_closed_complex_is_empty():
    b = boundary(s3_complex())
    assert b.face_indices == ()
    assert b.euler_characteristic() == 0


def test_solid_torus_fixture():
    c = solid_torus()
    assert c.counts.as_tuple() == (3, 9, 9, 3)
    assert not c.simplicial
    assert validate_manifold_basics(c) == []
    b = boundary(c)
    assert b.euler_characteristic() == 0  # torus
    assert len(b.face_indices) == 6
    assert len(b.edge_indices) == 9  # every edge meets the boundary here
    assert c.euler_characteristic() == 0


def test_pillow_interval_fixture():
    c = pillow_interval()
    assert c.counts.as_tuple() == (6, 12, 14, 6)
    assert validate_manifold_basics(c) == []
    b = boundary(c)
    assert len(b.face_indices) == 4  # two pillows
    assert b.euler_characteristic() == 4  # two spheres
    assert c.euler_characteristic() == 2


def test_boundary_sphere_interval_fixture():
    tetra_edges = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    tetra_faces = [(0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5)]
    c = prism_product(tetra_edges, tetra_faces)
    assert c.counts.as_tuple() == (8, 22, 28, 12)
    assert c.simplicial
    assert validate_manifold_basics(c) == []
    assert boundary(c).euler_characteristic() == 4
    assert c.euler_characteristic() == 2


def test_builder_rejects_inconsistent_face():
    b = ComplexBuilder()
    e1 = b.add_edge(1, 2)
    e2 = b.add_edge(1, 3)
    e3 = b.add_edge(1, 3)  # should be (2,3) for a consistent face
    with pytest.raises(ComplexStructureError):
        b.add_face(e1, e2, e3)


def test_builder_rejects_inconsistent_tet():
    b = ComplexBuilder()
    e = {}
    for i, j in itertools.combinations(range(1, 6), 2):
        e[(i, j)] = b.add_edge(i, j)
    f123 = b.add_face(e[(1, 2)], e[(1, 3)], e[(2, 3)])
    f124 = b.add_face(e[(1, 2)], e[(1, 4)], e[(2, 4)])
    f134 = b.add_face(e[(1, 3)], e[(1, 4)], e[(3, 4)])
    f235 = b.add_face(e[(2, 3)], e[(2, 5)], e[(3, 5)])
    with pytest.raises(ComplexStructureError):
        b.add_tet(f123, f124, f134, f235)  # f235 does not share edge (2,3,4) wiring


def test_validate_reports_face_in_three_tets():
    # deliberately broken: three tets around one face, legal for the builder
    b = ComplexBuilder()
    e = {}
    for i, j in itertools.combinations(range(1, 7), 2):
        e[(i, j)] = b.add_edge(i, j)

    def face(i, j, k):
        return b.add_face(e[(i, j)], e[(i, k)], e[(j, k)])

    f123 = face(1, 2, 3)
    for apex in (4, 5, 6):
        f12a = face(1, 2, apex)
        f13a = face(1, 3, apex)
        f23a = face(2, 3, apex)
        b.add_tet(f123, f12a, f13a, f23a)
    c = b.build()
    report = validate_manifold_basics(c)
    assert any("3 tet slots" in line for line in report)


def test_validate_reports_disconnected():
    c = disjoint_union(single_tet(), single_tet())
    report = validate_manifold_basics(c)
    assert any("not connected" in line for line in report)


def test_relabel_identity_and_reversal():
    c = single_tet()
    assert relabel(c, {1: 1, 2: 2, 3: 3, 4: 4}) == c
    r = relabel(c, {1: 4, 2: 3, 3: 2, 4: 1})
    assert r.tet_locals == ((1, 2, 3, 4),)
    assert r.counts == c.counts


def test_relabel_preserves_counts_and_boundary():
    rng = random.Random(3)
    for c in (s3_complex(), solid_torus(), pillow_interval()):
        ids = list(c.vertices)
        shuffled = ids[:]
        rng.shuffle(shuffled)
        perm = dict(zip(ids, shuffled))
        r = relabel(c, perm)
        assert r.counts == c.counts
        assert boundary(r).euler_characteristic() == boundary(c).euler_characteristic()


def test_relabel_keeps_stray_simplices():
    # an uncovered edge must survive relabelling (no tet-list rebuild)
    b = ComplexBuilder()
    b.add_edge(1, 2)
    c = b.build()
    r = relabel(c, {1: 2, 2: 1})
    assert r.counts.as_tuple() == (2, 1, 0, 0)
    assert r.edges == ((2, 1),)


def test_relabel_keeps_an_isolated_vertex():
    # simplicial, yet its tets do not determine it: vertex 9 is in no tet
    c = single_tet()
    pt = OrderedComplex((*c.vertices, 9), c.edges, c.faces, c.tets)
    assert pt.simplicial and not determined_by_tets(pt)
    assert determined_by_tets(c)
    assert relabel(pt, {v: v for v in pt.vertices}) == pt
    assert relabel(pt, {1: 1, 2: 2, 3: 3, 4: 4, 9: 0}).vertices == (0, 1, 2, 3, 4)


def test_relabel_rejects_non_bijections():
    c = single_tet()
    with pytest.raises(ValueError):
        relabel(c, {1: 1, 2: 1, 3: 3, 4: 4})
    with pytest.raises(ValueError):
        relabel(c, {1: 1, 2: 2})


@pytest.mark.parametrize("target", [-1, 7.0, "7"])
def test_relabel_rejects_bad_target_ids(target):
    # the simplicial path rebuilds from the tet list and the Δ path renames
    # the edge endpoints; both refuse an id that is not a nonnegative int
    for c in (single_tet(), solid_torus()):
        perm = {v: target if v == 1 else v for v in c.vertices}
        with pytest.raises(ComplexStructureError,
                           match=f"vertex ids must be nonnegative integers, got {target!r}"):
            relabel(c, perm)


def test_disjoint_union_counts_add():
    a, b = single_tet(), s3_complex()
    u = disjoint_union(a, b)
    assert u.counts.as_tuple() == tuple(
        x + y for x, y in zip(a.counts.as_tuple(), b.counts.as_tuple()))


def test_isomorphism_checks():
    assert are_isomorphic(single_tet(), from_tet_list([(7, 8, 9, 10)]))
    assert are_isomorphic(solid_torus(), solid_torus())
    assert not are_isomorphic(single_tet(), s3_complex())
    two = from_tet_list([(1, 2, 3, 4), (2, 3, 4, 5)])
    assert are_isomorphic(two, relabel(two, {1: 5, 2: 2, 3: 3, 4: 4, 5: 1}))


def test_isomorphism_refuses_simplices_under_no_tet():
    def with_stray_edge(tail):
        c = single_tet()
        return OrderedComplex((*c.vertices, 5), (*c.edges, (tail, 5)), c.faces, c.tets)

    a, b = with_stray_edge(1), with_stray_edge(4)
    assert a.simplicial and b.simplicial
    # the tet fixes every vertex, so no bijection maps one stray edge onto
    # the other; the maps the search builds never see them
    for x, y in ((a, b), (b, a), (a, a), (single_tet(), a)):
        with pytest.raises(ValueError, match=r"edges \[6\] and vertices \[5\] lie under no tet"):
            are_isomorphic(x, y)
    c = single_tet()
    lone_vertex = OrderedComplex((*c.vertices, 9), c.edges, c.faces, c.tets)
    with pytest.raises(ValueError, match=r"vertices \[9\] lie under no tet"):
        are_isomorphic(lone_vertex, lone_vertex)
    empty = OrderedComplex((), (), (), ())
    assert are_isomorphic(empty, empty)


def test_isomorphism_for_relabelled_singular_complex():
    c = solid_torus()
    r = relabel(c, {1: 3, 2: 1, 3: 2})
    assert are_isomorphic(c, r)
    # rebuilt with a different base labelling: same manifold, same structure
    other = prism_product([(1, 5), (1, 9), (5, 9)], [(0, 1, 2)], identify_ends=True)
    assert are_isomorphic(c, other)


def _renamed(c, seed):
    """c with its vertex ids and its edge, face and tet indices each
    permuted by a seeded shuffle: the same complex, relabeled throughout."""
    rng = random.Random(seed)
    ids = list(c.vertices)
    rng.shuffle(ids)

    def shuffled(n):
        new = list(range(n))
        rng.shuffle(new)
        return new

    def moved(table, new, rename):  # row i goes to new[i], its slots renamed
        out = [None] * len(table)
        for i, row in enumerate(table):
            out[new[i]] = tuple(rename[x] for x in row)
        return tuple(out)

    e, f, t = shuffled(len(c.edges)), shuffled(len(c.faces)), shuffled(len(c.tets))
    return OrderedComplex(tuple(sorted(ids)), moved(c.edges, e, dict(zip(c.vertices, ids))),
                          moved(c.faces, f, e), moved(c.tets, t, f))


def test_isomorphism_of_a_walk_past_1200_tets():
    # seeded P14 walks from the solid torus: every walk of n steps has the
    # same counts, and a Δ-complex takes no simplicial shortcut
    def walked(seed):
        rng, c = random.Random(seed), solid_torus()
        for _ in range(400):
            c = apply(c, MoveDescriptor("P14", rng.randrange(len(c.tets))))
        return c

    a, other = walked(1), walked(2)
    b = _renamed(a, 3)
    assert len(a.tets) == 1203 and a.counts == other.counts and not a.simplicial
    assert a.tets != b.tets
    assert are_isomorphic(a, b) and are_isomorphic(b, a)
    assert not are_isomorphic(a, other) and not are_isomorphic(other, b)


def test_isomorphism_backtracks_across_components():
    # two tets that share only a vertex, or only an edge, so each is a
    # component of the walk.  With the tets of b in the other order the
    # first seed fits b's first tet on its own, and only the second
    # component shows that it must back up and take the other one.
    def swapped(c):
        return OrderedComplex(c.vertices, c.edges, c.faces, c.tets[::-1])

    at_vertex = from_tet_list([(0, 1, 2, 3), (3, 4, 5, 6)])  # corners 3 and 0
    at_edge = from_tet_list([(0, 1, 2, 3), (2, 3, 4, 5)])  # slots (23) and (01)
    for c in (at_vertex, at_edge):
        assert len(c.walk) == 2
        for x, y in ((c, swapped(c)), (swapped(c), c), (swapped(c), swapped(c))):
            assert are_isomorphic(x, y)
    # the same counts, shared at other corners: no bijection fits them
    for c, d in ((at_vertex, from_tet_list([(0, 1, 2, 3), (0, 4, 5, 6)])),
                 (at_edge, from_tet_list([(0, 1, 2, 3), (0, 1, 4, 5)]))):
        assert c.counts == d.counts
        for x, y in ((c, d), (swapped(c), d), (d, c), (d, swapped(c))):
            assert not are_isomorphic(x, y)
    # three components under a relabeling of every simplex
    three = from_tet_list([(0, 1, 2, 3), (3, 4, 5, 6), (5, 6, 7, 8)])
    assert len(three.walk) == 3
    assert all(are_isomorphic(three, _renamed(three, seed)) for seed in range(5))


def test_tet_edge_slots_consistency():
    for c in (single_tet(), s3_complex(), solid_torus(), pillow_interval()):
        for t in range(len(c.tets)):
            f012, f013, f023, f123 = c.tets[t]
            e01, e02, e03, e12, e13, e23 = c.tet_edge_slots(t)
            assert c.faces[f123] == (e12, e13, e23)
            assert c.faces[f023] == (e02, e03, e23)


def _seeded_walk(c, seed, steps=25):
    rng = random.Random(seed)
    for _ in range(steps):
        found = enumerate_applicable(c, rng.choice(MOVE_KINDS))
        if found:
            c = apply(c, rng.choice(found))
            yield c


def _components(vertices, edges):
    """The number of components of a graph, by depth-first search."""
    adjacent = {v: [] for v in vertices}
    for a, b in edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    seen, count = set(), 0
    for v in vertices:
        if v in seen:
            continue
        count += 1
        seen.add(v)
        stack = [v]
        while stack:
            for u in adjacent[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    return count


def _walk_cases():
    """(complex, components of its tet walk): the valid fixtures, their
    disjoint unions, and seeded move walks from them."""
    valid = [n for n in fixtures.COMPLEXES if n != "broken_complex"]
    for name in valid:
        c = fixtures.COMPLEXES[name]()
        yield c, 1
        yield disjoint_union(c, fixtures.COMPLEXES[valid[len(name) % len(valid)]]()), 2
        for walked in _seeded_walk(c, seed=len(name)):
            yield walked, 1


def test_walk_lists_each_tet_once_per_component():
    for c, k in _walk_cases():
        assert len(c.walk) == k
        assert sorted(t for component in c.walk for t in component) == list(range(len(c.tets)))
        assert all(component[0] == min(component) for component in c.walk)
        assert sorted(c.walk_edges) == list(range(len(c.edges)))
        assert sorted(c.walk_faces) == list(range(len(c.faces)))
    # the walk crosses no face that lies in three tet slots
    assert fixtures.broken_complex().walk == ((0,), (1,), (2,))


def test_spanning_forest_spans_without_a_cycle():
    for c, _ in _walk_cases():
        forest = [c.edges[e] for e in c.spanning_forest]
        k = _components(c.vertices, c.edges)
        assert len(forest) == len(c.vertices) - k
        # a graph with V - k edges and k components has no cycle
        assert _components(c.vertices, forest) == k


def test_walk_and_forest_are_cached():
    c = s3_complex()
    assert c.walk is c.walk
    assert c.walk_edges is c.walk_edges
    assert c.walk_faces is c.walk_faces
    assert c.spanning_forest is c.spanning_forest


def test_closing_order_sets_each_edge_off_the_forest_once():
    for c, _ in _walk_cases():
        plan = closing_plan(c)
        assert closing_plan(c) is plan
        steps = plan.steps
        assert sorted([e for e, _, _ in steps] + list(c.spanning_forest)) == list(range(len(c.edges)))
        done = set(c.spanning_forest)
        for e, f, slot in steps:
            if f >= 0:
                # e fills one slot of its forcing face; the others are set
                assert c.faces[f].count(e) == 1 and c.faces[f][slot] == e
                assert all(x in done for x in c.faces[f] if x != e)
            else:
                assert slot == -1
            done.add(e)
        # each face is done at the depth of its last edge, listed in index order
        depth = {e: i for i, (e, _, _) in enumerate(steps)}
        assert {f: i for i, fs in enumerate(plan.faces_done_at) for f in fs} == {
            f: max(depth.get(e, -1) for e in slots) for f, slots in enumerate(c.faces)}
        assert all(list(fs) == sorted(fs) for fs in plan.faces_done_at)


def test_closing_order_branch_edges():
    branches = {"single_tet": 0, "two_tet_ball": 0, "s3_boundary_4simplex": 0,
                "s2_interval": 0, "s2_interval_big": 0, "solid_torus": 1}
    for name, k in branches.items():
        steps = closing_plan(fixtures.COMPLEXES[name]()).steps
        assert sum(f < 0 for _, f, _ in steps) == k, name


def test_closing_order_forces_and_branches():
    # a triangle: the forest takes two edges in walk order, the face forces the third
    bld = ComplexBuilder()
    bld.add_face(bld.add_edge(0, 1), bld.add_edge(0, 2), bld.add_edge(1, 2))
    c = bld.build()
    assert c.spanning_forest == (0, 1) and closing_plan(c).steps == ((2, 0, 2),)
    # five loops at one vertex, so no forest, and faces (0,3,1), (0,3,2),
    # (0,3,4): every score is 0 and edge 0 comes first in walk order; then
    # edge 3 lies in three faces with two unset slots, the others in one
    bld = ComplexBuilder()
    loops = [bld.add_edge(0, 0) for _ in range(5)]
    for other in (1, 2, 4):
        bld.add_face(loops[0], loops[3], loops[other])
    c = bld.build()
    assert c.spanning_forest == ()
    assert closing_plan(c).steps == ((0, -1, -1), (3, -1, -1), (1, 0, 2), (2, 1, 2), (4, 2, 2))


def _branch_rule_holds(c):
    """Replay the closing plan and recount each branch step from scratch:
    no face has one unset slot, and the edge is the unset edge in the most
    faces with exactly two unset slots, the first in walk order on ties.
    Return the number of branch steps."""
    unset = set(range(len(c.edges))) - set(c.spanning_forest)
    branches = 0
    for e, f, _ in closing_plan(c).steps:
        if f < 0:
            left = [sum(x in unset for x in slots) for slots in c.faces]
            assert 1 not in left
            score = {x: sum(left[g] == 2 for g in c.edge_faces[x]) for x in unset}
            best = max(score.values())
            assert e == next(x for x in c.walk_edges if x in unset and score[x] == best)
            branches += 1
        unset.remove(e)
    return branches


def test_closing_order_branch_rule_from_scratch():
    torus = fixtures.solid_torus()
    c = torus
    for k in range(2, 6):
        c = disjoint_union(c, torus)
        assert _branch_rule_holds(c) == k
    walked = [w for seed in range(3) for w in _seeded_walk(torus, seed, steps=200)]
    assert sum(map(_branch_rule_holds, walked)) > 0


def test_vertex_stars_list_a_simplex_once_whatever_its_repeated_corners():
    # solid_torus has a loop, edge 3 at vertex 1: it is listed once
    torus = fixtures.solid_torus()
    assert torus.edges[3] == (1, 1) and torus.tet_locals[0] == (1, 2, 3, 3)
    assert torus.vertex_edges == {1: (0, 1, 3, 6, 7), 2: (0, 2, 4, 6, 8), 3: (1, 2, 5, 7, 8)}
    # the star that P41 and B31 compose from a vertex's edges is the set of
    # simplices with v as a corner, each listed once in index order
    for c, _ in _walk_cases():
        for v in c.vertices:
            star = tuple(tuple(s for s, corners in enumerate(table) if v in corners)
                         for table in (c.tet_locals, c.edges, c.face_locals))
            faces = sorted({f for e in c.vertex_edges[v] for f in c.edge_faces[e]})
            tets = sorted({t for f in faces for t, _ in c.face_incidence[f]})
            assert (tuple(tets), c.vertex_edges[v], tuple(faces)) == star
            for kind in ("P41", "B31"):
                try:
                    _, tets, edges, faces, _, _ = _check_uncone(c, MoveDescriptor(kind, v))
                except MoveError:
                    continue
                assert (tuple(tets), edges, tuple(faces)) == star


@pytest.mark.parametrize("table, n, drop, renamed", [
    # a face table over 7 edges: the first, the last, an adjacent run and
    # several scattered ones dropped
    (((1, 2, 3), (4, 5, 6), (6, 1, 2)), 7, (0,), ((0, 1, 2), (3, 4, 5), (5, 0, 1))),
    (((0, 1, 2), (3, 4, 5), (5, 0, 1)), 7, (6,), ((0, 1, 2), (3, 4, 5), (5, 0, 1))),
    (((0, 1, 5), (1, 5, 6), (6, 0, 1)), 7, (2, 3, 4), ((0, 1, 2), (1, 2, 3), (3, 0, 1))),
    (((1, 2, 4), (2, 4, 5), (5, 1, 1)), 7, (0, 3, 6), ((0, 1, 2), (1, 2, 3), (3, 0, 0))),
    # a tet table over 8 faces, the same way
    (((1, 2, 3, 4), (5, 6, 7, 1)), 8, (0,), ((0, 1, 2, 3), (4, 5, 6, 0))),
    (((0, 1, 2, 3), (4, 5, 6, 0)), 8, (7,), ((0, 1, 2, 3), (4, 5, 6, 0))),
    (((0, 1, 2, 5), (5, 6, 7, 0)), 8, (3, 4), ((0, 1, 2, 3), (3, 4, 5, 0))),
    (((1, 4, 5, 6), (6, 5, 4, 1)), 8, (0, 2, 3, 7), ((0, 1, 2, 3), (3, 2, 1, 0))),
])
def test_renumbered_renames_each_slot_to_its_survivor_index(table, n, drop, renamed):
    # each slot names a survivor, renamed to its index among the survivors;
    # with nothing dropped the table itself comes back
    assert complexes._renumbered(table, n, drop) == renamed
    assert complexes._renumbered(table, n, ()) is table
