import itertools
import math
import random

import pytest

from cmtop.complexes import (
    ComplexBuilder,
    ComplexStructureError,
    OrderedComplex,
    are_isomorphic,
    boundary,
    disjoint_union,
    from_tet_list,
    prism_product,
    relabel,
    validate_manifold_basics,
)


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


def test_isomorphism_for_relabelled_singular_complex():
    c = solid_torus()
    r = relabel(c, {1: 3, 2: 1, 3: 2})
    assert are_isomorphic(c, r)
    # rebuilt with a different base labelling: same manifold, same structure
    other = prism_product([(1, 5), (1, 9), (5, 9)], [(0, 1, 2)], identify_ends=True)
    assert are_isomorphic(c, other)


def test_tet_edge_slots_consistency():
    for c in (single_tet(), s3_complex(), solid_torus(), pillow_interval()):
        for t in range(len(c.tets)):
            f012, f013, f023, f123 = c.tets[t]
            e01, e02, e03, e12, e13, e23 = c.tet_edge_slots(t)
            assert c.faces[f123] == (e12, e13, e23)
            assert c.faces[f023] == (e02, e03, e23)
