import itertools
import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from conftest import naive_statesum

from cmtop import crossed_modules, fixtures, statesum
from cmtop.complexes import (
    ComplexBuilder,
    OrderedComplex,
    disjoint_union,
    relabel,
    validate_manifold_basics,
)
from cmtop.crossed_modules import identity_cm, make_crossed_module, peiffer_violations, reduction_cm
from cmtop.groups import FiniteGroup, build_cyclic, build_symmetric, build_trivial
from cmtop.moves import MOVE_KINDS, MoveDescriptor, apply, enumerate_applicable
from cmtop.selftest import _cm_mutations
from cmtop.statesum import (
    BudgetExceededError,
    SearchBudgetExceededError,
    Coloring,
    InvariantValue,
    brute_force_invariant,
    closing_plan,
    face_holonomy,
    invariant,
    is_admissible,
    oracle_plan,
    tet_obstruction,
    tet_system,
)


def test_face_holonomy_examples():
    c = fixtures.single_tet()
    id_z3 = fixtures.crossed_module("id_z3")
    zero = Coloring((0,) * 6, (0,) * 4)
    for f in range(4):
        assert face_holonomy(id_z3, c, zero, f) == 0
    # face (123) has edges e01=(12) idx0, e02=(13) idx1, e12=(23) idx3;
    # additive: bnd(h) + g23 + g12 - g13 = 0+1+1-2 = 0
    col = Coloring((1, 2, 0, 1, 0, 0), (0, 0, 0, 0))
    assert face_holonomy(id_z3, c, col, 0) == 0
    id_z2 = fixtures.crossed_module("id_z2")
    col = Coloring((0,) * 6, (1, 0, 0, 0))
    assert face_holonomy(id_z2, c, col, 0) == 1  # bnd(1) = 1 != e


def test_tet_obstruction_examples():
    c = fixtures.single_tet()
    id_z2 = fixtures.crossed_module("id_z2")
    assert tet_obstruction(id_z2, c, Coloring((0,) * 6, (0,) * 4), 0) == 0
    # h_jlm=1 (face 134), h_jkm=1 (face 124), rest 0: 1+0-0-1 = 0
    assert tet_obstruction(id_z2, c, Coloring((0,) * 6, (0, 1, 1, 0)), 0) == 0
    # only h_jkl=1 (face 123), g_lm=1: (1 |> 1) = 1 != e
    assert tet_obstruction(id_z2, c, Coloring((0, 0, 0, 0, 0, 1), (1, 0, 0, 0)), 0) == 1


def test_is_admissible():
    c = fixtures.single_tet()
    id_z2 = fixtures.crossed_module("id_z2")
    assert is_admissible(id_z2, c, Coloring((0,) * 6, (0,) * 4))
    assert not is_admissible(id_z2, c, Coloring((0,) * 6, (1, 0, 0, 0)))
    with pytest.raises(ValueError):
        is_admissible(id_z2, c, Coloring((0,) * 5, (0,) * 4))


def test_admissible_vacuous_on_empty_complex():
    b = ComplexBuilder()
    b.add_edge(1, 2)
    c = b.build()
    id_z2 = fixtures.crossed_module("id_z2")
    assert is_admissible(id_z2, c, Coloring((0,), ()))
    assert is_admissible(id_z2, c, Coloring((1,), ()))
    # the sum evaluated as written: empty products, |G|^E free edge colors
    v = invariant(id_z2, c)
    assert v.admissible_count == 2  # both edge colors admissible
    assert v.value == Fraction(2, 4) * 2  # N * |G|^-2 * |H|^(2-1)
    # vertices only: a single empty coloring, pure prefactor
    b2 = ComplexBuilder()
    b2.add_vertex(7)
    dust = b2.build()
    assert invariant(id_z2, dust).value == Fraction(1, 2) * 2
    assert brute_force_invariant(id_z2, dust).value == Fraction(1, 2) * 2


def test_single_tet_against_naive_reference():
    c = fixtures.single_tet()
    for name in ("id_z2", "trivh_z2", "z4_to_z2", "conj_z3"):
        cm = fixtures.crossed_module(name)
        expected = naive_statesum(cm, c)
        assert brute_force_invariant(cm, c).value == expected
        assert invariant(cm, c).value == expected


def test_singular_fixtures_against_naive_reference():
    # pins the slot conventions on identified faces, loops, parallel edges;
    # every factor of _fgfg repeats a variable, so the oracle reads only
    # diagonals of its face and tet tables
    cases = [
        (fixtures.solid_torus(), fixtures.crossed_module("trivh_z2")),
        (fixtures.solid_torus(), fixtures.crossed_module("id_z2")),
        (fixtures.s2_interval(), fixtures.crossed_module("trivh_z2")),
    ]
    cases += [(_fgfg(), cm) for cm in [*map(fixtures.crossed_module, fixtures.CM_NAMES),
                                        _s3_sign()]]
    for c, cm in cases:
        expected = naive_statesum(cm, c)
        assert brute_force_invariant(cm, c).value == expected
        assert invariant(cm, c).value == expected


def test_single_tet_paper_value_all_cms():
    # Z(D^3) = |H|/|G|
    c = fixtures.single_tet()
    for cm in [fixtures.crossed_module(n) for n in fixtures.CM_NAMES]:
        want = Fraction(cm.h.order, cm.g.order)
        assert invariant(cm, c).value == want
        assert brute_force_invariant(cm, c).value == want


def test_single_tet_h_z3_g_trivial():
    h = build_cyclic(3)
    g = build_trivial()
    cm = make_crossed_module(h, g, [0, 0, 0], [list(range(3))], "z3_over_1")
    v = invariant(cm, fixtures.single_tet())
    assert v.value == 3
    assert brute_force_invariant(cm, fixtures.single_tet()).value == 3


def test_factored_form():
    c = fixtures.single_tet()
    cm = fixtures.crossed_module("id_z2")
    v = invariant(cm, c)
    assert (v.g_exponent, v.h_exponent) == (-4, -2)
    assert v.admissible_count == 2**3 * 2**3  # free: three edges, three faces
    assert v.value == Fraction(v.admissible_count) * Fraction(2) ** (-4) * Fraction(2) ** (-2)


def test_s3_sphere_trivial_h_z2():
    # S^3 Dijkgraaf-Witten value 1/|G|; N = |G|^(V-1) flat colorings
    c = fixtures.s3_boundary_4simplex()
    cm = fixtures.crossed_module("trivh_z2")
    v = brute_force_invariant(cm, c)
    assert v.value == Fraction(1, 2)
    assert v.admissible_count == 2**4
    assert invariant(cm, c).value == Fraction(1, 2)


def test_two_tet_ball_is_still_a_ball():
    c = fixtures.two_tet_ball()
    for name in ("id_z2", "trivh_z3", "z4_to_z2"):
        cm = fixtures.crossed_module(name)
        want = Fraction(cm.h.order, cm.g.order)
        assert invariant(cm, c).value == want
        assert brute_force_invariant(cm, c).value == want


def test_solid_torus_paper_value():
    c = fixtures.solid_torus()
    for name in ("id_z2", "id_z3", "trivh_s3"):
        assert invariant(fixtures.crossed_module(name), c).value == 1


def _sphere_interval_double_sum(cm) -> Fraction:
    # the residual sum after eliminating the forced colors by hand:
    # (1/|G|^2) * sum over y1, y2 in H of delta_G(bnd(y1^-1 y2)),
    # which collapses to |H| |ker bnd| / |G|
    g, h = cm.g, cm.h
    total = 0
    for y1 in range(h.order):
        for y2 in range(h.order):
            if cm.bnd(h.mul(h.inv(y1), y2)) == 0:
                total += g.order
    return Fraction(total, g.order**2)


def test_s2_interval_closed_form():
    c = fixtures.s2_interval()
    # injective boundary: |ker| = 1, value |H|/|G| = 1 for identity cms
    assert invariant(fixtures.crossed_module("id_z2"), c).value == 1
    assert invariant(fixtures.crossed_module("id_z3"), c).value == 1
    # Z/4 -> Z/2: |H| |ker| / |G| = 4*2/2 = 4
    assert invariant(fixtures.crossed_module("z4_to_z2"), c).value == 4
    # Dijkgraaf-Witten check: product formula |H||ker|/|G| with H trivial
    assert invariant(fixtures.crossed_module("trivh_z3"), c).value == Fraction(1, 3)
    # the closed form evaluated as the residual double sum, independently
    for name in ("id_z2", "id_z3", "z4_to_z2", "trivh_z3", "conj_z2z2"):
        cm = fixtures.crossed_module(name)
        want = _sphere_interval_double_sum(cm)
        assert want == Fraction(cm.h.order * len(cm.kernel_of_boundary()), cm.g.order)
        assert invariant(cm, c).value == want
    # conj_z2z2: |H| |ker| / |G| = 4*4/6, from N = 509 607 936 colorings
    v = invariant(fixtures.crossed_module("conj_z2z2"), c)
    assert (v.value, v.admissible_count) == (Fraction(8, 3), 509_607_936)


def _a3_in_s3():
    """A_3 normal in S_3: inclusion boundary, conjugation action."""
    s3 = fixtures.group("s3")
    r = next(x for x in range(6) if s3.element_order(x) == 3)
    emb = [0, r, s3.mul(r, r)]
    back = {x: y for y, x in enumerate(emb)}
    action = [[back[s3.conj(x, emb[y])] for y in range(3)] for x in range(6)]
    cm = make_crossed_module(build_cyclic(3), s3, emb, action, "a3_s3")
    assert not peiffer_violations(cm)
    return cm


def test_injective_non_surjective_boundary():
    # trivial kernel, im(bnd) != G and H != 1: every edge coloring whose face
    # requirements lie in im(bnd) counts once
    z2_in_z4 = reduction_cm(build_cyclic(2), build_cyclic(4), [0, 2], "z2_z4")
    for cm in (_a3_in_s3(), z2_in_z4):
        tet = fixtures.single_tet()
        fast = invariant(cm, tet)
        assert fast == brute_force_invariant(cm, tet)
        assert fast.value == Fraction(cm.h.order, cm.g.order)
        assert invariant(cm, fixtures.solid_torus()).value == 1
    # S^2 x I: |H| |ker bnd| / |G| = 2 * 1 / 4
    assert invariant(z2_in_z4, fixtures.s2_interval()).value == Fraction(1, 2)


def test_large_ball_gives_the_ball_value(p14_ball):
    # 1206 edges, far past Python's recursion limit: the searches are
    # iterative, the gauge-fixed edge search stays linear in the ball, and
    # the face colors of each leaf are counted by one linear solve over ker
    v = invariant(fixtures.crossed_module("id_z2"), p14_ball)
    assert v.value == 1
    assert v.admissible_count == 2**1206
    for name in fixtures.CM_NAMES:
        cm = fixtures.crossed_module(name)
        start = time.perf_counter()
        assert invariant(cm, p14_ball).value == Fraction(cm.h.order, cm.g.order)
        assert time.perf_counter() - start < 1.0, name


def test_large_ball_needs_one_node_per_edge_off_the_forest(p14_ball):
    # 1206 edges, 303 of them in the spanning forest: a face forces each of
    # the other 903, so the search is one path of one node per edge
    assert len(p14_ball.edges) - len(p14_ball.spanning_forest) == 903
    for name in fixtures.CM_NAMES:
        cm = fixtures.crossed_module(name)
        value = invariant(cm, p14_ball, node_budget=903).value
        assert value == Fraction(cm.h.order, cm.g.order), name


def test_search_node_counts_are_pinned():
    # a forced edge is one node, a branch edge one per coset representative
    for cn, mn, nodes in (("s2_interval_big", "conj_z3", 15),
                          ("solid_torus", "conj_z2z2", 37)):
        cm, c = fixtures.crossed_module(mn), fixtures.COMPLEXES[cn]()
        assert invariant(cm, c, node_budget=nodes).admissible_count > 0
        with pytest.raises(SearchBudgetExceededError):
            invariant(cm, c, node_budget=nodes - 1)


def test_budget_error_says_how_far_it_got():
    cases = (("solid_torus", "conj_z2z2", 5, "deepest depth 5 of 7 edges in the "
              "closing order (1 branch, 6 forced)"),
             ("s2_interval_big", "conj_z3", 14, "deepest depth 14 of 15 edges in the "
              "closing order (0 branch, 15 forced)"))
    for cn, mn, budget, where in cases:
        with pytest.raises(SearchBudgetExceededError) as err:
            invariant(fixtures.crossed_module(mn), fixtures.COMPLEXES[cn](), node_budget=budget)
        assert str(err.value) == (f"fast engine spent its budget of {budget} search "
                                  f"nodes; {where}")


def test_set_up_is_cached_on_the_complex_and_on_the_module():
    cm, c = fixtures.crossed_module("conj_z3"), fixtures.s2_interval_big()
    first = invariant(cm, c)
    plan, system = closing_plan(c), tet_system(c)
    tables, coords = cm.boundary_tables, cm.kernel_coordinates
    for budget in (None, 15, 10**4):
        assert invariant(cm, c, node_budget=budget) == first
    assert closing_plan(c) is plan and tet_system(c) is system
    assert cm.boundary_tables is tables and cm.kernel_coordinates is coords
    # a relabeled or moved complex is a new instance with its own set-up
    for other in (relabel(c, {v: 10 - v for v in c.vertices}),
                  apply(c, MoveDescriptor("P14", 0))):
        assert invariant(cm, other).value == first.value
        assert closing_plan(other) is not plan and tet_system(other) is not system
        assert closing_plan(c) is plan and cm.boundary_tables is tables
    # so is a mutated module: an action entry, then a boundary image
    mutants = list(_cm_mutations(cm))
    for mutant in (mutants[0], mutants[-1]):
        assert mutant.boundary_tables is not tables
    assert mutants[-1].boundary_tables != tables
    assert cm.boundary_tables is tables


def test_a_trivial_kernel_builds_no_tet_system():
    # with ker(bnd) = {e} every leaf counts 1 before the system is read;
    # the fixture is cached, so its relabeling is the fresh complex
    big = fixtures.s2_interval_big()
    c = relabel(big, {v: v + 10 for v in big.vertices})
    assert invariant(fixtures.crossed_module("id_z2"), c).value == 1
    assert "tet_system" not in c.plans
    invariant(fixtures.crossed_module("z4_to_z2"), c)
    assert "tet_system" in c.plans


def test_the_plans_of_a_complex_are_cached_as_statesum_builds_them():
    # a space of 2^63 or more is refused before anything is planned
    big = fixtures.s2_interval_big()
    c = relabel(big, {v: v + 10 for v in big.vertices})  # fresh: nothing cached
    with pytest.raises(BudgetExceededError, match=r"exact only below 2\^63"):
        brute_force_invariant(fixtures.crossed_module("id_z3"), c)
    assert c.plans == {}
    big = fixtures.s3_boundary_4simplex()
    c = relabel(big, {v: v + 10 for v in big.vertices})
    # a trivial kernel needs the closing plan alone
    invariant(fixtures.crossed_module("id_z2"), c)
    plan = closing_plan(c)
    assert c.plans == {"closing_plan": plan}
    invariant(fixtures.crossed_module("z4_to_z2"), c)
    assert c.plans == {"closing_plan": plan, "tet_system": tet_system(c)}
    # the oracle adds its plan under the module's group orders, (2, 3)
    brute_force_invariant(fixtures.crossed_module("conj_z3"), c)
    assert c.plans == {"closing_plan": plan, "tet_system": tet_system(c),
                       (2, 3): oracle_plan(c, 2, 3)}
    assert closing_plan(c) is plan


_BOUNDED = ("single_tet", "two_tet_ball", "solid_torus", "s2_interval", "s2_interval_big")


def test_the_tet_system_lays_out_only_the_closed_components():
    for name in _BOUNDED:
        assert tet_system(fixtures.COMPLEXES[name]()) == ((), (), ())
    s3, torus = fixtures.s3_boundary_4simplex(), fixtures.solid_torus()
    assert sorted(tet_system(s3).rows) == list(range(5))
    for u, s3_tets in ((disjoint_union(torus, s3), range(3, 8)),
                       (disjoint_union(s3, torus), range(5))):
        assert sorted(tet_system(u).rows) == list(s3_tets)


def test_no_leaf_of_a_bounded_fixture_reduces_a_column(monkeypatch):
    # every leaf's tet system on a complex with boundary is onto, so the
    # engine folds nothing there; on S^3 it does
    calls, reduce = [], statesum._reduce

    def counted(*args):
        calls.append(args)
        return reduce(*args)

    monkeypatch.setattr(statesum, "_reduce", counted)
    cm = fixtures.crossed_module("conj_z2z2")
    for name in _BOUNDED:
        invariant(cm, fixtures.COMPLEXES[name]())
    assert calls == []
    invariant(cm, fixtures.s3_boundary_4simplex())
    assert calls


def _full_system_image(cm, c, g_assign):
    """The order of the image of the homogeneous tet system A^F -> A^T with
    every tet a row, under the edge colors ``g_assign``: laid out here from
    the slots, apart from ``tet_system``, and folded with ``_reduce``."""
    d, gens, coord, relations = cm.kernel_coordinates
    r, act = len(gens), cm.action
    basis = {t * r + l: {t * r + q: x for q, x in rel.items()}
             for t in range(len(c.tets)) for l, rel in enumerate(relations)}
    image = 1
    for places in c.face_incidence:
        for a in gens:
            col = {}
            for t, slot in places:
                x = act[g_assign[c.faces[c.tets[t][3]][2]]][a] if slot == 0 else a
                sign = 1 if slot in (0, 2) else -1
                for q, y in enumerate(coord[x]):
                    col[t * r + q] = (col.get(t * r + q, 0) + sign * y) % d
            image *= statesum._reduce(basis, {k: y for k, y in col.items() if y}, d)
    return image


def test_the_tet_system_of_a_bounded_complex_is_onto():
    # the theorem the engine's tet_system rests on, checked on the full
    # system under random edge colors, flat or not
    modules = [fixtures.crossed_module(n) for n in ("conj_z2z2", "conj_z3", "z4_to_z2")]
    modules += [_z8_to_z2(), _z4_negated_over_z2(), *_z4_with_an_order_2_generator()]
    complexes = [fixtures.COMPLEXES[name]() for name in _BOUNDED]
    for name, seed in (("solid_torus", 3), ("s2_interval", 4)):
        rng, c = random.Random(seed), fixtures.COMPLEXES[name]()
        for step in range(24):
            found = enumerate_applicable(c, rng.choice(MOVE_KINDS))
            if found:
                c = apply(c, rng.choice(found))
            if step % 6 == 5:
                complexes.append(c)
    rng = random.Random(5)
    for c in complexes:
        assert c.boundary_face_indices() and len(c.walk) == 1
        for cm in modules:
            for _ in range(2):
                g = [rng.randrange(cm.g.order) for _ in c.edges]
                assert _full_system_image(cm, c, g) == len(cm.boundary_tables.kernel)**len(c.tets)
    # not so on a closed complex: under the trivial action, the sum of the
    # tets' equations with their orientation signs vanishes on S^3
    s3 = fixtures.s3_boundary_4simplex()
    cm = fixtures.crossed_module("z4_to_z2")
    assert _full_system_image(cm, s3, [0] * len(s3.edges)) < 2**len(s3.tets)


def test_engine_matches_the_oracle_on_closed_and_bounded_components_together():
    # the single tet tripled has every face in three tet slots, so none is a
    # boundary face and each tet is a closed component with its own rows;
    # taking "every face in two slots" for closed would give 864, not 13824,
    # under conj_z2z2.  In the solid torus with S^3 only S^3's tets are rows,
    # and N is the product of the parts' N: the torus's from the oracle, and
    # S^3's from the engine, which lays out every tet of S^3 and matches the
    # oracle wherever the oracle reaches S^3.
    t, torus = fixtures.single_tet(), fixtures.solid_torus()
    tripled = OrderedComplex(t.vertices, t.edges, t.faces, t.tets * 3)
    s3 = fixtures.s3_boundary_4simplex()
    modules = [fixtures.crossed_module(n) for n in ("conj_z2z2", "conj_z3", "z4_to_z2")]
    modules += [_z8_to_z2(), _z4_negated_over_z2(), _cyclic_times(8, 2)]
    for cm in modules:
        assert invariant(cm, tripled) == brute_force_invariant(cm, tripled), cm.name
        closed = invariant(cm, s3).admissible_count
        if cm.name in ("conj_z3", "z4_to_z2", "z4_negated"):
            assert closed == brute_force_invariant(cm, s3).admissible_count, cm.name
        n = brute_force_invariant(cm, torus).admissible_count * closed
        for u in (disjoint_union(torus, s3), disjoint_union(s3, torus)):
            assert invariant(cm, u).admissible_count == n, cm.name
    assert invariant(fixtures.crossed_module("conj_z2z2"), tripled).admissible_count == 13824


def test_peiffer_identity_is_checked_once_per_module(monkeypatch):
    calls = []

    def counted(cm):
        calls.append(cm)
        return peiffer_violations(cm)

    monkeypatch.setattr(crossed_modules, "peiffer_violations", counted)
    oracle = []
    monkeypatch.setattr(statesum, "brute_force_invariant",
                        lambda *args: oracle.append(args) or brute_force_invariant(*args))
    c = fixtures.single_tet()
    strict = identity_cm(build_cyclic(2), "fresh_id_z2")
    loose = _z4_z2_negation()
    for _ in range(3):
        assert invariant(strict, c).value == 1
        assert invariant(loose, c).value == 2
    assert calls == [strict, loose]
    # the module without the identity goes to the oracle on every call
    assert [args[0] for args in oracle] == [loose] * 3


def test_budget_is_never_negative(monkeypatch):
    cm, c = fixtures.crossed_module("id_z2"), fixtures.single_tet()
    with pytest.raises(ValueError, match="budget -1 is negative"):
        invariant(cm, c, node_budget=-1)
    with pytest.raises(ValueError, match="budget -1 is negative"):
        brute_force_invariant(cm, c, budget=-1)
    monkeypatch.setenv("CMTOP_BUDGET", "-5")
    with pytest.raises(ValueError, match="budget -5 is negative"):
        invariant(cm, c)
    # 0 allows no search node and no table entry
    monkeypatch.setenv("CMTOP_BUDGET", "0")
    with pytest.raises(SearchBudgetExceededError, match="budget of 0 search nodes"):
        invariant(cm, c)
    with pytest.raises(BudgetExceededError, match="over the budget of 0"):
        brute_force_invariant(cm, c)
    lone = OrderedComplex((1,), (), (), ())
    assert invariant(cm, lone, node_budget=0).admissible_count == 1


def _doubly_occupied():
    """A tet that references one face through three slots, and faces that
    reference one edge through several slots."""
    b = ComplexBuilder()
    e_ab = b.add_edge(1, 2)
    loop = b.add_edge(2, 2)
    f = b.add_face(e_ab, e_ab, loop)
    l3 = b.add_face(loop, loop, loop)
    b.add_tet(f, f, f, l3)
    return b.build()


def test_engine_equivalence_doubly_occupied_slots():
    # a tet may reference the same face entity through several slots; the
    # engines must agree there too (the linear count sums the slots'
    # coefficients into one column, and the oracle's factor takes a diagonal)
    c = _doubly_occupied()
    assert c.counts.as_tuple() == (2, 2, 2, 1)
    for name in ("id_z2", "z4_to_z2", "conj_z3", "id_s3"):
        cm = fixtures.crossed_module(name)
        fast = invariant(cm, c)
        slow = brute_force_invariant(cm, c)
        assert fast.value == slow.value
        assert fast.admissible_count == slow.admissible_count


def test_engine_equivalence_small():
    cases = [
        (fixtures.single_tet(), "conj_z2z2"),
        (fixtures.single_tet(), "id_s3"),
        (fixtures.two_tet_ball(), "z4_to_z2"),
        (fixtures.solid_torus(), "id_z2"),
        (fixtures.solid_torus(), "conj_z3"),
        (fixtures.s2_interval(), "trivh_z3"),
    ]
    for c, name in cases:
        cm = fixtures.crossed_module(name)
        assert invariant(cm, c).value == brute_force_invariant(cm, c).value


def test_budget_gate():
    cm = fixtures.crossed_module("id_s3")
    with pytest.raises(BudgetExceededError):
        brute_force_invariant(cm, fixtures.s3_boundary_4simplex(), budget=10**6)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("CMTOP_BUDGET", "10")
    cm = fixtures.crossed_module("id_z2")
    with pytest.raises(BudgetExceededError):
        brute_force_invariant(cm, fixtures.single_tet())


def test_budget_gate_names_the_largest_table():
    cm = fixtures.crossed_module("id_s3")
    with pytest.raises(BudgetExceededError) as err:
        brute_force_invariant(cm, fixtures.s3_boundary_4simplex(), budget=10**6)
    assert "largest table" in str(err.value)
    assert "78364164096 entries, over the budget of 1000000" in str(err.value)


# the largest table the oracle's min-fill order builds (the face table, the
# tet table or a step's output) under each module of fixtures.CM_NAMES, in
# that order, or None where the coloring space is 2^63 or more
_LARGEST_TABLE = {
    "single_tet": [64, 729, 46656, 20736, 216, 16, 81, 1296, 512],
    "s3_boundary_4simplex": [16384, 4782969, 78364164096, 4586471424, 69984, 128, 2187,
                             279936, 524288],
    "solid_torus": [128, 2187, 279936, 124416, 648, 32, 243, 7776, 2048],
    "s2_interval": [128, 2187, None, 331776, 1296, 16, 81, 1296, 4096],
    "s2_interval_big": [32768, None, None, None, None, 128, 2187, 1679616, None],
    "two_tet_ball": [64, 729, 46656, 20736, 216, 16, 81, 1296, 512],
    "walk": [None, None, None, None, None, 128, 2187, None, None],
}


def test_oracle_plan_is_pinned():
    # budget 0 refuses every call once the order is planned, and the
    # message names the largest table the order would build
    rng = random.Random(1)
    walk, moves = fixtures.solid_torus(), 0
    while moves < 20:
        found = enumerate_applicable(walk, rng.choice(MOVE_KINDS))
        if found:
            walk, moves = apply(walk, rng.choice(found)), moves + 1
    complexes = {**{name: fixtures.COMPLEXES[name]() for name in _LARGEST_TABLE if name != "walk"},
                 "walk": walk}
    for name, c in complexes.items():
        for cm_name, largest in zip(fixtures.CM_NAMES, _LARGEST_TABLE[name]):
            with pytest.raises(BudgetExceededError) as err:
                brute_force_invariant(fixtures.crossed_module(cm_name), c, budget=0)
            if largest is None:
                assert "colorings: the oracle's int64 counts are exact only below 2^63" \
                    in str(err.value), (name, cm_name)
            else:
                assert str(err.value).startswith(
                    f"the contraction's largest table has {largest} entries, over the "
                    f"budget of 0;"), (name, cm_name)


def _oracle_factors(c):
    """The oracle's factors, slot by slot: one per face, then one per tet."""
    E = len(c.edges)
    return ([(e01, e02, e12, E + f) for f, (e01, e02, e12) in enumerate(c.faces)]
            + [(*(E + f for f in t), c.faces[t[3]][2]) for t in c.tets])


def _min_fill_by_definition(c, g_order, h_order):
    """The variables in weighted min-fill order, every key recomputed from
    the live factors at every step."""
    size = [g_order] * len(c.edges) + [h_order] * len(c.faces)
    factors = [set(f) for f in _oracle_factors(c)]
    left, order = set().union(*factors), []
    while left:
        joined = {p for f in factors for p in itertools.combinations(sorted(f), 2)}

        def key(v):
            near = set().union(*(f for f in factors if v in f))
            fill = sum(size[a] * size[b] for a, b in itertools.combinations(sorted(near - {v}), 2)
                       if (a, b) not in joined)
            return fill, math.prod(size[x] for x in near), len(near), v

        v = min(map(key, left))[3]
        near = set().union(*(f for f in factors if v in f))
        factors = [f for f in factors if v not in f] + [near - {v}]
        left.discard(v)
        order.append(v)
    return order


def _planned_order(c, plan):
    """The sets of variables the plan's steps sum out, in step order, read
    back from its subscripts, checking that each step merges every live
    factor holding its first variable, labels each variable once, and sums
    out only variables that no live factor holds afterwards."""
    factors = [list(f) for f in _oracle_factors(c)]
    live, order = set(range(len(factors))), []
    for held, subscripts, out in plan.steps:
        var = {}
        for i, s in zip(held, subscripts):
            for x, j in zip(factors[i], s):
                assert var.setdefault(j, x) == x
        assert len(set(var.values())) == len(var)
        assert list(held) == sorted(i for i in live if var[0] in factors[i])
        live = live - set(held) | {len(factors)}
        factors.append([var[j] for j in out])
        gone = set(var.values()) - set(factors[-1])
        assert var[0] in gone and not any(x in factors[i] for i in live for x in gone)
        order.append(gone)
    return order


def _oracle_plan_cases():
    """The six valid fixtures and the complex of a seeded 15-move walk."""
    rng = random.Random(3)
    walk = fixtures.two_tet_ball()
    for _ in range(15):
        found = enumerate_applicable(walk, rng.choice(MOVE_KINDS))
        if found:
            walk = apply(walk, rng.choice(found))
    return [*(fixtures.COMPLEXES[name]() for name in _LARGEST_TABLE if name != "walk"), walk]


def test_the_oracle_plan_follows_weighted_min_fill():
    # each step sums out one consecutive run of the min-fill order
    for c in _oracle_plan_cases():
        for orders in ((2, 2), (3, 1), (2, 4), (6, 3)):
            steps = _planned_order(c, oracle_plan(c, *orders))
            order = iter(_min_fill_by_definition(c, *orders))
            assert steps == [set(itertools.islice(order, len(s))) for s in steps], \
                (c.counts, orders)
            assert next(order, None) is None


def test_no_oracle_step_holds_only_the_factor_the_step_before_made():
    # such a step's variables are summed out by the step before, and each
    # variable of a factor is summed out exactly once
    for c in _oracle_plan_cases():
        factors = _oracle_factors(c)
        for orders in ((2, 2), (3, 1), (2, 4), (6, 3), (1, 1)):
            plan = oracle_plan(c, *orders)
            for k, (held, _, _) in enumerate(plan.steps[1:], start=len(factors)):
                assert held != (k,), (c.counts, orders, k)
            gone = _planned_order(c, plan)
            assert sum(map(len, gone)) == len(set().union(*gone)) \
                == len(set().union(*map(set, factors)))


def test_the_oracle_plan_is_cached_per_complex_and_pair_of_orders():
    cm = fixtures.crossed_module("conj_z3")
    big = fixtures.s3_boundary_4simplex()
    c = relabel(big, {v: v + 10 for v in big.vertices})  # fresh: nothing cached
    orders = cm.g.order, cm.h.order
    first = brute_force_invariant(cm, c)
    plan = oracle_plan(c, *orders)
    assert brute_force_invariant(cm, c) == first and oracle_plan(c, *orders) is plan
    # a mutant with the same group orders reads the same plan
    mutant = next(_cm_mutations(cm))
    assert (mutant.g.order, mutant.h.order) == orders
    brute_force_invariant(mutant, c)
    assert c.plans == {orders: plan}
    # a relabeled complex is a new instance with a plan of its own
    other = relabel(c, {v: 30 - v for v in c.vertices})
    assert brute_force_invariant(cm, other) == first
    assert oracle_plan(other, *orders) is not plan
    # on a cache hit the budget still gates the largest table
    with pytest.raises(BudgetExceededError) as err:
        brute_force_invariant(cm, c, budget=0)
    assert str(err.value).startswith(
        "the contraction's largest table has 69984 entries, over the budget of 0;")


def test_a_second_oracle_call_reads_the_module_tables_of_the_first(monkeypatch):
    import numpy as np

    cm = replace(fixtures.crossed_module("conj_z3"))  # a new instance, with nothing cached
    c = fixtures.s3_boundary_4simplex()
    first = brute_force_invariant(cm, c)
    tables = dict(cm.oracle_tables)
    assert set(tables) == {("face", "int32"), ("tet", "int32")}
    for table in tables.values():
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 2
    calls = []
    real_ix = np.ix_
    monkeypatch.setattr(np, "ix_", lambda *a: calls.append(a) or real_ix(*a))
    assert brute_force_invariant(cm, c) == first
    assert calls == [] and len(cm.oracle_tables) == 2
    assert all(cm.oracle_tables[key] is table for key, table in tables.items())


def test_the_oracle_counts_in_int32_below_2_to_the_31():
    c = fixtures.s3_boundary_4simplex()
    # 6^10 colorings: int32 alone
    cm = replace(fixtures.crossed_module("conj_z3"))
    assert cm.g.order ** len(c.edges) * cm.h.order ** len(c.faces) < 2**31
    assert brute_force_invariant(cm, c) == invariant(cm, c)
    assert set(cm.oracle_tables) == {("face", "int32"), ("tet", "int32")}
    # 3^20 colorings: int64 alone
    cm = replace(fixtures.crossed_module("id_z3"))
    assert 2**31 <= cm.g.order ** len(c.edges) * cm.h.order ** len(c.faces) < 2**63
    assert brute_force_invariant(cm, c) == invariant(cm, c)
    assert set(cm.oracle_tables) == {("face", "int64"), ("tet", "int64")}


def test_the_oracle_refuses_a_space_past_int64_before_it_plans(p14_ball):
    c = replace(p14_ball)  # a new instance, with nothing cached
    with pytest.raises(BudgetExceededError, match=r"exact only below 2\^63"):
        brute_force_invariant(fixtures.crossed_module("id_z2"), c)
    assert c.plans == {}
    # under trivial G and H the space is 1, so the order is planned: 3010
    # variables summed out, in 1437 steps
    start = time.perf_counter()
    plan = oracle_plan(c, 1, 1)
    assert time.perf_counter() - start < 10.0
    summed = sum(len({j for s in subscripts for j in s}) - len(out)
                 for _, subscripts, out in plan.steps)
    assert summed == 3010 and len(plan.steps) == 1437 and plan.largest == 1
    assert brute_force_invariant(identity_cm(build_trivial()), c).value == 1
    assert c.plans == {(1, 1): plan}


def test_invariant_is_bounded_by_default(monkeypatch):
    # this pair needs 15 search nodes
    monkeypatch.setenv("CMTOP_BUDGET", "10")
    with pytest.raises(SearchBudgetExceededError) as err:
        invariant(fixtures.crossed_module("conj_z3"), fixtures.s2_interval_big())
    assert isinstance(err.value, BudgetExceededError)


def test_node_budget_bounds_the_oracle_on_a_non_peiffer_module():
    cm = _z4_z2_negation()
    with pytest.raises(BudgetExceededError):
        invariant(cm, fixtures.single_tet(), node_budget=10)
    value = invariant(cm, fixtures.single_tet())
    assert (value.value, value.admissible_count) == (2, 512)


def test_oracle_refuses_a_coloring_space_past_int64():
    # 6^26 colorings: the int64 tables could wrap, so no budget lets it run
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=r"exact only below 2\^63"):
        brute_force_invariant(fixtures.crossed_module("id_s3"), fixtures.s2_interval(),
                              budget=10**30)
    # a non-Peiffer module goes to the oracle, which refuses this 100-tet
    # ball (138 edges, 202 faces) before any search or table
    rng = random.Random(0)
    ball = fixtures.single_tet()
    for _ in range(33):
        ball = apply(ball, MoveDescriptor("P14", rng.randrange(len(ball.tets))))
    assert ball.counts.as_tuple() == (37, 138, 202, 100)
    with pytest.raises(BudgetExceededError):
        invariant(_z4_z2_negation(), ball, node_budget=10**4)
    assert time.perf_counter() - start < 1.0


def test_contraction_corner_cases_match_the_literal_sum():
    # repeated slots, loops, closed manifolds and non-Peiffer modules, each
    # on at most 82 944 colorings, against the sum evaluated term by term
    closed = _closed_two_tet_manifolds()
    cases = [(_doubly_occupied(), fixtures.crossed_module(name))
             for name in ("id_z2", "z4_to_z2", "conj_z3", "id_s3")]
    for c in (closed["s2_s1"], closed["rp3"], _fgfg()):
        cases += [(c, cm) for cm in (fixtures.crossed_module("z4_to_z2"), _z4_negated_over_z2(),
                                     _z4_z2_negation(), _s3_sign())]
    cases += [(fixtures.single_tet(), cm) for cm in (_z4_z2_negation(), _s3_sign())]
    for c, cm in cases:
        assert cm.g.order ** len(c.edges) * cm.h.order ** len(c.faces) <= 82_944
        assert brute_force_invariant(cm, c).value == naive_statesum(cm, c), cm.name


def test_dw_reduction_counts_flat_colorings():
    # with trivial H the admissible count is the number of flat G-colorings
    c = fixtures.single_tet()
    for name in ("trivh_z2", "trivh_z3", "trivh_s3"):
        cm = fixtures.crossed_module(name)
        v = invariant(cm, c)
        assert v.admissible_count == cm.g.order**3
        assert v.value == Fraction(1, cm.g.order)


def test_disjoint_union_multiplicative():
    pairs = [
        ("id_z2", fixtures.single_tet(), fixtures.single_tet()),
        ("z4_to_z2", fixtures.single_tet(), fixtures.two_tet_ball()),
        ("trivh_z3", fixtures.solid_torus(), fixtures.single_tet()),
    ]
    for name, c1, c2 in pairs:
        cm = fixtures.crossed_module(name)
        u = disjoint_union(c1, c2)
        assert invariant(cm, u).value == invariant(cm, c1).value * invariant(cm, c2).value


def test_order_invariance_relabelings():
    rng = random.Random(11)
    c = fixtures.s3_boundary_4simplex()
    cm = fixtures.crossed_module("trivh_z2")
    base = invariant(cm, c).value
    ids = list(c.vertices)
    for _ in range(5):
        shuffled = ids[:]
        rng.shuffle(shuffled)
        r = relabel(c, dict(zip(ids, shuffled)))
        assert invariant(cm, r).value == base


def test_local_order_invariance_rebuilt_fixtures():
    # same manifolds, different labellings / local orders
    from cmtop.complexes import prism_product

    cm = fixtures.crossed_module("z4_to_z2")
    t1 = fixtures.solid_torus()
    t2 = prism_product([(2, 7), (2, 9), (7, 9)], [(0, 1, 2)], identify_ends=True)
    assert invariant(cm, t1).value == invariant(cm, t2).value
    s1 = fixtures.s2_interval()
    s2 = prism_product([(1, 3), (1, 7), (3, 7)], [(0, 1, 2), (0, 1, 2)])
    assert invariant(cm, s1).value == invariant(cm, s2).value


def test_s2_interval_big_cross_check():
    # the 12-tet simplicial S^2 x I gives the same values as the pillow one
    big = fixtures.s2_interval_big()
    assert invariant(fixtures.crossed_module("id_z2"), big).value == 1
    assert invariant(fixtures.crossed_module("trivh_z2"), big).value == Fraction(1, 2)
    assert invariant(fixtures.crossed_module("trivh_s3"), big).value == Fraction(1, 6)
    v = invariant(fixtures.crossed_module("z4_to_z2"), big)
    assert (v.value, v.admissible_count) == (4, 2**38)
    # |H| |ker| / |G|: 4*4/6 and 3*3/2, counted without enumerating N
    v = invariant(fixtures.crossed_module("conj_z2z2"), big)
    assert (v.value, v.admissible_count) == (Fraction(8, 3), 1_202_315_964_973_056)
    v = invariant(fixtures.crossed_module("conj_z3"), big)
    assert (v.value, v.admissible_count) == (Fraction(9, 2), 5_509_980_288)


def test_invariant_value_str():
    v = InvariantValue.from_admissible_count(64, 2, 2, -4, -2)
    assert str(v) == "Z = 1/1 (N=64, a=-4, b=-2)"


def test_invariant_value_is_built_as_one_fraction():
    cases = [(0, 2, 3, -4, -2), (0, 6, 4, 2, 3), (64, 2, 2, -4, -2), (5, 6, 4, -1, 1),
             (7, 3, 2, 2, -3), (9, 6, 4, 2, 3), (12, 6, 4, 0, 0)]
    for n, g, h, a, b in cases:
        v = InvariantValue.from_admissible_count(n, g, h, a, b)
        assert v.value == Fraction(n) * Fraction(g) ** a * Fraction(h) ** b
        assert (v.admissible_count, v.g_exponent, v.h_exponent) == (n, a, b)
    # a lone vertex has k0 = 1 and k1 = 0, so b = 1: one empty coloring, |H|/|G|
    lone = OrderedComplex((1,), (), (), ())
    for name in ("conj_z2z2", "trivh_s3", "z4_to_z2"):
        cm = fixtures.crossed_module(name)
        for engine in (invariant, brute_force_invariant):
            v = engine(cm, lone)
            assert (v.admissible_count, v.g_exponent, v.h_exponent) == (1, -1, 1)
            assert v.value == Fraction(cm.h.order, cm.g.order)


def _s3_sign():
    """H = S3 over the sign map to Z/2, acting by conjugation with a fixed
    transposition: valid for the definition, but Peiffer fails."""
    s3 = build_symmetric(3)
    perms = sorted(itertools.permutations(range(3)))
    sign = [0 if _parity(p) else 1 for p in perms]
    t = perms.index((1, 0, 2))
    conj_t = [s3.conj(t, y) for y in range(6)]
    return make_crossed_module(s3, build_cyclic(2), sign, [list(range(6)), conj_t],
                               "s3_sign")


def _z4_z2_negation():
    """Z/4 -> Z/2 with the negation action: valid, but Peiffer fails."""
    neg = [(-y) % 4 for y in range(4)]
    return make_crossed_module(build_cyclic(4), build_cyclic(2), [0, 1, 0, 1],
                               [list(range(4)), neg], "z4z2_twisted")


def _z8_to_z2():
    """Z/8 -> Z/2 reducing mod 2, trivial action: the kernel is Z/4."""
    return reduction_cm(build_cyclic(8), build_cyclic(2), [y % 2 for y in range(8)],
                        "z8_to_z2")


def _cyclic_times(n, k):
    """Z/n -> Z/n, y -> k y, with the trivial action.  The boundary is not
    onto, so it pins no edge, and its image has order n / k, above 2.  On
    the closed S^2 x S^1 and RP^3 this reaches the constant terms of the
    engine's tet rows, which a boundary onto Z/2 does not."""
    return reduction_cm(build_cyclic(n), build_cyclic(n), [k * y % n for y in range(n)],
                        f"z{n}_times_{k}")


def _z4_negated_over_z2():
    """Z/4 over Z/2 with the trivial boundary and the negation action: the
    kernel is all of Z/4, and the holonomy twists it."""
    neg = [-y % 4 for y in range(4)]
    cm = make_crossed_module(build_cyclic(4), build_cyclic(2), [0] * 4,
                             [list(range(4)), neg], "z4_negated")
    assert not peiffer_violations(cm)
    return cm


def _delta_complex(edges, faces, tets):
    b = ComplexBuilder()
    for e in edges:
        b.add_edge(*e)
    for f in faces:
        b.add_face(*f)
    for t in tets:
        b.add_tet(*t)
    return b.build()


def _closed_two_tet_manifolds():
    """S^2 x S^1 (one vertex, three loops) and RP^3, each two tets glued
    along their faces.  On a closed manifold the tet equations are not
    independent, so the face count depends on the holonomy's action on
    the kernel; no fixture complex shows that."""
    return {
        "s2_s1": _delta_complex(((0, 0),) * 3,
                                ((0, 1, 0), (0, 2, 1), (1, 2, 0), (0, 1, 0)),
                                ((0, 1, 2, 0), (3, 1, 2, 3))),
        "rp3": _delta_complex(((0, 0), (0, 1), (0, 1), (1, 1)),
                              ((0, 1, 2), (0, 2, 1), (1, 2, 3), (2, 1, 3)),
                              ((0, 1, 2, 3), (1, 0, 3, 2))),
    }


def _fgfg():
    """One loop edge, two faces f = g on it, and the tet (f, g, f, g)."""
    return _delta_complex(((0, 0),), ((0, 0, 0), (0, 0, 0)), ((0, 1, 0, 1),))


def test_closed_two_tet_manifolds():
    closed = _closed_two_tet_manifolds()
    for c in closed.values():
        assert c.boundary_face_indices() == () and validate_manifold_basics(c) == []
    # flat S3-colorings: |Hom(Z, S3)| / 6 and |Hom(Z/2, S3)| / 6
    trivh_s3 = fixtures.crossed_module("trivh_s3")
    assert invariant(trivh_s3, closed["s2_s1"]).value == 1
    assert invariant(trivh_s3, closed["rp3"]).value == Fraction(2, 3)
    # the two holonomies around S^1 twist Z/4 by +1 and -1: (4 + 2) / 2
    assert invariant(_z4_negated_over_z2(), closed["s2_s1"]).value == 3


def _z4_with_an_order_2_generator():
    """Z/4 labelled so that element 1 has order 2, over the trivial group and
    over Z/2 acting by negation.  Its kernel coordinates are a generator 1
    of order 2 and a generator 2 of order 2 modulo <1>, so the relation
    2 e_2 = e_1 has an off-diagonal entry."""
    label = [0, 2, 1, 3]  # label[k] is the element standing for k in Z/4
    unlabel = [label.index(y) for y in range(4)]
    z4 = FiniteGroup.from_table(
        [[label[(unlabel[a] + unlabel[b]) % 4] for b in range(4)] for a in range(4)], "z4")
    assert z4.element_order(1) == 2
    neg = [label[-unlabel[y] % 4] for y in range(4)]
    modules = [make_crossed_module(z4, build_trivial(), [0] * 4, [list(range(4))], "z4_over_1"),
               make_crossed_module(z4, build_cyclic(2), [0] * 4, [list(range(4)), neg],
                                   "z4_relabelled_negated")]
    assert not peiffer_violations(modules[1])
    return modules


# N for the two non-Peiffer modules, which invariant computes with the oracle
# itself, pinned to the counts of an independent gauge-fixed search
_NON_PEIFFER_N = {
    "z4z2_twisted": {"single_tet": 512, "s3_boundary_4simplex": 49_152, "solid_torus": 32_768,
                     "s2_interval": 1_048_576, "two_tet_ball": 16_384,
                     "broken_complex": 4_194_304, "s2_s1": 64, "rp3": 128, "fgfg": 4},
    "s3_sign": {"single_tet": 1728, "s3_boundary_4simplex": 497_664, "solid_torus": 373_248,
                "s2_interval": 26_873_856, "two_tet_ball": 124_416,
                "broken_complex": 71_663_616, "s2_s1": 144, "rp3": 288, "fgfg": 6},
}


def test_every_face_counting_path_matches_the_oracle():
    # the Z/4 kernels are counted mod 4, not over a field.  One loop edge
    # with two faces f = g and the tet (f, g, f, g) needs the off-diagonal
    # relation of the relabelled Z/4: N = 8, where Z/2 x Z/2 coordinates
    # give 16.  The non-Peiffer rows pin the oracle's N.
    complexes = {**{name: build() for name, build in fixtures.COMPLEXES.items()},
                 **_closed_two_tet_manifolds(), "fgfg": _fgfg()}
    order_2 = _z4_with_an_order_2_generator()
    image_above_2 = [_cyclic_times(8, 2), _cyclic_times(9, 3)]
    extra = [_z8_to_z2(), _z4_negated_over_z2(), _z4_z2_negation(), _s3_sign(),
             *order_2, *image_above_2]
    checked, pinned = [], []
    for cm in extra + [fixtures.crossed_module(n) for n in fixtures.CM_NAMES]:
        for name, c in complexes.items():
            if cm not in extra and name in fixtures.COMPLEXES:
                continue  # acceptance criterion 6 compares these
            try:
                slow = brute_force_invariant(cm, c)
            except BudgetExceededError:
                continue
            if peiffer_violations(cm):
                assert slow.admissible_count == _NON_PEIFFER_N[cm.name][name], (cm.name, name)
                pinned.append((cm.name, name))
            else:
                assert invariant(cm, c) == slow, (cm.name, name)
            checked.append((cm.name, name))
            if name == "fgfg" and cm in order_2:
                assert slow.admissible_count == 8
    # every pinned row ran; s2_interval_big is past int64 under both modules
    assert len(pinned) == 18 and len(checked) == 93, checked
    # image orders 4 and 3: the closed manifolds' values, engine and oracle
    assert [invariant(cm, complexes[name]).value for cm in image_above_2
            for name in ("s2_s1", "rp3")] == [2, 2, 3, 1]


def test_noncentral_kernel_paths():
    # Peiffer makes ker(bnd) central: for k in it, h = bnd(k) |> h = k h k^-1.
    # So a non-central kernel comes only with a non-Peiffer module, and
    # invariant computes those with the oracle.
    def kernel_is_central(cm):
        return all(cm.h.mul(k, y) == cm.h.mul(y, k)
                   for k in cm.kernel_of_boundary() for y in range(cm.h.order))

    assert all(kernel_is_central(fixtures.crossed_module(n)) for n in fixtures.CM_NAMES)
    # s3_sign: the kernel A_3 is not central and the boundary is surjective
    cm = _s3_sign()
    assert peiffer_violations(cm)  # non-Peiffer
    assert not kernel_is_central(cm)

    tet = fixtures.single_tet()
    two = fixtures.two_tet_ball()
    moved = apply(tet, MoveDescriptor("P14", 0))
    got = [invariant(cm, c) for c in (tet, two, fixtures.solid_torus(), moved)]
    assert [(v.value, v.admissible_count) for v in got] == [
        (3, 1728), (3, 124_416), (1, 373_248), (3, 746_496)]

    # H nonabelian over the trivial group: kernel is all of S3
    over_trivial = make_crossed_module(build_symmetric(3), build_trivial(), [0] * 6,
                                       [list(range(6))], "s3_over_1")
    assert peiffer_violations(over_trivial)
    got = [invariant(over_trivial, c) for c in (tet, two)]
    assert [(v.value, v.admissible_count) for v in got] == [(6, 216), (6, 7776)]


def _parity(p):
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inv % 2 == 0


def test_non_peiffer_probe():
    # definition-valid but Peiffer-violating module: the negation action on
    # Z/4 -> Z/2.  The closed forms and move invariance hold for it on every
    # check below, so these checks cannot tell it from the strict version;
    # test_non_peiffer_state_sum_is_not_move_invariant does.
    from cmtop.moves import MOVE_DELTAS, enumerate_applicable

    cm = _z4_z2_negation()
    assert peiffer_violations(cm)  # genuinely non-Peiffer

    assert invariant(cm, fixtures.single_tet()).value == 2
    assert invariant(cm, fixtures.s2_interval()).value == 4
    assert invariant(cm, fixtures.solid_torus()).value == 1

    checked = 0
    for cname in ("single_tet", "two_tet_ball", "solid_torus"):
        c = fixtures.COMPLEXES[cname]()
        base = invariant(cm, c).value
        for kind in MOVE_DELTAS:
            for m in enumerate_applicable(c, kind)[:2]:
                assert invariant(cm, apply(c, m)).value == base, (cname, kind, m)
                checked += 1
    assert checked == 14
    print(f"\nPEIFFER PROBE: non-Peiffer module invariant on {checked} move checks")


def test_non_peiffer_state_sum_is_not_move_invariant():
    # Finding: without the Peiffer identity Z depends on the triangulation.
    # On S^3 one P41 or one P32 move changes it; invariant computes these
    # modules with the oracle.  The Peiffer module z4_to_z2 gives 2 on all
    # three triangulations.
    from cmtop.moves import enumerate_applicable

    s3 = fixtures.s3_boundary_4simplex()
    p41 = apply(s3, enumerate_applicable(s3, "P41")[0])
    p32 = apply(s3, enumerate_applicable(s3, "P32")[0])
    got = [invariant(_z4_z2_negation(), c) for c in (s3, p41, p32)]
    assert [(v.value, v.admissible_count) for v in got] == [
        (Fraction(3, 2), 49_152), (2, 512), (2, 16_384)]
    got = [invariant(_s3_sign(), c) for c in (s3, p41, p32)]
    assert [(v.value, v.admissible_count) for v in got] == [
        (2, 497_664), (3, 1728), (3, 124_416)]
    z4_to_z2 = fixtures.crossed_module("z4_to_z2")
    assert [invariant(z4_to_z2, c).value for c in (s3, p41, p32)] == [2, 2, 2]
