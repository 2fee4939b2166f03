"""Property tests over randomized inputs (hypothesis)."""

from conftest import abelian_solution_count
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtop import fixtures
from cmtop.complexes import boundary, relabel
from cmtop.groups import build_cyclic, build_direct_product
from cmtop.knot_words import GroupWord, count_reps
from cmtop.statesum import invariant


@given(st.integers(min_value=1, max_value=48))
def test_cyclic_group_axioms(n):
    g = build_cyclic(n)
    assert g.mul(0, n - 1) == n - 1
    for a in range(n):
        assert g.mul(a, g.inv(a)) == 0
        assert g.inv(g.inv(a)) == a


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
def test_direct_product_axioms(p, q):
    g = build_direct_product(build_cyclic(p), build_cyclic(q))
    assert g.order == p * q
    assert g.is_abelian()
    for a in range(g.order):
        assert g.mul(a, g.inv(a)) == 0


@settings(max_examples=30)
@given(st.permutations(list(range(1, 6))))
def test_relabel_preserves_structure_and_invariant(images):
    c = fixtures.two_tet_ball()
    perm = dict(zip(c.vertices, images))
    r = relabel(c, perm)
    assert r.counts == c.counts
    assert boundary(r).euler_characteristic() == boundary(c).euler_characteristic()
    cm = fixtures.crossed_module("z4_to_z2")
    assert invariant(cm, r).value == invariant(cm, c).value


@settings(max_examples=40)
@given(st.lists(st.sampled_from("XxYy"), min_size=0, max_size=8),
       st.sampled_from([2, 3, 4, 6]))
def test_count_reps_matches_exponent_sums_on_abelian_groups(letters, n):
    w = GroupWord(tuple(letters))
    g = build_cyclic(n)
    assert count_reps(w, g) == abelian_solution_count(w, g)
