import itertools
import re

import numpy as np
import pytest

from cmtop.groups import (
    FiniteGroup,
    GroupHom,
    GroupTableError,
    build_aut_group,
    build_cyclic,
    build_direct_product,
    build_symmetric,
    build_trivial,
    kernel,
    permutation_product,
)


def check_group_axioms_exhaustively(g: FiniteGroup):
    n = g.order
    for a in range(n):
        assert g.mul(0, a) == a == g.mul(a, 0)
        assert g.mul(a, g.inv(a)) == 0 == g.mul(g.inv(a), a)
        for b in range(n):
            assert 0 <= g.mul(a, b) < n
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
def test_cyclic_groups_satisfy_axioms(n):
    check_group_axioms_exhaustively(build_cyclic(n))


def test_cyclic_small_tables():
    assert build_cyclic(1).order == 1
    z2 = build_cyclic(2)
    assert z2.table == ((0, 1), (1, 0))
    z6 = build_cyclic(6)
    assert z6.inv(2) == 4  # 2+4 = 0 mod 6


def test_compose_examples():
    z3 = build_cyclic(3)
    assert z3.mul(1, 2) == 0
    s3 = build_symmetric(3)
    for x in range(s3.order):
        assert s3.mul(0, x) == x


def test_symmetric_group_matches_permutation_products():
    # independent oracle: multiply the underlying permutations directly
    s3 = build_symmetric(3)
    perms = sorted(itertools.permutations(range(3)))
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            assert perms[s3.mul(i, j)] == permutation_product(p, q)
    # two transpositions compose to a 3-cycle
    t1 = perms.index((1, 0, 2))
    t2 = perms.index((0, 2, 1))
    expected = perms.index(permutation_product((1, 0, 2), (0, 2, 1)))
    assert s3.mul(t1, t2) == expected
    assert s3.element_order(s3.mul(t1, t2)) == 3
    check_group_axioms_exhaustively(s3)


def test_direct_product():
    k4 = build_direct_product(build_cyclic(2), build_cyclic(2))
    assert k4.order == 4
    assert k4.is_abelian()
    assert all(k4.mul(a, a) == 0 for a in range(4))
    check_group_axioms_exhaustively(k4)


def test_rejects_bad_tables():
    with pytest.raises(GroupTableError):
        FiniteGroup.from_table([[0, 1], [1, 2]])  # not closed
    with pytest.raises(GroupTableError):
        FiniteGroup.from_table([[1, 0], [0, 1]])  # 0 not identity
    # closed, identity and inverses fine, but not associative
    bad = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(GroupTableError):
        FiniteGroup.from_table(bad)
    # the same loop times Z/2, labelled so that the greedy generating set
    # starts with the Z/2 factor, which passes Light's test on its own
    with pytest.raises(GroupTableError):
        FiniteGroup.from_table(
            [[bad[a // 2][b // 2] * 2 + (a + b) % 2 for b in range(10)] for a in range(10)])


def test_table_is_immutable():
    z3 = build_cyclic(3)
    with pytest.raises(TypeError):
        z3.table[0][0] = 1


def test_groups_compare_and_hash_by_value():
    assert build_cyclic(4) == build_cyclic(4)
    assert build_cyclic(4) != build_cyclic(2)
    assert build_cyclic(4) != build_direct_product(build_cyclic(2), build_cyclic(2), "Z4")
    assert hash(build_cyclic(2)) == hash(build_cyclic(2))
    assert len({build_symmetric(3), build_symmetric(3), build_cyclic(6)}) == 2
    # numpy input is normalised to the same tuples
    assert FiniteGroup.from_table(np.array([[0, 1], [1, 0]]), "Z2") == build_cyclic(2)


def test_aut_z2_trivial():
    g, bijections = build_aut_group(build_cyclic(2))
    assert g.order == 1
    assert bijections == [(0, 1)]


def test_aut_z3_order_two():
    # oracle: enumerate all 6 bijections of {0,1,2}, keep table-preserving ones
    z3 = build_cyclic(3)
    expect = []
    for p in itertools.permutations(range(3)):
        if all(p[(a + b) % 3] == (p[a] + p[b]) % 3 for a in range(3) for b in range(3)):
            expect.append(p)
    g, bijections = build_aut_group(z3)
    assert sorted(expect) == bijections
    assert g.order == 2


def test_aut_klein_four_is_s3():
    # oracle: brute force over the 24 bijections fixing the identity
    k4 = build_direct_product(build_cyclic(2), build_cyclic(2))
    expect = set()
    for p in itertools.permutations(range(1, 4)):
        m = (0,) + p
        if all(m[k4.mul(a, b)] == k4.mul(m[a], m[b]) for a in range(4) for b in range(4)):
            expect.add(m)
    g, bijections = build_aut_group(k4)
    assert set(bijections) == expect
    assert g.order == 6
    assert not g.is_abelian()
    check_group_axioms_exhaustively(g)
    # every listed bijection preserves the table
    for m in bijections:
        for a in range(4):
            for b in range(4):
                assert m[k4.mul(a, b)] == k4.mul(m[a], m[b])
    # the group law is composition of the bijections, multiplied here
    # directly rather than by the function that built the table
    for i, p in enumerate(bijections):
        for j, q in enumerate(bijections):
            assert bijections[g.mul(i, j)] == tuple(p[q[x]] for x in range(len(p)))


def test_aut_s3():
    s3 = build_symmetric(3)
    g, bijections = build_aut_group(s3)
    assert g.order == 6  # Aut(S3) = Inn(S3) = S3
    assert bijections[0] == tuple(range(6))


def test_kernel_examples():
    z3 = build_cyclic(3)
    assert kernel(GroupHom.from_map(z3, z3, range(3))) == {0}

    z4, z2 = build_cyclic(4), build_cyclic(2)
    red = GroupHom.from_map(z4, z2, [x % 2 for x in range(4)])
    assert kernel(red) == {0, 2}
    assert set(red.map) == {0, 1}

    to_trivial = GroupHom.from_map(z3, build_trivial(), [0, 0, 0])
    assert kernel(to_trivial) == {0, 1, 2}


def test_kernel_is_subgroup():
    s3 = build_symmetric(3)
    sgn = GroupHom.from_map(
        s3, build_cyclic(2),
        [0 if _sign(p) == 1 else 1 for p in sorted(itertools.permutations(range(3)))])
    ker = kernel(sgn)
    assert 0 in ker
    for a in ker:
        assert s3.inv(a) in ker
        for b in ker:
            assert s3.mul(a, b) in ker
    assert len(ker) == 3


def _sign(p):
    s = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                s = -s
    return s


def test_hom_rejects_non_homomorphisms():
    z4, z2 = build_cyclic(4), build_cyclic(2)
    with pytest.raises(ValueError):
        GroupHom.from_map(z4, z2, [0, 1, 1, 0])
    with pytest.raises(ValueError):
        GroupHom.from_map(z4, z2, [1, 0, 1, 0])  # identity not preserved


def test_associativity_is_exact_on_large_tables():
    g = FiniteGroup.from_table((np.arange(100)[:, None] + np.arange(100)[None, :]) % 100)
    assert g.order == 100
    # Z/512 with the 2x2 intercalate at rows 7, 263 and columns 11, 267
    # swapped: still a Latin square with identity 0 and inverses, but
    # associativity fails on 8144 of its 512^3 triples, which 10 000 random
    # triples miss about half the time
    table = [[(a + b) % 512 for b in range(512)] for a in range(512)]
    for r in (7, 263):
        table[r][11], table[r][267] = table[r][267], table[r][11]
    with pytest.raises(GroupTableError, match="associativity fails at") as info:
        FiniteGroup.from_table(table)
    x, s, y = map(int, re.findall(r"\d+", str(info.value)))
    assert table[table[x][s]][y] != table[x][table[s][y]]
