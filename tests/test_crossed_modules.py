import random

import numpy as np
import pytest

from cmtop.crossed_modules import (
    CrossedModule,
    conjugation_cm,
    identity_cm,
    make_crossed_module,
    peiffer_violations,
    reduction_cm,
    trivial_h_cm,
    validate,
)
from cmtop.groups import (
    GroupHom,
    build_cyclic,
    build_direct_product,
    build_symmetric,
    build_trivial,
)


def klein_four():
    return build_direct_product(build_cyclic(2), build_cyclic(2))


SHIPPED = [
    lambda: identity_cm(build_cyclic(2)),
    lambda: identity_cm(build_cyclic(3)),
    lambda: identity_cm(build_symmetric(3)),
    lambda: conjugation_cm(klein_four()),
    lambda: conjugation_cm(build_cyclic(3)),
    lambda: trivial_h_cm(build_cyclic(2)),
    lambda: trivial_h_cm(build_cyclic(3)),
    lambda: trivial_h_cm(build_symmetric(3)),
    lambda: reduction_cm(build_cyclic(4), build_cyclic(2), [0, 1, 0, 1], "z4->z2"),
]


@pytest.mark.parametrize("build", SHIPPED)
def test_shipped_constructions_pass_strict_validation(build):
    cm = build()
    assert validate(cm) == [] and peiffer_violations(cm) == []


def test_identity_cm_action_is_conjugation():
    s3 = build_symmetric(3)
    cm = identity_cm(s3)
    for x in range(6):
        for y in range(6):
            assert cm.act(x, y) == s3.conj(x, y)


def test_conjugation_cm_shapes():
    cm = conjugation_cm(build_cyclic(2))
    assert cm.g.order == 1  # Aut(Z2) trivial
    cm = conjugation_cm(build_cyclic(3))
    assert cm.g.order == 2
    assert set(cm.boundary.map) == {0}  # abelian H: inner automorphisms trivial
    cm = conjugation_cm(klein_four())
    assert cm.g.order == 6
    assert set(cm.boundary.map) == {0}


def test_conjugation_cm_nonabelian_boundary():
    s3 = build_symmetric(3)
    cm = conjugation_cm(s3)
    assert cm.g.order == 6
    # bnd is injective here: S3 is centerless
    assert len(set(cm.boundary.map)) == 6
    assert validate(cm) == [] and peiffer_violations(cm) == []


def test_act_examples():
    cm = conjugation_cm(klein_four())
    for y in range(4):
        assert cm.act(0, y) == y
    # a swap automorphism really permutes the elements as the bijection says
    swap = next(i for i in range(6) if cm.action[i][1] == 2 and cm.action[i][2] == 1)
    assert cm.act(swap, 3) == 3


def test_mutated_action_is_reported_with_witness():
    cm = identity_cm(build_cyclic(3))
    action = np.array(cm.action)
    action[1, 2] = 0  # overwrite a single entry
    broken = CrossedModule(cm.h, cm.g, cm.boundary, action, "broken")
    report = validate(broken)
    assert report, "mutation must be detected"
    axioms = {v.axiom for v in report}
    assert axioms & {"left-action-compose", "action-bijective", "action-multiplicative",
                     "equivariance", "left-action-identity"}
    assert all(isinstance(v.witness, tuple) for v in report)


def test_crossed_modules_compare_and_hash_by_value():
    a = identity_cm(build_cyclic(3))
    b = identity_cm(build_cyclic(3))
    assert a == b and hash(a) == hash(b)
    assert a != identity_cm(build_cyclic(2))
    assert len({a, b, conjugation_cm(klein_four())}) == 2
    # an ndarray action is stored as the same tuples as a list action
    c = CrossedModule(a.h, a.g, a.boundary, np.array(a.action), a.name)
    assert c == a and isinstance(c.action, tuple)


def test_kernel_helpers():
    red = reduction_cm(build_cyclic(4), build_cyclic(2), [0, 1, 0, 1])
    assert red.kernel_of_boundary() == {0, 2}
    assert set(red.boundary.map) == {0, 1}
    # the kernel is central in H
    assert all(red.h.mul(k, y) == red.h.mul(y, k)
               for k in red.kernel_of_boundary() for y in range(red.h.order))


def test_nonpeiffer_example_passes_definition_but_fails_strict():
    # Z/4 -> Z/2 with the negation action: valid for the definition used
    # here, but bnd(1) |> y = -y is not conjugation in abelian H.
    z4, z2 = build_cyclic(4), build_cyclic(2)
    negation = [(-y) % 4 for y in range(4)]
    cm = make_crossed_module(z4, z2, [0, 1, 0, 1], [list(range(4)), negation],
                             name="z4->z2 twisted")
    assert validate(cm) == []
    strict = peiffer_violations(cm)
    assert len(strict) == 4 and all(v.axiom == "peiffer" for v in strict)


def test_trivial_h_action_trivial_everywhere():
    cm = trivial_h_cm(build_symmetric(3))
    assert cm.h.order == 1
    assert cm.action == ((0,),) * 6
    assert validate(cm) == [] and peiffer_violations(cm) == []


def _mutations(cm):
    """Yield every single-entry mutation of the action and boundary tables."""
    for x in range(cm.g.order):
        for y in range(cm.h.order):
            for v in range(cm.h.order):
                if v != cm.action[x][y]:
                    action = np.array(cm.action)
                    action[x, y] = v
                    yield CrossedModule(cm.h, cm.g, cm.boundary, action, "mut")
    for y in range(cm.h.order):
        for v in range(cm.g.order):
            if v != cm.boundary.map[y]:
                images = list(cm.boundary.map)
                images[y] = v
                hom = GroupHom.__new__(GroupHom)  # bypass from_map: mutation may break hom law
                object.__setattr__(hom, "source", cm.h)
                object.__setattr__(hom, "target", cm.g)
                object.__setattr__(hom, "map", tuple(images))
                yield CrossedModule(cm.h, cm.g, hom, np.array(cm.action), "mut")


@pytest.mark.parametrize("build", [
    lambda: identity_cm(build_cyclic(3)),
    lambda: conjugation_cm(klein_four()),
    lambda: reduction_cm(build_cyclic(4), build_cyclic(2), [0, 1, 0, 1]),
])
def test_single_entry_mutation_fuzz(build):
    # for these fixtures every single-entry mutation breaks an axiom, and
    # validate reports it with a witness
    cm = build()
    for mutant in _mutations(cm):
        report = validate(mutant)
        assert report and all(isinstance(v.witness, tuple) for v in report)


def test_random_mutation_fuzz_larger_groups():
    rng = random.Random(7)
    cm = identity_cm(build_symmetric(3))
    for _ in range(200):
        x = rng.randrange(cm.g.order)
        y = rng.randrange(cm.h.order)
        v = rng.randrange(cm.h.order)
        if v == cm.action[x][y]:
            continue
        action = np.array(cm.action)
        action[x, y] = v
        assert validate(CrossedModule(cm.h, cm.g, cm.boundary, action, "mut"))


def test_make_crossed_module_raises_on_invalid():
    z2 = build_cyclic(2)
    with pytest.raises(ValueError):
        make_crossed_module(z2, z2, [0, 1], [[0, 1], [0, 0]])


def test_reduction_cm_rejects_a_nonabelian_h():
    # under the trivial action the definition holds for any H; only the
    # Peiffer identity, which the trivial action turns into "H is abelian",
    # rules S3 out
    with pytest.raises(ValueError, match="abelian"):
        reduction_cm(build_symmetric(3), build_trivial(), [0] * 6)
