"""Build finite groups and crossed modules, and see the validator at work.

Run from the repository root:  python3 demos/01_crossed_modules.py
"""

from cmtop import (
    build_aut_group,
    build_cyclic,
    build_direct_product,
    build_symmetric,
    conjugation_cm,
    identity_cm,
    make_crossed_module,
    peiffer_violations,
    validate,
)
from cmtop.crossed_modules import CrossedModule

print("== groups as Cayley tables ==")
z6 = build_cyclic(6)
print(f"{z6.name}: order {z6.order}, inverse of 2 is {z6.inv(2)}")
s3 = build_symmetric(3)
print(f"{s3.name}: abelian? {s3.is_abelian()}")

k4 = build_direct_product(build_cyclic(2), build_cyclic(2), "Z2xZ2")
aut, bijections = build_aut_group(k4)
print(f"Aut({k4.name}) has order {aut.order}; the nontrivial element maps:")
print("   ", bijections[1])

print()
print("== the standard example: H with G = Aut(H) acting tautologically ==")
cm = conjugation_cm(k4)
print(cm)
print("boundary sends everything to the identity automorphism:",
      set(cm.boundary.map) == {0})
print("definition axioms and the Peiffer identity:",
      "clean" if not validate(cm) and not peiffer_violations(cm) else "violations!")

print()
print("== catching a corrupted table ==")
broken_action = [list(row) for row in identity_cm(s3).action]
broken_action[2][3] = (broken_action[2][3] + 1) % 6
broken = CrossedModule(s3, s3, identity_cm(s3).boundary, broken_action, "broken")
for violation in validate(broken)[:3]:
    print("  ", violation)

print()
print("== a module that satisfies the definition but not Peiffer ==")
z4, z2 = build_cyclic(4), build_cyclic(2)
negation = [(-y) % 4 for y in range(4)]
twisted = make_crossed_module(z4, z2, [0, 1, 0, 1],
                              [list(range(4)), negation], "z4z2_twisted")
print("definition axioms:", "clean" if not validate(twisted) else "violations")
peiffer = peiffer_violations(twisted)
print(f"Peiffer identity: {len(peiffer)} violations, e.g. {peiffer[0]}")
print("the file loaders accept it; `cmtop validate-cm` rejects it unless given --no-peiffer")
