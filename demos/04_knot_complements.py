"""Knot-complement closed forms: word sums, representation counts, and the
boundary equation system with its documented counterexample.

Run from the repository root:  python3 demos/04_knot_complements.py
"""

from fractions import Fraction

from cmtop import BUILTIN_WORDS, count_reps, verify_41_system, word_state_sum
from cmtop.crossed_modules import trivial_h_cm
from cmtop.groups import build_cyclic, build_symmetric
from cmtop import fixtures

print("== the three built-in words ==")
for name, w in sorted(BUILTIN_WORDS.items()):
    print(f"  {name:5s} {w}   exponent sums {w.exponent_sums()}")

print()
print("== trivial-H reduction: |G| * Z equals the representation count ==")
groups = [build_cyclic(2), build_cyclic(3), build_cyclic(6), build_symmetric(3)]
header = "word  " + "".join(f"{g.name:>8s}" for g in groups)
print(header)
for name, w in sorted(BUILTIN_WORDS.items()):
    relator = w.without_boundary_factor()
    row = f"{name:5s} "
    for g in groups:
        reps = count_reps(relator, g)
        z = word_state_sum(w, trivial_h_cm(g)).value
        assert Fraction(g.order) * z == reps
        row += f"{reps:8d}"
    print(row)
print("(all three knots have determinant coprime to 3, so S3 sees only the")
print(" six abelian representations of each knot group)")

print()
print("== a genuinely 2-dimensional coefficient: Z/4 -> Z/2 ==")
cm = fixtures.crossed_module("z4_to_z2")
for name, w in sorted(BUILTIN_WORDS.items()):
    print(f"  {name}: Z = {word_state_sum(w, cm).value}")

print()
print("== the figure-eight boundary equation system ==")
for g in (build_cyclic(2), build_cyclic(3), build_symmetric(3)):
    report = verify_41_system(g)
    print(report.summary())
    if report.d_witnesses:
        print(f"  e.g. (b,r,g11',g3'4',g2'2'',g3''4',g1'2) = {report.d_witnesses[0]}")
print()
print("Reading g_3''4 and g_3''4' as one variable (the prose lists seven")
print("variables), the fourth equation reduces to 2 g_3''4' = e in abelian")
print("groups, so order-3 elements produce the counterexamples above; the")
print("closure word itself and unique solvability stay clean over Z/2, Z/3.")
