from fractions import Fraction

import pytest
from conftest import abelian_solution_count

from cmtop import fixtures
from cmtop.crossed_modules import trivial_h_cm
from cmtop.groups import build_cyclic, build_symmetric, build_trivial
from cmtop.knot_words import (
    BUILTIN_WORDS,
    FIG8,
    K52,
    T52,
    GroupWord,
    count_reps,
    evaluate_word,
    verify_41_system,
    word_state_sum,
)


def test_builtin_words_match_the_closed_forms():
    assert str(FIG8) == "X y x Y x y X Y x Y D"
    assert str(T52) == "Y X X X X Y x D"
    assert str(K52) == "X y x Y X y x Y x y X Y x y D"
    assert all(w.has_boundary_factor() for w in BUILTIN_WORDS.values())
    assert FIG8.exponent_sums() == (-1, 1)
    assert T52.exponent_sums() == (3, 2)
    assert K52.exponent_sums() == (-1, -1)


def test_word_parse_and_validation():
    assert GroupWord.parse("XyxYD").letters == ("X", "y", "x", "Y", "D")
    with pytest.raises(ValueError):
        GroupWord.parse("X Z")
    with pytest.raises(ValueError):
        GroupWord.parse("X D D")


def test_evaluate_word_examples():
    g = fixtures.crossed_module("id_z2").g
    assert evaluate_word(GroupWord(()), g, 1, 1, 1) == 0
    assert evaluate_word(FIG8, g, 0, 0, 0) == 0
    # T52 in additive Z/2: y + 4x + y - x = 3x = x
    assert evaluate_word(T52, g, 0, 1, 0) == 0
    assert evaluate_word(T52, g, 1, 0, 0) == 1


def test_count_reps_examples():
    assert count_reps(FIG8.without_boundary_factor(), build_cyclic(3)) == 3
    assert count_reps(FIG8.without_boundary_factor(), build_trivial()) == 1
    assert count_reps(T52.without_boundary_factor(), build_cyclic(2)) == 2
    with pytest.raises(ValueError):
        count_reps(FIG8, build_cyclic(2))


def test_count_reps_knot_theory_sanity():
    # none of these knots admits nonabelian S3 representations (their
    # determinants 5, 5, 7 are coprime to 3), so only |G| abelian ones exist
    s3 = build_symmetric(3)
    for w in BUILTIN_WORDS.values():
        assert count_reps(w.without_boundary_factor(), s3) == 6


def test_word_state_sum_examples():
    assert word_state_sum(FIG8, fixtures.crossed_module("trivh_z2")).value == 1
    assert word_state_sum(T52, fixtures.crossed_module("trivh_z2")).value == 1
    cm_trivial = trivial_h_cm(build_trivial())
    for w in BUILTIN_WORDS.values():
        assert word_state_sum(w, cm_trivial).value == 1


def test_trivial_h_reduction_matches_rep_count():
    groups = [build_cyclic(2), build_cyclic(3), build_cyclic(6), build_symmetric(3)]
    for w in BUILTIN_WORDS.values():
        for g in groups:
            reps = count_reps(w.without_boundary_factor(), g)
            z = word_state_sum(w, trivial_h_cm(g)).value
            assert Fraction(g.order) * z == reps


def test_abelian_exponent_sum_formula():
    for w in BUILTIN_WORDS.values():
        rel = w.without_boundary_factor()
        for n in (2, 3, 4, 6):
            g = build_cyclic(n)
            assert count_reps(rel, g) == abelian_solution_count(w, g)


def test_word_state_sum_with_nontrivial_h():
    # general crossed module: the boundary factor ranges over all of H
    cm = fixtures.crossed_module("z4_to_z2")
    v = word_state_sum(FIG8, cm)
    # the word reduces to -x + y + bnd(a^-1) in additive notation, so the
    # hits are (x, y, a) with y = x + (a mod 2): 2 choices of x per a
    assert v.admissible_count == 2 * 4
    assert v.value == Fraction(v.admissible_count, 2 * 4)
    assert v.value == 1


def test_verify_41_system_z2_clean():
    rep = verify_41_system(build_cyclic(2))
    assert rep.checked == 2**7
    assert rep.clean
    assert rep.abc_count == 2**4  # free (b, r, u, s); t, c, d determined


def test_verify_41_system_z3_documented_finding():
    rep = verify_41_system(build_cyclic(3))
    assert rep.checked == 3**7
    assert rep.abc_count == 3**4
    # the fourth equation reduces to 2*s = 0 in abelian groups, so exactly
    # the assignments with s != 0 violate it: a documented finding, printed
    assert rep.d_violations == 2 * 3**3
    assert rep.fin_violations == 0
    assert rep.existence_mismatches == 0
    assert rep.word_mismatches == 0
    assert rep.d_witnesses
    for b, r, u, t, s, c, d in rep.d_witnesses:
        assert s != 0
    print("\nDOCUMENTED FINDING:", rep.summary())


def test_verify_41_system_trivial_group_clean():
    assert verify_41_system(build_trivial()).clean


def test_verify_41_system_s3_exhaustive():
    rep = verify_41_system(build_symmetric(3))
    assert rep.checked == 6**7
    assert rep.abc_count == 1296
    assert rep.d_violations == len(rep.d_witnesses) == 756
    assert rep.fin_violations == 432
    assert rep.existence_mismatches == 864
    assert rep.word_mismatches == 0
    assert rep.d_witnesses[0] == (0, 0, 0, 3, 3, 0, 4)
