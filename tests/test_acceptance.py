"""Acceptance suite: each criterion runs at its stated tolerance (exact
equality everywhere; time limits as specified) and prints one line."""

from cmtop import fixtures, selftest
from cmtop.moves import MOVE_DELTAS, apply, enumerate_applicable


def _run(result):
    print()
    print(result.line())
    if result.finding:
        print(f"   finding: {result.finding}")
    assert result.passed, result.details


def test_criterion_01_disk_value():
    _run(selftest._timed(1, "disk value", lambda: selftest.criterion_1_disk()))


def test_criterion_02_solid_torus():
    _run(selftest._timed(2, "solid torus", lambda: selftest.criterion_2_solid_torus()))


def test_criterion_03_sphere_interval():
    _run(selftest._timed(3, "sphere x interval",
                         lambda: selftest.criterion_3_sphere_interval()))


def test_criterion_04_move_invariance():
    result = selftest._timed(4, "move invariance", selftest.criterion_4_move_invariance)
    _run(result)
    assert result.elapsed < 600.0
    # one check per (trial complex, applicable move, crossed module): the
    # valid fixtures plus the first B13 derivative of two of them
    trials = [fixtures.COMPLEXES[name]() for name in fixtures.VALID_COMPLEX_NAMES]
    for name in ("single_tet", "solid_torus"):
        c = fixtures.COMPLEXES[name]()
        trials.append(apply(c, enumerate_applicable(c, "B13")[0]))
    moves = sum(len(enumerate_applicable(c, kind)) for c in trials for kind in MOVE_DELTAS)
    assert result.details.startswith(f"{moves * len(fixtures.CM_NAMES)} checks ")
    assert len(MOVE_DELTAS) == 7
    assert f"kinds {sorted(MOVE_DELTAS)}" in result.details
    # a module without the Peiffer identity is not move invariant; the
    # values are reported, not hidden
    assert result.finding.endswith(
        "Z = 3/2 on s3_boundary_4simplex, 2 after one P41 and 2 after one P32")


def test_criterion_05_order_invariance():
    _run(selftest._timed(5, "order invariance",
                         selftest.criterion_5_order_invariance))


def test_criterion_06_engine_equivalence():
    result = selftest._timed(6, "engine equivalence",
                             selftest.criterion_6_engine_equivalence)
    _run(result)
    # every valid fixture pair the oracle's default budget holds: 46 of 6 x 9
    assert result.details.startswith("fast == brute on all 46 fixture pairs ")


def test_criterion_07_knot_words():
    _run(selftest._timed(7, "knot words", selftest.criterion_7_knot_words))


def test_criterion_08_boundary_system():
    result = selftest._timed(8, "boundary equation system",
                             selftest.criterion_8_boundary_system)
    _run(result)
    # counterexamples to the fourth equation exist over Z/3 under the
    # one-variable reading of g_3''4; they must be surfaced, not dropped
    assert result.finding is not None
    assert "Z3" in result.finding


def test_criterion_09_consistency_identity():
    _run(selftest._timed(9, "consistency identity",
                         selftest.criterion_9_consistency))


def test_criterion_10_mutation_validation():
    _run(selftest._timed(10, "mutation validation",
                         selftest.criterion_10_validation))
