"""Tests for the benchmark's own output checks.

    python3 -m pytest bench/test_checks.py -q
"""

import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

from cmtop import fixtures  # noqa: E402
from cmtop.moves import MoveDescriptor, apply  # noqa: E402
from cmtop.statesum import InvariantValue, SearchBudgetExceededError, invariant  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from clock import SpeedClock  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402


def _cm(name):
    return fixtures.crossed_module(name)


@pytest.mark.parametrize("manifold, cm_name, want", [
    ("ball", "id_z2", Fraction(1)),
    ("ball", "conj_z2z2", Fraction(4, 6)),
    ("s3", "trivh_s3", Fraction(1, 6)),
    ("solid_torus", "conj_z3", Fraction(1)),
    ("s2xi", "z4_to_z2", Fraction(4)),     # |H| |ker| / |G| = 4 * 2 / 2
    ("s2xi", "conj_z3", Fraction(9, 2)),   # Z/3 is abelian: ker = H
    ("s2xi", "id_z3", Fraction(1)),
])
def test_closed_forms(manifold, cm_name, want):
    assert checks.closed_form(manifold, _cm(cm_name)) == want


def test_kernel_counted_from_boundary_table():
    assert checks.kernel_order(_cm("z4_to_z2")) == 2
    assert checks.kernel_order(_cm("id_s3")) == 1
    assert checks.kernel_order(_cm("conj_z2z2")) == 4


def test_correct_value_passes():
    c, cm = fixtures.s2_interval(), _cm("z4_to_z2")
    assert checks.check_value(invariant(cm, c), cm, c, "s2xi") is None


def _corrupt(v, n=None, z=None, a=None):
    return InvariantValue(value=v.value if z is None else z,
                          admissible_count=v.admissible_count if n is None else n,
                          g_exponent=v.g_exponent if a is None else a,
                          h_exponent=v.h_exponent)


def test_corrupted_n_is_reported():
    c, cm = fixtures.single_tet(), _cm("z4_to_z2")
    good = invariant(cm, c)
    assert "N=" in checks.check_value(_corrupt(good, n=good.admissible_count + 1), cm, c, "ball")


def test_corrupted_z_is_reported():
    c, cm = fixtures.single_tet(), _cm("z4_to_z2")
    good = invariant(cm, c)
    assert checks.check_value(_corrupt(good, z=good.value * 2), cm, c, "ball") is not None


def test_consistent_but_wrong_value_is_reported():
    c, cm = fixtures.single_tet(), _cm("z4_to_z2")
    good = invariant(cm, c)
    bad = _corrupt(good, n=2 * good.admissible_count, z=2 * good.value)
    assert "closed form" in checks.check_value(bad, cm, c, "ball")


def test_wrong_exponents_are_reported():
    c, cm = fixtures.single_tet(), _cm("id_z2")
    good = invariant(cm, c)
    assert "exponents" in checks.check_value(_corrupt(good, a=good.g_exponent - 1), cm, c, "ball")


def test_move_table_inverses_negate():
    for kind, inverse in (("P14", "P41"), ("P23", "P32"), ("B13", "B31"), ("B22", "B22")):
        assert checks.MOVE_TABLE[inverse] == tuple(-d for d in checks.MOVE_TABLE[kind])


def test_check_move():
    c = fixtures.single_tet()
    moved = apply(c, MoveDescriptor("P14", 0, 5))
    assert checks.check_move(c, moved, "P14") is None
    assert checks.check_move(c, moved, "B13") is not None
    assert checks.check_move(c, c, "P14") is not None


def test_corrupted_output_counts_as_failed(monkeypatch):
    """A wrong Z from the program is a failed operation and makes the run
    incorrect; an over-budget search is a failed operation only."""
    good = workloads.invariant

    def corrupted(cm, c, **kw):
        v = good(cm, c, **kw)
        return _corrupt(v, n=v.admissible_count + 1)

    cx, md = workloads.build_fixtures(NullTracer())
    pairs = [("single_tet", "id_z2"), ("solid_torus", "trivh_z2")]
    ops = workloads.Ops(NullTracer(), SpeedClock())
    workloads.engine_search_round(ops, pairs, cx, md)
    assert (ops.attempted, ops.failed, ops.problems) == (2, 0, [])

    monkeypatch.setattr(workloads, "invariant", corrupted)
    ops = workloads.Ops(NullTracer(), SpeedClock())
    workloads.engine_search_round(ops, pairs, cx, md)
    assert (ops.attempted, ops.failed, len(ops.problems)) == (2, 2, 2)

    def over_budget(cm, c, **kw):
        raise SearchBudgetExceededError("budget")

    monkeypatch.setattr(workloads, "invariant", over_budget)
    ops = workloads.Ops(NullTracer(), SpeedClock())
    workloads.engine_search_round(ops, pairs, cx, md)
    assert (ops.attempted, ops.failed, ops.problems) == (2, 2, [])
    assert ops.expected["statesum.invariant"] == 2


def test_inputs_depend_only_on_the_seed():
    cx, md = workloads.build_fixtures(NullTracer())
    for name, make in workloads.INPUTS.items():
        a = make(3, cx, md, NullTracer())
        b = make(3, cx, md, NullTracer())
        other = make(4, cx, md, NullTracer())
        key = (lambda xs: [x[:2] for x in xs]) if name == "oracle_sweep" else list
        assert key(a) == key(b)
        assert key(a) != key(other)


def test_self_time_subtracts_children():
    t = Tracer()
    with t.span("outer"):
        with t.span("inner"):
            sum(range(10000))
    outer, inner = t.self_times()
    total = t.spans[0]["end"] - t.spans[0]["start"]
    assert outer == pytest.approx(total - (t.spans[1]["end"] - t.spans[1]["start"]))
    assert t.spans[1]["parent"] == 0 and inner > 0
