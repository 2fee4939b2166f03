"""Shared test helpers: the literal per-coloring reference sum, a large
ball triangulation, and the abelian count of a relator's solutions.

``naive_statesum`` evaluates the state sum exactly as written: every
edge/face coloring in turn, multiplying delta weights.  It is deliberately
independent of both shipped engines (no admissibility shortcut, no numpy)
and is only usable on tiny inputs.
"""

import itertools
import random
from fractions import Fraction

import pytest

from cmtop import fixtures
from cmtop.moves import MoveDescriptor, apply
from cmtop.statesum import Coloring, face_holonomy, tet_obstruction


@pytest.fixture(scope="session")
def p14_ball():
    """A 1206-edge ball: 300 seeded P14 moves from single_tet."""
    rng = random.Random(0)
    c = fixtures.single_tet()
    for _ in range(300):
        c = apply(c, MoveDescriptor("P14", rng.randrange(len(c.tets))))
    assert c.counts.as_tuple() == (304, 1206, 1804, 901)
    return c


def delta(x_group, x) -> int:
    """|X| if x is the identity, else 0."""
    return x_group.order if x == 0 else 0


def naive_statesum(cm, c) -> Fraction:
    g, h = cm.g, cm.h
    k = c.counts
    E, F = k.k1, k.k2
    total = 0
    for ec in itertools.product(range(g.order), repeat=E):
        for hc in itertools.product(range(h.order), repeat=F):
            coloring = Coloring(ec, hc)
            weight = 1
            for f in range(F):
                weight *= delta(g, face_holonomy(cm, c, coloring, f))
                if weight == 0:
                    break
            if weight == 0:
                continue
            for t in range(k.k3):
                weight *= delta(h, tet_obstruction(cm, c, coloring, t))
                if weight == 0:
                    break
            total += weight
    prefactor = (Fraction(g.order) ** (-k.k0 + k.k1 - k.k2)
                 * Fraction(h.order) ** (k.k0 - k.k1 + k.k2 - k.k3))
    per_simplex = Fraction(1, g.order) ** E * Fraction(1, h.order) ** F
    return prefactor * per_simplex * total


def abelian_solution_count(w, g) -> int:
    """#{(x, y) : ex*x + ey*y = 0} from the letter exponent sums alone.

    Only meaningful for abelian G; the tests cross-check count_reps with it.
    """
    ex, ey = w.exponent_sums()
    n = 0
    for x in range(g.order):
        xe = 0
        for _ in range(abs(ex)):
            xe = g.mul(xe, x if ex > 0 else g.inv(x))
        for y in range(g.order):
            ye = 0
            for _ in range(abs(ey)):
                ye = g.mul(ye, y if ey > 0 else g.inv(y))
            if g.mul(xe, ye) == 0:
                n += 1
    return n
