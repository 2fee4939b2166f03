"""Knot-complement closed forms: words in X, Y and a boundary factor.

The three built-in words are the figure-eight knot, the (5,2) torus knot
and the 5_2 knot complements.  A word is a sequence over the alphabet

    X  x  Y  y  D

where lowercase means inverse and D stands for the factor bnd(A^-1), A
ranging over H.  The word state sum is

    (1/|G|^2) (1/|H|) * sum over X, Y in G and A in H of delta_G(word)

and for trivial H it reduces to (number of relator solutions)/|G|, which
``count_reps`` computes independently of any crossed-module machinery.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .crossed_modules import CrossedModule
from .groups import FiniteGroup
from .statesum import InvariantValue

_LETTERS = ("X", "x", "Y", "y", "D")


@dataclass(frozen=True)
class GroupWord:
    letters: tuple[str, ...]

    def __post_init__(self):
        bad = [l for l in self.letters if l not in _LETTERS]
        if bad:
            raise ValueError(f"unknown letters {bad}; alphabet is {_LETTERS}")
        if sum(1 for l in self.letters if l == "D") > 1:
            raise ValueError("at most one boundary factor D per word")

    @classmethod
    def parse(cls, text: str) -> "GroupWord":
        """Tokens separated by optional whitespace: 'X y x Y D' or 'XyxYD'."""
        return cls(tuple(ch for ch in text if not ch.isspace()))

    def without_boundary_factor(self) -> "GroupWord":
        return GroupWord(tuple(l for l in self.letters if l != "D"))

    def has_boundary_factor(self) -> bool:
        return "D" in self.letters

    def exponent_sums(self) -> tuple[int, int]:
        ex = sum(1 if l == "X" else -1 if l == "x" else 0 for l in self.letters)
        ey = sum(1 if l == "Y" else -1 if l == "y" else 0 for l in self.letters)
        return ex, ey

    def __str__(self) -> str:
        return " ".join(self.letters)


# figure-eight knot: X Y^-1 X^-1 Y X^-1 Y^-1 X Y X^-1 Y bnd(A^-1)
FIG8 = GroupWord.parse("X y x Y x y X Y x Y D")
# (5,2) torus knot: Y X^4 Y X^-1 bnd(A^-1)
T52 = GroupWord.parse("Y X X X X Y x D")
# 5_2 knot: X Y^-1 X^-1 Y X Y^-1 X^-1 Y X^-1 Y^-1 X Y X^-1 Y^-1 bnd(A^-1)
K52 = GroupWord.parse("X y x Y X y x Y x y X Y x y D")

BUILTIN_WORDS = {"fig8": FIG8, "t52": T52, "k52": K52}


def evaluate_word(w: GroupWord, g: FiniteGroup, x: int, y: int, d: int = 0) -> int:
    """Left-to-right product in g, substituting x, y and d for X, Y and D."""
    values = {"X": x, "x": g.inv(x), "Y": y, "y": g.inv(y), "D": d}
    return g.word(*(values[letter] for letter in w.letters))


def word_state_sum(w: GroupWord, cm: CrossedModule) -> InvariantValue:
    """(1/|G|^2)(1/|H|) sum of delta_G over all (x, y, a); exact."""
    g, h = cm.g, cm.h
    hits = 0
    for x in range(g.order):
        for y in range(g.order):
            for a in range(h.order):
                if evaluate_word(w, g, x, y, cm.bnd(h.inv(a))) == 0:
                    hits += 1
    # each hit contributes delta = |G|; the factored form is N |G|^-1 |H|^-1
    return InvariantValue.from_admissible_count(hits, g.order, h.order, -1, -1)


def count_reps(relator: GroupWord, g: FiniteGroup) -> int:
    """#{(x, y) in G^2 : relator(x, y) = e}.

    Independent oracle for the trivial-H reduction: no crossed-module
    machinery, just the group table.
    """
    if relator.has_boundary_factor():
        raise ValueError("relator must not contain the boundary factor D")
    return sum(1 for x in range(g.order) for y in range(g.order)
               if evaluate_word(relator, g, x, y) == 0)


# ---------------------------------------------------------------------------
# the boundary equation system of the figure-eight computation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class System41Report:
    """Outcome of enumerating the seven boundary variables.

    abc_count: assignments satisfying the first three equations.
    d_violations: among those, assignments where the fourth fails.
    fin_violations: among those, assignments where the long closure word
        is not the identity.
    existence_mismatches: (b, r, u, t, s) tuples where "closure word holds"
        disagrees with "exactly one (c, d) solves the first three".
    word_mismatches: assignments where the long word and its X,Y form
        evaluate differently (they are syntactically identified here, so
        this should stay empty).
    d_witnesses: the assignments counted in d_violations, in enumeration
        order.
    """

    group: str
    checked: int
    abc_count: int
    d_violations: int
    fin_violations: int
    existence_mismatches: int
    word_mismatches: int
    d_witnesses: tuple[tuple[int, ...], ...]

    @property
    def clean(self) -> bool:
        return (self.d_violations == 0 and self.fin_violations == 0
                and self.existence_mismatches == 0 and self.word_mismatches == 0)

    def summary(self) -> str:
        state = "clean" if self.clean else "counterexamples found"
        return (f"boundary system over {self.group}: {state} "
                f"({self.checked} assignments, {self.abc_count} satisfy the "
                f"triangle equations, {self.d_violations} break the fourth, "
                f"{self.fin_violations} break the closure word, "
                f"{self.existence_mismatches} break unique-solvability)")


def _sys41_equations(g: FiniteGroup, b, r, u, t, s, c, d):
    """The four boundary equations; variables are
    b, r, g_11'=u, g_3'4'=t, g_2'2''=c, g_3''4'=s, g_1'2=d."""
    w = g.word
    iv = g.inv
    eq_a = d == w(c, d, u)
    eq_b = w(b, iv(u), iv(b), iv(t)) == w(iv(s), t, b, iv(u), iv(b), iv(t), iv(c))
    eq_c = t == w(r, c, iv(r), t, b, iv(d), iv(r), iv(s))
    eq_d = w(r, d, iv(b), iv(t), s, b) == w(r, c, iv(r), s, b, u)
    return eq_a, eq_b, eq_c, eq_d


def _sys41_long_word(g: FiniteGroup, b, u, t, s) -> int:
    """The closure word exactly as displayed, with the primed and unprimed
    g_3''4 variables identified (the prose lists only one of them)."""
    iv = g.inv
    return g.word(
        iv(t), s, b, iv(u), iv(b),
        iv(s), t, b, u, iv(b),
        iv(s), t, b, iv(u), iv(b),
        iv(t), s, b, u, iv(b),
        iv(s), t, b, u, iv(b))


def _sys41_xy_word(g: FiniteGroup, b, u, t, s) -> int:
    """The same word after the stated substitutions X = t^-1 s, Y = b u b^-1."""
    x = g.mul(g.inv(t), s)
    y = g.word(b, u, g.inv(b))
    return evaluate_word(FIG8.without_boundary_factor(), g, x, y)


def verify_41_system(g: FiniteGroup) -> System41Report:
    """Enumerate all |G|^7 assignments of the seven boundary variables and
    check the claims made about the equation system: that the first three
    equations imply the fourth, that the closure word then vanishes, that
    the closure word matches its X,Y form, and that the closure word
    holding is equivalent to unique solvability for (c, d).

    The closure words depend only on the core (b, r, u, t, s), so each
    core evaluates them once and tallies the (c, d) that solve the first
    three equations; every core is checked for unique solvability.
    """
    n = g.order
    abc = d_bad = fin_bad = word_bad = exist_bad = 0
    witnesses = []
    for b, r, u, t, s in itertools.product(range(n), repeat=5):
        long_value = _sys41_long_word(g, b, u, t, s)
        if long_value != _sys41_xy_word(g, b, u, t, s):
            word_bad += n * n
        solutions = 0
        for c, d in itertools.product(range(n), repeat=2):
            eq_a, eq_b, eq_c, eq_d = _sys41_equations(g, b, r, u, t, s, c, d)
            if eq_a and eq_b and eq_c:
                solutions += 1
                if not eq_d:
                    d_bad += 1
                    witnesses.append((b, r, u, t, s, c, d))
                if long_value != 0:
                    fin_bad += 1
        if (long_value == 0) != (solutions == 1):
            exist_bad += 1
        abc += solutions
    return System41Report(
        group=g.name,
        checked=n**7,
        abc_count=abc,
        d_violations=d_bad,
        fin_violations=fin_bad,
        existence_mismatches=exist_bad,
        word_mismatches=word_bad,
        d_witnesses=tuple(witnesses),
    )
