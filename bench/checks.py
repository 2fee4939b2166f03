"""Output checks computed apart from the program.

Every value here comes from the paper's closed forms, the group orders,
the boundary table and the simplex counts of the complex handed to the
program; nothing is read back from a previous run or from cmtop's own
tables (``MOVE_DELTAS`` in particular is written out again below).  Each
check returns ``None`` when the output is right and a one-line reason when
it is not.
"""

from __future__ import annotations

from fractions import Fraction

# The paper's move table: (dV, dE, dF, dT) for each bistellar move.
MOVE_TABLE = {
    "P14": (1, 4, 6, 3),
    "P23": (0, 1, 2, 1),
    "B13": (1, 4, 5, 2),
    "B22": (0, 0, 0, 0),
    "P41": (-1, -4, -6, -3),
    "P32": (0, -1, -2, -1),
    "B31": (-1, -4, -5, -2),
}

# Which manifold each fixture triangulates.  Moves and relabelings keep it.
MANIFOLD = {
    "single_tet": "ball",
    "two_tet_ball": "ball",
    "s3_boundary_4simplex": "s3",
    "solid_torus": "solid_torus",
    "s2_interval": "s2xi",
    "s2_interval_big": "s2xi",
}


def kernel_order(cm) -> int:
    """|ker bnd|, counted from the boundary table (element 0 is the identity)."""
    return sum(1 for image in cm.boundary.map if image == 0)


def closed_form(manifold: str, cm) -> Fraction:
    """Z of the manifold for this crossed module.

    Ball and S^3: |H|/|G| (= |ker bnd|/|coker bnd|); solid torus: 1;
    S^2 x I: |H| |ker bnd| / |G|."""
    g, h = cm.g.order, cm.h.order
    if manifold in ("ball", "s3"):
        return Fraction(h, g)
    if manifold == "solid_torus":
        return Fraction(1)
    if manifold == "s2xi":
        return Fraction(h * kernel_order(cm), g)
    raise KeyError(manifold)


def counts(c) -> tuple[int, int, int, int]:
    return len(c.vertices), len(c.edges), len(c.faces), len(c.tets)


def euler(c) -> int:
    v, e, f, t = counts(c)
    return v - e + f - t


def check_value(value, cm, c, manifold: str) -> str | None:
    """Z against the closed form, and N against the factored form
    Z = N |G|^(-V) |H|^(V-E) with V and E taken from the complex."""
    v, e = len(c.vertices), len(c.edges)
    g, h = cm.g.order, cm.h.order
    if (value.g_exponent, value.h_exponent) != (-v, v - e):
        return (f"exponents ({value.g_exponent}, {value.h_exponent}) != "
                f"({-v}, {v - e}) for V={v}, E={e}")
    factored = Fraction(value.admissible_count) * Fraction(g) ** -v * Fraction(h) ** (v - e)
    if factored != value.value:
        return f"N={value.admissible_count} gives Z={factored}, reported {value.value}"
    want = closed_form(manifold, cm)
    if value.value != want:
        return f"Z={value.value}, closed form for {manifold} is {want}"
    return None


def check_move(before, after, kind: str) -> str | None:
    """Count deltas from the move table, and an unchanged Euler characteristic."""
    delta = tuple(a - b for a, b in zip(counts(after), counts(before)))
    if delta != MOVE_TABLE[kind]:
        return f"{kind} changed counts by {delta}, table says {MOVE_TABLE[kind]}"
    if euler(after) != euler(before):
        return f"{kind} changed the Euler characteristic {euler(before)} -> {euler(after)}"
    return None


def check_relabel(before, after) -> str | None:
    if counts(after) != counts(before):
        return f"relabel changed counts {counts(before)} -> {counts(after)}"
    return None


def check_enumeration(moves, kind: str) -> str | None:
    bad = [m for m in moves if m.kind != kind]
    if bad:
        return f"enumerate_applicable({kind!r}) returned {bad[0]}"
    return None
