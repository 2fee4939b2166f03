"""The crossed-module state sum of a triangulated 3-manifold with boundary.

A coloring assigns an element of G to every edge and an element of H to
every face.  It is admissible when every face holonomy

    g_f = bnd(h_f) * g(e12) * g(e01) * g(e02)^-1

is the identity and every tet obstruction

    w_t = h(f023) * (g(e23) |> h(f012)) * h(f123)^-1 * h(f013)^-1

is the identity.  Each admissible coloring contributes |G|^|K2| * |H|^|K3|
in delta weights; combining with the prefactor and the per-edge 1/|G|,
per-face 1/|H| factors collapses the invariant to

    Z = N * |G|^(-|K0|) * |H|^(|K0| - |K1|)

with N the number of admissible colorings.  Everything here is exact
rational arithmetic; both engines return that factored form.

Two engines compute N.  ``brute_force_invariant`` is the oracle: it reads
the state sum as a network of 0/1 factors, one per face and one per tet,
and sums it exactly by variable elimination with numpy, lazily imported
there and nowhere else.  Every factor reads one face table or one tet
table through its own slots, a repeated variable being a diagonal that
einsum takes; the two tables depend on the module alone, so they are
built once per module and integer type and cached on it, read-only.  The
elimination order is weighted min-fill, planned in pure Python with each
step's einsum subscripts (``oracle_plan``), and the plan's largest table
is budget-gated on every call.  Every entry counts colorings of the
variables summed out, so it is at most the coloring space: the tables are
int32 below 2^31 colorings and int64 below 2^63, and a larger space is
refused.
``invariant`` is the engine for crossed modules, that is, modules with the
Peiffer identity; it hands any other module to the oracle.  It fixes the
gauge first: the edges of a spanning forest are pinned to e (the vertex
gauge, a factor |G| each) and are no part of the search, and every other
edge is colored by a coset representative of im(bnd) (the 2-gauge, a
factor |im bnd| each).  It then searches those edges in the closing order
(``closing_plan``).  A forced edge is the one unset slot of a face whose
other slots are set, so that face's flatness leaves it a single
representative; only a branch edge ranges over all of them.  Each face is checked when its
last edge is set, and the search backtracks when the face's required
boundary image is outside im(bnd).  At each leaf every face color is
h_f = b_f * k_f, a fixed preimage b_f of the face's requirement times an
element k_f of A = ker(bnd).  Peiffer makes A central in H: for k in A,
h = bnd(k) |> h = k h k^-1.  So the tet obstructions are affine in the
k_f, and the face colors are the solutions of one linear system over the
abelian group A, twisted by the G-action: one equation per tet, one
unknown per face.  It has none, or as many solutions as the homogeneous
system has, counted by elimination mod the exponent of A (Gaussian
elimination over F_p when A is elementary abelian); with A = {e} that
count is 1 and the system is never read.  Only the tets of closed
components are rows.  Join two tets across each face in two slots of two
different tets.  A component that holds a boundary face (a face in exactly
one tet slot) has equations onto A^(T_c), T_c its tets, at every leaf:
take a spanning tree of its tets across those faces, rooted at a tet with
a boundary face, and give each tet its parent face (the root its boundary
face).  Such a face lies in its tet and its parent and nowhere else (the
root's in the root alone), so with the tets listed parents first the
component's equations are triangular in those faces, with an automorphism
of A on the diagonal (+-1, or g23 |> on slot 0), and are solved from the
last tet up whatever the other faces hold.  So the image of A^F -> A^T is
the bounded components' A^(T_c) times its image in the closed components'
rows, and a leaf has none or |A|^(F - T + rows) / |that image| face
colorings.  When every component has boundary no row is left and no leaf
reduces anything: this is the onto half of the closed form of Faria
Martins & Porter (TAC 18, 2007).  The engine is one function, an
explicit-stack loop, so no complex is too large for the recursion limit,
and it counts every leaf the same way, whatever ker(bnd) is.
The engine never enumerates the full space, is bounded by a budget of
search nodes (one per edge value tried: one per forced edge, one per
representative at a branch edge), and must agree with the oracle exactly
wherever both run.

A call builds only what depends on the pair.  What depends on one side
alone is built on first use and cached on that instance, so evaluating one
complex under many modules, or one module on many complexes, builds it
once.  On the complex (``OrderedComplex``): the spanning forest that is
pinned, and in ``plans``, which this module alone fills, the closing
plan, the tet system and the oracle's plan per pair of group orders.  On
the module (``CrossedModule``): the Peiffer flag that picks the engine,
ker(bnd), the preimage and coset tables of im(bnd) (``boundary_tables``),
the coordinates of A with its relations (``kernel_coordinates``), and the
oracle's face and tet tables per integer type (``oracle_tables``).  A
budget is 0 or more; ``None`` reads ``CMTOP_BUDGET``.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .complexes import OrderedComplex
from .crossed_modules import CrossedModule

DEFAULT_BUDGET = 10**8
BUDGET_ENV_VAR = "CMTOP_BUDGET"


class BudgetExceededError(RuntimeError):
    """The requested enumeration is larger than the configured budget."""


class SearchBudgetExceededError(BudgetExceededError):
    """The fast engine spent its budget of search nodes.

    A node is one value tried at one edge of the closing order: a forced
    edge costs one, a branch edge one per coset representative of im(bnd),
    and a spanning-forest edge none.  The message gives the deepest depth
    reached out of the order's length, and its branch and forced edges."""


def default_budget() -> int:
    """``CMTOP_BUDGET`` when set, else ``DEFAULT_BUDGET``."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if not raw:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR}={raw!r} is not an integer") from None


def _budget(budget: int | None) -> int:
    """The budget to use: ``budget``, or ``default_budget()`` for None.
    A negative budget is refused; 0 allows no search node or table entry."""
    budget = default_budget() if budget is None else budget
    if budget < 0:
        raise ValueError(f"budget {budget} is negative; it must be 0 or more")
    return budget


@dataclass(frozen=True)
class Coloring:
    """Edge and face colors, indexed like the complex's edge/face lists."""

    edge_colors: tuple[int, ...]
    face_colors: tuple[int, ...]


@dataclass(frozen=True)
class InvariantValue:
    """Exact value plus the factored form N * |G|^a * |H|^b."""

    value: Fraction
    admissible_count: int
    g_exponent: int
    h_exponent: int

    @classmethod
    def from_admissible_count(cls, n: int, g_order: int, h_order: int,
                              a: int, b: int) -> "InvariantValue":
        num, den = n, 1
        for base, exponent in ((g_order, a), (h_order, b)):
            if exponent >= 0:
                num *= base**exponent
            else:
                den *= base**-exponent
        return cls(value=Fraction(num, den), admissible_count=n, g_exponent=a, h_exponent=b)

    def __str__(self) -> str:
        v = self.value
        return (f"Z = {v.numerator}/{v.denominator} "
                f"(N={self.admissible_count}, a={self.g_exponent}, b={self.h_exponent})")


def face_holonomy(cm: CrossedModule, c: OrderedComplex, coloring: Coloring, face: int) -> int:
    g, ec, hc = cm.g, coloring.edge_colors, coloring.face_colors
    e01, e02, e12 = c.faces[face]
    return g.word(cm.bnd(hc[face]), ec[e12], ec[e01], g.inv(ec[e02]))


def tet_obstruction(cm: CrossedModule, c: OrderedComplex, coloring: Coloring, tet: int) -> int:
    h, ec, hc = cm.h, coloring.edge_colors, coloring.face_colors
    f012, f013, f023, f123 = c.tets[tet]
    e23 = c.faces[f123][2]
    return h.word(hc[f023], cm.act(ec[e23], hc[f012]),
                  h.inv(hc[f123]), h.inv(hc[f013]))


def is_admissible(cm: CrossedModule, c: OrderedComplex, coloring: Coloring) -> bool:
    if len(coloring.edge_colors) != len(c.edges) or len(coloring.face_colors) != len(c.faces):
        raise ValueError("coloring does not cover the complex")
    return all(face_holonomy(cm, c, coloring, f) == 0 for f in range(len(c.faces))) and \
        all(tet_obstruction(cm, c, coloring, t) == 0 for t in range(len(c.tets)))


def _exponents(c: OrderedComplex) -> tuple[int, int]:
    k = c.counts
    return -k.k0, k.k0 - k.k1


def _result(n: int, cm: CrossedModule, c: OrderedComplex) -> InvariantValue:
    a, b = _exponents(c)
    return InvariantValue.from_admissible_count(n, cm.g.order, cm.h.order, a, b)


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

class OraclePlan(NamedTuple):
    """The brute oracle's contraction for one pair of group orders.  The
    factors are the faces, then the tets, then one per step; each step
    sums out one or more variables and is (the factors it merges, their
    einsum subscripts, the merged factor's subscripts).  ``largest`` is the
    most entries of any table the oracle builds: the face table, the tet
    table and each step's output; ``free`` is the factor of the variables
    in no factor: the edges in no face, |G| each."""

    steps: tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]], ...]
    largest: int
    free: int


def oracle_plan(c: OrderedComplex, g_order: int, h_order: int) -> OraclePlan:
    """The brute oracle's contraction of ``c`` under groups of these
    orders, built on first use and cached in ``c.plans`` per pair of orders.

    The variables are the edges (|G| values each), then the faces (|H|
    values each).  Face f's factor holds (e01, e02, e12, f) and a tet's
    (f012, f013, f023, f123, e23), in slot order; a variable filling
    several slots of one factor is a diagonal.  Summing out v merges
    the factors holding it into one over its neighbours, the other
    variables they hold, and so joins every pair of those.  The order
    is weighted min-fill: next the variable whose step joins the
    fewest pairs not yet joined, each pair (a, b) weighted |a|·|b|,
    ties broken by the merged factor's entries and variable count and
    then the variable; the least key is found by a scan of the live
    keys.  A step changes the neighbourhood of its neighbours alone, so only
    they are re-keyed; any other variable next to both ends of a newly
    joined pair only loses that pair.  The factors a step merges are
    found by a scan of the live factors.  A variable that lies only
    in the factor the step before it made is summed out in that step,
    by dropping it from the step's output subscripts, so the order is
    the same and one einsum sums out a consecutive run of it."""
    plan = c.plans.get((g_order, h_order))
    if plan is not None:
        return plan
    E, F, faces = len(c.edges), len(c.faces), c.faces
    size = [g_order] * E + [h_order] * F
    slots = ([(e01, e02, e12, E + f) for f, (e01, e02, e12) in enumerate(faces)]
             + [(*(E + f for f in t), faces[t[3]][2]) for t in c.tets])
    live = dict(enumerate(slots))  # each live factor's variables, slot by slot
    # per live variable: its merged scope, that is, itself and its neighbours
    merged: dict[int, set[int]] = {}
    for s in slots:
        for v in s:
            merged.setdefault(v, set()).update(s)
    free = g_order ** (E - sum(v < E for v in merged))

    def entries(scope):
        return math.prod(map(size.__getitem__, scope))

    def weight(variables):
        return sum(map(size.__getitem__, variables))

    # the fill of v: the pairs of its neighbours not yet joined, weighted
    fill = {v: sum([size[a] * weight(m - merged[a]) for a in m]) // 2
            for v, m in merged.items()}
    keys = {v: (fill[v], entries(m), len(m), v) for v, m in merged.items()}
    # built: the entries of each step's output; made: the id of the last step's factor
    steps, built, made = [], [], -1
    while keys:
        v = min(keys.values())[3]
        del keys[v], fill[v]
        near = merged.pop(v)
        near.discard(v)
        scope = sorted(near)
        for u in scope:
            merged[u].discard(v)
        # a pair the step joins leaves the fill of each variable next to both
        changed = set(scope)
        for a in scope:
            ma = merged[a]
            for b in near - ma:
                if a < b:
                    for w in ma & merged[b]:
                        fill[w] -= size[a] * size[b]
                        changed.add(w)
        # a neighbour u loses v, so the pairs (v, x) for x next to u alone,
        # and meets the rest of the scope, so the pairs (y, x) for y new to u
        for u in scope:
            mu = merged[u]
            alone = mu - near
            fill[u] += sum([size[y] * weight(alone - merged[y]) for y in near - mu]) \
                - size[v] * weight(alone)
        for u in scope:
            merged[u] |= near
        for w in changed:
            keys[w] = (fill[w], entries(merged[w]), len(merged[w]), w)
        held = tuple(i for i, s in live.items() if v in s)
        if held == (made,):  # v is only in the last step's factor: sum it out there
            steps[-1] = (*steps[-1][:2], tuple(label[x] for x in scope))
            built.pop()
        else:
            label = {x: j for j, x in enumerate((v, *scope))}
            steps.append((held, tuple(tuple(label[x] for x in live.pop(i)) for i in held),
                          tuple(label[x] for x in scope)))
            made = len(slots) + len(steps) - 1
        live[made] = scope
        built.append(entries(scope))
    largest = max(g_order**3 * h_order if F else 0, h_order**4 * g_order if c.tets else 0,
                  1, *built)
    plan = c.plans[g_order, h_order] = OraclePlan(tuple(steps), largest, free)
    return plan


def brute_force_invariant(cm: CrossedModule, c: OrderedComplex,
                          budget: int | None = None) -> InvariantValue:
    """The oracle: N as an exact contraction of the state sum's local weights.

    N sums, over every coloring, a product of 0/1 factors: one per face over
    (e01, e02, e12, h_f), 1 when its holonomy is e, and one per tet over
    (h012, h013, h023, h123, e23), 1 when its obstruction is e.  They are
    read from one face table and one tet table over those slots, built
    once per module and integer type, read-only and cached on the module
    (``_module_table``); every factor reads its kind's table with its slots
    as einsum subscripts, a variable filling several slots of one factor
    being a diagonal, which ``numpy.einsum`` takes.  The variables are
    summed out by the steps of ``oracle_plan(c, |G|, |H|)``, one einsum
    call each.  A variable in no factor multiplies N by its group's order.

    The counts are exact in the narrowest type the space allows.  A table
    over the variables X that has absorbed the summed-out variables Y
    holds, at each value of X, the number of values of Y that make its
    absorbed factors 1; every partial sum inside einsum counts a subset of
    those values.  So each is at most the product of Y's group orders, and
    at most the coloring space |G|^|K1| * |H|^|K2|: int32 is exact while
    the space is below 2^31, and int64 while it is below 2^63.  N is the
    product of the last tables, taken in Python ints.

    A call first refuses a space of 2^63 or more with BudgetExceededError,
    before any plan is built; then a plan whose largest table (of the face
    table, the tet table and the steps' outputs) has more entries than the
    budget; only then runs the steps.  The oracle shares only the complex
    and the group tables with the fast engine, and is the only code in the
    package that imports numpy.
    """
    import numpy as np

    budget = _budget(budget)
    g, h, F = cm.g, cm.h, len(c.faces)
    space = g.order ** len(c.edges) * h.order ** F
    if space >= 2**63:
        raise BudgetExceededError(
            f"{space} colorings: the oracle's int64 counts are exact only below "
            f"2^63; the fast engine (invariant) counts any module with the "
            f"Peiffer identity")
    plan = oracle_plan(c, g.order, h.order)
    if plan.largest > budget:
        raise BudgetExceededError(
            f"the contraction's largest table has {plan.largest} entries, over the "
            f"budget of {budget}; raise the budget, or for a module with the "
            f"Peiffer identity use the fast engine (invariant)")

    dtype = "int32" if space < 2**31 else "int64"
    tables = {}
    if F:
        tables.update(dict.fromkeys(range(F), _module_table(cm, "face", dtype)))
    if c.tets:
        tables.update(dict.fromkeys(range(F, F + len(c.tets)), _module_table(cm, "tet", dtype)))
    for k, (held, subscripts, out) in enumerate(plan.steps, start=F + len(c.tets)):
        operands = []
        for i, s in zip(held, subscripts):
            operands += (tables.pop(i), s)
        tables[k] = np.einsum(*operands, out)
    n = math.prod(int(t) for t in tables.values()) * plan.free
    return _result(n, cm, c)


def _module_table(cm: CrossedModule, kind: str, dtype: str):
    """The oracle's "face" or "tet" 0/1 table of ``cm`` in ``dtype``, built
    on first use and cached, read-only, in ``cm.oracle_tables``."""
    table = cm.oracle_tables.get((kind, dtype))
    if table is None:
        import numpy as np

        g, h = cm.g, cm.h
        gt, ginv, ht, hinv, act, bnd = (
            np.asarray(x) for x in (g.table, g.inverses, h.table, h.inverses,
                                    cm.action, cm.boundary.map))
        gs, hs = np.arange(g.order), np.arange(h.order)
        if kind == "face":  # over (g01, g02, g12, h_f): bnd(h_f) = g02 g01^-1 g12^-1
            x = np.ix_(gs, gs, gs, hs)
            table = gt[gt[x[1], ginv[x[0]]], ginv[x[2]]] == bnd[x[3]]
        else:  # over (h012, h013, h023, h123, g23): h023 (g23 |> h012) h123^-1 h013^-1 = e
            x = np.ix_(hs, hs, hs, hs, gs)
            table = ht[ht[x[2], act[x[4], x[0]]], ht[hinv[x[3]], hinv[x[1]]]] == 0
        table = cm.oracle_tables[kind, dtype] = table.astype(dtype)
        table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# fast engine: gauge-fixed edge search + linear counting on faces
# ---------------------------------------------------------------------------

class ClosingPlan(NamedTuple):
    """The closing order per depth: the edge set there, the face that
    forces it and the slot it fills in that face (-1 and -1 for a branch
    edge), and the faces whose last edge it is."""

    steps: tuple[tuple[int, int, int], ...]
    faces_done_at: tuple[tuple[int, ...], ...]


class TetSystem(NamedTuple):
    """The layout of the tet equations that a leaf must solve: one row per
    tet of a closed walk component (one holding no boundary face), those
    tets in reverse walk order, each row's (23) edge, and per face with a
    place in those rows, in walk order, its places there as (row, slot is
    0, sign), sign +1 for slots 0 and 2 and -1 for slots 1 and 3."""

    rows: tuple[int, ...]
    row_e23: tuple[int, ...]
    columns: tuple[tuple[tuple[int, bool, int], ...], ...]


def closing_plan(c: OrderedComplex) -> ClosingPlan:
    """The closing order of the edges off the spanning forest, laid out
    per depth for the search: each edge with the face that forces it and
    the slot it fills there, or -1 and -1 for a branch edge, and the faces
    whose last edge it is; built on first use and cached in ``c.plans``.

    The forest's edges are set first.  While some face has exactly one
    unset slot, its edge comes next, forced by that face.  Otherwise the
    next edge is a branch edge: the unset edge that lies in the most
    faces with two unset slots, the first in walk order on ties.  A
    queue of ready faces and per-face counts of unset slots keep the
    build within O(E + F), plus one O(E) scan per branch edge."""
    plan = c.plans.get("closing_plan")
    if plan is not None:
        return plan
    faces, forest = c.faces, c.spanning_forest
    unset = [True] * len(c.edges)
    for e in forest:
        unset[e] = False
    # score: faces with two unset slots, per edge, counted as they reach
    # two.  A face that drops to one is ready, so its last edge is set
    # before the next branch: at a branch every unset edge's score is exact.
    score = [0] * len(c.edges)
    left = [0] * len(faces)  # unset slots, per face
    ready = deque()
    steps: list[tuple[int, int, int]] = []
    done_at: list[list[int]] = []

    def update(changed):  # recount the unset slots of these faces
        for f in changed:
            u, v, w = faces[f]
            n = unset[u] + unset[v] + unset[w]
            if n == 0:  # done at this depth; not at the start, as the
                done_at[-1].append(f)  # forest holds no face's cycle or loop
            elif n == 1:
                ready.append(f)
            elif n == 2:  # it had three: counts only fall
                x, y = (u, v) if unset[u] and unset[v] else (u, w) if unset[u] else (v, w)
                score[x] += 1
                if y != x:
                    score[y] += 1
            left[f] = n

    update(c.walk_faces)
    while len(steps) < len(c.edges) - len(forest):
        while ready and left[ready[0]] != 1:
            ready.popleft()
        if ready:
            force = ready.popleft()
            u, v, w = faces[force]
            e, slot = (u, 0) if unset[u] else (v, 1) if unset[v] else (w, 2)
        else:
            force = slot = -1
            e = max((e for e in c.walk_edges if unset[e]), key=score.__getitem__)
        steps.append((e, force, slot))
        done_at.append([])
        unset[e] = False
        update(c.edge_faces[e])
    plan = c.plans["closing_plan"] = ClosingPlan(tuple(steps), tuple(map(tuple, done_at)))
    return plan


def tet_system(c: OrderedComplex) -> TetSystem:
    """The rows and columns of the linear system on the face colors, for
    the closed walk components only, built on first use and cached in
    ``c.plans``.  A component holding a boundary face has tet equations
    that are onto at every leaf (``_solve``), so it needs no row.  The
    rows are the closed components' tets in reverse walk order, so
    ``_reduce``, which pivots on the largest key, starts each face's
    column at the tet where the walk first met the face.  A face keeps
    only its places in those rows, and a face with none has no column."""
    system = c.plans.get("tet_system")
    if system is not None:
        return system
    inc = c.face_incidence
    closed = [component for component in c.walk
              if all(len(inc[f]) != 1 for t in component for f in c.tets[t])]
    rows = tuple(t for component in reversed(closed) for t in reversed(component))
    row = {t: i for i, t in enumerate(rows)}
    columns = tuple(places for places in (
        tuple((row[t], s == 0, 1 if s in (0, 2) else -1) for t, s in inc[f] if t in row)
        for f in c.walk_faces) if places)
    system = c.plans["tet_system"] = TetSystem(
        rows, tuple(c.faces[c.tets[t][3]][2] for t in rows), columns)
    return system


def _search(cm: CrossedModule, c: OrderedComplex, node_budget: int) -> int:
    """N: the gauge factor times the face counts summed over the leaves of
    an explicit-stack search along the closing order; past ``node_budget``
    search nodes it raises SearchBudgetExceededError.

    The vertex gauge acts freely on the colors of the spanning forest, so
    its edges are pinned to e at a factor |G| each and take no node.  Under
    the Peiffer identity the 2-gauge g_e -> bnd(y) g_e maps admissible
    colorings to admissible ones, so every other edge is colored by a coset
    representative of S = im(bnd) at a factor |S| each.  The edges are set
    in the closing order (``closing_plan``): a forced edge takes the one
    representative its forcing face allows, a branch edge each in turn, and
    each face is checked at its last edge.  Only the gauge factor, the
    relations copied once per row of a closed component, the edge colors
    and the faces' required boundary images depend on both the module and
    the complex; the rest is cached on one side."""
    (steps, done_at), tables, coords = closing_plan(c), cm.boundary_tables, cm.kernel_coordinates
    pre, rep, reps = tables.preimage, tables.coset_rep, tables.coset_reps
    mul, inv, faces = cm.g.table, cm.g.inverses, c.faces
    rank = len(coords.generators)
    # with A = {e} every leaf counts 1: no tet system is built, no relation copied
    system = tet_system(c) if len(tables.kernel) > 1 else None
    relations = {i * rank + l: {i * rank + q: x for q, x in rel.items()}
                 for l, rel in enumerate(coords.relations)
                 for i in range(len(system.rows))}  # one copy per row
    ga = [0] * len(c.edges)
    req = [-1] * len(faces)
    tried = [0] * len(steps)  # values tried so far at each depth
    total, depth, deepest, nodes = 0, 0, 0, 0
    while depth >= 0:
        if depth == len(steps):
            total += _solve(cm, c, system, relations, ga, req)
            depth -= 1
            continue
        e, force, slot = steps[depth]
        i = tried[depth]
        if i == (len(reps) if slot < 0 else 1):
            tried[depth] = 0
            depth -= 1
            continue
        tried[depth] = i + 1
        nodes += 1
        if nodes > node_budget:
            n, branch = len(steps), sum(slot < 0 for _, _, slot in steps)
            raise SearchBudgetExceededError(
                f"fast engine spent its budget of {node_budget} search nodes; "
                f"deepest depth {deepest} of {n} edges in the closing order "
                f"({branch} branch, {n - branch} forced)")
        # S = im(bnd) is normal, so a forced edge's coset is one product
        if slot < 0:
            ga[e] = reps[i]
        else:
            e01, e02, e12 = faces[force]
            if slot == 0:  # e01 <- g12^-1 g02
                ga[e] = rep[mul[inv[ga[e12]]][ga[e02]]]
            elif slot == 1:  # e02 <- g12 g01
                ga[e] = rep[mul[ga[e12]][ga[e01]]]
            else:  # e12 <- g02 g01^-1
                ga[e] = rep[mul[ga[e02]][inv[ga[e01]]]]
        for f in done_at[depth]:
            e01, e02, e12 = faces[f]
            r = mul[mul[ga[e02]][inv[ga[e01]]]][inv[ga[e12]]]
            if pre[r] < 0:
                break
            req[f] = r
        else:
            depth += 1
            if depth > deepest:
                deepest = depth
    return total * cm.g.order**len(c.spanning_forest) * tables.image_order**len(steps)


def _solve(cm: CrossedModule, c: OrderedComplex, system: TetSystem | None,
           relations: dict, g_assign: list[int], req: list[int]) -> int:
    """Face colorings of one leaf, given its edge colors ``g_assign`` and
    the faces' required boundary images ``req``, without search.

    With h_f = b_f * k_f, b_f = pre[req_f] and k_f in A, tet t's
    obstruction is w_t(b) + (g23 |> k012) + k023 - k123 - k013 in A: one
    equation per tet, one unknown per face.  The equations of a walk
    component with a boundary face are onto its tets' A^T_c, and triangular
    in faces that reach no other row (the module docstring's spanning
    tree), so the image of A^F -> A^T is the bounded components' A^T_c
    times its image in the closed components' rows, the only rows of
    ``system`` (``tet_system``): there are no solutions or
    |A|^(F - T + rows) / |image|, with image the order of the latter.
    A is written as Z^r modulo the module's relation lattice
    (``kernel_coordinates``, copied once per row in ``relations``), with
    entries mod its exponent.  Face f's column for a_l sums g23 |> a_l
    over its slot-0 places in those rows, +a_l over slot 2 and -a_l over
    slots 1 and 3.  With the relations of the copies of A the columns
    span a lattice L in Z^(r rows), and the image has order
    |A|^rows / [Z^(r rows) : L].  There are solutions exactly when the
    constants coord(w_t(b)) of the rows lie in L, as they do once the
    image is all of A^rows; then no column can change the count either.  That is so from the start when no row is
    left, as on every complex whose components all hold boundary.  With
    A = {e} the count is 1, and ``system`` is None.
    """
    order = len(cm.boundary_tables.kernel)
    if order == 1:
        return 1
    rows, row_e23, columns = system
    free = order**(len(c.faces) - len(c.tets) + len(rows))
    image, onto = 1, order**len(rows)
    if image == onto:
        return free
    h, act, pre = cm.h, cm.action, cm.boundary_tables.preimage
    mh, ih, tets = h.table, h.inverses, c.tets
    d, gens, coord, _ = cm.kernel_coordinates
    r = len(gens)
    g23 = [g_assign[e] for e in row_e23]
    basis = dict(relations)
    for places in columns:
        if image == onto:
            break
        for a in gens:
            col = {}
            for i, slot0, sign in places:
                for q, x in enumerate(coord[act[g23[i]][a] if slot0 else a]):
                    if x:
                        col[i * r + q] = (col.get(i * r + q, 0) + sign * x) % d
            image *= _reduce(basis, {k: x for k, x in col.items() if x}, d)
    if image < onto:
        constants = {}
        for i, t in enumerate(rows):
            b012, b013, b023, b123 = (pre[req[f]] for f in tets[t])
            w = coord[mh[mh[b023][act[g23[i]][b012]]][mh[ih[b123]][ih[b013]]]]
            constants.update((i * r + q, x) for q, x in enumerate(w) if x)
        if _reduce(basis, constants, d) > 1:  # basis is this leaf's copy
            return 0
    return free // image


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _combine(s: int, a: dict, t: int, b: dict, d: int) -> dict:
    """s*a + t*b for sparse integer vectors, mod d."""
    out = {}
    for key in a.keys() | b.keys():
        x = (s * a.get(key, 0) + t * b.get(key, 0)) % d
        if x:
            out[key] = x
    return out


def _reduce(basis: dict, v: dict, d: int) -> int:
    """Fold v into a triangular lattice basis (basis[k] has its last
    nonzero coordinate k, a divisor of d) that contains d*Z^N, so entries
    live mod d, by unimodular steps.  Return the factor by which that
    divides the lattice's index: 1 exactly when v was in the lattice."""
    factor = 1
    while v:
        k = max(v)
        b = basis[k]
        p, x = b[k], v[k]
        g, s, t = _xgcd(p, x)
        if g != p:
            basis[k] = _combine(s, b, t, v, d)  # its entry k is g < d
            factor *= p // g
        v = _combine(x // g, b, -(p // g), v, d)  # its entry k is 0
    return factor


def invariant(cm: CrossedModule, c: OrderedComplex, *,
              node_budget: int | None = None) -> InvariantValue:
    """Optimized engine; exact same contract as brute_force_invariant.

    Assumes ``cm`` satisfies the crossed-module axioms (as every module built
    by ``make_crossed_module`` or the file loader does): the gauge fixing
    and the face counting rely on them, so on a module that ``validate``
    rejects the result need not match the oracle.  The engine needs the
    Peiffer identity too: it gives the 2-gauge, and it makes ker(bnd)
    central, so the face colors of each leaf are counted by linear algebra
    over ker(bnd), one equation per tet and one unknown per face.  A module
    without it is computed by ``brute_force_invariant``; its Z is exact but
    not a triangulation invariant: for Z/4 -> Z/2 with the negation action,
    S^3 gives 3/2 as the boundary of the 4-simplex and 2 after one P41 move.

    ``node_budget`` (None: ``default_budget()``) bounds both paths: the
    engine's search nodes (edge values tried along the closing order; see
    SearchBudgetExceededError), past which it raises
    SearchBudgetExceededError, and the entries of the oracle's largest
    table, past which it raises BudgetExceededError.  A negative budget
    raises ValueError.
    """
    node_budget = _budget(node_budget)
    if not cm.has_peiffer_identity:
        return brute_force_invariant(cm, c, node_budget)
    return _result(_search(cm, c, node_budget), cm, c)


# ---------------------------------------------------------------------------
# the 3-face consistency identity
# ---------------------------------------------------------------------------

def admissible_tet_colorings(cm: CrossedModule):
    """Every admissible coloring of the single-tet complex
    (``fixtures.single_tet``), each once: |G|^3 |H|^3 of them.

    Free parameters are the three edges at the least vertex and three of the
    four faces; the rest is forced by flatness and the tet constraint, which
    is exactly how the colorings are parametrized in the D^3 computation.
    """
    g, h = cm.g, cm.h
    # edge indices: 0:(12) 1:(13) 2:(14) 3:(23) 4:(24) 5:(34)
    for g12, g13, g14 in itertools.product(range(g.order), repeat=3):
        for h123, h124, h134 in itertools.product(range(h.order), repeat=3):
            g23 = g.word(g.inv(cm.bnd(h123)), g13, g.inv(g12))
            g24 = g.word(g.inv(cm.bnd(h124)), g14, g.inv(g12))
            g34 = g.word(g.inv(cm.bnd(h134)), g14, g.inv(g13))
            h234 = h.word(h.inv(h124), h134, cm.act(g34, h123))
            yield Coloring(edge_colors=(g12, g13, g14, g23, g24, g34),
                           face_colors=(h123, h124, h134, h234))


def consistency_check_3tet(cm: CrossedModule, coloring: Coloring) -> bool:
    """bnd(h134 * (g34 |> h123)) == bnd(h124 * h234) for the single tet.

    Holds for every coloring whose tet obstruction vanishes; checked on
    every coloring of ``admissible_tet_colorings``.
    """
    g, h = cm.g, cm.h
    g34 = coloring.edge_colors[5]
    h123, h124, h134, h234 = coloring.face_colors
    lhs = cm.bnd(h.mul(h134, cm.act(g34, h123)))
    rhs = cm.bnd(h.mul(h124, h234))
    return lhs == rhs
