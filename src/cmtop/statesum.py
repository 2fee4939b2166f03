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

Two engines compute N.  ``brute_force_invariant`` enumerates the full
coloring space |G|^|K1| * |H|^|K2| (budget-gated) and is the oracle; it is
the only code in the package that imports numpy, lazily, to sweep the
larger of the edge and face factors as arrays.  ``invariant`` backtracks
over edge colors and prunes faces whose required boundary image is outside
im(bnd).  When ker(bnd) is trivial each surviving edge coloring counts
once; otherwise it enumerates face colors through their kernel cosets and
resolves tet constraints by solving for the last unknown face.  It never
enumerates the full space, is bounded by a search-node budget, and must
agree with the oracle exactly wherever both run.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction

from .complexes import OrderedComplex
from .crossed_modules import CrossedModule
from .groups import FiniteGroup

DEFAULT_BUDGET = 10**8
BUDGET_ENV_VAR = "CMTOP_BUDGET"
_CHUNK = 1 << 20


class BudgetExceededError(RuntimeError):
    """The requested enumeration is larger than the configured budget."""


class SearchBudgetExceededError(RuntimeError):
    """The fast engine's node budget ran out (used to gate test sampling)."""


def default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    return int(raw) if raw else DEFAULT_BUDGET


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
        value = Fraction(n) * Fraction(g_order) ** a * Fraction(h_order) ** b
        return cls(value=value, admissible_count=n, g_exponent=a, h_exponent=b)

    def __str__(self) -> str:
        v = self.value
        return (f"Z = {v.numerator}/{v.denominator} "
                f"(N={self.admissible_count}, a={self.g_exponent}, b={self.h_exponent})")


def delta(x_group: FiniteGroup, x: int) -> int:
    """|X| if x is the identity, else 0."""
    if not 0 <= x < x_group.order:
        raise IndexError("element index out of range")
    return x_group.order if x == 0 else 0


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

def brute_force_invariant(cm: CrossedModule, c: OrderedComplex,
                          budget: int | None = None) -> InvariantValue:
    """Literal evaluation of the state sum over every coloring.

    The coloring space has |G|^|K1| * |H|^|K2| points; anything over the
    budget raises BudgetExceededError with a pointer at the fast engine.
    The enumeration loops python-side over the smaller of the two factors
    (the outer side) and sweeps the larger one (the inner side) as chunked
    numpy digit arrays.  This is the only place that uses numpy.
    """
    import numpy as np

    budget = default_budget() if budget is None else budget
    g, h = cm.g, cm.h
    E, F = len(c.edges), len(c.faces)
    total = g.order**E * h.order**F
    if total > budget:
        raise BudgetExceededError(
            f"{total} colorings exceed budget {budget}; use the fast engine "
            f"(invariant) or raise the budget")
    dtype = np.min_scalar_type(max(g.order, h.order) - 1)
    gt, ginv, ht, hinv, act, bnd = (
        np.asarray(x, dtype=dtype)
        for x in (g.table, g.inverses, h.table, h.inverses, cm.action, cm.boundary.map))
    image = cm.image_of_boundary()
    e23s = [c.faces[f123][2] for (_, _, _, f123) in c.tets]
    edges_outer = g.order**E <= h.order**F
    outer_radix, outer_len, inner_radix, inner_len = (
        (g.order, E, h.order, F) if edges_outer else (h.order, F, g.order, E))
    inner_total = inner_radix**inner_len
    count = 0
    for start in range(0, inner_total, _CHUNK):
        m = min(_CHUNK, inner_total - start)
        idx = np.arange(start, start + m, dtype=np.int64)
        inner = []
        for _ in range(inner_len):
            inner.append((idx % inner_radix).astype(dtype))
            idx //= inner_radix
        del idx
        # each face equation bnd(h_f) = g02 g01^-1 g12^-1, split into its
        # H-side and G-side terms; the inner side's terms are arrays built
        # once per chunk, the outer side's are scalars per outer assignment
        if edges_outer:
            hc = inner
            inner_terms = [bnd[y] for y in hc]
        else:
            ec = inner
            inner_terms = [gt[gt[ec[e02], ginv[ec[e01]]], ginv[ec[e12]]]
                           for (e01, e02, e12) in c.faces]
        for outer in itertools.product(range(outer_radix), repeat=outer_len):
            if edges_outer:
                ec = outer
                outer_terms = [g.word(ec[e02], g.inv(ec[e01]), g.inv(ec[e12]))
                               for (e01, e02, e12) in c.faces]
                if not image.issuperset(outer_terms):
                    continue  # no face coloring meets a requirement outside im(bnd)
            else:
                hc = outer
                outer_terms = [cm.bnd(y) for y in hc]
            mask = np.ones(m, dtype=bool)
            for inner_term, outer_term in zip(inner_terms, outer_terms):
                mask &= inner_term == outer_term
                if not mask.any():
                    break
            else:
                for t, (f012, f013, f023, f123) in enumerate(c.tets):
                    w = ht[ht[hc[f023], act[ec[e23s[t]], hc[f012]]],
                           ht[hinv[hc[f123]], hinv[hc[f013]]]]
                    mask &= w == 0
                    if not mask.any():
                        break
                count += int(np.count_nonzero(mask))
        del inner, inner_terms, hc, ec  # free this chunk before building the next
    return _result(count, cm, c)


# ---------------------------------------------------------------------------
# fast engine: edge backtracking + kernel-coset counting on faces
# ---------------------------------------------------------------------------

class _Engine:
    def __init__(self, cm: CrossedModule, c: OrderedComplex, node_budget: int | None):
        self.cm = cm
        self.c = c
        self.node_budget = node_budget
        self.nodes = 0
        g, h = cm.g, cm.h
        self.mul_g, self.inv_g = g.table, g.inverses
        self.mul_h, self.inv_h = h.table, h.inverses
        self.act = cm.action
        self.bnd = cm.boundary.map
        self.ker = sorted(cm.kernel_of_boundary())
        pre = [-1] * g.order
        for y in range(h.order - 1, -1, -1):
            pre[self.bnd[y]] = y
        self.pre = pre  # one preimage per image element, -1 outside the image
        self.faces = c.faces
        self.tets = c.tets

    def _plan_faces(self) -> None:
        """Kernel-coset elimination plans, one per component of faces linked
        through shared tets; faces in no tet are counted as free cosets."""
        self.tet_e23 = [self.faces[f123][2] for (_, _, _, f123) in self.tets]
        self.face_tets = [[] for _ in self.faces]
        for t, slots in enumerate(self.tets):
            for f in set(slots):
                self.face_tets[f].append(t)
        constrained = [f for f in range(len(self.faces)) if self.face_tets[f]]
        self.free_faces = len(self.faces) - len(constrained)
        self.plans = [self._component_plan(comp) for comp in self._components(constrained)]

    def _edge_order(self) -> list[int]:
        remaining = [len(set(f)) for f in self.faces]
        touch = [[] for _ in self.c.edges]
        for f, slots in enumerate(self.faces):
            for e in set(slots):
                touch[e].append(f)
        unassigned = set(range(len(self.c.edges)))
        order = []
        while unassigned:
            def score(e):
                completes = sum(1 for f in touch[e] if remaining[f] == 1)
                touches = sum(1 for f in touch[e] if remaining[f] > 0)
                return (completes, touches, -e)
            e = max(unassigned, key=score)
            unassigned.discard(e)
            order.append(e)
            for f in touch[e]:
                remaining[f] -= 1
        return order

    def _tick(self):
        self.nodes += 1
        if self.node_budget is not None and self.nodes > self.node_budget:
            raise SearchBudgetExceededError(
                f"fast engine exceeded {self.node_budget} search nodes")

    def run(self) -> int:
        E, F = len(self.c.edges), len(self.faces)
        if len(self.ker) == 1:
            # Trivial kernel: each face color is the unique preimage of its
            # holonomy requirement, and by equivariance bnd sends every tet
            # obstruction of such a coloring to e (it telescopes), so every
            # edge coloring whose requirements all lie in im(bnd) counts
            # exactly once: with no face plans every search leaf counts 1,
            # and with im(bnd) = G no search is needed.
            if -1 not in self.pre:
                return self.cm.g.order**E
            self.plans, self.free_faces = [], 0
        else:
            self._plan_faces()
        self.edge_order = self._edge_order()
        # faces become checkable once all their edges are assigned
        self.faces_done_at = [[] for _ in self.edge_order]
        pos = {e: i for i, e in enumerate(self.edge_order)}
        for f, slots in enumerate(self.faces):
            last = max(pos[e] for e in set(slots))
            self.faces_done_at[last].append(f)
        self.g_assign = [0] * E
        self.req = [-1] * F
        self.h_assign = [-1] * F
        return self._edge_dfs(0)

    def _edge_dfs(self, depth: int) -> int:
        if depth == len(self.edge_order):
            return self._count_h()
        e = self.edge_order[depth]
        mul, inv, ga = self.mul_g, self.inv_g, self.g_assign
        total = 0
        for val in range(self.cm.g.order):
            self._tick()
            ga[e] = val
            for f in self.faces_done_at[depth]:
                e01, e02, e12 = self.faces[f]
                r = mul[mul[ga[e02]][inv[ga[e01]]]][inv[ga[e12]]]
                if self.pre[r] < 0:
                    break
                self.req[f] = r
            else:
                total += self._edge_dfs(depth + 1)
        return total

    def _tet_word(self, t: int) -> int:
        f012, f013, f023, f123 = self.tets[t]
        ha = self.h_assign
        g23 = self.g_assign[self.tet_e23[t]]
        mh, ih = self.mul_h, self.inv_h
        return mh[mh[ha[f023]][self.act[g23][ha[f012]]]][mh[ih[ha[f123]]][ih[ha[f013]]]]

    # ----- kernel-coset counting over face colors, given all edge colors -----

    def _count_h(self) -> int:
        # faces in no tet contribute a free coset factor each
        total = len(self.ker) ** self.free_faces
        for plan in self.plans:
            total *= self._exec_plan(plan, 0)
            if total == 0:
                return 0
        return total

    def _components(self, constrained: list[int]) -> list[list[int]]:
        seen = set()
        comps = []
        for f0 in constrained:
            if f0 in seen:
                continue
            comp = []
            stack = [f0]
            seen.add(f0)
            while stack:
                f = stack.pop()
                comp.append(f)
                for t in self.face_tets[f]:
                    for f2 in set(self.tets[t]):
                        if f2 not in seen:
                            seen.add(f2)
                            stack.append(f2)
            comps.append(comp)
        return comps

    def _component_plan(self, comp: list[int]) -> list[tuple]:
        """Static elimination order for one constraint component.

        Ops: ("branch", f) enumerates f's kernel coset; ("force", case, f, t)
        solves tet t's obstruction for its single unassigned slot; ("check", t)
        verifies a fully-assigned tet.  Forced tets need no check: solving
        makes the obstruction vanish by construction.
        """
        comp_set = set(comp)
        comp_tets = sorted({t for f in comp for t in self.face_tets[f]})
        assigned: set[int] = set()
        done: set[int] = set()
        ops: list[tuple] = []
        while len(assigned) < len(comp_set) or len(done) < len(comp_tets):
            progress = False
            for t in comp_tets:
                if t in done:
                    continue
                slots = self.tets[t]
                unk = [f for f in set(slots) if f not in assigned]
                if not unk:
                    ops.append(("check", t))
                    done.add(t)
                    progress = True
                elif len(unk) == 1 and slots.count(unk[0]) == 1:
                    case = slots.index(unk[0])
                    ops.append(("force", case, unk[0], t))
                    assigned.add(unk[0])
                    done.add(t)
                    progress = True
            if progress:
                continue
            candidates = sorted(comp_set - assigned)
            if not candidates:
                continue  # loop exits via the check pass
            # prefer a face in the tet closest to being determined
            def urgency(f):
                best = min(
                    (len([x for x in set(self.tets[t]) if x not in assigned])
                     for t in self.face_tets[f] if t not in done),
                    default=5)
                return (best, -len(self.face_tets[f]), f)
            f = min(candidates, key=urgency)
            ops.append(("branch", f))
            assigned.add(f)
        return ops

    def _exec_plan(self, ops: list[tuple], i: int) -> int:
        mh, ih = self.mul_h, self.inv_h
        act = self.act
        ha = self.h_assign
        ga = self.g_assign
        while i < len(ops):
            op = ops[i]
            kind = op[0]
            if kind == "check":
                if self._tet_word(op[1]) != 0:
                    return 0
            elif kind == "force":
                _, case, u, t = op
                f012, f013, f023, f123 = self.tets[t]
                g23 = ga[self.tet_e23[t]]
                if case == 2:
                    # x * (g|>h012) * h123^-1 * h013^-1 = e
                    rest = mh[act[g23][ha[f012]]][mh[ih[ha[f123]]][ih[ha[f013]]]]
                    y = ih[rest]
                elif case == 0:
                    # h023 * (g|>x) * h123^-1 * h013^-1 = e
                    target = mh[mh[ih[ha[f023]]][ha[f013]]][ha[f123]]
                    y = act[self.inv_g[g23]][target]
                elif case == 3:
                    # x = h013^-1 * h023 * (g|>h012)
                    y = mh[mh[ih[ha[f013]]][ha[f023]]][act[g23][ha[f012]]]
                else:
                    # case 1: x = h023 * (g|>h012) * h123^-1
                    y = mh[mh[ha[f023]][act[g23][ha[f012]]]][ih[ha[f123]]]
                if self.bnd[y] != self.req[u]:
                    return 0
                ha[u] = y
            else:  # branch
                f = op[1]
                base = self.pre[self.req[f]]
                total = 0
                for k in self.ker:
                    self._tick()
                    ha[f] = mh[base][k]
                    total += self._exec_plan(ops, i + 1)
                return total
            i += 1
        return 1


def invariant(cm: CrossedModule, c: OrderedComplex, *,
              node_budget: int | None = None) -> InvariantValue:
    """Optimized engine; exact same contract as brute_force_invariant.

    Assumes ``cm`` satisfies the crossed-module axioms (as every module built
    by ``make_crossed_module`` or the file loader does): the trivial-kernel
    rule and the kernel-coset counting rely on them, so on a module that
    ``validate`` rejects the result need not match the oracle.
    ``node_budget`` bounds the search nodes; past it the engine raises
    SearchBudgetExceededError.
    """
    engine = _Engine(cm, c, node_budget)
    n = engine.run()
    return _result(n, cm, c)


# ---------------------------------------------------------------------------
# the 3-face consistency identity
# ---------------------------------------------------------------------------

def sample_admissible_tet_coloring(cm: CrossedModule, c: OrderedComplex, rng) -> Coloring:
    """Uniform admissible coloring of the single-tet complex.

    Free parameters are the three edges at the least vertex and three of the
    four faces; the rest is forced by flatness and the tet constraint, which
    is exactly how the colorings are parametrized in the D^3 computation.
    """
    if c.counts.as_tuple() != (4, 6, 4, 1):
        raise ValueError("expected the single-tet complex")
    g, h = cm.g, cm.h
    # edge indices: 0:(12) 1:(13) 2:(14) 3:(23) 4:(24) 5:(34)
    g12, g13, g14 = (rng.randrange(g.order) for _ in range(3))
    h123, h124, h134 = (rng.randrange(h.order) for _ in range(3))
    g23 = g.word(g.inv(cm.bnd(h123)), g13, g.inv(g12))
    g24 = g.word(g.inv(cm.bnd(h124)), g14, g.inv(g12))
    g34 = g.word(g.inv(cm.bnd(h134)), g14, g.inv(g13))
    h234 = h.word(h.inv(h124), h134, cm.act(g34, h123))
    coloring = Coloring(edge_colors=(g12, g13, g14, g23, g24, g34),
                        face_colors=(h123, h124, h134, h234))
    return coloring


def consistency_check_3tet(cm: CrossedModule, coloring: Coloring) -> bool:
    """bnd(h134 * (g34 |> h123)) == bnd(h124 * h234) for the single tet.

    Holds for every coloring whose tet obstruction vanishes; exercised as a
    property test over admissible samples.
    """
    g, h = cm.g, cm.h
    g34 = coloring.edge_colors[5]
    h123, h124, h134, h234 = coloring.face_colors
    lhs = cm.bnd(h.mul(h134, cm.act(g34, h123)))
    rhs = cm.bnd(h.mul(h124, h234))
    return lhs == rhs
