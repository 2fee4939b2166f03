"""The three workloads: seeded inputs built in set-up, then one round of
operations that is repeated unchanged for as long as the run lasts.

Every call into cmtop goes through ``Ops.call``, which counts it as one
operation, wraps it in a span named after the layer's public function,
and checks its output with ``checks``.  A call that raises, or whose output
fails its check, is a failed operation.  The only failure expected today
is ``SearchBudgetExceededError`` on the engine_search pairs listed in the
README.
"""

from __future__ import annotations

import random
from collections import Counter

from cmtop import fixtures
from cmtop.complexes import relabel
from cmtop.crossed_modules import validate
from cmtop.moves import apply, enumerate_applicable
from cmtop.statesum import SearchBudgetExceededError, brute_force_invariant, invariant

import checks

COMPLEX_NAMES = ("single_tet", "two_tet_ball", "s3_boundary_4simplex",
                 "solid_torus", "s2_interval", "s2_interval_big")

# engine_search: one node budget for every pair.  The pairs it cannot hold
# are listed in the README; all of them need more than 10^6 nodes today and
# every pair that succeeds needs under 4 * 10^5.
NODE_BUDGET = 500_000

# oracle_sweep: every fixture pair whose coloring space is within the
# oracle's default budget, except the four slowest (39 s together today),
# which would leave room for no more than one round in a run.
ORACLE_BUDGET = 10**8
ORACLE_LEFT_OUT = frozenset({
    ("s3_boundary_4simplex", "trivh_s3"),
    ("s2_interval", "id_z2"),
    ("solid_torus", "trivh_s3"),
    ("two_tet_ball", "trivh_s3"),
})

# move_walk: (start fixture, tet count at which the walk stops).
WALK_STARTS = (("single_tet", 150), ("solid_torus", 60), ("s2_interval", 60))
# Kinds tried in turn; three growing kinds outweigh the shrinking ones.
WALK_SCHEDULE = ("P14", "P23", "P14", "B13", "P32", "P14", "B22", "P14",
                 "P41", "P23", "B13", "B31", "P14")
# While the complex has at most this many vertices, every move is bracketed
# by invariant calls and followed by a relabeling.
SMALL_V = 10
# A cheap module must keep |G|^V, the order of the admissible count for
# trivial H, under this bound; identity modules take the bijective path.
CHEAP_MODULES = ("id_z2", "id_z3", "id_s3", "trivh_z2", "trivh_z3", "trivh_s3")
CHEAP_BOUND = 4096
# Tet counts at which every move kind is enumerated once.
CHECKPOINTS = (50, 100, 150)
ALL_KINDS = ("P14", "P41", "P23", "P32", "B13", "B31", "B22")

WORKLOADS = ("engine_search", "move_walk", "oracle_sweep")


class Ops:
    """Operation accounting for one run, shared by all its rounds."""

    def __init__(self, tracer, clock):
        self.tracer = tracer
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.expected = Counter()  # expected failures by span name
        self.expected_where: set[str] = set()  # and by operation label
        self.problems: list[str] = []  # wrong outputs and unexpected errors

    def call(self, name, fn, check=None, tag=None, expected=(), label=None):
        self.attempted += 1
        try:
            with self.tracer.span(name, tag):
                out = fn()
        except expected:
            self.failed += 1
            self.expected[name] += 1
            if label is not None:
                self.expected_where.add(label)
            out = None
        except Exception as exc:  # recorded; the round goes on
            self.failed += 1
            self.problems.append(f"{name}: {exc!r}")
            out = None
        else:
            reason = check(out) if check is not None else None
            if reason is not None:
                self.failed += 1
                self.problems.append(f"{name}: {reason}")
                out = None
        self.clock.tick()
        return out


def build_fixtures(tracer):
    """Every valid fixture complex and every shipped crossed module,
    each module validated once more through the public validator."""
    with tracer.span("fixtures.build"):
        complexes = {name: fixtures.COMPLEXES[name]() for name in COMPLEX_NAMES}
        modules = {name: fixtures.crossed_module(name) for name in fixtures.CM_NAMES}
    for name, cm in modules.items():
        with tracer.span("crossed_modules.validate"):
            report = validate(cm)
        if report:
            raise ValueError(f"fixture {name} fails validation: {report[0]}")
    return complexes, modules


def _bijective(cm) -> bool:
    return sorted(cm.boundary.map) == list(range(cm.g.order))


def _invariant_call(ops, cm, c, manifold, node_budget=None, label=None):
    return ops.call(
        "statesum.invariant",
        lambda: invariant(cm, c, node_budget=node_budget),
        check=lambda v: checks.check_value(v, cm, c, manifold),
        tag="iso" if _bijective(cm) else None,
        expected=(SearchBudgetExceededError,) if node_budget is not None else (),
        label=label)


# --- engine_search --------------------------------------------------------

def engine_search_inputs(seed, complexes, modules, tracer):
    pairs = [(cn, mn) for cn in COMPLEX_NAMES for mn in fixtures.CM_NAMES]
    random.Random(seed).shuffle(pairs)
    return pairs


def engine_search_round(ops, pairs, complexes, modules):
    for cn, mn in pairs:
        _invariant_call(ops, modules[mn], complexes[cn], checks.MANIFOLD[cn],
                        NODE_BUDGET, label=f"{cn} x {mn}")


# --- oracle_sweep ---------------------------------------------------------

def oracle_pairs(complexes, modules):
    out = []
    for cn in COMPLEX_NAMES:
        c = complexes[cn]
        for mn in fixtures.CM_NAMES:
            cm = modules[mn]
            if (cn, mn) in ORACLE_LEFT_OUT:
                continue
            if cm.g.order ** len(c.edges) * cm.h.order ** len(c.faces) <= ORACLE_BUDGET:
                out.append((cn, mn))
    return out


def _shuffled_labels(c, rng):
    ids = list(c.vertices)
    image = ids[:]
    rng.shuffle(image)
    return dict(zip(ids, image))


def oracle_sweep_inputs(seed, complexes, modules, tracer):
    """Each pair's complex under a seeded relabeling, in seeded order."""
    rng = random.Random(seed)
    pairs = oracle_pairs(complexes, modules)
    rng.shuffle(pairs)
    out = []
    for cn, mn in pairs:
        perm = _shuffled_labels(complexes[cn], rng)
        with tracer.span("complexes.relabel"):
            c = relabel(complexes[cn], perm)
        reason = checks.check_relabel(complexes[cn], c)
        if reason is not None:
            raise ValueError(f"set-up relabel of {cn}: {reason}")
        out.append((cn, mn, c))
    return out


def oracle_sweep_round(ops, items, complexes, modules):
    for cn, mn, c in items:
        cm = modules[mn]
        g_side = cm.g.order ** len(c.edges)
        h_side = cm.h.order ** len(c.faces)
        ops.tracer.count("statesum.brute_colorings", g_side * h_side)
        ops.call("statesum.brute_force_invariant",
                 lambda: brute_force_invariant(cm, c),
                 check=lambda v: checks.check_value(v, cm, c, checks.MANIFOLD[cn]),
                 tag="edge" if g_side <= h_side else "face")


# --- move_walk --------------------------------------------------------------

def move_walk_inputs(seed, complexes, modules, tracer):
    rng = random.Random(seed)
    return [(start, target, rng.randrange(2**32)) for start, target in WALK_STARTS]


def candidates(c, kind: str) -> int:
    """How many descriptors enumerate_applicable has to try for this kind."""
    boundary = sum(1 for inc in c.face_incidence if len(inc) == 1)
    return {"P14": len(c.tets), "B13": boundary, "P23": len(c.faces) - boundary,
            "P32": len(c.edges), "B22": len(c.edges),
            "P41": len(c.vertices), "B31": len(c.vertices)}[kind]


def _enumerate(ops, c, kind):
    ops.tracer.count("moves.enumerate_candidates", candidates(c, kind))
    found = ops.call("moves.enumerate_applicable",
                     lambda: enumerate_applicable(c, kind),
                     check=lambda ms: checks.check_enumeration(ms, kind))
    ops.tracer.count("moves.enumerate_found", len(found or ()))
    return found or []


def _walk(ops, c, target, walk_seed, manifold, modules):
    rng = random.Random(walk_seed)
    checkpoints = [t for t in CHECKPOINTS if t <= target]
    step = 0
    while len(c.tets) < target:
        kind = WALK_SCHEDULE[step % len(WALK_SCHEDULE)]
        step += 1
        found = _enumerate(ops, c, kind)
        if not found:
            continue
        m = rng.choice(found)
        small = len(c.vertices) <= SMALL_V
        if small:
            allowed = [n for n in CHEAP_MODULES
                       if _bijective(modules[n]) or modules[n].g.order ** len(c.vertices) <= CHEAP_BOUND]
            cm = modules[rng.choice(allowed)]
            _invariant_call(ops, cm, c, manifold)
        before = c
        after = ops.call("moves.apply", lambda: apply(before, m),
                         check=lambda d: checks.check_move(before, d, kind))
        if after is None:
            continue
        c = after
        if small:
            _invariant_call(ops, cm, c, manifold)
            perm = _shuffled_labels(c, rng)
            relabeled = ops.call("complexes.relabel", lambda: relabel(after, perm),
                                 check=lambda r: checks.check_relabel(after, r))
            if relabeled is not None:
                c = relabeled
                _invariant_call(ops, cm, c, manifold)
        while checkpoints and len(c.tets) >= checkpoints[0]:
            checkpoints.pop(0)
            for k in ALL_KINDS:
                _enumerate(ops, c, k)
    return c


def move_walk_round(ops, walks, complexes, modules):
    """Each walk ends with one invariant call under id_z2 on its final,
    largest complex: all engine set-up, since the boundary is bijective."""
    for start, target, walk_seed in walks:
        manifold = checks.MANIFOLD[start]
        end = _walk(ops, complexes[start], target, walk_seed, manifold, modules)
        _invariant_call(ops, modules["id_z2"], end, manifold)


INPUTS = {"engine_search": engine_search_inputs,
          "move_walk": move_walk_inputs,
          "oracle_sweep": oracle_sweep_inputs}
ROUNDS = {"engine_search": engine_search_round,
          "move_walk": move_walk_round,
          "oracle_sweep": oracle_sweep_round}
