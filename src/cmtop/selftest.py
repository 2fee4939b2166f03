"""The acceptance suite: one callable per criterion, plus a driver.

Each criterion returns a CriterionResult with a pass flag, a one-line
detail string, and (for the enumeration checks that are allowed to surface
counterexamples) a documented-finding note.  Every criterion checks the
whole of its finite domain, with no sampling: every applicable move of
every trial complex under every fixture module, every vertex permutation
of each fixture, every assignment of the boundary equation system, every
admissible single-tet coloring and every single-token mutation of a
serialized module.  ``CRITERIA`` lists them once, as (number, name,
function): tests/test_acceptance.py runs each through pytest, and the CLI
``selftest`` subcommand prints one line per criterion.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction

from . import fixtures
from .complexes import relabel, validate_manifold_basics
from .crossed_modules import CrossedModule, make_crossed_module, validate
from .fileio import FormatError, format_crossed_module, parse_complex, parse_crossed_module
from .groups import GroupHom, build_cyclic, build_symmetric
from .knot_words import BUILTIN_WORDS, count_reps, verify_41_system, word_state_sum
from .moves import MOVE_DELTAS, apply, enumerate_applicable
from .statesum import (
    BudgetExceededError,
    admissible_tet_colorings,
    brute_force_invariant,
    consistency_check_3tet,
    invariant,
    is_admissible,
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    elapsed: float
    finding: str | None = None

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] criterion {self.number:2d} {self.name}: {self.details} ({self.elapsed:.1f}s)"

    def as_dict(self) -> dict:
        return {
            "number": self.number,
            "name": self.name,
            "passed": self.passed,
            "details": self.details,
            "elapsed_seconds": round(self.elapsed, 3),
            "finding": self.finding,
        }


def _timed(number, name, fn) -> CriterionResult:
    t0 = time.monotonic()
    try:
        passed, details, finding = fn()
    except Exception as exc:  # a crash is a failure, not an abort
        return CriterionResult(number, name, False, f"exception: {exc!r}",
                               time.monotonic() - t0)
    return CriterionResult(number, name, passed, details,
                           time.monotonic() - t0, finding)


# --- criteria 1-3: closed forms on three fixtures ----------------------------

def _closed_form(c, want, engines, limit, claim):
    """Z(c) == want(cm) for every fixture module under each engine, each
    call within ``limit`` seconds."""
    for name in fixtures.CM_NAMES:
        cm = fixtures.crossed_module(name)
        for engine in engines:
            t0 = time.monotonic()
            got = engine(cm, c).value
            dt = time.monotonic() - t0
            if got != want(cm):
                return False, f"{name}: Z = {got}, want {want(cm)}", None
            if dt >= limit:
                return False, f"{name}: took {dt:.1f}s (limit {limit:.0f}s)", None
    return True, f"{claim} for all {len(fixtures.CM_NAMES)} crossed modules", None


def criterion_1_disk():
    return _closed_form(fixtures.single_tet(), lambda cm: Fraction(cm.h.order, cm.g.order),
                        (invariant, brute_force_invariant), 10.0,
                        "Z(D^3) = |H|/|G| on both engines")


def criterion_2_solid_torus():
    return _closed_form(fixtures.solid_torus(), lambda cm: Fraction(1), (invariant,), 60.0,
                        "Z(D^2 x S^1) = 1")


def _sphere_interval_value(cm) -> Fraction:
    return Fraction(cm.h.order * len(cm.kernel_of_boundary()), cm.g.order)


def criterion_3_sphere_interval():
    pinned = _sphere_interval_value(fixtures.crossed_module("z4_to_z2"))
    if pinned != 4:
        return False, f"z4_to_z2: closed form sanity {pinned} != 4", None
    return _closed_form(fixtures.s2_interval(), _sphere_interval_value, (invariant,), 120.0,
                        "Z(S^2 x I) = |H| |ker bnd| / |G|")


# --- criterion 4: move invariance --------------------------------------------

def _move_trial_complexes():
    """Base fixtures plus one-step B13 derivatives, which is where B22 and
    B31 first become applicable."""
    out = {name: fixtures.COMPLEXES[name]() for name in fixtures.VALID_COMPLEX_NAMES}
    for name in ("single_tet", "solid_torus"):
        c = out[name]
        b13 = enumerate_applicable(c, "B13")
        if b13:
            out[f"{name}+B13"] = apply(c, b13[0])
    return out


def criterion_4_move_invariance():
    complexes = _move_trial_complexes()
    cms = [fixtures.crossed_module(name) for name in fixtures.CM_NAMES]
    checks = 0
    kinds_seen = set()
    for cname, c in complexes.items():
        before = [invariant(cm, c).value for cm in cms]
        for kind in MOVE_DELTAS:
            for m in enumerate_applicable(c, kind):
                moved = apply(c, m)
                for cm, want in zip(cms, before):
                    got = invariant(cm, moved).value
                    if got != want:
                        return False, (f"{cname} {kind} {m} with {cm.name}: "
                                       f"{want} != {got}"), None
                    checks += 1
                kinds_seen.add(kind)
    missing = set(MOVE_DELTAS) - kinds_seen
    if missing:
        return False, f"kinds {sorted(missing)} apply to no trial complex", None
    return True, (f"{checks} checks (every applicable move x every crossed module) "
                  f"exactly invariant (kinds {sorted(kinds_seen)})"), _non_peiffer_finding()


def _non_peiffer_finding() -> str:
    """Without the Peiffer identity Z is not a triangulation invariant:
    Z/4 -> Z/2 with the negation action on S^3, before and after one P41
    and one P32 move.  invariant computes this module with the oracle."""
    cm = make_crossed_module(build_cyclic(4), build_cyclic(2), [0, 1, 0, 1],
                             [list(range(4)), [-y % 4 for y in range(4)]], "z4z2_negation")
    s3 = fixtures.s3_boundary_4simplex()
    values = [invariant(cm, c).value for c in
              (s3, *(apply(s3, enumerate_applicable(s3, kind)[0]) for kind in ("P41", "P32")))]
    return (f"without the Peiffer identity Z depends on the triangulation: Z/4 -> Z/2 "
            f"with the negation action gives Z = {values[0]} on s3_boundary_4simplex, "
            f"{values[1]} after one P41 and {values[2]} after one P32")


# --- criterion 5: order invariance --------------------------------------------

_ORDER_INVARIANCE_CMS = {
    # non-bijective boundaries, so the engines do structure-dependent work
    "single_tet": "z4_to_z2",
    "s3_boundary_4simplex": "trivh_z2",
    "solid_torus": "trivh_s3",
    "s2_interval": "z4_to_z2",
}


def criterion_5_order_invariance():
    count = 0
    for cname in fixtures.VALID_COMPLEX_NAMES:
        c = fixtures.COMPLEXES[cname]()
        cm_name = _ORDER_INVARIANCE_CMS[cname]
        cm = fixtures.crossed_module(cm_name)
        base = invariant(cm, c).value
        ids = list(c.vertices)
        for perm in itertools.permutations(ids):
            got = invariant(cm, relabel(c, dict(zip(ids, perm)))).value
            if got != base:
                return False, f"{cname} under {cm_name}: {got} != {base}", None
            count += 1
    return True, (f"all {count} vertex relabelings of the fixtures leave Z "
                  f"unchanged exactly"), None


# --- criterion 6: engine equivalence ------------------------------------------

def criterion_6_engine_equivalence():
    ran, refused = 0, 0
    for cname, build in fixtures.COMPLEXES.items():
        if cname == "broken_complex":
            continue
        c = build()
        for name in fixtures.CM_NAMES:
            cm = fixtures.crossed_module(name)
            try:
                slow = brute_force_invariant(cm, c)
            except BudgetExceededError:
                refused += 1
                continue
            fast = invariant(cm, c)
            if slow.value != fast.value or slow.admissible_count != fast.admissible_count:
                return False, f"{cname} x {name}: {slow.value} != {fast.value}", None
            ran += 1
    return True, (f"fast == brute on all {ran} fixture pairs within the oracle's "
                  f"budget ({refused} pairs it refuses left out)"), None


# --- criterion 7: knot words ---------------------------------------------------

def criterion_7_knot_words():
    from .crossed_modules import trivial_h_cm

    t0 = time.monotonic()
    groups = [build_cyclic(2), build_cyclic(3), build_cyclic(6), build_symmetric(3)]
    for wname, w in sorted(BUILTIN_WORDS.items()):
        relator = w.without_boundary_factor()
        for g in groups:
            reps = count_reps(relator, g)
            z = word_state_sum(w, trivial_h_cm(g)).value
            if Fraction(g.order) * z != reps:
                return False, f"{wname} over {g.name}: |G| Z = {g.order * z} != {reps}", None
    dt = time.monotonic() - t0
    if dt >= 10.0:
        return False, f"took {dt:.1f}s (limit 10s)", None
    return True, "|G| * word sum == representation count for fig8/t52/k52 over Z2,Z3,Z6,S3", None


# --- criterion 8: the 41a-41d system -------------------------------------------

def criterion_8_boundary_system():
    reports = [verify_41_system(g)
               for g in (build_cyclic(2), build_cyclic(3), build_symmetric(3))]
    finding_lines = []
    for rep in reports:
        if not rep.clean:
            finding_lines.append(rep.summary())
            if rep.d_witnesses:
                finding_lines.append(f"  first witnesses (b,r,g11',g3'4',g2'2'',g3''4',g1'2): "
                                     f"{rep.d_witnesses[:3]}")
    if not finding_lines:
        return True, "no counterexamples in the boundary equation system", None
    # counterexamples exist: they are printed and recorded as a documented
    # finding (the displayed equations identify g_3''4 with g_3''4'; under
    # that reading the fourth equation reduces to 2 g_3''4' = e in abelian
    # groups).  The criterion passes with the finding attached.
    finding = "; ".join(finding_lines)
    z2_clean = reports[0].clean
    abelian_pattern = all(s != 0 for (_, _, _, _, s, _, _) in reports[1].d_witnesses)
    passed = z2_clean and abelian_pattern
    return passed, ("counterexamples found and characterized; see finding "
                    f"(Z2 clean: {z2_clean})"), finding


# --- criterion 9: the 3-face consistency identity -------------------------------

def criterion_9_consistency():
    c = fixtures.single_tet()
    count = 0
    for name in fixtures.CM_NAMES:
        cm = fixtures.crossed_module(name)
        n = 0
        for col in admissible_tet_colorings(cm):
            if not is_admissible(cm, c, col):
                return False, f"{name}: enumerated an inadmissible coloring", None
            if not consistency_check_3tet(cm, col):
                return False, f"{name}: identity fails at {col}", None
            n += 1
        # distinct parameters give distinct colorings, so matching N means
        # every admissible coloring was checked
        want = invariant(cm, c).admissible_count
        if n != want:
            return False, f"{name}: enumerated {n} colorings, N = {want}", None
        count += n
    return True, (f"all {count} admissible single-tet colorings, zero "
                  f"violations"), None


# --- criterion 10: mutation rejection -------------------------------------------

def _cm_mutations(cm: CrossedModule):
    for x in range(cm.g.order):
        for y in range(cm.h.order):
            for v in range(cm.h.order):
                if v != cm.action[x][y]:
                    action = [list(row) for row in cm.action]
                    action[x][y] = v
                    yield CrossedModule(cm.h, cm.g, cm.boundary, action, "mut")
    for y in range(cm.h.order):
        for v in range(cm.g.order):
            if v != cm.boundary.map[y]:
                images = list(cm.boundary.map)
                images[y] = v
                yield CrossedModule(cm.h, cm.g, GroupHom(cm.h, cm.g, tuple(images)),
                                    cm.action, "mut")


def criterion_10_validation():
    # every single-entry mutation of these fixtures breaks an axiom and is
    # caught with a witness; the deliberately broken fixtures are rejected
    count = 0
    for name in ("id_z3", "conj_z2z2", "z4_to_z2"):
        cm = fixtures.crossed_module(name)
        for mutant in _cm_mutations(cm):
            if not validate(mutant):
                return False, f"{name}: mutation produced a valid table (unexpected here)", None
            count += 1
    broken = fixtures.broken_cm()
    if not validate(broken):
        return False, "broken_cm not rejected", None
    complex_report = validate_manifold_basics(fixtures.broken_complex())
    if not any("tet slots" in line for line in complex_report):
        return False, "broken_complex not reported", None
    # file-level mutations: changing any one table, delta or action entry
    # of the serialized id_z3 fixture to either other value in 0..2 makes
    # the loader reject it with a located error
    lines = format_crossed_module(fixtures.crossed_module("id_z3")).splitlines()
    rejected = 0
    for ln, line in enumerate(lines):
        parts = line.split()
        if parts[0] in ("cmod", "group_h", "group_g", "action"):
            continue
        for col in range(1 if parts[0] == "delta" else 0, len(parts)):
            for shift in (1, 2):
                mutated = list(parts)
                mutated[col] = str((int(parts[col]) + shift) % 3)
                body = lines[:ln] + [" ".join(mutated)] + lines[ln + 1:]
                try:
                    parse_crossed_module("\n".join(body), "<mutated>")
                except FormatError:
                    rejected += 1
                    continue
                return False, f"mutated crossed-module file accepted: {mutated}", None
    bad_complex = "tet 1 2 3 3\n"
    try:
        parse_complex(bad_complex, "<mutated>")
        return False, "degenerate tet accepted", None
    except FormatError:
        pass
    return True, (f"{count} single-entry table mutations all rejected with "
                  f"witnesses; {rejected} file mutations rejected"), None


# --- driver ---------------------------------------------------------------------

CRITERIA = (
    (1, "disk value", criterion_1_disk),
    (2, "solid torus", criterion_2_solid_torus),
    (3, "sphere x interval", criterion_3_sphere_interval),
    (4, "move invariance", criterion_4_move_invariance),
    (5, "order invariance", criterion_5_order_invariance),
    (6, "engine equivalence", criterion_6_engine_equivalence),
    (7, "knot words", criterion_7_knot_words),
    (8, "boundary equation system", criterion_8_boundary_system),
    (9, "consistency identity", criterion_9_consistency),
    (10, "mutation validation", criterion_10_validation),
)


def run_selftest():
    return [_timed(num, name, fn) for num, name, fn in CRITERIA]
