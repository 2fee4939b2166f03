"""Command-line front end.

Subcommands: validate-cm, validate-complex, invariant, move, word, reps,
selftest.  Complexes and crossed modules are given either as file paths or
as registry fixture names (single_tet, id_z2, ...).  Exit codes: 0 success,
1 validation/precondition failure, 2 usage error.  Output is plain text,
deterministic, and byte-identical across runs; --json emits a structured
report instead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import fileio, fixtures, knot_words, moves, selftest, statesum
from .crossed_modules import peiffer_violations
from .complexes import validate_manifold_basics


def _resolve(spec: str, load, build, names):
    """Load the file ``spec`` if it exists, else build the fixture of that name."""
    if os.path.exists(spec):
        return load(spec)
    if spec not in names:
        raise fileio.FormatError(
            f"{spec!r} is neither a readable file nor a fixture name "
            f"(fixtures: {', '.join(names)})")
    return build(spec)


def _load_cm(spec: str):
    return _resolve(spec, fileio.load_crossed_module, fixtures.crossed_module,
                    fixtures.CM_NAMES)


def _load_complex(spec: str):
    return _resolve(spec, fileio.load_complex, lambda name: fixtures.COMPLEXES[name](),
                    fixtures.COMPLEXES)


def _cmd_validate_cm(args) -> int:
    try:
        cm = _load_cm(args.path)
    except fileio.FormatError as exc:
        print(f"INVALID: {exc}")
        return 1
    peiffer = peiffer_violations(cm)
    if peiffer and not args.no_peiffer:
        print(f"INVALID crossed module {cm.name}:")
        for v in peiffer:
            print(f"  {v}")
        return 1
    for v in peiffer:  # warning-only mode still surfaces them
        print(f"  warning: {v}")
    if peiffer:
        print("  warning: without the Peiffer identity the state sum Z is not a "
              "triangulation invariant")
    print(f"OK crossed module {cm.name}: |H|={cm.h.order}, |G|={cm.g.order}, "
          f"|ker bnd|={len(cm.kernel_of_boundary())}")
    return 0


def _cmd_validate_complex(args) -> int:
    try:
        c = _load_complex(args.path)
    except fileio.FormatError as exc:
        print(f"INVALID: {exc}")
        return 1
    report = validate_manifold_basics(c)
    k = c.counts
    header = (f"complex: V={k.k0} E={k.k1} F={k.k2} T={k.k3}, "
              f"{len(c.boundary_face_indices())} boundary faces, "
              f"{'simplicial' if c.simplicial else 'delta'} mode")
    if report:
        print(f"INVALID {header}")
        for line in report:
            print(f"  {line}")
        return 1
    print(f"OK {header}")
    return 0


def _cmd_invariant(args) -> int:
    cm = _load_cm(args.cm)
    c = _load_complex(args.complex)
    if args.engine == "brute":
        value = statesum.brute_force_invariant(cm, c, budget=args.budget)
    else:
        value = statesum.invariant(cm, c, node_budget=args.budget)
    if args.json:
        v = value.value
        print(json.dumps({
            "engine": args.engine,
            "value": {"numerator": v.numerator, "denominator": v.denominator},
            "admissible_count": value.admissible_count,
            "g_exponent": value.g_exponent,
            "h_exponent": value.h_exponent,
        }, sort_keys=True))
    else:
        print(value)
    return 0


_MOVE_ALIASES = {
    "14": "P14", "41": "P41", "23": "P23", "32": "P32",
    "b13": "B13", "b31": "B31", "b22": "B22",
}

# the flag that names each kind's target
_TARGET_FLAGS = {"P14": "tet", "P23": "face", "B13": "face", "P32": "edge",
                 "B22": "edge", "P41": "vertex", "B31": "vertex"}


def _cmd_move(args) -> int:
    kind = _MOVE_ALIASES.get(args.move.lower(), args.move.upper())
    flag = next(k for k in ("tet", "face", "edge", "vertex") if getattr(args, k) is not None)
    if _TARGET_FLAGS.get(kind, flag) != flag:  # an unknown kind is refused by apply
        print(f"error: {kind} takes --{_TARGET_FLAGS[kind]}, not --{flag}", file=sys.stderr)
        return 2
    if (args.new_vertex is not None and kind in moves.MOVE_DELTAS
            and moves.MOVE_DELTAS[kind][0] <= 0):  # the vertex delta: 1 for P14 and B13
        print(f"error: {kind} adds no vertex, so it takes no --new-vertex", file=sys.stderr)
        return 2
    c = _load_complex(args.complex)
    out = moves.apply(c, moves.MoveDescriptor(kind, getattr(args, flag), args.new_vertex))
    text = fileio.format_complex(out)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_word(args) -> int:
    cm = _load_cm(args.cm)
    if args.builtin:
        w = knot_words.BUILTIN_WORDS[args.builtin]
    else:
        w = knot_words.GroupWord.parse(args.word)
    value = knot_words.word_state_sum(w, cm)
    if args.json:
        v = value.value
        print(json.dumps({"word": str(w),
                          "value": {"numerator": v.numerator,
                                    "denominator": v.denominator},
                          "hits": value.admissible_count}, sort_keys=True))
    else:
        print(value)
    return 0


def _cmd_reps(args) -> int:
    g = _resolve(args.group, fileio.load_group, fixtures.group, fixtures.GROUPS)
    if args.builtin:
        relator = knot_words.BUILTIN_WORDS[args.builtin].without_boundary_factor()
    else:
        relator = knot_words.GroupWord.parse(args.relator)
    n = knot_words.count_reps(relator, g)
    if args.json:
        print(json.dumps({"relator": str(relator), "group": g.name,
                          "count": n}, sort_keys=True))
    else:
        print(f"{n} representation(s) of <x,y | {relator}> in {g.name}")
    return 0


def _cmd_selftest(args) -> int:
    results = selftest.run_selftest()
    if args.json:
        print(json.dumps([r.as_dict() for r in results], sort_keys=True))
    else:
        for r in results:
            print(r.line())
            if r.finding:
                print(f"   finding: {r.finding}")
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cmtop",
        description="Exact crossed-module state-sum invariants of "
                    "triangulated compact 3-manifolds with boundary.")
    sub = p.add_subparsers(dest="command", required=True)

    vc = sub.add_parser("validate-cm", help="check a crossed-module file")
    vc.add_argument("path")
    vc.add_argument("--no-peiffer", action="store_true",
                    help="do not require the Peiffer identity (warn-only mode)")
    vc.set_defaults(func=_cmd_validate_cm)

    vx = sub.add_parser("validate-complex", help="check a complex file")
    vx.add_argument("path")
    vx.set_defaults(func=_cmd_validate_complex)

    inv = sub.add_parser("invariant", help="compute Z(M)")
    inv.add_argument("--complex", required=True)
    inv.add_argument("--cm", required=True)
    inv.add_argument("--engine", choices=("brute", "fast"), default="fast")
    inv.add_argument("--budget", type=int, default=None,
                     help="search nodes of the fast engine (edge values tried: "
                          "one per forced edge, one per coset representative "
                          "at a branch edge, none at a spanning-forest edge), "
                          "or entries of the oracle's largest table (--engine "
                          "brute, or a module without the Peiffer identity), "
                          f"allowed before exit 1 (default {statesum.DEFAULT_BUDGET}, "
                          f"env {statesum.BUDGET_ENV_VAR})")
    inv.add_argument("--json", action="store_true")
    inv.set_defaults(func=_cmd_invariant)

    mv = sub.add_parser("move", help="apply a bistellar move")
    mv.add_argument("--complex", required=True)
    mv.add_argument("--move", required=True,
                    help="one of 14, 41, 23, 32, b13, b31, b22")
    target = mv.add_mutually_exclusive_group(required=True)
    target.add_argument("--tet", type=int, help="the target of 14")
    target.add_argument("--face", type=int, help="the target of 23 and b13")
    target.add_argument("--edge", type=int, help="the target of 32 and b22")
    target.add_argument("--vertex", type=int, help="the target of 41 and b31")
    mv.add_argument("--new-vertex", type=int, default=None)
    mv.add_argument("--out", default=None)
    mv.set_defaults(func=_cmd_move)

    wd = sub.add_parser("word", help="knot-complement word state sum")
    wd.add_argument("--cm", required=True)
    word = wd.add_mutually_exclusive_group(required=True)
    word.add_argument("--word", help="letters X x Y y D, whitespace optional")
    word.add_argument("--builtin", choices=sorted(knot_words.BUILTIN_WORDS))
    wd.add_argument("--json", action="store_true")
    wd.set_defaults(func=_cmd_word)

    rp = sub.add_parser("reps", help="count relator solutions in a finite group")
    rp.add_argument("--group", required=True)
    relator = rp.add_mutually_exclusive_group(required=True)
    relator.add_argument("--relator")
    relator.add_argument("--builtin", choices=sorted(knot_words.BUILTIN_WORDS))
    rp.add_argument("--json", action="store_true")
    rp.set_defaults(func=_cmd_reps)

    st = sub.add_parser("selftest", help="run the acceptance suite")
    st.add_argument("--json", action="store_true")
    st.set_defaults(func=_cmd_selftest)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, statesum.BudgetExceededError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
