import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cmtop
from cmtop import fixtures
from cmtop.cli import main
from cmtop.complexes import OrderedComplex, are_isomorphic, relabel
from cmtop.crossed_modules import make_crossed_module, peiffer_violations
from cmtop.fileio import (
    FormatError,
    format_complex,
    format_crossed_module,
    format_group,
    load_complex,
    load_crossed_module,
    load_group,
    parse_complex,
    parse_crossed_module,
    parse_group,
)
from cmtop.groups import build_cyclic
from cmtop.moves import MOVE_KINDS, apply, enumerate_applicable
from cmtop.statesum import DEFAULT_BUDGET, invariant


def test_group_round_trip(tmp_path):
    for name in fixtures.GROUPS:
        g = fixtures.group(name)
        path = tmp_path / f"{name}.grp"
        path.write_text(format_group(g))
        assert load_group(path) == g


def test_group_parse_rejects_bad_files():
    with pytest.raises(FormatError, match="expected header"):
        parse_group("nope 2\n0 1\n1 0")
    with pytest.raises(FormatError, match="identity"):
        parse_group("group g 2\n1 0\n0 1")  # 0 is not the identity
    with pytest.raises(FormatError, match="expected 2 entries"):
        parse_group("group g 2\n0 1 1\n1 0")
    with pytest.raises(FormatError, match="associativity|inverse|closed"):
        parse_group("group g 3\n0 1 2\n1 0 0\n2 0 0")


def test_group_order_must_be_a_positive_integer(tmp_path):
    # one order check for group files and inline tables, at the header's line
    for order in ("-1", "0"):
        message = f"order '{order}' is not a positive integer"
        with pytest.raises(FormatError) as exc:
            parse_group(f"group G {order}\n")
        assert str(exc.value) == f"<group>:1: {message}"
        (tmp_path / "g.grp").write_text(f"group G {order}\n0 1\n1 0\n")
        (tmp_path / "m.cmod").write_text("cmod m\ngroup_h file g.grp\n")
        with pytest.raises(FormatError) as exc:
            load_crossed_module(tmp_path / "m.cmod")
        assert str(exc.value) == f"{tmp_path / 'g.grp'}:1: {message}"
        with pytest.raises(FormatError) as exc:
            parse_crossed_module(f"cmod m\ngroup_h inline G {order}\n0 1\n1 0\n")
        assert str(exc.value) == f"<cmod>:2: {message}"


def test_crossed_module_round_trip(tmp_path):
    for name in fixtures.CM_NAMES:
        cm = fixtures.crossed_module(name)
        path = tmp_path / f"{name}.cmod"
        path.write_text(format_crossed_module(cm))
        assert load_crossed_module(path) == cm


def test_crossed_module_group_by_file(tmp_path):
    (tmp_path / "z2.grp").write_text(format_group(fixtures.group("z2")))
    text = (
        "cmod file_based\n"
        "group_h file z2.grp\n"
        "group_g file z2.grp\n"
        "delta 0 1\n"
        "action\n"
        "0 1\n"
        "0 1\n"
    )
    cmod = tmp_path / "m.cmod"
    cmod.write_text(text)
    cm = load_crossed_module(cmod)
    assert cm.h.order == cm.g.order == 2


def test_crossed_module_loader_reports_axiom_violation():
    text = (
        "cmod broken\n"
        "group_h inline z2 2\n"
        "0 1\n"
        "1 0\n"
        "group_g inline z2 2\n"
        "0 1\n"
        "1 0\n"
        "delta 0 1\n"
        "action\n"
        "0 1\n"
        "1 0\n"  # e |> y != y would be fine, but this breaks equivariance
    )
    with pytest.raises(FormatError, match="invalid crossed module"):
        parse_crossed_module(text)


def test_complex_simplicial_round_trip(tmp_path):
    c = fixtures.s3_boundary_4simplex()
    path = tmp_path / "s3.tri"
    path.write_text(format_complex(c))
    assert "tet 1 2 3 4" in path.read_text()
    back = load_complex(path)
    assert back == c


def test_complex_delta_round_trip(tmp_path):
    # delta mode keeps declaration order, so the tables come back as written
    for name in ("solid_torus", "s2_interval"):
        c = fixtures.COMPLEXES[name]()
        path = tmp_path / f"{name}.tri"
        path.write_text(format_complex(c))
        assert load_complex(path) == c


def test_complex_round_trip_over_every_fixture():
    rng, walked, moves = random.Random(0), fixtures.s3_boundary_4simplex(), 0
    while moves < 20:  # a seeded 20-move walk
        found = enumerate_applicable(walked, rng.choice(MOVE_KINDS))
        if found:
            walked, moves = apply(walked, rng.choice(found)), moves + 1
    ids = list(walked.vertices)
    rng.shuffle(ids)
    cases = [fixtures.COMPLEXES[name]() for name in fixtures.COMPLEXES if name != "s2_interval_big"]
    cases += [walked, relabel(walked, dict(zip(walked.vertices, ids)))]
    for c in cases:
        assert parse_complex(format_complex(c)) == c
    # s2_interval_big is built by prism_product but written as a tet list,
    # which the reader numbers in sorted order: the same complex, renumbered
    big = fixtures.s2_interval_big()
    back = parse_complex(format_complex(big))
    assert back != big and are_isomorphic(back, big)


def test_simplicial_tets_are_read_in_any_vertex_order():
    assert parse_complex("tet 4 3 2 1\n") == parse_complex("tet 1 2 3 4\n")
    assert parse_complex("tet 5 3 4 2\ntet 3 1 4 2\n") == fixtures.two_tet_ball()
    with pytest.raises(FormatError, match="must have 4 distinct vertices"):
        parse_complex("tet 3 1 3 2\n")


# single_tet's Δ-mode tables plus an isolated vertex 9
PT_TRI = """vertex 9
edge 0 1 2
edge 1 1 3
edge 2 1 4
edge 3 2 3
edge 4 2 4
edge 5 3 4
face 0 0 1 3
face 1 0 2 4
face 2 1 2 5
face 3 3 4 5
tet 0 0 1 2 3
"""


def test_complex_round_trip_keeps_simplices_in_no_tet():
    c = fixtures.single_tet()
    stray_edge = OrderedComplex((1, 2, 3, 4, 5), c.edges + ((1, 5),), c.faces, c.tets)
    trivh_z2 = fixtures.crossed_module("trivh_z2")
    for c in (parse_complex(PT_TRI), stray_edge):
        back = parse_complex(format_complex(c))
        assert back.counts == c.counts
        assert invariant(trivh_z2, back) == invariant(trivh_z2, c)
    assert invariant(trivh_z2, parse_complex(PT_TRI)).value == Fraction(1, 4)


def test_complex_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError, match="<x>:1"):
        parse_complex("tet 1 2 3\n", "<x>")
    with pytest.raises(FormatError, match="distinct"):
        parse_complex("tet 1 2 3 3\n", "<x>")
    with pytest.raises(FormatError, match="<x>:2.*unknown edge"):
        parse_complex("edge 0 1 2\nface 0 0 0 7\n", "<x>")
    with pytest.raises(FormatError, match="consistent"):
        parse_complex("edge 0 1 2\nedge 1 1 3\nedge 2 1 3\nface 0 0 1 2\n", "<x>")
    with pytest.raises(FormatError, match="empty"):
        parse_complex("# nothing\n", "<x>")


def test_cli_invariant_matches_spec_example(capsys):
    assert main(["invariant", "--complex", "single_tet", "--cm", "id_z2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Z = 1/1")


def test_cli_invariant_brute_and_json(capsys):
    assert main(["invariant", "--complex", "single_tet", "--cm", "z4_to_z2",
                 "--engine", "brute", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == {"numerator": 2, "denominator": 1}
    assert payload["engine"] == "brute"


def test_cli_validate_cm_rejects_broken(tmp_path, capsys):
    cm = fixtures.crossed_module("id_z3")
    text = format_crossed_module(cm).replace("action\n0 1 2\n", "action\n0 2 1\n")
    bad = tmp_path / "broken.cmod"
    bad.write_text(text)
    assert main(["validate-cm", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out


def test_cli_validate_cm_no_peiffer_warns_that_z_is_not_invariant(tmp_path, capsys):
    # Z/4 -> Z/2 with the negation action: valid, but Peiffer fails
    cm = make_crossed_module(build_cyclic(4), build_cyclic(2), [0, 1, 0, 1],
                             [[0, 1, 2, 3], [0, 3, 2, 1]], "z4z2_twisted")
    path = tmp_path / "twisted.cmod"
    path.write_text(format_crossed_module(cm))
    assert main(["validate-cm", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "INVALID crossed module z4z2_twisted:"
    assert out[1:] == [f"  {v}" for v in peiffer_violations(cm)] and len(out) == 5
    assert main(["validate-cm", str(path), "--no-peiffer"]) == 0
    warnings = [line for line in capsys.readouterr().out.splitlines() if "warning:" in line]
    assert warnings[-1] == ("  warning: without the Peiffer identity the state sum Z "
                            "is not a triangulation invariant")
    assert all("peiffer at" in line for line in warnings[:-1]) and len(warnings) > 1
    # a Peiffer module prints no warning
    path.write_text(format_crossed_module(fixtures.crossed_module("z4_to_z2")))
    assert main(["validate-cm", str(path), "--no-peiffer"]) == 0
    assert "warning:" not in capsys.readouterr().out


def test_cli_malformed_crossed_module_file_names_the_line(tmp_path, capsys):
    good = format_crossed_module(fixtures.crossed_module("id_z2")).splitlines()
    assert good[1] == "group_h inline Z2 2"
    cases = [
        (["group_h file"] + good[4:], "bad.cmod:2", "group_h file <path>"),
        (["group_h file ."] + good[4:], "bad.cmod:2", "cannot read '.'"),
        (["group_h file none.grp"] + good[4:], "bad.cmod:2", "cannot read 'none.grp'"),
        (["group_h inline Z2 two"] + good[2:], "bad.cmod:2", "'two' is not a positive integer"),
        (["group_h inline Z2 3"] + good[2:4], "bad.cmod:2",
         "group_h table ends after 2 of 3 rows"),
        # a short table stops at the next directive, not at its first token
        (["group_h inline Z2 3"] + good[2:], "bad.cmod:2",
         "group_h table ends after 2 of 3 rows"),
        # a bad row is located at its own line of the file
        (["group_h inline Z2 2", "0 1", "0 x"] + good[4:], "bad.cmod:4",
         "non-integer table entry in ['0', 'x']"),
        # a wrong-length delta at its line; a bad or surplus action row at
        # its own line, missing action rows at the action line
        (good[1:7] + ["delta 0 1 1"] + good[8:], "bad.cmod:8", "delta has 3 images, |H| = 2"),
        (good[1:10] + ["0 1 1"], "bad.cmod:11", "action block must be 2 rows of 2 entries"),
        (good[1:] + ["0 1"], "bad.cmod:12", "action block must be 2 rows of 2 entries"),
        (good[1:10], "bad.cmod:9", "action block must be 2 rows of 2 entries"),
        # a group file one row short, at its header line
        (["group_h file short.grp"] + good[4:], "short.grp:2",
         "expected 2 table rows, got 1"),
    ]
    (tmp_path / "short.grp").write_text("# one row short\ngroup Z2 2\n0 1\n")
    for body, location, message in cases:
        path = tmp_path / "bad.cmod"
        path.write_text("\n".join(good[:1] + body) + "\n")
        expected = f"{tmp_path / location}: "
        assert main(["validate-cm", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"INVALID: {expected}") and message in out, out
        assert main(["invariant", "--complex", "single_tet", "--cm", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {expected}") and message in err, err


def test_crossed_module_lines_refuse_extra_tokens(tmp_path):
    # a group line or the action line with a token past its form is refused
    # at that line, as the cmod, group and delta lines are; without the
    # extra token each text loads as the module
    good = format_crossed_module(fixtures.crossed_module("id_z2")).splitlines()
    (tmp_path / "z2.grp").write_text("group Z2 2\n0 1\n1 0\n")
    group_form = "expected 'group_h file <path>' or 'group_h inline <name> <order>'"
    cases = [
        (["group_h file z2.grp", "junk"], good[4:], 2, group_form),
        (["group_h inline Z2 2", "junk"], good[2:], 2, group_form),
        (good[1:8] + ["action", "7 7"], good[9:], 9,
         "expected 'action' alone, with its rows on the lines below"),
    ]
    for (*head, line, extra), tail, lineno, message in cases:
        clean = "\n".join(good[:1] + head + [line] + tail) + "\n"
        assert parse_crossed_module(clean, "bad.cmod", tmp_path) == fixtures.crossed_module("id_z2")
        text = "\n".join(good[:1] + head + [f"{line} {extra}"] + tail) + "\n"
        with pytest.raises(FormatError) as refused:
            parse_crossed_module(text, "bad.cmod", tmp_path)
        assert str(refused.value) == f"bad.cmod:{lineno}: {message}"


def test_non_peiffer_file_loads_and_computes_like_the_module(tmp_path):
    # the loaders check the definition only; the Peiffer identity is a
    # property that validate-cm and the engine read
    cm = make_crossed_module(build_cyclic(4), build_cyclic(2), [0, 1, 0, 1],
                             [[0, 1, 2, 3], [0, 3, 2, 1]], "z4z2_twisted")
    path = tmp_path / "twisted.cmod"
    path.write_text(format_crossed_module(cm))
    back = load_crossed_module(path)
    assert back == cm and len(peiffer_violations(back)) == 4
    for c in (fixtures.single_tet(), fixtures.s3_boundary_4simplex()):
        assert invariant(back, c) == invariant(cm, c)


def test_cli_unknown_fixture_names_are_clean_errors(capsys):
    for argv in (["reps", "--group", "nosuch", "--builtin", "fig8"],
                 ["word", "--cm", "nosuch", "--builtin", "fig8"],
                 ["invariant", "--complex", "nosuch", "--cm", "id_z2"]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: 'nosuch' is neither a readable file nor a fixture name")


def test_cli_validate_complex(tmp_path, capsys):
    assert main(["validate-complex", "single_tet"]) == 0
    bad = tmp_path / "bad.tri"
    bad.write_text("tet 1 2 3 4\ntet 1 2 3 4\n")
    assert main(["validate-complex", str(bad)]) == 1
    assert "duplicate tet" in capsys.readouterr().out


def test_cli_move_round_trip(tmp_path, capsys):
    out_file = tmp_path / "moved.tri"
    assert main(["move", "--complex", "single_tet", "--move", "14",
                 "--tet", "0", "--new-vertex", "9", "--out", str(out_file)]) == 0
    moved = load_complex(out_file)
    assert moved.counts.as_tuple() == (5, 10, 10, 4)
    capsys.readouterr()
    assert main(["move", "--complex", str(out_file), "--move", "41",
                 "--vertex", "9"]) == 0
    back = parse_complex(capsys.readouterr().out)
    assert are_isomorphic(back, fixtures.single_tet())


def test_cli_move_keeps_an_isolated_vertex(tmp_path, capsys):
    pt, moved = tmp_path / "pt.tri", tmp_path / "moved.tri"
    pt.write_text(PT_TRI)
    assert main(["move", "--complex", str(pt), "--move", "14", "--tet", "0",
                 "--out", str(moved)]) == 0
    for path in (pt, moved):
        assert main(["invariant", "--complex", str(path), "--cm", "trivh_z2"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["Z = 1/4 (N=8, a=-5, b=-1)",
                                                       "Z = 1/4 (N=16, a=-6, b=-4)"]


def test_cli_move_refuses_a_new_vertex_it_cannot_use(capsys):
    assert main(["move", "--complex", "two_tet_ball", "--move", "23", "--face", "3",
                 "--new-vertex", "99"]) == 2
    assert capsys.readouterr().err.startswith("error: P23 adds no vertex")


def test_cli_move_needs_exactly_one_target(capsys):
    for targets in ([], ["--tet", "0", "--face", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(["move", "--complex", "single_tet", "--move", "14", *targets])
        assert exc.value.code == 2


def test_cli_move_target_flag_must_name_the_kinds_target(capsys):
    flags = {"14": "tet", "23": "face", "b13": "face", "32": "edge", "b22": "edge",
             "41": "vertex", "b31": "vertex"}
    for move, flag in flags.items():
        for other in ("tet", "face", "edge", "vertex"):
            if other != flag:
                assert main(["move", "--complex", "single_tet", "--move", move,
                             f"--{other}", "0"]) == 2
                kind = move.upper() if move[0] == "b" else "P" + move
                assert capsys.readouterr().err == f"error: {kind} takes --{flag}, not --{other}\n"
    # an unknown kind still reaches apply, which refuses it
    assert main(["move", "--complex", "single_tet", "--move", "99", "--vertex", "0"]) == 1
    assert capsys.readouterr().err == "error: unknown move kind '99'\n"


@pytest.mark.parametrize("command, message", [
    (["word", "--cm", "trivh_s3", "--builtin", "fig8", "--word", "X x"],
     "argument --word: not allowed with argument --builtin"),
    (["word", "--cm", "trivh_s3"], "one of the arguments --word --builtin is required"),
    (["reps", "--group", "s3", "--builtin", "fig8", "--relator", "X x"],
     "argument --relator: not allowed with argument --builtin"),
    (["reps", "--group", "s3"], "one of the arguments --relator --builtin is required"),
])
def test_cli_word_and_reps_need_exactly_one_input(command, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_cli_word_and_reps_agree(capsys):
    assert main(["word", "--cm", "trivh_s3", "--builtin", "k52", "--json"]) == 0
    word_payload = json.loads(capsys.readouterr().out)
    assert main(["reps", "--group", "s3", "--builtin", "k52", "--json"]) == 0
    reps_payload = json.loads(capsys.readouterr().out)
    num = word_payload["value"]["numerator"]
    den = word_payload["value"]["denominator"]
    assert 6 * num == reps_payload["count"] * den


def test_cli_custom_word_matches_builtin(capsys):
    assert main(["word", "--cm", "trivh_z2", "--word", "X y x Y x y X Y x Y D"]) == 0
    a = capsys.readouterr().out
    assert main(["word", "--cm", "trivh_z2", "--builtin", "fig8"]) == 0
    assert a == capsys.readouterr().out


def test_cli_unreadable_file_is_a_clean_error(tmp_path, capsys):
    missing = tmp_path / "nowhere" / "x.cmod"
    assert main(["validate-cm", str(missing)]) == 1
    assert main(["invariant", "--complex", "single_tet", "--cm", str(missing)]) == 1
    # a directory exists but cannot be read as a file
    for argv in (["validate-cm", str(tmp_path)], ["validate-complex", str(tmp_path)],
                 ["invariant", "--complex", str(tmp_path), "--cm", "id_z2"]):
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: "), argv


def test_cli_deterministic_output(capsys):
    for _ in range(2):
        assert main(["invariant", "--complex", "solid_torus", "--cm", "id_z3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == out[1]


def test_cli_fast_engine_budget_is_a_clean_error(capsys):
    # this pair needs 15 search nodes; a --budget below that stops it
    assert main(["invariant", "--complex", "s2_interval_big", "--cm", "conj_z3",
                 "--budget", "10"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_budget_env_must_be_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("CMTOP_BUDGET", "abc")
    assert main(["invariant", "--complex", "single_tet", "--cm", "id_z2"]) == 1
    assert capsys.readouterr().err == "error: CMTOP_BUDGET='abc' is not an integer\n"


def test_cli_budget_default_in_help_is_taken_as_written(monkeypatch, capsys):
    # the default that `invariant --help` prints is a value --budget and
    # CMTOP_BUDGET both accept verbatim
    with pytest.raises(SystemExit) as err:
        main(["invariant", "--help"])
    assert err.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    default = re.search(r"\(default (\S+), env CMTOP_BUDGET\)", help_text).group(1)
    assert default == str(DEFAULT_BUDGET)
    assert main(["invariant", "--complex", "single_tet", "--cm", "id_z2",
                 "--budget", default]) == 0
    assert capsys.readouterr().out.startswith("Z = 1/1 (N=64")
    monkeypatch.setenv("CMTOP_BUDGET", default)
    assert main(["invariant", "--complex", "single_tet", "--cm", "id_z2"]) == 0
    assert capsys.readouterr().out.startswith("Z = 1/1 (N=64")


def test_cli_refuses_a_negative_budget(monkeypatch, capsys):
    for engine in ("fast", "brute"):
        assert main(["invariant", "--complex", "single_tet", "--cm", "id_z2",
                     "--engine", engine, "--budget", "-1"]) == 1
        assert capsys.readouterr().err == "error: budget -1 is negative; it must be 0 or more\n"
    monkeypatch.setenv("CMTOP_BUDGET", "-5")
    assert main(["invariant", "--complex", "single_tet", "--cm", "id_z2"]) == 1
    assert capsys.readouterr().err == "error: budget -5 is negative; it must be 0 or more\n"
    # a budget of 0 still means no search node at all
    assert main(["invariant", "--complex", "single_tet", "--cm", "id_z2", "--budget", "0"]) == 1
    assert "spent its budget of 0 search nodes" in capsys.readouterr().err


def test_cli_selftest_takes_no_budget():
    # the selftest decides no budget; the engines' default applies
    with pytest.raises(SystemExit) as err:
        main(["selftest", "--budget", "5"])
    assert err.value.code == 2


def test_cli_large_complex_runs(tmp_path, capsys, p14_ball):
    # 1206 edges: the search is iterative, so no recursion limit applies
    path = tmp_path / "ball.tri"
    path.write_text(format_complex(p14_ball))
    assert main(["invariant", "--complex", str(path), "--cm", "trivh_z2",
                 "--budget", "100000"]) == 0
    assert capsys.readouterr().out.startswith("Z = 1/2 ")


def test_numpy_is_imported_only_by_the_brute_oracle():
    script = """
import sys
import cmtop
from cmtop import cli, fixtures, statesum
from cmtop.crossed_modules import reduction_cm, validate
from cmtop.groups import build_cyclic

for build in fixtures.COMPLEXES.values():
    build()
for name in fixtures.CM_NAMES:
    assert validate(fixtures.crossed_module(name)) == []
assert validate(fixtures.broken_cm())
statesum.invariant(fixtures.crossed_module("z4_to_z2"), fixtures.single_tet())
# central kernels: Z/3 under a non-trivial action, and Z/4 counted mod 4
statesum.invariant(fixtures.crossed_module("conj_z3"), fixtures.s2_interval_big())
z8_to_z2 = reduction_cm(build_cyclic(8), build_cyclic(2), [y % 2 for y in range(8)])
statesum.invariant(z8_to_z2, fixtures.s3_boundary_4simplex())
assert cli.main(["invariant", "--complex", "solid_torus", "--cm", "id_z3"]) == 0
# the oracle's plan is pure Python: only running it needs numpy
statesum.oracle_plan(fixtures.s3_boundary_4simplex(), 3, 3)
assert "numpy" not in sys.modules, "numpy was imported"
"""
    src = Path(cmtop.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_python_dash_m_runs_the_command_line():
    src = Path(cmtop.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "cmtop", "invariant", "--complex", "single_tet",
                           "--cm", "id_z2", "--json"], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["admissible_count"] == 64
