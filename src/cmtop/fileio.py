"""Text file formats for groups, crossed modules and complexes.

Group file (whitespace separated, '#' comments):

    group <name> <order>
    <order rows of <order> products, row a = a*b for b = 0..order-1>

Crossed module file:

    cmod <name>
    group_h file <relative-path>     | group_h inline <name> <order>
                                     |   <order table rows>
    group_g file <relative-path>     | group_g inline <name> <order> ...
    delta  <|H| images in G>
    action
    <|G| rows of |H| entries>

Complex file, simplicial mode: one `tet v0 v1 v2 v3` line per tet.
Delta mode: `vertex <id>` (optional, for isolated vertices),
`edge <id> <tail> <head>`, `face <id> <e01> <e02> <e12>`,
`tet <id> <f012> <f013> <f023> <f123>`.  Entity ids are arbitrary
integers local to the file; in-memory indices follow declaration order.
Vertex ids are nonnegative integers, total order = numeric order.
``format_complex`` writes simplicial mode only when the tets determine the
complex (``complexes.determined_by_tets``), so stray simplices survive.

Loaders validate everything a definition requires and raise FormatError
with the line number: the group axioms, and the crossed-module axioms of
``crossed_modules.validate``.  The Peiffer identity is not one of them;
``cmtop validate-cm`` checks it.
"""

from __future__ import annotations

import io
from pathlib import Path

from .complexes import (ComplexBuilder, ComplexStructureError, OrderedComplex,
                        determined_by_tets, from_tet_list)
from .crossed_modules import CrossedModule, make_crossed_module
from .groups import FiniteGroup, GroupTableError


class FormatError(ValueError):
    """Malformed fixture file; message carries file and line."""


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _fail(source: str, lineno: int, msg: str):
    raise FormatError(f"{source}:{lineno}: {msg}")


def _row(source: str, lineno: int, tokens: list[str], order: int) -> list[int]:
    try:
        row = [int(t) for t in tokens]
    except ValueError:
        _fail(source, lineno, f"non-integer table entry in {tokens}")
    if len(row) != order:
        _fail(source, lineno, f"expected {order} entries, got {len(row)}")
    return row


def _group(rows: list[list[int]], name: str, where: str) -> FiniteGroup:
    try:
        return FiniteGroup.from_table(rows, name)
    except GroupTableError as exc:
        raise FormatError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

def parse_group(text: str, source: str = "<group>") -> FiniteGroup:
    rows: list[list[int]] = []
    name = None
    order = None
    header = 0
    for lineno, tokens in _lines(text):
        if name is None:
            if tokens[0] != "group" or len(tokens) != 3:
                _fail(source, lineno, "expected header 'group <name> <order>'")
            name, header = tokens[1], lineno
            try:
                order = int(tokens[2])
            except ValueError:
                _fail(source, lineno, f"order {tokens[2]!r} is not an integer")
            continue
        rows.append(_row(source, lineno, tokens, order))
    if name is None:
        _fail(source, 0, "empty group file")
    if len(rows) != order:
        _fail(source, header, f"expected {order} table rows, got {len(rows)}")
    return _group(rows, name, source)


def load_group(path: str | Path) -> FiniteGroup:
    p = Path(path)
    return parse_group(p.read_text(), str(p))


def format_group(g: FiniteGroup) -> str:
    out = io.StringIO()
    out.write(f"group {g.name} {g.order}\n")
    for a in range(g.order):
        out.write(" ".join(str(int(x)) for x in g.table[a]) + "\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# crossed modules
# ---------------------------------------------------------------------------

_DIRECTIVES = ("cmod", "group_h", "group_g", "delta", "action")


def parse_crossed_module(text: str, source: str = "<cmod>",
                         base_dir: str | Path = ".") -> CrossedModule:
    """Parse and validate; axiom violations are reported with witnesses."""
    name = None
    groups: dict[str, FiniteGroup] = {}
    delta: list[int] | None = None
    delta_line = action_line = 0
    action_rows: list[tuple[int, list[int]]] = []
    # None | ("inline", key, order, [(lineno, tokens)], name, lineno) | "action"
    mode = None
    for lineno, tokens in _lines(text):
        if isinstance(mode, tuple):
            if tokens[0] in _DIRECTIVES:
                break  # the table is cut short
            key, order, rows, gname, header = mode[1:]
            rows.append((lineno, tokens))
            if len(rows) == order:
                table = [_row(source, n, row, order) for n, row in rows]
                groups[key] = _group(table, gname, f"{source}:{header}: group_{key}")
                mode = None
            continue
        if mode == "action":
            try:
                action_rows.append((lineno, [int(t) for t in tokens]))
            except ValueError:
                _fail(source, lineno, f"non-integer action entry in {tokens}")
            continue
        if name is None:
            if tokens[0] != "cmod" or len(tokens) != 2:
                _fail(source, lineno, "expected header 'cmod <name>'")
            name = tokens[1]
            continue
        if tokens[0] in ("group_h", "group_g"):
            key = tokens[0][-1]
            if len(tokens) >= 3 and tokens[1] == "file":
                try:
                    groups[key] = load_group(Path(base_dir) / tokens[2])
                except OSError as exc:
                    _fail(source, lineno, f"cannot read {tokens[2]!r}: {exc.strerror}")
            elif len(tokens) >= 4 and tokens[1] == "inline":
                if not tokens[3].isdecimal() or int(tokens[3]) == 0:
                    _fail(source, lineno, f"order {tokens[3]!r} is not a positive integer")
                mode = ("inline", key, int(tokens[3]), [], tokens[2], lineno)
            else:
                _fail(source, lineno, f"expected '{tokens[0]} file <path>' or "
                                      f"'{tokens[0]} inline <name> <order>'")
        elif tokens[0] == "delta":
            delta_line = lineno
            try:
                delta = [int(t) for t in tokens[1:]]
            except ValueError:
                _fail(source, lineno, "non-integer delta image")
        elif tokens[0] == "action":
            mode, action_line = "action", lineno
        else:
            _fail(source, lineno, f"unexpected directive {tokens[0]!r}")
    if isinstance(mode, tuple):
        _fail(source, mode[5], f"group_{mode[1]} table ends after {len(mode[3])} "
                               f"of {mode[2]} rows")
    for key in ("h", "g"):
        if key not in groups:
            _fail(source, 0, f"missing group_{key}")
    if delta is None:
        _fail(source, 0, "missing delta line")
    h, g = groups["h"], groups["g"]
    if len(delta) != h.order:
        _fail(source, delta_line, f"delta has {len(delta)} images, |H| = {h.order}")
    # a bad or surplus row is reported at its own line, missing rows at
    # the action line
    shape = f"action block must be {g.order} rows of {h.order} entries"
    for n, (lineno, row) in enumerate(action_rows):
        if n >= g.order or len(row) != h.order:
            _fail(source, lineno, shape)
    if len(action_rows) < g.order:
        _fail(source, action_line, shape)
    try:
        return make_crossed_module(h, g, delta, [row for _, row in action_rows], name)
    except ValueError as exc:
        raise FormatError(f"{source}: {exc}") from exc


def load_crossed_module(path: str | Path) -> CrossedModule:
    p = Path(path)
    return parse_crossed_module(p.read_text(), str(p), p.parent)


def format_crossed_module(cm: CrossedModule) -> str:
    out = io.StringIO()
    out.write(f"cmod {cm.name}\n")
    for key, grp in (("h", cm.h), ("g", cm.g)):
        out.write(f"group_{key} inline {grp.name} {grp.order}\n")
        for a in range(grp.order):
            out.write(" ".join(str(int(x)) for x in grp.table[a]) + "\n")
    out.write("delta " + " ".join(str(x) for x in cm.boundary.map) + "\n")
    out.write("action\n")
    for x in range(cm.g.order):
        out.write(" ".join(str(int(y)) for y in cm.action[x]) + "\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------

def parse_complex(text: str, source: str = "<complex>") -> OrderedComplex:
    parsed = list(_lines(text))
    if not parsed:
        _fail(source, 0, "empty complex file")
    for lineno, tokens in parsed:
        if tokens[0] not in ("tet", "vertex", "edge", "face"):
            _fail(source, lineno, f"unexpected line {' '.join(tokens)!r}")
    # delta mode announces itself with vertex/edge/face lines or 6-token tets
    if any(t[0] != "tet" or len(t) == 6 for _, t in parsed):
        return _parse_delta_mode(text, source)
    tets = []
    for lineno, tokens in parsed:
        if len(tokens) != 5:
            _fail(source, lineno, "simplicial tet line needs 4 vertex ids")
        try:
            tets.append(tuple(int(t) for t in tokens[1:]))
        except ValueError:
            _fail(source, lineno, f"non-integer vertex id in {tokens}")
    try:
        return from_tet_list(tets)
    except ValueError as exc:
        raise FormatError(f"{source}: {exc}") from exc


def _parse_delta_mode(text: str, source: str) -> OrderedComplex:
    b = ComplexBuilder()
    edge_ids: dict[int, int] = {}
    face_ids: dict[int, int] = {}

    def resolve(table, key, lineno, kind):
        if key not in table:
            _fail(source, lineno, f"unknown {kind} id {key}")
        return table[key]

    for lineno, tokens in _lines(text):
        kind = tokens[0]
        try:
            ids = [int(t) for t in tokens[1:]]
        except ValueError:
            _fail(source, lineno, f"non-integer id in {tokens}")
        try:
            if kind == "vertex" and len(ids) == 1:
                b.add_vertex(ids[0])
            elif kind == "edge" and len(ids) == 3:
                if ids[0] in edge_ids:
                    _fail(source, lineno, f"duplicate edge id {ids[0]}")
                edge_ids[ids[0]] = b.add_edge(ids[1], ids[2])
            elif kind == "face" and len(ids) == 4:
                if ids[0] in face_ids:
                    _fail(source, lineno, f"duplicate face id {ids[0]}")
                face_ids[ids[0]] = b.add_face(
                    *(resolve(edge_ids, e, lineno, "edge") for e in ids[1:]))
            elif kind == "tet" and len(ids) == 5:
                b.add_tet(*(resolve(face_ids, f, lineno, "face") for f in ids[1:]))
            else:
                _fail(source, lineno,
                      f"malformed {kind} line (got {len(ids)} ids)")
        except ComplexStructureError as exc:
            raise FormatError(f"{source}:{lineno}: {exc}") from exc
    return b.build()


def load_complex(path: str | Path) -> OrderedComplex:
    p = Path(path)
    return parse_complex(p.read_text(), str(p))


def format_complex(c: OrderedComplex) -> str:
    out = io.StringIO()
    if determined_by_tets(c):
        for locs in c.tet_locals:
            out.write("tet " + " ".join(str(v) for v in locs) + "\n")
        return out.getvalue()
    for v in c.vertices:
        out.write(f"vertex {v}\n")
    for i, (t, h) in enumerate(c.edges):
        out.write(f"edge {i} {t} {h}\n")
    for i, (e01, e02, e12) in enumerate(c.faces):
        out.write(f"face {i} {e01} {e02} {e12}\n")
    for i, slots in enumerate(c.tets):
        out.write(f"tet {i} " + " ".join(str(f) for f in slots) + "\n")
    return out.getvalue()
