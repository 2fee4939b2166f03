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

Each text is lexed once into numbered token lines, read by position.  One
table reader serves group files and inline group blocks: a positive order,
each row at its own line, the row count, then the group axioms.  An inline
table is the next <order> lines; ``action`` takes the rest of the file.

Loaders validate everything a definition requires and raise FormatError
with the line number: the group axioms, and the crossed-module axioms of
``crossed_modules.validate``.  The Peiffer identity is not one of them;
``cmtop validate-cm`` checks it.
"""

from __future__ import annotations

import io
import itertools
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


def _rows_text(table) -> str:
    return "".join(" ".join(map(str, row)) + "\n" for row in table)


def _order(source: str, lineno: int, token: str) -> int:
    if not token.isdecimal() or int(token) == 0:
        _fail(source, lineno, f"order {token!r} is not a positive integer")
    return int(token)


def _table(source: str, header: int, name: str, order: int,
           rows: list[tuple[int, list[str]]], where: str) -> FiniteGroup:
    """The group whose table is ``rows``, (lineno, tokens) pairs below the
    header at line ``header``: each row is checked at its own line, the
    row count at the header's, the axioms by ``FiniteGroup.from_table``."""
    table = []
    for lineno, tokens in rows:
        try:
            table.append([int(t) for t in tokens])
        except ValueError:
            _fail(source, lineno, f"non-integer table entry in {tokens}")
        if len(tokens) != order:
            _fail(source, lineno, f"expected {order} entries, got {len(tokens)}")
    if len(table) != order:
        _fail(source, header, f"expected {order} table rows, got {len(table)}")
    try:
        return FiniteGroup.from_table(table, name)
    except GroupTableError as exc:
        raise FormatError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

def parse_group(text: str, source: str = "<group>") -> FiniteGroup:
    lines = list(_lines(text))
    if not lines:
        _fail(source, 0, "empty group file")
    header, tokens = lines[0]
    if tokens[0] != "group" or len(tokens) != 3:
        _fail(source, header, "expected header 'group <name> <order>'")
    return _table(source, header, tokens[1], _order(source, header, tokens[2]),
                  lines[1:], source)


def load_group(path: str | Path) -> FiniteGroup:
    p = Path(path)
    return parse_group(p.read_text(), str(p))


def format_group(g: FiniteGroup) -> str:
    return f"group {g.name} {g.order}\n" + _rows_text(g.table)


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
    lines = _lines(text)
    for lineno, tokens in lines:
        if name is None:
            if tokens[0] != "cmod" or len(tokens) != 2:
                _fail(source, lineno, "expected header 'cmod <name>'")
            name = tokens[1]
        elif tokens[0] in ("group_h", "group_g"):
            key = tokens[0][-1]
            if len(tokens) == 3 and tokens[1] == "file":
                try:
                    groups[key] = load_group(Path(base_dir) / tokens[2])
                except OSError as exc:
                    _fail(source, lineno, f"cannot read {tokens[2]!r}: {exc.strerror}")
            elif len(tokens) == 4 and tokens[1] == "inline":
                # the table is the next <order> lines, unless a directive
                # comes first
                order = _order(source, lineno, tokens[3])
                rows = list(itertools.islice(lines, order))
                read = next((k for k, (_, row) in enumerate(rows) if row[0] in _DIRECTIVES),
                            len(rows))
                if read < order:
                    _fail(source, lineno, f"group_{key} table ends after {read} of {order} rows")
                groups[key] = _table(source, lineno, tokens[2], order, rows,
                                     f"{source}:{lineno}: group_{key}")
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
            if len(tokens) != 1:
                _fail(source, lineno, "expected 'action' alone, with its rows on the lines below")
            action_line = lineno
            for n, row in lines:
                try:
                    action_rows.append((n, [int(t) for t in row]))
                except ValueError:
                    _fail(source, n, f"non-integer action entry in {row}")
        else:
            _fail(source, lineno, f"unexpected directive {tokens[0]!r}")
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
    text = f"cmod {cm.name}\n"
    for key, grp in (("h", cm.h), ("g", cm.g)):
        text += f"group_{key} inline {grp.name} {grp.order}\n" + _rows_text(grp.table)
    delta = " ".join(map(str, cm.boundary.map))
    return text + f"delta {delta}\naction\n" + _rows_text(cm.action)


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
        return _parse_delta_mode(parsed, source)
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


def _parse_delta_mode(parsed: list[tuple[int, list[str]]], source: str) -> OrderedComplex:
    b = ComplexBuilder()
    edge_ids: dict[int, int] = {}
    face_ids: dict[int, int] = {}

    def resolve(table, key, lineno, kind):
        if key not in table:
            _fail(source, lineno, f"unknown {kind} id {key}")
        return table[key]

    for lineno, tokens in parsed:
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
