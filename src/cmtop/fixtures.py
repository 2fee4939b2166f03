"""Named complexes and crossed modules used by the CLI, tests and demos.

All fixtures are built on demand and cached; each is referenced by at least
one acceptance check.  ``broken_complex`` and ``broken_cm`` are deliberately
invalid and exist to exercise the validators.
"""

from __future__ import annotations

import functools
import itertools

from .complexes import ComplexBuilder, OrderedComplex, from_tet_list, prism_product
from .crossed_modules import (
    CrossedModule,
    conjugation_cm,
    identity_cm,
    reduction_cm,
    trivial_h_cm,
)
from .groups import FiniteGroup, build_cyclic, build_direct_product, build_symmetric


GROUPS = {
    "z2": lambda: build_cyclic(2),
    "z3": lambda: build_cyclic(3),
    "z4": lambda: build_cyclic(4),
    "z6": lambda: build_cyclic(6),
    "s3": lambda: build_symmetric(3),
    "k4": lambda: build_direct_product(build_cyclic(2), build_cyclic(2), "Z2xZ2"),
    "trivial": lambda: build_cyclic(1, "1"),
}


@functools.cache
def group(name: str) -> FiniteGroup:
    if name not in GROUPS:
        raise KeyError(f"unknown group fixture {name!r}; have {sorted(GROUPS)}")
    return GROUPS[name]()


@functools.cache
def single_tet() -> OrderedComplex:
    return from_tet_list([(1, 2, 3, 4)])


@functools.cache
def two_tet_ball() -> OrderedComplex:
    return from_tet_list([(1, 2, 3, 4), (2, 3, 4, 5)])


@functools.cache
def s3_boundary_4simplex() -> OrderedComplex:
    return from_tet_list(itertools.combinations(range(1, 6), 4))


@functools.cache
def solid_torus() -> OrderedComplex:
    """D^2 x S^1: a triangulated prism with identified ends (3,9,9,3)."""
    return prism_product([(1, 2), (1, 3), (2, 3)], [(0, 1, 2)], identify_ends=True)


@functools.cache
def s2_interval() -> OrderedComplex:
    """S^2 x [0,1]: a two-triangle pillow sphere crossed with an interval.

    Simplex counts (6,12,14,6).
    """
    return prism_product([(1, 2), (1, 3), (2, 3)], [(0, 1, 2), (0, 1, 2)])


@functools.cache
def s2_interval_big() -> OrderedComplex:
    """S^2 x [0,1] again, simplicially: the boundary tetrahedron crossed
    with an interval (8,22,28,12).  Cross-check fixture for the small one."""
    edges = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    faces = [(0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5)]
    return prism_product(edges, faces)


@functools.cache
def broken_complex() -> OrderedComplex:
    """Three tets glued around one shared face: builds, but is not a
    pseudo-manifold and validate_manifold_basics reports it."""
    b = ComplexBuilder()
    e = {}
    for i, j in itertools.combinations(range(1, 7), 2):
        e[(i, j)] = b.add_edge(i, j)

    def face(i, j, k):
        return b.add_face(e[(i, j)], e[(i, k)], e[(j, k)])

    f123 = face(1, 2, 3)
    for apex in (4, 5, 6):
        b.add_tet(f123, face(1, 2, apex), face(1, 3, apex), face(2, 3, apex))
    return b.build()


COMPLEXES = {
    "single_tet": single_tet,
    "s3_boundary_4simplex": s3_boundary_4simplex,
    "solid_torus": solid_torus,
    "s2_interval": s2_interval,
    "s2_interval_big": s2_interval_big,
    "two_tet_ball": two_tet_ball,
    "broken_complex": broken_complex,
}


CROSSED_MODULES = {
    "id_z2": lambda: identity_cm(group("z2"), "id_z2"),
    "id_z3": lambda: identity_cm(group("z3"), "id_z3"),
    "id_s3": lambda: identity_cm(group("s3"), "id_s3"),
    "conj_z2z2": lambda: conjugation_cm(group("k4"), "conj_z2z2"),
    "conj_z3": lambda: conjugation_cm(group("z3"), "conj_z3"),
    "trivh_z2": lambda: trivial_h_cm(group("z2"), "trivh_z2"),
    "trivh_z3": lambda: trivial_h_cm(group("z3"), "trivh_z3"),
    "trivh_s3": lambda: trivial_h_cm(group("s3"), "trivh_s3"),
    "z4_to_z2": lambda: reduction_cm(group("z4"), group("z2"), [0, 1, 0, 1], "z4_to_z2"),
}


@functools.cache
def crossed_module(name: str) -> CrossedModule:
    if name not in CROSSED_MODULES:
        raise KeyError(f"unknown crossed-module fixture {name!r}; have {sorted(CROSSED_MODULES)}")
    return CROSSED_MODULES[name]()


CM_NAMES = tuple(CROSSED_MODULES)

# the named fixture set from the registry contract (broken_complex excluded
# from anything that expects a valid manifold)
VALID_COMPLEX_NAMES = ("single_tet", "s3_boundary_4simplex", "solid_torus", "s2_interval")


def broken_cm() -> CrossedModule:
    """identity_cm(Z/3) with one action entry corrupted; validate reports it."""
    cm = identity_cm(group("z3"))
    action = [list(row) for row in cm.action]
    action[1][2] = 0
    return CrossedModule(cm.h, cm.g, cm.boundary, action, "broken_cm")
