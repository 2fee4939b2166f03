"""cmtop: exact crossed-module state-sum invariants of triangulated
compact 3-manifolds with boundary."""

from .complexes import (
    Boundary2Complex,
    ComplexBuilder,
    ComplexStructureError,
    OrderedComplex,
    SimplexCounts,
    are_isomorphic,
    boundary,
    disjoint_union,
    from_tet_list,
    prism_product,
    relabel,
    validate_manifold_basics,
)
from .crossed_modules import (
    CrossedModule,
    Violation,
    conjugation_cm,
    identity_cm,
    make_crossed_module,
    peiffer_violations,
    reduction_cm,
    trivial_h_cm,
    validate,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    GroupTableError,
    build_aut_group,
    build_cyclic,
    build_direct_product,
    build_symmetric,
    build_trivial,
    kernel,
)
from .knot_words import (
    BUILTIN_WORDS,
    FIG8,
    K52,
    T52,
    GroupWord,
    count_reps,
    evaluate_word,
    verify_41_system,
    word_state_sum,
)
from .moves import (
    MOVE_DELTAS,
    MoveDescriptor,
    MoveError,
    apply,
    enumerate_applicable,
)
from .statesum import (
    BudgetExceededError,
    Coloring,
    InvariantValue,
    brute_force_invariant,
    consistency_check_3tet,
    face_holonomy,
    invariant,
    is_admissible,
    tet_obstruction,
)

__version__ = "0.1.0"
