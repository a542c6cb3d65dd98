"""Workbench for pomonoid-graded strong monads on finite sets.

Everything is finite and checked by exhaustive evaluation: pomonoids and
their centres, graded writer monads, grade-indexed centre submonads,
duoidal and bimonoidal relaxations, and a small effect language whose
binary nodes get reordering verdicts.
"""

from .centre import (
    CentralCone,
    CentralityViolation,
    CentreError,
    CentreResult,
    GradeNotCentral,
    build_centre_monad,
    central_subset,
    check_central_cone,
    check_centrality_conditions,
    factor_through,
    graded_centre_at,
    is_central,
    restrict_grades,
)
from .effectlang import (
    FORCED,
    FREE,
    GRADE_COMMUTES_ONLY,
    EffectProgram,
    ReorderReport,
    infer_grades,
    parse_program,
    reorder_report,
)
from .finkit import FinFn, FinSet, FunctorExpr, canonical_set
from .graded_monad import (
    GradedMonadMorphism,
    GradedStrongMonad,
    bool_writer_pair,
    build,
    check_all,
    check_commutative,
    check_graded_monad_morphism,
    check_monad_laws,
    check_strength_laws,
    commutation_witness,
    commute_maps,
    commuting_pair,
    identity_monad,
    multi_error_writer,
    registry,
    writer_monad,
)
from .pomonoid import (
    Duoid,
    Pomonoid,
    PomonoidMorphism,
    bool_pomonoid,
    centre_of_pomonoid,
    check_bimonoid,
    check_duoid,
    check_pomonoid_morphism,
    load_duoid,
    load_pomonoid,
    multi_error_pomonoid,
    validate_pomonoid,
)
from .relaxations import (
    CappedLanguage,
    DuoidalGradedMonad,
    bimonoidal_centre_at,
    build_language_writer,
    check_duoidal_gradation,
    derive_monoidal_m,
    language_concat,
    language_duoid,
    language_shuffle,
    parse_language_literal,
)
from .report import LawRecord, Report

__version__ = "0.1.0"
