"""Matrix-based computation of extensions for finite argumentation frameworks.

The library represents an argumentation framework as a Boolean attack
matrix. :mod:`afmat.semantics` computes the extensions of the standard
semantics (conflict-free, stable, admissible, complete, preferred,
grounded, ideal, semi-stable, eager) with :func:`extensions` and answers
the acceptance questions about them with :func:`query`. A labelling
search finds the stable and complete extensions. A depth-first walk
over per-argument compatibility sets gives the conflict-free sets, and
one with a look-ahead the admissible sets; preferred, ideal, semi-stable
and eager select from these (semi-stable and eager take the stable
extensions when there are any). Grounded is
the complete search's first labelling, the least fixpoint of the
defence function. A deliberately naive brute-force reference
implementation is included for differential verification, plus TGF/APX
file support, a reproducible random generator and a command-line front
end (``afmat solve | gen | verify``).
"""

from .core import (
    ArgSet,
    Attack,
    AttackMatrix,
    Framework,
    Grid,
    InternalInvariantError,
    MalformedPermutationError,
    NormForm,
    PreconditionError,
    SubBlocks,
    admissible_on_norm_form,
    argset,
    build_matrix,
    check_permutation,
    complete_on_norm_form,
    dual_interchange,
    extract_subblocks,
    natural_matrix,
    relabel,
    stable_on_norm_form,
    to_norm_form,
)
from .formats import NameMap, ParseError, format_apx, format_tgf, parse_apx, parse_tgf
from .generator import GeneratorConfig, generate
from .oracle import (
    ORACLE_BOUND,
    OracleBoundError,
    oracle_defends,
    oracle_family,
    oracle_grounded_fixpoint,
)
from .semantics import (
    ExtensionFamily,
    Semantics,
    basic_sets,
    extensions,
    is_admissible,
    is_complete,
    is_conflict_free,
    is_stable,
    iter_conflict_free,
    query,
    range_of,
)

__version__ = "0.1.0"

__all__ = [
    "ArgSet",
    "Attack",
    "AttackMatrix",
    "ExtensionFamily",
    "Framework",
    "GeneratorConfig",
    "Grid",
    "InternalInvariantError",
    "MalformedPermutationError",
    "NameMap",
    "NormForm",
    "ORACLE_BOUND",
    "OracleBoundError",
    "ParseError",
    "PreconditionError",
    "Semantics",
    "SubBlocks",
    "admissible_on_norm_form",
    "argset",
    "basic_sets",
    "build_matrix",
    "check_permutation",
    "complete_on_norm_form",
    "dual_interchange",
    "extensions",
    "extract_subblocks",
    "format_apx",
    "format_tgf",
    "generate",
    "is_admissible",
    "is_complete",
    "is_conflict_free",
    "is_stable",
    "iter_conflict_free",
    "natural_matrix",
    "oracle_defends",
    "oracle_family",
    "oracle_grounded_fixpoint",
    "parse_apx",
    "parse_tgf",
    "query",
    "range_of",
    "relabel",
    "stable_on_norm_form",
    "to_norm_form",
]
