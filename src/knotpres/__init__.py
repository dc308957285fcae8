"""Finite presentations, their invariants, and the constructions that make
group-theoretic questions about them concrete: free-group words, Smith
normal form homology, Stallings foldings, coset enumeration with a compiled
kernel, presentation gadgets, and shape recognizers.
"""

from .abelian import BACKEND as _SMITH_BACKEND
from .abelian import (
    AbelianInvariants,
    h1,
    h1_is_infinite_cyclic,
    is_perfect,
    relation_matrix,
    smith_normal_form,
)
from .coset import BACKEND as _COSET_BACKEND
from .coset import (
    DEFAULT_MAX_COSETS,
    CosetTable,
    EnumerationResult,
    enumerate_cosets,
    is_trivial_bounded,
    order,
    weight_one_witness_check,
    word_is_trivial_in_finite,
)
from .foldings import SubgroupGraph, contains, fold, is_basis, rank
from .gadgets import (
    GadgetReport,
    homology_gadget,
    k3_embed,
    k3_minus_k2,
    m_minus_s,
    perfect_embed,
    s_minus_k3,
    weight_gadget,
    whitehead_gadget,
)
from .outcomes import CheckOutcome
from .presentations import (
    IdentitySequence,
    Presentation,
    TietzeBudget,
    TietzeMove,
    deficiency,
    direct_product,
    drop_deficiency,
    free_product,
    hnn_extension,
    is_freely_related,
    parse,
    quotient,
    serialize,
    tietze_neighbors,
)
from .recognize import (
    artin_check,
    enumerate_weight_one,
    is_wirtinger,
    kervaire_report,
    replay_elimination,
    two_knot_check,
    verify_identity,
)
from .words import (
    EMPTY,
    Word,
    commutator,
    conjugacy_witness,
    conjugate,
    cyclic_reduce,
)

# "compiled" only when both compiled kernels loaded
BACKEND = "compiled" if _SMITH_BACKEND == _COSET_BACKEND == "compiled" else "pure"

__version__ = "0.1.0"

__all__ = [
    "AbelianInvariants",
    "BACKEND",
    "CheckOutcome",
    "CosetTable",
    "DEFAULT_MAX_COSETS",
    "EMPTY",
    "EnumerationResult",
    "GadgetReport",
    "IdentitySequence",
    "Presentation",
    "SubgroupGraph",
    "TietzeBudget",
    "TietzeMove",
    "Word",
    "artin_check",
    "commutator",
    "conjugacy_witness",
    "conjugate",
    "contains",
    "cyclic_reduce",
    "deficiency",
    "direct_product",
    "drop_deficiency",
    "enumerate_cosets",
    "enumerate_weight_one",
    "fold",
    "free_product",
    "h1",
    "h1_is_infinite_cyclic",
    "hnn_extension",
    "homology_gadget",
    "is_basis",
    "is_freely_related",
    "is_perfect",
    "is_trivial_bounded",
    "is_wirtinger",
    "k3_embed",
    "k3_minus_k2",
    "kervaire_report",
    "m_minus_s",
    "order",
    "parse",
    "perfect_embed",
    "quotient",
    "rank",
    "relation_matrix",
    "replay_elimination",
    "s_minus_k3",
    "serialize",
    "smith_normal_form",
    "tietze_neighbors",
    "two_knot_check",
    "verify_identity",
    "weight_gadget",
    "weight_one_witness_check",
    "whitehead_gadget",
    "word_is_trivial_in_finite",
    "__version__",
]
