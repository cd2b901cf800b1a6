"""Invariant word norms on finite groups and lamplighter-type shift extensions.

Subpackages by role: ``groups`` (permutation groups), ``norms`` (exact norm
tables, validators, transforms), ``props`` (the S1-S4 base-group statements),
``lamp`` (shift-extension elements), ``commutators`` (witnessed torsion
factorizations), ``gznorm`` (the closed-form norm, geodesics, truncation
maps), ``oracle`` (dense-coded BFS ground truth), ``weightfn`` (three-valued
comparison tables and axiom schemas), ``acceptance`` (the release gate),
``cli`` (command line).
"""

from .groups import (
    FiniteGroup,
    Perm,
    builtin_group,
    compose,
    conjugacy_classes,
    generate_group,
    parse_group_spec,
    perm_from_cycles,
)
from .lamp import LampElem, in_Sbar, in_single_support, in_Tminus, in_Tplus
from .norms import (
    NormTable,
    ValidationReport,
    ball,
    conjugacy_closure,
    integer_round,
    plus_epsilon,
    profinite_norm,
    quotient_norm,
    restrict_norm,
    validate_invariance,
    validate_norm,
    validate_pseudo_norm,
    word_norm_bfs,
)
from .props import check_all, check_S1, check_S2, check_S3, check_S4, xi
from .commutators import (
    CommWitness,
    build_2_commutator,
    build_pm1_decomposition,
    build_pm_commutator,
    is_pm_commutator,
    transport,
    verify_witness,
)
from .gznorm import (
    Geodesic,
    check_geodesic,
    geodesic,
    norm_gz,
    norm_truncated,
    phi,
    verify_KQ_almost_hom,
)
from .oracle import BfsResult, TruncatedGroup, bfs_norms, bounded_norm, enumerate_Sbar
from .weightfn import WeightFn, check_axioms, from_norm, w_of

__version__ = "0.1.0"
