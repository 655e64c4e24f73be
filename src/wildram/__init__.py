"""Exact arithmetic for wildly ramified covers of the line.

Finite field towers, additive (linearized) polynomials, truncated Witt
vectors, ramification filtrations with their genus formulas, conductor
analysis of one-point covers, split ray class groups with bounded
conductor, and a declaration-driven sieve for big-action candidates.
The `wr` command exposes the same machinery from the shell.
"""

from .additive import (
    AdditiveOp,
    KernelBasis,
    adjoint,
    frobenius_operator,
    linearize_kernel,
    operator_matrix,
    palindromic_adjoint,
    splitting_degree,
    translation_defect,
    translation_test,
    wp_operator,
    xsx_parts,
)
from .bigaction import (
    ActionProfile,
    Report,
    jump_quotient_bound,
    profile_from_levels,
    quad_threshold,
    ratio_check,
    sieve,
)
from .cover import (
    CoverSpec,
    FamilyItem,
    additive_characters,
    base_change,
    character_levels,
    conductor,
    cover_degree,
    cover_genus,
    family_build,
    normalized_witt_rhs,
    splits_everywhere,
    tower_compose,
    upper_filtration,
)
from .errors import WildramError
from .field import (
    FieldCtx,
    FqElem,
    FqPoly,
    embed_elem,
    embed_poly,
    extension_field,
    field_from_json,
    frobenius_trace,
    make_field,
    reduce_pth_powers,
    subfield_root,
)
from .ramify import (
    Filtration,
    hasse_arf_check,
    herbrand_convert,
    hurwitz_genus,
    ladder_filtration,
    quotient_genus,
    tower_genus,
)
from .rayclass import (
    brute_ray_class,
    find_second_jump,
    format_table_csv,
    ray_class_invariants,
    ray_class_table,
)
from .witt import (
    WittVec,
    psi_carry,
    witt2_add,
    witt2_neg,
    witt2_sub,
    witt_ring,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
