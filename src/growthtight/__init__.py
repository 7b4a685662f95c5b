"""Growth exponents of free groups, L^p products, and their quotients."""
import types

__version__ = "0.1.0"

from .automata import (
    CountingAutomaton,
    CountSequence,
    Language,
    avoid_factors,
    avoid_sweep,
    count_lengths,
    once_each,
    perron_root,
    perron_roots,
)
from .errors import (
    AlphabetMismatchError,
    GrowthtightError,
    InternalInvariantError,
    InvalidInputError,
    ResourceLimitError,
)
from .growth import (
    NEG_INF,
    GrowthBracket,
    bracket_gap,
    check_subadditivity,
    divergence_at_critical,
    fekete_bracket,
    fekete_upper_profile,
    regression_bracket,
    strict_gap_check,
)
from .products import (
    LpProductSpec,
    ProductPoint,
    duality_exponent,
    generating_set_correspondence,
    lp_distance,
    lp_length,
    parse_exponent,
    product_ball_counts,
    verify_duality,
)
from .quotients import (
    Abelianization,
    FactorKernel,
    HomToIntegers,
    check_prop_minimal,
    check_section_structure,
    minimal_section,
    quotient_ball_counts,
    tightness_verdict,
)
from .tree import (
    Axis,
    check_projection_axioms,
    find_long_projections,
    ghat_language,
    ghat_membership_exact,
    lemma31_bound_check,
    lemma31_sweep,
    project_axis_onto_axis,
    project_to_axis,
    random_axis_family,
    same_line,
    shorten,
    shorten_sweep,
    shorten_threshold,
    walk_ghat_ball,
)
from .words import (
    Alphabet,
    ReducedWord,
    cyclic_reduce,
    enumerate_ball,
    enumerate_sphere,
    format_word,
    free_reduce,
    parse_word,
    primitive_root,
    sphere_size,
)

# every public name imported above, and nothing else: the submodules that
# the imports bind are left out
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
