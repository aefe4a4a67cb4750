"""Line packings from transitive actions of finite groups.

The pipeline: a transitive permutation action determines an association
scheme of orbital matrices; the primitive central idempotents of its
adjacency algebra are projections with few distinct entries; read as
Gram matrices and projectively reduced, they frequently give optimal or
record line packings, certified here against the Welch, orthoplex, and
Levenstein bounds.  An exact Heisenberg-group construction provides an
infinite family of equiangular tight frames.
"""

from .errors import InputError, LinepackError, NumericError, ResourceError
from .frames import (
    GramMatrix,
    PackingReport,
    coherence,
    difference_set_check,
    harmonic_gram,
    is_etf,
    matrix_group_orbit_gram,
    naimark_complement,
    packing_report,
    projective_reduce,
    secondary_bounds,
    welch_bound,
)
from .heisenberg import (
    AbelianGroupSpec,
    GammaTwist,
    heis_etf_gram,
    heis_etf_gram_direct,
    heisenberg_permutation_action,
    make_spec,
)
from .idempotents import (
    IsotypicDecomposition,
    central_primitive_idempotents,
    multiplicity_free,
    projection_from_subset,
    spherical_function_values,
)
from .permgroup import (
    GroupAction,
    Permutation,
    PermutationGroup,
    action_on,
    induced_pair_action,
    is_transitive,
    orbit,
    parse_cycles,
    regular_action,
)
from .scheme import (
    SchurianScheme,
    conjugacy_class_scheme,
    is_commutative,
    scheme_from_action,
    stable_matrix_check,
)
from .symmetry import gram_symmetry_group

__version__ = "0.1.0"
