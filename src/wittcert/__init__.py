"""wittcert: an exact engine for quadratic-form theory over Q and its
multiquadratic extensions.

Square classes, closed-form local Hilbert symbols over every completion of
degree up to 4, Hasse-Minkowski isotropy, Witt decomposition,
Pfister forms, quaternionic symplectic involution algebras, and searchable,
independently verifiable hyperbolicity/norm certificates for their
similarity-factor groups.
"""

from .arith import DomainError, Rat, padic_valuation, prime_support, squarefree_rep
from .localfields import (
    REAL,
    LocalField,
    LocalFormClass,
    Place,
    hilbert_symbol,
    local_aniso_dim,
    local_square_class,
)
from .forms import (
    HYPERBOLIC_PLANE,
    InvariantViolation,
    QForm,
    WittClassQ,
    disc,
    hasse_invariant,
    in_G,
    in_In,
    is_hyperbolic,
    is_isometric,
    is_isotropic,
    isotropy_obstruction,
    orth_sum,
    pfister,
    pfister_slots,
    qform,
    represents,
    scale,
    signature,
    tensor,
    witt_decompose,
    witt_equivalent,
    witt_index,
)
from .extensions import (
    ExtensionTower,
    PlaceEvidence,
    TRIVIAL_TOWER,
    aniso_dim_over,
    hyperbolicity_evidence,
    is_hyperbolic_over,
    make_tower,
    norm_member,
    norm_member_tower,
    witt_index_over,
)
from .involutions import (
    InvolutionAlgebra,
    QuaternionAlg,
    degree_index,
    involution_discriminant,
    is_split,
    norm_form,
    quaternion,
    reduce_to_form,
)
from .similitude import (
    DEFAULT_BOUND,
    HypCertificate,
    MultiplierResult,
    PfisterDecomposition,
    PipelineReport,
    lemma24_certificate,
    lemma_beta_search,
    thm4_decompose,
    thm6_pipeline,
    verify_certificate,
)

__version__ = "0.1.0"
