"""Exact computation for (alternating) multilinear maps over finite
fields: isotropy indices and closed-form extremal numbers, Grassmannian
enumeration and intersection strata, analytic rank, and the box-free
hypergraph construction."""

from .errors import (
    CapExceededError,
    DEFAULT_CAP,
    InvariantViolation,
    MultilinError,
    PreconditionError,
)
from .field import Field, embed, field_make, field_of_order
from .tensor import (
    AltTensor,
    Tensor,
    alt_eval,
    alt_restricts_zero,
    base_change,
    expand,
    random_tensor,
    restrict_zero,
    tensor_eval,
    tensor_from_dict,
)
from .grassmann import (
    Subspace,
    alt_incidence_dim,
    enumerate_grassmannian,
    gauss_binom,
    hom_incidence_dim,
    intersection_dim,
    interpolated_degree,
    stratum_count,
    stratum_dim,
    stratum_profile,
)
from .isotropy import (
    FieldAlphaResult,
    HomIsotropyResult,
    IsotropyResult,
    alpha_alt,
    alpha_alt_by_scan,
    alpha_field_alt,
    alpha_hom,
    count_alt_incidence,
    count_alt_incidence_raw,
    count_hom_incidence,
    count_hom_incidence_raw,
    count_plane_tuples,
    isotropic_plane_tuples,
)
from .formulas import (
    BoxExponent,
    ClosedForm,
    alpha_alt_closed,
    alpha_bound,
    box_exponent,
    fp_number,
    gq_number,
    has_plane_isotropy,
    stratum_inequality_check,
    turan_number,
)
from .rank import RankReport, analytic_rank, zero_count
from .boxfree import (
    BoxCertificate,
    Hypergraph,
    PipelineResult,
    box_pipeline,
    build_hypergraph,
    delete_and_verify,
    edge_lower_bound,
    freeness_check,
    hypergraph_from_text,
    pigeonhole_search,
    plane_tuple_bound,
    projective_points,
)

__version__ = "0.1.0"
