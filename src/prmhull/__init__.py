"""Plane projective/affine Reed-Muller codes, their Euclidean and Hermitian
hulls via closed-form polynomial bases with an independent linear-algebra
oracle, and the entanglement-assisted quantum code parameters they yield."""

from .codes import DEFAULT_WEIGHT_CAP, EnumerationBudgetError, LinearCode
from .euclidean_hull import (
    DualNotPrmError,
    EuclidHullBasis,
    q_polynomial,
    relative_hull_basis,
    relative_hull_dim,
    self_hull_basis,
    self_hull_dim,
    verify_relative_hull,
    verify_relative_hulls,
)
from .fields import FieldContext, field_for_size, field_make
from .hermitian_hull import (
    HermHullBasis,
    HermHullDim,
    affine_hermitian_hull_dim,
    affine_hull_monomials,
    hermitian_hull_basis,
    hermitian_hull_dim,
    set_t,
    set_u,
    set_v,
    set_w,
    t_size,
    u_size,
    verify_hermitian_hull,
)
from .points import PointSet, affine_points, projective_points
from .polynomials import (
    Monomial,
    SparsePolynomial,
    basis_ad,
    format_polynomial,
    overline,
    parse_polynomial,
    reduce_mod_ip2,
    standard_basis_p2,
)
from .prm import (
    CodeParams,
    prm_code,
    prm_dual_description,
    prm_params,
    rm_code,
    rm_dual_degree,
    rm_params,
)
from .quantum import (
    EaqeccParams,
    asym_from_codes,
    herm_eaqecc_prm,
    herm_eaqecc_rm,
    prm_asym_eaqecc,
    prm_symmetric_best,
    purity_probe,
)

__version__ = "0.1.0"
