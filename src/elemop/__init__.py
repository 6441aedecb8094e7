"""Exact toolkit for elementary operators on matrix algebras.

Everything runs over the Gaussian rationals with no floating point, so
all certificates are exact algebraic identities that can be re-checked
independently.
"""

__version__ = "0.1.0"

from .errors import (
    BasisError,
    ContractError,
    DimensionError,
    DomainError,
    ElemopError,
    FormatError,
    InconsistencyError,
    PreconditionError,
    RankError,
    ShapeError,
)
from .exact import (
    Matrix,
    Scalar,
    is_nilpotent_matrix,
    kernel_basis,
    random_matrix,
    rank,
    trace,
)
from .spaces import (
    LocalDimResult,
    OperatorSpace,
    RankOne,
    evaluate,
    hat_space,
    is_locally_linearly_dependent,
    local_dimension,
    rank_one_factor,
    reduce_basis,
    simultaneous_separating_vector,
)
from .operators import (
    ElementaryOperator,
    GramMatrix,
    adjoint_flip,
    apply,
    change_left_basis,
    compose_is_zero,
    gram,
    left_space,
    local_matrix,
    minimal_length,
    right_space,
    similarity_transform,
    sum_bi_ai,
    v_space,
)
from .certificate import (
    ClassificationVerdict,
    FormParameters,
    verify_certificate,
)
from .nilpotency import (
    NilpotentSpaceReport,
    SpecialForm,
    all_x_nilpotent,
    block_strict_triangularize,
    classify_nilpotent_2dim_m3,
    gerstenhaber_check,
    strict_triangularize,
    subspace_all_nilpotent,
)
from .classify import (
    classify,
    construct_triangular_rep,
    dim_phi_x_squared_range,
    generate,
    necessary_trace_condition,
    structure_dimv1,
)
