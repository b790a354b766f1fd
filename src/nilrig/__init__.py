"""nilrig: exact-arithmetic workbench for deformation cohomology and
rigidity of nilpotent structure-constant Lie algebras."""

from .exactlin import (
    Q,
    RationalMatrix,
    RowReducer,
    parse_rational,
)
from .liealg import (
    CharSeq,
    LieAlgebra,
    SubspaceChain,
    abelian,
    basis_change,
    center_dim,
    characteristic_sequence,
    jacobi_defect,
    lower_central_series,
    nilindex,
    three_step_defect,
    two_step_defect,
)
from .cohom import (
    Cochain,
    CohomologyReport,
    ComplexKind,
    DeformationCheck,
    MultiMap,
    ch_delta2,
    check_linear_deformation,
    chevalley_and_cr_dims,
    chevalley_delta1,
    chevalley_delta2,
    deformed_bracket,
    derivation_algebra_dim,
    jordan_cocycle_defect,
    jordan_linearized_defect,
    r_delta2,
    space_dims,
)
from .families import (
    CocycleTemplate,
    FamilyParams,
    classification_F731,
    cocycle_space_dim_221,
    deformed_2step,
    g_k3k2k1,
    g_p01,
    g_p1,
    g_p12,
    heisenberg,
    normalized_cocycle_template,
    rigid_2step,
    rigid_3step_7,
)
from .operads import (
    count_commutative_binary_trees,
    dual_dims_2nilp,
    gen_function,
    koszul_check,
    static_dims_table,
    two_nilp_dims,
)

__version__ = "0.1.0"
